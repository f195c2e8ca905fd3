// Measurement plumbing shared by the three workloads: wall-clock and
// CPU-time layer timers with optional in-memory span tracing, order
// statistics, the host-speed reference kernel, the correctness ledger
// behind `attempted` / `failed`, the deterministic count ledger, and the
// metric table the driver prints.
//
// Every timer wraps a call into one library layer from the outside --
// the library itself is not instrumented. With tracing off a timer
// costs four clock reads and two accumulator adds; with tracing on it
// also appends a span (name, start, end, parent, group id) to an
// in-memory vector that is written out when the run ends.
#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

// Linear-interpolated quantile (q in [0, 1]) of a sample; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// CPU time of this process (all threads) and of the calling thread, in
// seconds. Unlike wall time they leave out every wait: for a pool
// worker to be woken, for a core, for the hypervisor to run the vCPU.
double process_cpu_seconds();
double thread_cpu_seconds();

// Host time and call count accumulated at one layer boundary.
struct LayerTime {
  double seconds = 0;      // wall
  double cpu_seconds = 0;  // process CPU, all threads
  uint64_t calls = 0;
};

// What one timed call took.
struct Elapsed {
  double wall = 0;
  double cpu = 0;  // process CPU, all threads
};

struct Span {
  uint32_t name = 0;    // index into the recorder's interned names
  int64_t parent = -1;  // index of the enclosing span, -1 at top level
  uint64_t group = 0;   // round / wave / device id the span belongs to
  int64_t start_ns = 0;  // since the recorder's epoch
  int64_t end_ns = 0;
};

class Recorder {
 public:
  explicit Recorder(bool trace);

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool tracing() const { return trace_; }

  // One call into `layer`, open from construction to destruction: its
  // wall and CPU time are added to layer(layer) and, when tracing, a
  // span is recorded whose parent is the innermost scope still open on this
  // (the driver) thread.
  class Scope {
   public:
    Scope(Recorder& recorder, const char* layer, uint64_t group);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int64_t index() const { return index_; }  // -1 when not tracing
    Clock::time_point start() const { return start_; }
    double cpu_start() const { return cpu_start_; }

   private:
    Recorder& recorder_;
    const char* layer_;
    int64_t index_;
    Clock::time_point start_;
    double cpu_start_;
  };

  // Run fn() inside a Scope; returns what it took.
  template <class Fn>
  Elapsed time(const char* layer, uint64_t group, Fn&& fn) {
    Clock::time_point start;
    double cpu_start = 0;
    {
      Scope scope(*this, layer, group);
      start = scope.start();
      cpu_start = scope.cpu_start();
      fn();
    }
    return {seconds_since(start), process_cpu_seconds() - cpu_start};
  }

  // Record a call whose boundaries were observed elsewhere (the rollout
  // wave phases, reconstructed from the bench's probe and tamper
  // callbacks) as a child of span `parent` (-1: top level). Adds its
  // wall time to layer(layer) like a Scope does (no CPU time).
  void add(const char* layer, uint64_t group, Clock::time_point start,
           Clock::time_point end, int64_t parent);

  // Accumulated time per layer within the timed phase; setup_layer()
  // holds what was accumulated outside it (the set-ups before and
  // after), so per-layer rates divide timed-phase time by timed-phase
  // counts only.
  const LayerTime& layer(const std::string& name) const;
  double seconds(const std::string& name) const { return layer(name).seconds; }
  const LayerTime& setup_layer(const std::string& name) const;

  // The timed phase's wall-clock interval; spans outside it are not
  // part of the attribution.
  void begin_timed_phase() {
    timed_ = true;
    timed_start_ = Clock::now();
  }
  void end_timed_phase() {
    timed_end_ = Clock::now();
    timed_ = false;
  }
  double timed_seconds() const {
    return seconds_between(timed_start_, timed_end_);
  }

  // Share of the timed phase that no top-level span covers.
  double unattributed_share() const;
  // Self time per span name within the timed phase: duration minus
  // what its children cover.
  std::map<std::string, double> self_seconds() const;
  size_t span_count() const { return spans_.size(); }

  // Host cost of recording one span, measured on a scratch recorder.
  static double span_cost_seconds();

  // One line per span: index, parent, group, name, start_ns, end_ns.
  bool write(const std::string& path) const;

 private:
  void accumulate(const char* layer, Clock::time_point start,
                  Clock::time_point end, double cpu_seconds);
  uint32_t intern(const char* layer);
  int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  bool trace_;
  bool timed_ = false;  // accumulate into layers_, else setup_layers_
  Clock::time_point epoch_;
  Clock::time_point timed_start_;
  Clock::time_point timed_end_;
  std::map<std::string, LayerTime> layers_;
  std::map<std::string, LayerTime> setup_layers_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t> name_ids_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;  // stack of open span indices
};

// Correctness gates: every checked operation is attempted; a failed
// one is counted and its first few descriptions are kept for the log.
class Gates {
 public:
  // Returns ok, so callers can chain on it.
  bool check(bool ok, const std::string& what);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// Simulated, deterministic counts: the same seed must reproduce every
// one of them exactly. The digest is what run.py --self-check compares
// across two processes.
class Counts {
 public:
  void add(const std::string& name, uint64_t value) { values_[name] += value; }
  void merge(const Counts& other) {
    for (const auto& [name, value] : other.values_) values_[name] += value;
  }
  uint64_t get(const std::string& name) const;
  bool operator==(const Counts&) const = default;
  uint64_t digest() const;  // FNV-1a over "name=value;" in name order
  // "name: a vs b" for the first count that differs ("" when equal).
  std::string first_difference(const Counts& other) const;

 private:
  std::map<std::string, uint64_t> values_;
};

struct Metric {
  double value = 0;
  std::string unit;
};

// name -> value + unit, printed as the final JSON line's "metrics".
using MetricTable = std::map<std::string, Metric>;

// Peak resident set of this process, from getrusage.
double peak_rss_mb();

// Host-speed reference. On a shared host the same code runs at
// different speeds from one moment to the next, even in CPU time: a
// co-tenant on the other hardware thread of the physical core takes
// execution ports, and the clock moves with the host's load. Within one
// run the speed switches between phases lasting a fraction of a second,
// and whole runs differ by up to 2.5x. The reference kernel is a fixed
// compute loop that belongs to this benchmark, not to the library, so a
// library change does not move its speed; timed in CPU time next to a
// sample, it tells how fast the host ran at that moment. kReferenceRate
// is the kernel rate (steps per CPU second) that scaled samples refer
// to, about what it reaches on a quiet 4-vCPU Xeon host (Sapphire
// Rapids class, 2.1 GHz base).
inline constexpr uint64_t kReferenceSteps = 100000;  // ~0.2 ms per reading
inline constexpr double kReferenceRate = 6.0e8;
// Run the kernel for `steps` steps; the result only defeats dead-code
// elimination.
uint64_t reference_kernel(uint64_t steps);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H
