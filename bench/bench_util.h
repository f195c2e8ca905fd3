// Shared helpers for the per-table/figure benchmark binaries, and the
// one measurement harness every CI bench times with (Cells, below).
#ifndef EILID_BENCH_BENCH_UTIL_H
#define EILID_BENCH_BENCH_UTIL_H

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/apps.h"
#include "common/thread_pool.h"
#include "eilid/fleet.h"

namespace eilid::bench {

struct AppRun {
  size_t binary_size = 0;
  uint64_t cycles = 0;
  double micros = 0.0;
  size_t violations = 0;
  bool reached_halt = false;
};

// Build (original or EILID) and run one Table IV app to its halt label
// on a single-device fleet session.
inline AppRun run_app(const apps::AppSpec& app, bool eilid,
                      core::BuildOptions options = {}) {
  options.eilid = eilid;
  Fleet fleet;
  DeviceSession& device = fleet.deploy(
      app.name, fleet.build(app.source, app.name, options),
      eilid ? EnforcementPolicy::kEilidHw : EnforcementPolicy::kCasu);
  apps::WorkloadOutcome run = apps::run_workload(device, app);
  AppRun out;
  out.binary_size = device.build().binary_size();
  out.cycles = run.cycles;
  out.micros = device.machine().micros(run.cycles);
  out.violations = run.violations;
  out.reached_halt = run.reached_halt;
  return out;
}

// Average wall-clock milliseconds of the build pipeline over `iters`
// iterations (the paper averages compile time over 50 runs). EILIDsw
// is prebuilt (device firmware, not part of app compilation) and the
// pipeline runs the paper's exact three iterations (no extra
// convergence pass).
inline double measure_compile_ms(const apps::AppSpec& app, bool eilid,
                                 int iters = 50) {
  using clock = std::chrono::steady_clock;
  static const core::RomInfo rom = core::build_rom();
  core::BuildOptions options;
  options.eilid = eilid;
  options.prebuilt_rom = &rom;
  options.verify_convergence = false;
  auto start = clock::now();
  for (int i = 0; i < iters; ++i) {
    core::BuildResult build = core::build_app(app.source, app.name, options);
    (void)build;
  }
  auto elapsed = std::chrono::duration<double, std::milli>(clock::now() - start);
  return elapsed.count() / iters;
}

// Firmware generation `generation` for the fleet benches: main calls
// `emit` (one UART write of the generation's digit) `calls_per_generation
// * (generation + 1)` times, then spins at `halt`. Every extra call
// shifts the later addresses, so generations differ in layout.
inline std::string firmware(int generation, int calls_per_generation = 1) {
  std::string s = R"(.equ UART_TX, 0x0130
.org 0xE000
main:
    mov #0x1000, r1
)";
  for (int i = 0; i < calls_per_generation * (generation + 1); ++i) {
    s += "    call #emit\n";
  }
  s += R"(halt:
    jmp halt
emit:
    mov.b #')";
  s += static_cast<char>('0' + generation);
  s += R"(', &UART_TX
    ret
.vector 15, main
.end
)";
  return s;
}

// "dev-" and `i` zero-padded to `width` digits, so ids sort by index.
inline std::string device_id(size_t i, int width = 3) {
  char buf[32];  // worst-case %zu needs more than 16 (-Wformat-truncation)
  std::snprintf(buf, sizeof(buf), "dev-%0*zu", width, i);
  return buf;
}

// One attestation verdict, flattened for cross-run comparison. Nonces
// differ between runs by design (they only feed the MAC), so they are
// deliberately absent.
inline std::string verdict_fingerprint(const VerifierService::AttestResult& r) {
  return r.device_id + "|" + std::to_string(r.attested) + "|" +
         std::to_string(r.seq) + "|" + std::to_string(r.cycle) + "|" +
         std::to_string(r.mac_ok) + "|" + std::to_string(r.seq_ok) + "|" +
         std::to_string(r.path_ok) + "|" + std::to_string(r.edges) + "|" +
         std::to_string(r.dropped);
}

inline void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline double pct(double base, double with) {
  return base == 0 ? 0.0 : 100.0 * (with - base) / base;
}

// --- measurement harness -------------------------------------------
//
// A CI bench is a set of cells (policy x engine, pool size x loss
// rate, ...). A cell's body builds fresh state untimed, times its
// regions with CellRun::time, records deterministic work counters with
// CellRun::count, gates correctness with CellRun::check and returns a
// result. Cells::run repeats every cell, interleaved: round r runs
// every cell once before round r + 1 starts, so all cells sample the
// same stretch of host weather. Times are reported as medians with
// their quartiles, and a ratio is the median over rounds of the ratio
// taken inside one round.
//
// Times are CPU time: the calling thread's for a cell that runs on one
// thread, the whole process's for a cell that fans out over pool
// workers. Only one-thread cells' ratios are gated (add_speedup). A
// pooled cell is gated on the work it does: its result and its work
// counters must equal its serial base cell's. Its serial CPU / pooled
// CPU ratio and its wall ratio are recorded, never gated.

struct Sample {
  double wall_ms = 0;
  double cpu_ms = 0;
};

// Median and quartiles over the rounds.
struct Stats {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
};

inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// "median [q1, q3]" at `decimals` places.
inline std::string spread(const Stats& s, int decimals = 2) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.*f [%.*f, %.*f]", decimals, s.median,
                decimals, s.q1, decimals, s.q3);
  return buf;
}

inline double cpu_clock_ms(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return 1e3 * static_cast<double>(ts.tv_sec) +
         1e-6 * static_cast<double>(ts.tv_nsec);
}

// One run of one cell.
class CellRun {
 public:
  CellRun(const std::string& label, bool pooled)
      : label_(label), pooled_(pooled) {}

  // Times fn() into `phase`; calls under one phase add up.
  template <class F>
  void time(const std::string& phase, F&& fn) {
    const clockid_t clock =
        pooled_ ? CLOCK_PROCESS_CPUTIME_ID : CLOCK_THREAD_CPUTIME_ID;
    const auto wall0 = std::chrono::steady_clock::now();
    const double cpu0 = cpu_clock_ms(clock);
    fn();
    Sample& s = phases_[phase];
    s.cpu_ms += cpu_clock_ms(clock) - cpu0;
    s.wall_ms += std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - wall0)
                     .count();
  }
  // A deterministic work counter: every round must repeat it exactly.
  void count(const std::string& name, uint64_t value) { counts_[name] = value; }
  // A correctness gate: a false `ok` prints `what` and fails the cell.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    std::printf("  !! %s: %s\n", label_.c_str(), what.c_str());
    ok_ = false;
  }

  const std::map<std::string, Sample>& phases() const { return phases_; }
  const std::map<std::string, uint64_t>& counts() const { return counts_; }
  bool ok() const { return ok_; }

 private:
  std::string label_;
  bool pooled_;
  std::map<std::string, Sample> phases_;
  std::map<std::string, uint64_t> counts_;
  bool ok_ = true;
};

// Repeated, interleaved cells with one result type. A cell's result
// and counters must repeat exactly every round, and its result must
// equal its base cell's (the serial row, the ground-truth engine, ...).
// A pooled cell's counters must equal its base cell's too: the pool
// may change how long the work takes, never how much of it is done.
template <class Result>
class Cells {
 public:
  using Body = std::function<Result(CellRun&)>;

  // Adds a cell and returns its index. A cell of more than one thread
  // is timed in process CPU. `base` defaults to the cell itself (no
  // cross-cell gate).
  size_t add(std::string label, size_t threads, Body body,
             std::optional<size_t> base = std::nullopt) {
    Cell& cell = cells_.emplace_back();
    cell.label = std::move(label);
    cell.pooled = threads > 1;
    cell.body = std::move(body);
    cell.base = base.value_or(cells_.size() - 1);
    return cells_.size() - 1;
  }

  void run(int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (Cell& cell : cells_) {
        CellRun run(cell.label, cell.pooled);
        Result result = cell.body(run);
        cell.ok = cell.ok && run.ok();
        if (!cell.result) {
          cell.result = std::move(result);
          cell.counts = run.counts();
        } else if (!(result == *cell.result) || run.counts() != cell.counts) {
          fail(cell, "round " + std::to_string(r) + " differs from round 0");
        }
        cell.samples.push_back(run.phases());
      }
    }
    for (Cell& cell : cells_) {
      const Cell& base = cells_[cell.base];
      if (!(*cell.result == *base.result)) {
        fail(cell, "result differs from " + base.label);
      }
      if (cell.pooled && cell.counts != base.counts) {
        fail(cell, "work counters differ from " + base.label);
      }
    }
  }

  size_t size() const { return cells_.size(); }
  const std::string& label(size_t cell) const { return cells_[cell].label; }
  const Result& result(size_t cell) const { return *cells_[cell].result; }
  const std::map<std::string, uint64_t>& counts(size_t cell) const {
    return cells_[cell].counts;
  }
  bool ok(size_t cell) const { return cells_[cell].ok; }
  bool pooled(size_t cell) const { return cells_[cell].pooled; }
  bool ok() const {
    return std::all_of(cells_.begin(), cells_.end(),
                       [](const Cell& c) { return c.ok; });
  }

  // `phase`'s CPU (or wall) milliseconds over the rounds.
  Stats stats(size_t cell, const std::string& phase,
              double Sample::*clock = &Sample::cpu_ms) const {
    std::vector<double> v;
    for (const auto& phases : cells_[cell].samples) {
      v.push_back(at(phases, phase).*clock);
    }
    return {quantile(v, 0.5), quantile(v, 0.25), quantile(v, 0.75)};
  }
  // Median over rounds of base's time / cell's time in the same round.
  double speedup(size_t base, size_t cell, const std::string& phase,
                 double Sample::*clock = &Sample::cpu_ms) const {
    std::vector<double> v;
    for (size_t r = 0; r < cells_[cell].samples.size(); ++r) {
      const double num = at(cells_[base].samples[r], phase).*clock;
      const double den = at(cells_[cell].samples[r], phase).*clock;
      v.push_back(den > 0 ? num / den : 0.0);
    }
    return quantile(v, 0.5);
  }

 private:
  struct Cell {
    std::string label;
    bool pooled = false;
    Body body;
    size_t base = 0;
    bool ok = true;
    std::optional<Result> result;  // round 0's
    std::map<std::string, uint64_t> counts;  // round 0's
    std::vector<std::map<std::string, Sample>> samples;  // one per round
  };

  static Sample at(const std::map<std::string, Sample>& phases,
                   const std::string& phase) {
    const auto it = phases.find(phase);
    return it == phases.end() ? Sample{} : it->second;
  }
  static void fail(Cell& cell, const std::string& what) {
    std::printf("  !! %s: %s\n", cell.label.c_str(), what.c_str());
    cell.ok = false;
  }

  std::vector<Cell> cells_;
};

// The pool sizes pooled rows sweep: 1, 2 and 4 workers, capped at the
// host's hardware threads. Row 0 runs ThreadPool::inline_pool(), so
// the serial row executes the pooled code on the caller's thread; the
// other rows own a pool, built once.
class PoolSweep {
 public:
  PoolSweep() {
    cap_ = std::max(1u, std::thread::hardware_concurrency());
    for (size_t threads : {1, 2, 4}) {
      if (threads > cap_) break;
      threads_.push_back(threads);
      pools_.push_back(threads == 1
                           ? nullptr
                           : std::make_unique<common::ThreadPool>(threads));
    }
    std::printf("pool sizes {1, 2, 4} capped at %zu hardware threads\n",
                cap_);
  }

  size_t size() const { return threads_.size(); }
  size_t cap() const { return cap_; }
  size_t threads(size_t row) const { return threads_[row]; }
  common::ThreadPool& pool(size_t row) const {
    return pools_[row] ? *pools_[row] : common::ThreadPool::inline_pool();
  }

 private:
  size_t cap_ = 1;
  std::vector<size_t> threads_;
  std::vector<std::unique_ptr<common::ThreadPool>> pools_;
};

// Adds one cell per pool row of `pools`, labelled "threads=N" plus
// `suffix`, each gated against the first (1-thread) one; `body` gets the
// row's pool.
template <class Result, class F>
void add_pool_rows(Cells<Result>& cells, const PoolSweep& pools, F body,
                   const std::string& suffix = "") {
  const size_t base = cells.size();
  for (size_t row = 0; row < pools.size(); ++row) {
    cells.add("threads=" + std::to_string(pools.threads(row)) + suffix,
              pools.threads(row),
              [&pools, row, body](CellRun& run) {
                return body(run, pools.pool(row));
              },
              base);
  }
}

// A JSON object whose members keep insertion order. Values render as
// they are added; strings are bench labels and are not escaped.
class Json {
 public:
  Json& num(const std::string& key, double v, int decimals = 2) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return raw(key, buf);
  }
  Json& count(const std::string& key, uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& flag(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& text(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  Json& null(const std::string& key) { return raw(key, "null"); }
  Json& object(const std::string& key, const Json& v) {
    return raw(key, v.line());
  }
  // One element per line.
  Json& array(const std::string& key, const std::vector<Json>& items) {
    std::string s = "[";
    for (size_t i = 0; i < items.size(); ++i) {
      s += (i == 0 ? "\n    " : ",\n    ") + items[i].line();
    }
    return raw(key, s + (items.empty() ? "]" : "\n  ]"));
  }

  std::string line() const {
    std::string s = "{";
    for (size_t i = 0; i < members_.size(); ++i) {
      s += (i == 0 ? "\"" : ", \"") + members_[i].first + "\": " +
           members_[i].second;
    }
    return s + "}";
  }
  // Writes the object to `path`, one member per line.
  void write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fputs("{\n", f);
    for (size_t i = 0; i < members_.size(); ++i) {
      std::fprintf(f, "  \"%s\": %s%s\n", members_[i].first.c_str(),
                   members_[i].second.c_str(),
                   i + 1 < members_.size() ? "," : "");
    }
    std::fputs("}\n", f);
    std::fclose(f);
  }

 private:
  Json& raw(const std::string& key, std::string v) {
    members_.emplace_back(key, std::move(v));
    return *this;
  }
  std::vector<std::pair<std::string, std::string>> members_;
};

// A bench document's header: its name, mode and round count.
inline Json report(const char* bench, bool smoke, int rounds) {
  Json doc;
  doc.text("bench", bench).text("mode", smoke ? "smoke" : "full");
  doc.count("rounds", static_cast<uint64_t>(rounds));
  return doc;
}

// Adds `phase`'s median CPU milliseconds as `<phase>_ms`, its
// interquartile range as `<phase>_iqr_ms` and its median wall time as
// `wall_<phase>_ms`, plus every counter as `count_<name>`.
template <class Result>
void add_columns(Json& row, const Cells<Result>& cells, size_t cell,
                 const std::vector<std::string>& phases) {
  for (const std::string& phase : phases) {
    const Stats cpu = cells.stats(cell, phase);
    row.num(phase + "_ms", cpu.median).num(phase + "_iqr_ms", cpu.q3 - cpu.q1);
    row.num("wall_" + phase + "_ms",
            cells.stats(cell, phase, &Sample::wall_ms).median);
  }
  for (const auto& [name, value] : cells.counts(cell)) {
    row.count("count_" + name, value);
  }
}

// Adds cells.speedup(base, cell, phase) in CPU time and, as
// `wall_<key>`, the same ratio in wall time; returns the CPU ratio. A
// one-thread cell's CPU ratio goes under `key`, which the checker
// gates. A pooled cell's goes under `cpu_<key>`, which it does not: on
// a shared host a pooled run reads one of two CPU ratios (about 0.3x
// when the workers overlap and contend, 0.7x when the host serializes
// them), a spread no 20% gate can resolve. Pooled cells are gated on
// their work counters instead (Cells::run, and count_* in the checker).
template <class Result>
double add_speedup(Json& row, const Cells<Result>& cells, size_t base,
                   size_t cell, const std::string& phase,
                   const std::string& key) {
  const double cpu = cells.speedup(base, cell, phase);
  row.num(cells.pooled(cell) ? "cpu_" + key : key, cpu)
      .num("wall_" + key, cells.speedup(base, cell, phase, &Sample::wall_ms));
  return cpu;
}

// Prints one table line: the cell's label, each phase's CPU ms as
// "median [q1, q3]", then `ratio_phase`'s CPU-work and wall ratios
// over `base`.
template <class Result>
void print_cell(const Cells<Result>& cells, size_t base, size_t cell,
                const std::vector<std::string>& phases,
                const std::string& ratio_phase) {
  std::printf("%-24s", cells.label(cell).c_str());
  for (const std::string& phase : phases) {
    std::printf(" | %-10s %-24s", phase.c_str(),
                spread(cells.stats(cell, phase)).c_str());
  }
  std::printf(" | work %5.2fx wall %5.2fx\n",
              cells.speedup(base, cell, ratio_phase),
              cells.speedup(base, cell, ratio_phase, &Sample::wall_ms));
}

inline bool smoke_mode(int argc, char** argv) {
  return argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
}

}  // namespace eilid::bench

#endif  // EILID_BENCH_BENCH_UTIL_H
