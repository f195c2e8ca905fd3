// The three workloads and the pieces they share. Each workload is a
// closed loop on one driver thread: the next call into the library is
// issued only after the previous one returned. Pooled calls fan out
// over one common::ThreadPool of min(requested, nproc) workers.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "common/thread_pool.h"
#include "eilid/fleet.h"
#include "harness.h"

namespace perfbench {

// Pool workers asked for; a workload's pool gets min(this, nproc).
inline constexpr size_t kRequestedThreads = 4;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;   // self-check size: every phase, a handful of devices
  std::string trace_out;
};

// One reading of the reference kernel's rate (see harness.h), taken at
// `at`. With a pool, the mean of the workers' rates, all of them
// running it at once.
struct HostReading {
  Clock::time_point at;
  double rate = 0;
};

// One sample of an end-to-end host-time metric (a rate or a time, from
// process CPU time), taken between `start` and `end`; main.cpp scales
// it by the host readings around that interval (see host_factor there).
struct TimedSample {
  double value = 0;
  Clock::time_point start;
  Clock::time_point end;
};

// Everything one workload run measures. Times live in `rec`; simulated
// work lives in the count ledgers; per-round samples in `series`, and
// the end-to-end host-time ones in `samples`.
struct Run {
  explicit Run(const Options& options) : opts(options), rec(options.trace) {}

  const Options& opts;
  Recorder rec;
  Gates gates;
  size_t threads = 1;  // pool workers actually used (1: serial paths)
  eilid::common::ThreadPool* pool = nullptr;  // the workload's pool, if any
  Counts totals;       // summed over every round of the timed phase
  // Deterministic counts of the rounds (exec, attest) and of the ops
  // scenario iterations: the first one's full ledger, then one digest
  // per round in order. Same seed => same sequence, so the digests are
  // the determinism oracle.
  Counts first_round;
  Counts first_ops;
  std::vector<uint64_t> round_digests;
  std::vector<uint64_t> ops_digests;
  std::map<std::string, std::vector<double>> series;
  std::map<std::string, double> values;  // one-off measurements
  std::map<std::string, std::vector<TimedSample>> samples;
  std::vector<HostReading> host;  // in time order
};

inline void add_sample(Run& run, const std::string& name, double value,
                       Clock::time_point start, Clock::time_point end) {
  run.samples[name].push_back({value, start, end});
}

// Take a host reading, on every pool worker at once when the workload
// has a pool, else on this thread -- unless one was taken less than
// kProbeInterval ago and `force` is false. Called between library calls
// (never inside a timed one) at every round, iteration and phase
// boundary, so each sample has readings close before and after it;
// timed as host.probe.
inline constexpr double kProbeInterval = 0.01;
void probe_host(Run& run, bool force = false);

inline constexpr std::array<eilid::EnforcementPolicy, 4> kPolicies = {
    eilid::EnforcementPolicy::kNone, eilid::EnforcementPolicy::kCasu,
    eilid::EnforcementPolicy::kCfaBaseline, eilid::EnforcementPolicy::kEilidHw};

// "none" / "casu" / "cfa" / "eilid": the suffix of per-policy names.
const char* policy_key(eilid::EnforcementPolicy policy);
// "sim.run.<key>": the layer a device run call under `policy` times as.
const char* sim_layer(eilid::EnforcementPolicy policy);

// CFA log sizing: big enough that no benign run in any workload drops
// an edge (the largest Table IV run logs ~21.5k); the log arena grows
// in 256-edge chunks only as far as a run actually needs.
inline constexpr size_t kLogCapacity = 1 << 16;

// Counter deltas of one device across one run call.
struct Work {
  bool halted = false;
  uint64_t cycles = 0;
  uint64_t insns = 0;
  uint64_t blocks = 0;
  uint64_t decode_misses = 0;
  uint64_t edges = 0;  // CFA edges logged (0 without a CFA monitor)
  size_t violations = 0;
  bool operator==(const Work&) const = default;
};

// Counter snapshot of one device, for the deltas above.
struct Marks {
  uint64_t cycles = 0, insns = 0, blocks = 0, decode_misses = 0, edges = 0;
  size_t violations = 0;
};
Marks marks(eilid::DeviceSession& session);
Work work_between(const Marks& before, const Marks& after, bool halted);
void add_work(Counts& counts, eilid::EnforcementPolicy policy, const Work& w);

// Clear the host-side peripheral observers (UART transcript, GPIO
// traces). They model the link partner and persist across power
// cycles, so a device rerun thousands of times would grow them without
// bound.
void clear_observers(eilid::DeviceSession& session);

// Power-cycle one device (timed as session.power_cycle).
void power_cycle(Run& run, eilid::DeviceSession& session, uint64_t group,
                 Counts& counts);

// Run `app` to halt on one device, timed as sim.run.<policy>. The
// counter deltas go into `counts`.
Work run_app(Run& run, eilid::DeviceSession& session,
             const eilid::apps::AppSpec& app, uint64_t group, Counts& counts);

// The vuln_gateway exploit: power-cycle, send the overflow packet that
// returns into `unlock`, run to halt. `unlocked` is whether the
// privileged routine transmitted.
struct HijackOutcome {
  Work work;
  bool unlocked = false;
  std::string reset_reason;
};
HijackOutcome hijack_gateway(Run& run, eilid::DeviceSession& session,
                             uint64_t group, Counts& counts);
// Whether the outcome is what `policy` must produce: reset before
// unlock under kEilidHw; unlock (then a crash reset) everywhere else.
bool hijack_as_expected(eilid::EnforcementPolicy policy,
                        const HijackOutcome& outcome);

// Table IV reference: every app deployed under all four policies
// (plain builds for kNone/kCasu/kCfaBaseline, instrumented for
// kEilidHw) on `fleet`, run once from power-on with the app's host
// check gated, then drained. Gives the modelled overheads the paper's
// way: the mean of per-app percentages.
struct Table4 {
  struct App {
    const eilid::apps::AppSpec* spec = nullptr;
    std::array<eilid::DeviceSession*, 4> devices{};  // by kPolicies index
    std::array<Work, 4> reference{};                 // the checked run
  };
  std::vector<App> apps;
  double runtime_overhead_pct = 0;  // kEilidHw vs kCasu cycles
  double size_overhead_pct = 0;     // instrumented vs plain binary
};
Table4 deploy_table4(Run& run, eilid::Fleet& fleet, const std::string& prefix);

// A loaded build, timed as pipeline.build.
std::shared_ptr<const eilid::core::BuildResult> build(
    Run& run, eilid::Fleet& fleet, const std::string& source,
    const std::string& name, bool instrumented);
// A deploy, timed as fleet.deploy.
eilid::DeviceSession& deploy(
    Run& run, eilid::Fleet& fleet, const std::string& id,
    std::shared_ptr<const eilid::core::BuildResult> build,
    eilid::EnforcementPolicy policy);

// One barrier verify_all sweep (serial when pool is null), timed as
// verifier.sweep -- or verifier.sweep_serial when `serial_probe` (the
// traced run's pooled-vs-serial comparison). Per-sweep samples go to
// run.series (and the sweep_ms sample to run.samples) under `prefix`
// ("" for the workload's own loop, "ops." for the ops scenario);
// verdict counts to `counts`.
struct SweepResult {
  std::vector<eilid::VerifierService::AttestResult> verdicts;
  double seconds = 0;      // wall
  double cpu_seconds = 0;  // process CPU, all threads
  Clock::time_point start;
  Clock::time_point end;
  uint64_t edges = 0;
};
SweepResult sweep(Run& run, eilid::Fleet& fleet,
                  eilid::common::ThreadPool* pool, bool serial_probe,
                  uint64_t group, Counts& counts, const std::string& prefix);

// Close round `round` of the workload's own loop: keep the first
// round's count ledger, gate every later one against it (the in-run
// determinism oracle), add it to the totals and record its digest.
void finish_round(Run& run, const Counts& counts, uint64_t round);

// Tally resident_memory_bytes() over `sessions`: the mean goes to the
// series "<prefix>resident_bytes_mean", the largest to the value
// "<prefix>resident_bytes_max".
void record_resident(Run& run, const std::string& prefix,
                     const std::vector<eilid::DeviceSession*>& sessions);

class OpsScenario;

// Between rounds of exec and attest: run ops-scenario iterations until
// they have taken kOpsShare of the time since `start` (`ops_s` carries
// their running total), or, at --tiny size, until two have run.
inline constexpr double kOpsShare = 0.2;
void interleave_ops(Run& run, OpsScenario& ops, Clock::time_point start,
                    double& ops_s);

// The fleet-operations scenario: a small multi-generation firmware on a
// mixed-policy fleet, rolled out, window-verified, heartbeat-monitored,
// broken and healed once per iteration. fleet-ops runs it at full
// size; exec and attest run a small copy for part of their time so
// every end-to-end metric is measured on every workload.
class OpsScenario {
 public:
  OpsScenario(Run& run, size_t devices, eilid::common::ThreadPool* pool);
  ~OpsScenario();
  OpsScenario(const OpsScenario&) = delete;
  OpsScenario& operator=(const OpsScenario&) = delete;

  // Build and deploy (fleet.deploy / pipeline.build); one boot run.
  void set_up();
  // One scenario iteration; its deterministic counts go to
  // run.ops_digests (and run.first_ops) and are added to run.totals.
  void iterate();
  size_t pipeline_runs() const;
  size_t build_cache_hits() const;

 private:
  struct State;
  Run& run_;
  size_t devices_;
  eilid::common::ThreadPool* pool_;
  std::unique_ptr<State> state_;
};

// Set-up (builds, deploys, enrollment, reference runs) runs as a batch
// of repetitions before the timed phase and again after it; each
// repetition is a setup_s sample between two forced host readings, and
// setup_s is the median of both batches. `set_up` must discard the
// previous repetition's state; the last one before the timed phase is
// kept.
inline constexpr int kSetUpsPerBatch = 8;
void set_up_batch(Run& run, const std::function<void()>& set_up);

void run_exec(Run& run);
void run_attest(Run& run);
void run_fleet_ops(Run& run);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
