// Simulator-core throughput: simulated instructions per wall-clock
// second (MIPS), per enforcement policy, as a TWO-ENGINE oracle:
// interpretive (ground truth) vs superblock (block-granular dispatch
// from the build's shared code table) -- plus a fleet sweep driving
// many devices from a thread pool. This seeds the bench trajectory for
// the hot loop: every future perf PR must beat the table this emits
// (BENCH_sim_throughput.json).
//
// Correctness gates (the bench FAILS on any violation):
//   - per policy, both engines retire the same instruction count over
//     the same simulated cycles and their retired-instruction traces
//     (from, to, fallthrough per step) have identical fingerprints,
//   - for kCfaBaseline, the attestation verdicts of both runs are
//     identical (same seq/mac_ok/seq_ok/path_ok/edges/dropped),
//   - the superblock timed run actually dispatched blocks and the
//     interpretive one did not (the fast path engaged; a
//     silently-degraded run would gate green on identity while
//     measuring nothing).
// Wall-clock numbers are reported but not gated (host-dependent); the
// CI regression gate (scripts/check_bench_regression.py) compares the
// emitted speedups against the committed baseline of the same mode
// instead. Each row also records `dispatches` (machine-loop block runs;
// `blocks` counts every block, chained ones included) and
// `monitor_tax` (kNone superblock MIPS over the policy's), which is
// informational and not gated. The fleet
// sweep's pool holds min(8, hardware threads) workers; the count is
// printed and recorded.
//
// Usage: bench_sim_throughput [--smoke]   (--smoke: CI-sized workload)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/eilid/fleet.h"
#include "src/sim/monitor.h"

using namespace eilid;

namespace {

using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point start) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - start)
      .count();
}

// Decode-heavy compute kernel: tight ALU loop + calls + RAM traffic,
// running forever (the cycle budget bounds each run). Instrumentable,
// so the same source serves every policy including kEilidHw.
const char* kKernelSource = R"(.org 0xE000
main:
    mov #0x1000, r1
    clr r12
    clr r13
loop:
    mov #8, r11
inner:
    add r11, r12
    xor r12, r13
    rra r13
    swpb r12
    inc r13
    dec r11
    jnz inner
    call #mix
    mov r12, &0x0280
    add &0x0280, r13
    jmp loop
mix:
    push r12
    xor r13, r12
    rra r12
    pop r12
    ret
.vector 15, main
)";

// FNV-1a fingerprint over every (from, to, fallthrough) step tuple.
// Deliberately a wants_step() monitor: attaching it pins the machine
// to per-instruction execution under both engines (the superblock
// session steps its code table one entry at a time), so the traced
// runs compare the engines' architectural effects, not their
// dispatch.
class TraceFingerprint : public sim::Monitor {
 public:
  void on_step(uint16_t from_pc, uint16_t to_pc, uint16_t fallthrough) override {
    mix(from_pc);
    mix(to_pc);
    mix(fallthrough);
    ++steps_;
  }
  uint64_t hash() const { return hash_; }
  uint64_t steps() const { return steps_; }

 private:
  void mix(uint16_t v) {
    hash_ ^= v;
    hash_ *= 0x100000001b3ull;
  }
  uint64_t hash_ = 0xcbf29ce484222325ull;
  uint64_t steps_ = 0;
};

constexpr EnforcementPolicy kPolicies[] = {
    EnforcementPolicy::kNone, EnforcementPolicy::kCasu,
    EnforcementPolicy::kCfaBaseline, EnforcementPolicy::kEilidHw};


struct ModeRun {
  double wall_ms = 0;
  uint64_t instructions = 0;
  uint64_t sim_cycles = 0;
  uint64_t blocks = 0;  // superblocks dispatched in the timed run
  uint64_t dispatches = 0;  // machine-loop block runs (chains) among them
  uint64_t trace_hash = 0;
  uint64_t trace_steps = 0;
  std::string verdict;  // kCfaBaseline only
  double mips() const {
    return wall_ms > 0 ? static_cast<double>(instructions) / (wall_ms * 1e3)
                       : 0.0;
  }
};

std::string verdict_fingerprint(const VerifierService::AttestResult& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%d|%u|%llu|%d|%d|%d|%zu|%u", r.attested,
                r.seq, static_cast<unsigned long long>(r.cycle), r.mac_ok,
                r.seq_ok, r.path_ok, r.edges, r.dropped);
  return buf;
}

// One (policy, engine) measurement: a timed run without tracing, then
// a short traced run for the cross-engine fingerprint gate.
ModeRun run_mode(Fleet& fleet, std::shared_ptr<const core::BuildResult> build,
                 EnforcementPolicy policy, ExecutionEngine engine,
                 uint64_t timed_cycles, uint64_t traced_cycles, int* serial) {
  auto device_id = [&](const char* kind) {
    return std::string(enforcement_policy_name(policy)) + "-" + kind + "-" +
           std::string(execution_engine_name(engine)) + "-" +
           std::to_string((*serial)++);
  };
  ModeRun out;
  {
    DeviceSession& dev =
        fleet.deploy(device_id("timed"), build, policy,
                     {.cfa = {.log_capacity = 1 << 12}, .engine = engine});
    auto t0 = clock_type::now();
    dev.run(timed_cycles);
    out.wall_ms = ms_since(t0);
    out.instructions = dev.machine().cpu().instructions_retired();
    out.sim_cycles = dev.machine().cycles();
    out.blocks = dev.machine().blocks_executed();
    out.dispatches = dev.machine().block_dispatches();
    if (policy == EnforcementPolicy::kCfaBaseline) {
      out.verdict = verdict_fingerprint(fleet.verifier().attest(dev));
    }
  }
  {
    DeviceSession& dev =
        fleet.deploy(device_id("traced"), build, policy,
                     {.cfa = {.log_capacity = 1 << 12}, .engine = engine});
    TraceFingerprint trace;
    dev.machine().add_monitor(&trace);
    dev.run(traced_cycles);
    out.trace_hash = trace.hash();
    out.trace_steps = trace.steps();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const uint64_t timed_cycles = smoke ? 2'000'000 : 40'000'000;
  const uint64_t traced_cycles = smoke ? 500'000 : 2'000'000;
  const size_t fleet_devices = smoke ? 32 : 256;
  const size_t fleet_threads =
      std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 8);
  const uint64_t fleet_cycles = smoke ? 500'000 : 4'000'000;

  Fleet fleet;
  auto plain = fleet.build(kKernelSource, "spin_kernel", {.eilid = false});
  auto instrumented = fleet.build(kKernelSource, "spin_kernel", {.eilid = true});

  std::printf("Simulator core throughput (%s: %llu cycles/run)\n\n",
              smoke ? "smoke" : "full",
              static_cast<unsigned long long>(timed_cycles));
  std::printf("%-13s | %-11s | %-11s | %-8s | %-6s | %-10s | %-6s | %s\n",
              "policy", "interp MIPS", "superb MIPS", "blk x", "tax",
              "dispatches", "trace", "verdict");
  for (int i = 0; i < 92; ++i) std::putchar('-');
  std::putchar('\n');

  bool ok = true;
  int serial = 0;
  double none_mips = 0;  // kNone runs first: every monitor_tax divides it
  std::string policy_json;
  for (EnforcementPolicy policy : kPolicies) {
    auto build = policy == EnforcementPolicy::kEilidHw ? instrumented : plain;
    const ModeRun interp =
        run_mode(fleet, build, policy, ExecutionEngine::kInterpretive,
                 timed_cycles, traced_cycles, &serial);
    const ModeRun superb =
        run_mode(fleet, build, policy, ExecutionEngine::kSuperblock,
                 timed_cycles, traced_cycles, &serial);

    const bool trace_ok = superb.trace_hash == interp.trace_hash &&
                          superb.trace_steps == interp.trace_steps &&
                          superb.instructions == interp.instructions &&
                          superb.sim_cycles == interp.sim_cycles;
    const bool verdict_ok = superb.verdict == interp.verdict;
    // The superblock run must actually have engaged block dispatch
    // (and the interpretive one must not have).
    const bool engaged_ok = superb.blocks > 0 && interp.blocks == 0;
    ok = ok && trace_ok && verdict_ok && engaged_ok;
    if (!engaged_ok) {
      std::printf("  !! %s: block dispatch engagement wrong "
                  "(interp %llu, superblock %llu blocks)\n",
                  std::string(enforcement_policy_name(policy)).c_str(),
                  static_cast<unsigned long long>(interp.blocks),
                  static_cast<unsigned long long>(superb.blocks));
    }

    const double blk_speedup =
        interp.mips() > 0 ? superb.mips() / interp.mips() : 0.0;
    if (policy == EnforcementPolicy::kNone) none_mips = superb.mips();
    // Host-time cost of the policy's monitors on the superblock engine
    // (kNone MIPS / this policy's MIPS). Informational, never gated:
    // both sides are single-shot wall time on one host.
    const double monitor_tax =
        superb.mips() > 0 ? none_mips / superb.mips() : 0.0;
    std::printf("%-13s | %11.1f | %11.1f | %7.2fx | %5.2fx | %10llu | %-6s | "
                "%s\n",
                std::string(enforcement_policy_name(policy)).c_str(),
                interp.mips(), superb.mips(), blk_speedup, monitor_tax,
                static_cast<unsigned long long>(superb.dispatches),
                trace_ok ? "same" : "DIFFER", verdict_ok ? "same" : "DIFFER");

    char row[768];
    std::snprintf(
        row, sizeof(row),
        "    {\"policy\": \"%s\", \"instructions\": %llu, \"sim_cycles\": "
        "%llu, \"mips_interpretive\": %.1f, \"mips_superblock\": %.1f, "
        "\"speedup_superblock\": %.2f, \"monitor_tax\": %.2f, "
        "\"blocks\": %llu, \"dispatches\": %llu, "
        "\"trace_identical\": %s, \"verdict_identical\": %s},\n",
        std::string(enforcement_policy_name(policy)).c_str(),
        static_cast<unsigned long long>(superb.instructions),
        static_cast<unsigned long long>(superb.sim_cycles), interp.mips(),
        superb.mips(), blk_speedup, monitor_tax,
        static_cast<unsigned long long>(superb.blocks),
        static_cast<unsigned long long>(superb.dispatches),
        trace_ok ? "true" : "false", verdict_ok ? "true" : "false");
    policy_json += row;
  }
  if (!policy_json.empty()) policy_json.resize(policy_json.size() - 2);

  // --- fleet sweep: N devices, shared builds, pooled drive ----------
  // Deployed with default SessionOptions, i.e. the superblock engine:
  // the sweep measures the shipping configuration.
  std::vector<DeviceSession*> devices;
  devices.reserve(fleet_devices);
  for (size_t i = 0; i < fleet_devices; ++i) {
    EnforcementPolicy policy = kPolicies[i % 4];
    auto build = policy == EnforcementPolicy::kEilidHw ? instrumented : plain;
    devices.push_back(&fleet.deploy("fleet-" + std::to_string(i), build, policy,
                                    {.cfa = {.log_capacity = 1 << 12}}));
  }
  common::ThreadPool pool(fleet_threads);
  auto tf = clock_type::now();
  pool.parallel_for(devices.size(), [&](size_t i) {
    std::lock_guard<std::mutex> lock(devices[i]->mutex());
    devices[i]->run(fleet_cycles);
  });
  double fleet_ms = ms_since(tf);
  uint64_t fleet_instructions = 0;
  for (DeviceSession* dev : devices) {
    fleet_instructions += dev->machine().cpu().instructions_retired();
  }
  double fleet_mips =
      fleet_ms > 0 ? static_cast<double>(fleet_instructions) / (fleet_ms * 1e3)
                   : 0.0;
  std::printf("\nfleet sweep: %zu devices x %llu cycles on %zu threads: "
              "%.1f ms, aggregate %.1f MIPS\n",
              fleet_devices, static_cast<unsigned long long>(fleet_cycles),
              fleet_threads, fleet_ms, fleet_mips);

  FILE* json = std::fopen("BENCH_sim_throughput.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"sim_throughput\",\n  \"mode\": \"%s\",\n"
                 "  \"cycles_per_run\": %llu,\n  \"policies\": [\n%s\n  ],\n"
                 "  \"fleet\": {\"devices\": %zu, \"threads\": %zu, "
                 "\"cycles_per_device\": %llu, \"wall_ms\": %.1f, "
                 "\"aggregate_mips\": %.1f},\n  \"ok\": %s\n}\n",
                 smoke ? "smoke" : "full",
                 static_cast<unsigned long long>(timed_cycles), policy_json.c_str(),
                 fleet_devices, fleet_threads,
                 static_cast<unsigned long long>(fleet_cycles), fleet_ms,
                 fleet_mips, ok ? "true" : "false");
    std::fclose(json);
  }

  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
