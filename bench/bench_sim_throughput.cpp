// Simulator-core throughput: simulated instructions per CPU second
// (MIPS), per enforcement policy, as a TWO-ENGINE oracle: interpretive
// (ground truth) vs superblock (block-granular dispatch from the
// build's shared code table) -- plus a fleet sweep driving many
// devices from a thread pool. Every future perf PR must beat the table
// this emits (BENCH_sim_throughput.json).
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
//     measuring nothing),
//   - every round repeats round 0's counts and verdicts exactly.
//
// Timing (bench_util.h): each (policy, engine) cell runs a fresh device
// for a fixed cycle budget, repeated and interleaved over rounds, in
// thread CPU time. `speedup_superblock` (gated by
// scripts/check_bench_regression.py against the committed baseline of
// the same mode) is the median over rounds of interpretive CPU /
// superblock CPU within one round. The `count_*` columns (instructions,
// simulated cycles, blocks, and `dispatches`, the machine-loop block
// runs among them) are deterministic and gated exactly. `monitor_tax`
// (kNone superblock MIPS over the policy's) is informational. The
// fleet sweep runs on the largest pool of the {1, 2, 4} sweep capped
// at the host's hardware threads; it is printed and recorded, not
// gated.
//
// Usage: bench_sim_throughput [--smoke]   (--smoke: CI-sized workload)
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/eilid/fleet.h"
#include "src/sim/monitor.h"

using namespace eilid;
using namespace eilid::bench;

namespace {

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
constexpr ExecutionEngine kEngines[] = {ExecutionEngine::kInterpretive,
                                        ExecutionEngine::kSuperblock};

// What both engines must agree on: the timed run's retired
// instructions, simulated cycles and (kCfaBaseline) verdict, and the
// fingerprint of a short traced run.
struct EngineRun {
  uint64_t instructions = 0;
  uint64_t sim_cycles = 0;
  std::string verdict;
  uint64_t trace_hash = 0;
  uint64_t trace_steps = 0;
  bool operator==(const EngineRun&) const = default;
};

SessionOptions session_options(ExecutionEngine engine) {
  return {.cfa = {.log_capacity = 1 << 12}, .engine = engine};
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);
  const int rounds = smoke ? 11 : 3;
  const uint64_t timed_cycles = smoke ? 2'000'000 : 40'000'000;
  const uint64_t traced_cycles = smoke ? 500'000 : 2'000'000;
  const size_t fleet_devices = smoke ? 32 : 256;
  const uint64_t fleet_cycles = smoke ? 500'000 : 4'000'000;
  PoolSweep pools;
  const size_t sweep_row = pools.size() - 1;

  Fleet fleet;
  auto plain = fleet.build(kKernelSource, "spin_kernel", {.eilid = false});
  auto instrumented = fleet.build(kKernelSource, "spin_kernel", {.eilid = true});
  auto build_for = [&](EnforcementPolicy policy) {
    return policy == EnforcementPolicy::kEilidHw ? instrumented : plain;
  };

  // cells[2 * p + e]: policy p under engine e; superblock's base is
  // the interpretive cell of its policy.
  Cells<EngineRun> cells;
  for (EnforcementPolicy policy : kPolicies) {
    const size_t base = cells.size();
    for (ExecutionEngine engine : kEngines) {
      const std::string label = std::string(enforcement_policy_name(policy)) +
                                "/" + std::string(execution_engine_name(engine));
      cells.add(label, 1, [&, policy, engine](CellRun& run) {
        Fleet local;
        DeviceSession& dev = local.deploy("timed", build_for(policy), policy,
                                          session_options(engine));
        run.time("run", [&] { dev.run(timed_cycles); });
        sim::Machine& m = dev.machine();
        run.count("instructions", m.cpu().instructions_retired());
        run.count("sim_cycles", m.cycles());
        run.count("blocks", m.blocks_executed());
        run.count("dispatches", m.block_dispatches());
        EngineRun out{m.cpu().instructions_retired(), m.cycles()};
        if (policy == EnforcementPolicy::kCfaBaseline) {
          out.verdict = verdict_fingerprint(local.verifier().attest(dev));
        }
        // Untimed: the traced run for the cross-engine fingerprint.
        DeviceSession& traced = local.deploy("traced", build_for(policy),
                                             policy, session_options(engine));
        TraceFingerprint trace;
        traced.machine().add_monitor(&trace);
        traced.run(traced_cycles);
        out.trace_hash = trace.hash();
        out.trace_steps = trace.steps();
        return out;
      }, base);
    }
  }

  // Fleet sweep: N devices on shared builds, the shipping (superblock)
  // engine, driven from the largest pool of the sweep.
  const size_t sweep = cells.add("fleet-sweep", pools.threads(sweep_row), [&](CellRun& run) {
    Fleet local;
    std::vector<DeviceSession*> devices;
    for (size_t i = 0; i < fleet_devices; ++i) {
      EnforcementPolicy policy = kPolicies[i % 4];
      devices.push_back(&local.deploy(
          "fleet-" + std::to_string(i), build_for(policy), policy,
          session_options(ExecutionEngine::kSuperblock)));
    }
    run.time("run", [&] {
      pools.pool(sweep_row).parallel_for(devices.size(), [&](size_t i) {
        std::lock_guard<std::mutex> lock(devices[i]->mutex());
        devices[i]->run(fleet_cycles);
      });
    });
    uint64_t instructions = 0;
    for (DeviceSession* dev : devices) {
      instructions += dev->machine().cpu().instructions_retired();
    }
    return EngineRun{instructions, 0, ""};
  });

  cells.run(rounds);
  bool ok = cells.ok();

  std::printf("Simulator core throughput (%s: %llu cycles/run, %d rounds, "
              "thread CPU time)\n\n",
              smoke ? "smoke" : "full",
              static_cast<unsigned long long>(timed_cycles), rounds);
  std::printf("%-13s | %-22s | %-22s | %-8s | %-6s | %-10s | %s\n", "policy",
              "interp ms [q1, q3]", "superb ms [q1, q3]", "blk x", "tax",
              "dispatches", "trace");
  print_rule(104);

  double none_mips = 0;  // kNone runs first: every monitor_tax divides it
  std::vector<Json> rows;
  for (size_t p = 0; p < std::size(kPolicies); ++p) {
    const EnforcementPolicy policy = kPolicies[p];
    const size_t interp = 2 * p;
    const size_t superb = 2 * p + 1;
    const auto& counts = cells.counts(superb);
    const double insns = static_cast<double>(counts.at("instructions"));
    auto mips = [&](size_t cell) {
      const double ms = cells.stats(cell, "run").median;
      return ms > 0 ? insns / (ms * 1e3) : 0.0;
    };
    const bool identical = cells.ok(superb);
    // The superblock run must actually have engaged block dispatch (and
    // the interpretive one must not have).
    const bool engaged_ok = counts.at("blocks") > 0 &&
                            cells.counts(interp).at("blocks") == 0;
    ok = ok && engaged_ok;
    if (!engaged_ok) {
      std::printf("  !! %s: block dispatch engagement wrong\n",
                  cells.label(superb).c_str());
    }

    if (policy == EnforcementPolicy::kNone) none_mips = mips(superb);
    const double monitor_tax = mips(superb) > 0 ? none_mips / mips(superb) : 0.0;
    const std::string name(enforcement_policy_name(policy));
    Json row;
    row.text("policy", name);
    add_columns(row, cells, superb, {"run"});
    row.num("interp_ms", cells.stats(interp, "run").median)
        .num("mips_interpretive", mips(interp), 1)
        .num("mips_superblock", mips(superb), 1);
    const double speedup =
        add_speedup(row, cells, interp, superb, "run", "speedup_superblock");
    row.num("monitor_tax", monitor_tax)
        .flag("trace_identical", identical)
        .flag("verdict_identical", identical);
    std::printf("%-13s | %-22s | %-22s | %7.2fx | %5.2fx | %10llu | %s\n",
                name.c_str(), spread(cells.stats(interp, "run"), 1).c_str(),
                spread(cells.stats(superb, "run"), 1).c_str(), speedup,
                monitor_tax,
                static_cast<unsigned long long>(counts.at("dispatches")),
                identical ? "same" : "DIFFER");
    rows.push_back(row);
  }

  const Stats sweep_wall = cells.stats(sweep, "run", &Sample::wall_ms);
  const double fleet_mips =
      sweep_wall.median > 0
          ? static_cast<double>(cells.result(sweep).instructions) /
                (sweep_wall.median * 1e3)
          : 0.0;
  std::printf("\nfleet sweep: %zu devices x %llu cycles on %zu threads: "
              "wall %s ms, CPU %s ms, aggregate %.1f MIPS (wall)\n",
              fleet_devices, static_cast<unsigned long long>(fleet_cycles),
              pools.threads(sweep_row), spread(sweep_wall, 1).c_str(),
              spread(cells.stats(sweep, "run"), 1).c_str(), fleet_mips);

  Json fleet_json;
  fleet_json.count("devices", fleet_devices)
      .count("threads", pools.threads(sweep_row))
      .count("cycles_per_device", fleet_cycles)
      .num("wall_ms", sweep_wall.median, 1)
      .num("cpu_ms", cells.stats(sweep, "run").median, 1)
      .num("aggregate_mips", fleet_mips, 1);
  report("sim_throughput", smoke, rounds)
      .count("cycles_per_run", timed_cycles)
      .array("policies", rows)
      .object("fleet", fleet_json)
      .flag("ok", ok)
      .write("BENCH_sim_throughput.json");

  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
