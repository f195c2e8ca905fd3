// Fleet-scale baseline for the parallel engine: 256 CFA-attested
// devices from 4 cached builds (64 per Table IV app), provisioned,
// simulated to halt, and batch-verified twice -- once per pool size in
// the {1, 2, 4} sweep capped at the host's hardware threads
// (bench_util.h). The 1-thread row runs the same pooled calls on
// ThreadPool::inline_pool(); the other rows fan out through
// common::ThreadPool (device registry + single-flight cache under real
// contention, apps::run_workload_all(), pooled verify_all()).
//
// Correctness gates (the bench FAILS on any violation):
//   - every device reaches halt with a passing host check,
//   - every attestation verdict is ok(), in enrollment-id order,
//   - the four apps cost exactly four pipeline runs,
//   - each row's verdict tuples are byte-identical to the 1-thread
//     row's, and every round repeats round 0's.
// Phases are timed in CPU time over two interleaved rounds (the second
// must repeat the first); each row prints its phases and the simulate
// phase's CPU-work and wall ratios over the 1-thread row, not gated.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/apps.h"
#include "src/eilid/fleet.h"

using namespace eilid;
using namespace eilid::bench;

namespace {

constexpr int kDevicesPerApp = 64;
const char* kAppNames[4] = {"light_sensor", "temp_sensor", "charlieplexing",
                            "lcd_sensor"};
const std::vector<std::string> kPhases = {"provision", "simulate", "attest"};

// One row: provision, simulate and attest a fresh fleet over `pool`;
// returns the verdict tuples of both sweeps.
std::vector<std::string> run_row(CellRun& run, common::ThreadPool& pool) {
  Fleet fleet;
  std::vector<std::string> ids;
  std::vector<const apps::AppSpec*> specs;
  for (const char* name : kAppNames) {
    const auto& app = apps::app_by_name(name);
    for (int i = 0; i < kDevicesPerApp; ++i) {
      ids.push_back(app.name + "-" + std::to_string(i));
      specs.push_back(&app);
    }
  }

  std::vector<apps::FleetWorkload> work(ids.size());
  run.time("provision", [&] {
    pool.parallel_for(ids.size(), [&](size_t i) {
      DeviceSession& dev = fleet.provision(
          ids[i], specs[i]->source, specs[i]->name,
          EnforcementPolicy::kCfaBaseline, {.cfa = {.log_capacity = 1 << 17}});
      work[i] = {&dev, specs[i], 0};
    });
  });
  run.check(fleet.size() == ids.size() && fleet.pipeline_runs() == 4,
            "provisioning lost devices or repeated a pipeline run");

  std::vector<apps::WorkloadOutcome> outcomes;
  run.time("simulate", [&] { outcomes = apps::run_workload_all(work, pool); });
  for (const auto& outcome : outcomes) {
    run.check(outcome.reached_halt && outcome.check_failure.empty(),
              "device did not halt cleanly");
  }

  // Two full sweeps: drained logs, then empty logs.
  std::vector<VerifierService::AttestResult> verdicts;
  run.time("attest", [&] {
    for (int sweep = 0; sweep < 2; ++sweep) {
      auto swept = fleet.verifier().verify_all(pool);
      verdicts.insert(verdicts.end(), swept.begin(), swept.end());
    }
  });
  std::vector<std::string> fingerprints;
  for (size_t i = 0; i < verdicts.size(); ++i) {
    run.check(verdicts[i].ok(), "verdict not ok");
    run.check(i % ids.size() == 0 ||
                  verdicts[i - 1].device_id < verdicts[i].device_id,
              "verdicts not in enrollment-id order");
    fingerprints.push_back(verdict_fingerprint(verdicts[i]));
  }
  run.count("verdicts", fingerprints.size());
  return fingerprints;
}

}  // namespace

int main() {
  const int rounds = 2;
  PoolSweep pools;
  Cells<std::vector<std::string>> cells;
  add_pool_rows(cells, pools, run_row);
  cells.run(rounds);

  std::printf("Fleet parallel scale: %zu devices, 4 pipeline runs per row, "
              "%d rounds, CPU ms median [q1, q3], ratios for simulate\n",
              std::size(kAppNames) * kDevicesPerApp, rounds);
  for (size_t row = 0; row < pools.size(); ++row) {
    print_cell(cells, 0, row, kPhases, "simulate");
  }
  std::printf("verdicts: %zu per row, identical across all pool sizes, "
              "enrollment-id ordered\n",
              cells.result(0).size());

  const bool ok = cells.ok();
  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
