// Staged-rollout throughput: a mixed-version fleet (half on firmware
// v1, half on v2) rolled onto v3 through Fleet::plan_rollout() with a
// 4-wave canary plan -- an explicit 4-device canary, then 25% / 50% /
// the rest -- an 8-device A/B hold, a rate limit, and an attestation
// gate after every wave. Each pool size in the {1, 2, 4} sweep capped
// at the host's hardware threads (bench_util.h; 1 = the same scheduler
// on ThreadPool::inline_pool()) runs the full plan; a second,
// adversarial pass forges one canary's transport under a zero failure
// budget, so the timed path includes a halting run.
//
// Correctness gates (the bench FAILS on any violation):
//   - clean plan: no halt, all 4 waves applied, every non-held device
//     lands on v3 and its wave gate came back ok(),
//   - held cohort devices never move, in both passes,
//   - halting plan: exactly wave 1 applied, the forged canary is
//     kBadMac, later waves' devices still run their old build,
//   - each pool size's reports (clean and halting) are bit-identical
//     to the 1-thread row's (rollout determinism), and every round
//     repeats round 0's.
// Both passes are timed in CPU time over two interleaved rounds (the
// second must repeat the first); their CPU-work and wall ratios over
// the 1-thread row are printed, not gated.
//
// Usage: bench_rollout [--smoke]   (--smoke: CI-sized fleet)
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/eilid/fleet.h"
#include "src/eilid/rollout.h"

using namespace eilid;
using namespace eilid::bench;

namespace {

constexpr size_t kHeld = 8;       // trailing devices pinned in the A/B hold
constexpr size_t kCanaries = 4;   // explicit first wave

RolloutPlan make_plan(size_t devices) {
  RolloutPlan plan;
  HoldSpec hold{"ab-cohort", {}};
  for (size_t i = devices - kHeld; i < devices; ++i) {
    hold.device_ids.push_back(device_id(i));
  }
  plan.holds.push_back(std::move(hold));
  WaveSpec canary{"canary", {}, 0.0};
  for (size_t i = 0; i < kCanaries; ++i) {
    canary.device_ids.push_back(device_id(i));
  }
  plan.waves = {canary,
                {"quarter", {}, 0.25},
                {"half", {}, 0.5},
                {"rest", {}, 1.0}};
  plan.max_in_flight = 32;
  return plan;
}

// One row: the clean pass then the halting pass, each on a fresh
// fleet, scheduled over `pool`. Returns both reports.
std::pair<RolloutReport, RolloutReport> run_row(CellRun& run, size_t devices,
                                                common::ThreadPool& pool) {
  auto build_fleet = [&](Fleet& fleet) {
    for (size_t i = 0; i < devices; ++i) {
      DeviceSession& dev = fleet.provision(
          device_id(i), firmware(i % 2 == 0 ? 1 : 2), "fw",
          EnforcementPolicy::kCfaBaseline);
      dev.run_to_symbol("halt", 100000);
    }
  };
  std::pair<RolloutReport, RolloutReport> reports;

  // --- clean pass: the plan completes, every wave gated. ---
  {
    Fleet fleet;
    build_fleet(fleet);
    auto target = fleet.build(firmware(3), "fw", {.eilid = false});
    CampaignScheduler scheduler =
        fleet.plan_rollout(target, make_plan(devices));
    RolloutReport& clean = reports.first;
    run.time("clean", [&] { clean = scheduler.run(pool); });

    run.check(!clean.halted && clean.waves_applied == 4,
              "clean plan halted or skipped a wave");
    size_t gated_ok = 0;
    for (const WaveOutcome& wave : clean.waves) {
      for (const auto& verdict : wave.gate) {
        if (verdict.ok()) ++gated_ok;
      }
      for (const auto& update : wave.updates) {
        run.check(update.result == UpdateResult::kApplied,
                  "clean plan update not applied");
      }
    }
    run.check(gated_ok == devices - kHeld, "wave gate verdict count wrong");
    for (size_t i = 0; i < devices; ++i) {
      DeviceSession& dev = fleet.at(device_id(i));
      const bool held = i >= devices - kHeld;
      const bool on_target = dev.shared_build().get() == target.get();
      run.check(held != on_target, "held device moved or free device stayed");
    }
    run.count("clean_waves", clean.waves_applied);
  }

  // --- halting pass: forged canary, zero budget. ---
  {
    Fleet fleet;
    build_fleet(fleet);
    auto target = fleet.build(firmware(3), "fw", {.eilid = false});
    CampaignOptions options;
    options.tamper = [](const DeviceSession& dev,
                        casu::UpdatePackage& package) {
      if (dev.id() == device_id(0)) package.mac[0] ^= 0xFF;
    };
    CampaignScheduler scheduler =
        fleet.plan_rollout(target, make_plan(devices), options);
    RolloutReport& halting = reports.second;
    run.time("halting", [&] { halting = scheduler.run(pool); });

    run.check(halting.halted && halting.waves_applied == 1,
              "halting plan did not stop after wave 1");
    run.check(!halting.waves.empty() && !halting.waves[0].updates.empty() &&
                  halting.waves[0].updates[0].result == UpdateResult::kBadMac,
              "forged canary not refused kBadMac");
    // Later waves stayed on their old builds; the hold never moved.
    for (size_t i = kCanaries; i < devices; ++i) {
      run.check(fleet.at(device_id(i)).shared_build().get() != target.get(),
                "device moved after the halt");
    }
  }
  return reports;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);
  const size_t devices = smoke ? 64 : 256;
  const int rounds = 2;
  PoolSweep pools;
  Cells<std::pair<RolloutReport, RolloutReport>> cells;
  add_pool_rows(cells, pools, [devices](CellRun& run, common::ThreadPool& pool) {
    return run_row(run, devices, pool);
  });
  cells.run(rounds);

  std::printf("Staged rollout (%s): %zu devices, 4-wave canary plan, "
              "%zu-device A/B hold, attestation gate per wave, %d rounds\n",
              smoke ? "smoke" : "full", devices, kHeld, rounds);
  for (size_t row = 0; row < pools.size(); ++row) {
    print_cell(cells, 0, row, {"clean", "halting"}, "clean");
  }
  std::printf("reports: %zu waves per plan, bit-identical across all pool "
              "sizes\n",
              cells.result(0).first.waves.size());

  const bool ok = cells.ok();
  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
