// Secure-update-campaign throughput: a mixed-version fleet of
// CFA-attested devices (half provisioned on firmware v1, half on v2)
// staged onto v3 through Fleet::stage_update(), once per pool size in
// the {1, 2, 4} sweep capped at the host's hardware threads
// (bench_util.h; the 1-thread row runs the same pooled rollout on
// ThreadPool::inline_pool()), with per-device locking. The adversarial
// prelude sends every third device a forged package and replays a
// captured stale package at every other third after the rollout, so
// the timed path includes devices that healed from abuse.
//
// Correctness gates (the bench FAILS on any violation):
//   - every forged package is rejected kBadMac and the device heals,
//   - the campaign returns one outcome per device and every outcome is
//     kApplied (versions bump per device),
//   - every replayed stale package is rejected kRollback,
//   - post-rollout, the sweep returns one verdict per device, every
//     device attests ok() against the new CFG and still runs
//     predecoded,
//   - each row's outcome tuples are identical to the 1-thread row's, in
//     input order (verdict determinism), and every round repeats
//     round 0's,
//   - an untimed refusal pass after the rows: with a few devices' code
//     patched out of band (a secure-ROM byte, a PMEM byte, or the reset
//     vector at 0xFFFF), exactly those devices are refused
//     kImageMismatch and every other device is kApplied, with identical
//     outcome tuples from a serial and a pooled rollout.
// The rollout is timed in CPU time over two interleaved rounds (the
// second must repeat the first); its CPU-work and wall ratios over the
// 1-thread row are printed, not gated.
//
// Usage: bench_update_campaign [--smoke]   (--smoke: CI-sized fleet)
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/eilid/fleet.h"
#include "src/sim/memory_map.h"

using namespace eilid;
using namespace eilid::bench;

namespace {

// One row: a fresh mixed-version fleet, the adversarial prelude, then
// the timed rollout over `pool`. Returns the campaign outcomes.
std::vector<UpdateOutcome> run_row(CellRun& run, size_t devices,
                                   common::ThreadPool& pool) {
  // Mixed-version fleet: even devices on generation 1, odd on 2 -- one
  // campaign heals both onto generation 3 (two cached diffs).
  Fleet fleet;
  for (size_t i = 0; i < devices; ++i) {
    DeviceSession& dev = fleet.provision(
        "dev-" + std::to_string(i), firmware(i % 2 == 0 ? 1 : 2), "fw",
        EnforcementPolicy::kCfaBaseline);
    dev.run_to_symbol("halt", 100000);
  }

  UpdateCampaign campaign =
      fleet.stage_update(firmware(3), "fw", {.eilid = false});
  std::vector<DeviceSession*> sessions = fleet.sessions();

  // Adversarial prelude: forged packages at every third device (the
  // device latches the violation and heals by reset), and a genuine
  // package captured at every other third for post-rollout replay.
  std::vector<std::pair<DeviceSession*, casu::UpdatePackage>> captured;
  for (size_t i = 0; i < sessions.size(); ++i) {
    if (i % 3 == 1) {
      casu::UpdatePackage forged = campaign.package_for(*sessions[i]);
      forged.mac[0] ^= 0xFF;
      const bool rejected =
          sessions[i]->apply_update(forged) == casu::UpdateStatus::kBadMac;
      sessions[i]->machine().run(100);  // latched violation -> reset
      run.check(rejected && sessions[i]->last_reset_reason() == "update-auth",
                "forged package not rejected and healed");
    } else if (i % 3 == 2) {
      captured.emplace_back(sessions[i], campaign.package_for(*sessions[i]));
    }
  }

  std::vector<UpdateOutcome> outcomes;
  run.time("rollout", [&] { outcomes = campaign.roll_out(sessions, pool); });

  run.check(outcomes.size() == devices, "rollout lost devices");
  for (const auto& outcome : outcomes) {
    run.check(outcome.result == UpdateResult::kApplied &&
                  outcome.build_swapped && outcome.cfg_staged,
              "campaign outcome not applied");
  }
  for (auto& [session, package] : captured) {
    run.check(session->apply_update(package) == casu::UpdateStatus::kRollback,
              "stale package not rejected kRollback");
  }
  for (auto* session : sessions) {
    session->run_to_symbol("halt", 100000);
    run.check(session->machine().cpu().decode_cache_valid(),
              "device fell off its predecoded table");
  }
  const auto verdicts = fleet.verifier().verify_all(pool);
  run.check(verdicts.size() == devices, "post-rollout sweep lost devices");
  for (const auto& verdict : verdicts) {
    run.check(verdict.ok(), "post-rollout verdict not ok");
  }
  run.count("applied", outcomes.size());
  run.count("verdicts", verdicts.size());
  return outcomes;
}

// Devices the refusal pass patches out of band: every eighth.
bool patched(size_t i) { return i % 8 == 5; }

// Mixed-version fleet as in run_row, with the patched devices' code
// flipped by one byte behind the update engine's back (raw bus store,
// no package), then rolled out to generation 3 over `pool` (untimed):
// exactly the patched devices must be refused kImageMismatch.
std::vector<UpdateOutcome> mismatch_rollout(CellRun& run, size_t devices,
                                            common::ThreadPool& pool) {
  Fleet fleet;
  for (size_t i = 0; i < devices; ++i) {
    DeviceSession& dev = fleet.provision(
        "dev-" + std::to_string(i), firmware(i % 2 == 0 ? 1 : 2), "fw",
        EnforcementPolicy::kCfaBaseline);
    dev.run_to_symbol("halt", 100000);
    if (!patched(i)) continue;
    const uint16_t targets[] = {static_cast<uint16_t>(sim::kRomStart + i),
                                static_cast<uint16_t>(0xE800 + i), 0xFFFF};
    const uint16_t addr = targets[(i / 8) % 3];
    sim::Bus& bus = dev.machine().bus();
    bus.raw_store_byte(addr, static_cast<uint8_t>(bus.raw_byte(addr) ^ 0xA5));
  }
  UpdateCampaign campaign =
      fleet.stage_update(firmware(3), "fw", {.eilid = false});
  std::vector<UpdateOutcome> outcomes =
      campaign.roll_out(fleet.sessions(), pool);
  uint64_t refused = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const UpdateResult expected =
        patched(i) ? UpdateResult::kImageMismatch : UpdateResult::kApplied;
    run.check(outcomes[i].result == expected,
              outcomes[i].device_id + " is " +
                  std::string(update_result_name(outcomes[i].result)) +
                  ", expected " + std::string(update_result_name(expected)));
    refused += patched(i) ? 1 : 0;
  }
  run.check(outcomes.size() == devices, "refusal pass lost devices");
  run.count("refused", refused);
  return outcomes;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);
  const size_t devices = smoke ? 64 : 256;
  const int rounds = 2;
  PoolSweep pools;
  Cells<std::vector<UpdateOutcome>> cells;
  add_pool_rows(cells, pools, [devices](CellRun& run, common::ThreadPool& pool) {
    return run_row(run, devices, pool);
  });
  const size_t refusal = cells.size();
  add_pool_rows(
      cells, pools,
      [devices](CellRun& run, common::ThreadPool& pool) {
        return mismatch_rollout(run, devices, pool);
      },
      " refusal pass");
  cells.run(rounds);
  const bool ok = cells.ok();

  std::printf("Update campaign (%s): %zu devices, mixed v1/v2 fleet -> v3, "
              "1/3 forged, 1/3 replayed, %d rounds\n",
              smoke ? "smoke" : "full", devices, rounds);
  for (size_t row = 0; row < pools.size(); ++row) {
    print_cell(cells, 0, row, {"rollout"}, "rollout");
  }
  std::printf("outcomes: %zu per row, identical across all pool sizes\n",
              cells.result(0).size());

  std::printf("refusal pass: %llu patched devices refused image-mismatch, "
              "the rest applied, identical across all pool sizes\n",
              static_cast<unsigned long long>(
                  cells.counts(refusal).at("refused")));

  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
