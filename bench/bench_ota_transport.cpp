// Lossy-transport OTA throughput: a fleet of CFA-attested devices is
// moved to the next firmware over the chunked simulated pipe, once per
// (pool size x loss rate) cell -- pool sizes in the {1, 2, 4} sweep
// capped at the host's hardware threads (bench_util.h), chunk drop
// rates in {0, 1%, 5%} (0 / 10 / 50 per mille, with corruption at half
// the drop rate riding along). The 1-thread row of each loss rate runs
// the same pooled rollout on ThreadPool::inline_pool(); the others fan
// out over common::ThreadPool with per-device locking. Fault streams
// are keyed per device (common::SeededRng::keyed(seed, device_id)),
// which is what the determinism gate exercises at scale.
//
// Correctness gates (the bench FAILS on any violation):
//   - every delivery converges to kApplied within the retry budget,
//     at every loss rate,
//   - the rollout returns one outcome and the post-rollout sweep one
//     verdict per device, and every device attests ok() against the
//     new CFG,
//   - lossy rows really retransmitted (the pipe was not a no-op),
//   - each pooled cell's outcome tuples -- attempts, resumes and
//     retransmit counts included -- are identical to that loss rate's
//     1-thread cell, in input order (transport determinism), and every
//     round repeats round 0's.
// Rollouts are timed in CPU time over interleaved rounds. The pooled
// cells are gated on the work the program counts: the `count_*`
// columns (bytes shipped and retransmitted, delivery attempts,
// post-rollout verdicts) must match the 1-thread cell's exactly, and
// scripts/check_bench_regression.py gates them exactly. The CPU-work
// ratio (`cpu_speedup_loss*`, the 1-thread cell's CPU / this cell's)
// and `wall_speedup_loss*` are recorded, not gated.
//
// Results land in BENCH_ota_transport.json (committed at the repo
// root; regenerate with a full-mode Release run).
//
// Usage: bench_ota_transport [--smoke]   (--smoke: CI-sized fleet)
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/eilid/fleet.h"
#include "src/eilid/transport.h"

using namespace eilid;
using namespace eilid::bench;

namespace {

// Generations differ by hundreds of unrolled calls, so the build diff
// spans most of the image (`emit` shifts, re-pointing every call site)
// and each delivery ships dozens of chunks -- enough per-device work
// for the thread-scaling ratios to mean something.
constexpr int kCallsPerGeneration = 128;

constexpr uint32_t kLossPerMille[] = {0, 10, 50};

// One cell: a fresh fleet moved to generation 2 over `pool` through a
// pipe losing `loss_per_mille`. Returns the campaign outcomes.
std::vector<UpdateOutcome> run_cell(CellRun& run, size_t devices,
                                    uint32_t loss_per_mille,
                                    common::ThreadPool& pool) {
  Fleet fleet;
  for (size_t i = 0; i < devices; ++i) {
    DeviceSession& dev =
        fleet.provision("dev-" + std::to_string(i),
                        firmware(1, kCallsPerGeneration), "fw",
                        EnforcementPolicy::kCfaBaseline);
    dev.run_to_symbol("halt", 100000);
  }

  CampaignOptions options;
  TransportOptions transport;
  transport.chunk_size = 32;
  transport.seed = 0x07A0 + loss_per_mille;
  transport.max_rounds = 64;
  transport.faults = {.drop_per_mille = loss_per_mille,
                      .corrupt_per_mille = loss_per_mille / 2};
  options.transport = transport;
  UpdateCampaign campaign =
      fleet.stage_update(firmware(2, kCallsPerGeneration), "fw",
                         {.eilid = false}, options);

  const std::string loss = "loss" + std::to_string(loss_per_mille / 10);
  std::vector<UpdateOutcome> outcomes;
  run.time(loss, [&] { outcomes = campaign.roll_out(pool); });

  uint64_t payload = 0;
  uint64_t retransmitted = 0;
  uint64_t attempts = 0;
  for (const auto& outcome : outcomes) {
    run.check(outcome.result == UpdateResult::kApplied && outcome.build_swapped,
              "delivery did not converge to kApplied");
    payload += outcome.payload_bytes;
    retransmitted += outcome.bytes_retransmitted;
    attempts += outcome.attempts;
  }
  run.check(outcomes.size() == devices, "rollout lost devices");
  run.check(loss_per_mille == 0 || retransmitted > 0,
            "no retransmissions -- the lossy pipe did nothing");
  const auto verdicts = fleet.verifier().verify_all(pool);
  run.check(verdicts.size() == devices, "post-rollout sweep lost devices");
  for (const auto& verdict : verdicts) {
    run.check(verdict.ok(), "post-rollout verdict not ok");
  }
  run.count("verdicts_" + loss, verdicts.size());
  run.count("payload_bytes_" + loss, payload);
  run.count("bytes_retransmitted_" + loss, retransmitted);
  run.count("attempts_" + loss, attempts);
  return outcomes;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);
  const size_t devices = smoke ? 64 : 256;
  const int rounds = smoke ? 21 : 5;
  PoolSweep pools;

  // cell(l, row): loss rate l on pool row `row`; each loss rate's
  // 1-thread cell is the base of its row.
  Cells<std::vector<UpdateOutcome>> cells;
  auto cell = [&pools](size_t l, size_t row) { return l * pools.size() + row; };
  for (uint32_t pm : kLossPerMille) {
    add_pool_rows(
        cells, pools,
        [devices, pm](CellRun& run, common::ThreadPool& pool) {
          return run_cell(run, devices, pm, pool);
        },
        " loss=" + std::to_string(pm) + "pm");
  }
  cells.run(rounds);

  std::printf("OTA transport (%s): %zu devices, chunked lossy pipe, "
              "drop rates 0%%/1%%/5%%, %d rounds, CPU ms median "
              "[q1, q3]\n",
              smoke ? "smoke" : "full", devices, rounds);
  std::vector<Json> rows;
  for (size_t row = 0; row < pools.size(); ++row) {
    Json json;
    json.count("threads", pools.threads(row));
    bool gates_ok = true;
    for (size_t l = 0; l < std::size(kLossPerMille); ++l) {
      const std::string loss = "loss" + std::to_string(kLossPerMille[l] / 10);
      print_cell(cells, cell(l, 0), cell(l, row), {loss}, loss);
      add_columns(json, cells, cell(l, row), {loss});
      add_speedup(json, cells, cell(l, 0), cell(l, row), loss, "speedup_" + loss);
      gates_ok = gates_ok && cells.ok(cell(l, row));
    }
    rows.push_back(json.flag("gates_ok", gates_ok));
  }
  const bool ok = cells.ok();
  std::printf("retransmitted at 5%% loss: %llu bytes over %zu devices\n",
              static_cast<unsigned long long>(
                  cells.counts(cell(2, 0)).at("bytes_retransmitted_loss5")),
              devices);
  std::printf("outcomes per cell identical across all pool sizes: %s\n",
              ok ? "yes" : "NO");

  report("ota_transport", smoke, rounds)
      .count("pool_cap", pools.cap())
      .count("devices", devices)
      .array("rows", rows)
      .flag("ok", ok)
      .write("BENCH_ota_transport.json");
  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
