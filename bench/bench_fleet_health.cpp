// Fleet-health throughput: heartbeat attestation sweeps and automated
// self-healing at fleet scale, driven entirely on the deterministic
// FleetClock. Per pool size in the {1, 2, 4} sweep capped at the
// host's hardware threads (bench_util.h; 1 = the same pooled calls on
// ThreadPool::inline_pool()):
//
//   1. cadence sweep -- a healthy fleet swept by HeartbeatScheduler at
//      periods {25, 50, 100} over a 1000-tick horizon; verdicts/sec
//      reported, every verdict must be ok() and the beat count must
//      match horizon/period exactly,
//   2. self-healing pass -- 1/8 of the fleet forced offline (goes
//      stale) and another 1/8 diverged by a rogue validly-MAC'd patch
//      (convicts at the first beat); the HealthMonitor must quarantine
//      exactly those devices, heal the convicted ones immediately
//      (reflash -> re-update onto the golden build -> clean verdict),
//      refuse to touch the unreachable ones until they come back, then
//      heal them too, ending with an empty quarantine and a fleet that
//      attests clean.
//
// Correctness gates (the bench FAILS on any violation): the membership
// checks above, plus determinism -- every pool size's sequence of
// HealthReports (and cadence HeartbeatReports) must be bit-identical
// to the 1-thread row's and repeat every round, including the
// mid-scenario per-device staleness histogram (snapshotted right after
// the stale eighth is quarantined: exactly the devices past the policy
// threshold must sit in the over-threshold buckets).
//
// Both scenarios are timed in CPU time over interleaved rounds. The
// pooled rows are gated on the work the program counts, not on time:
// the `count_*` columns (cadence verdicts, remediations, health-monitor
// heartbeats and missed beats) must match the 1-thread row's exactly,
// and the checker gates them exactly against the baseline.
// `cpu_speedup` (1-thread cadence CPU / this row's, the pooled path's
// overhead in work) and `wall_speedup` are recorded, not gated: on a
// shared host the CPU ratio reads about 0.3x when the workers overlap
// and contend and 0.7x when the host serializes them. Results land in
// BENCH_fleet_health.json (committed at the repo root; CI re-runs
// --smoke and scripts/check_bench_regression.py compares it with the
// smoke block).
//
// Usage: bench_fleet_health [--smoke]   (--smoke: CI-sized fleet)
#include <cstdio>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "bench/bench_util.h"
#include "src/eilid/fleet.h"
#include "src/eilid/health.h"

using namespace eilid;
using namespace eilid::bench;

namespace {

bool forced_offline(size_t i) { return i % 8 == 3; }   // goes stale
bool forced_diverged(size_t i) { return i % 8 == 6; }  // convicts

constexpr Tick kCadences[] = {25, 50, 100};
constexpr Tick kHorizon = 1000;

// Staleness histogram bucket upper edges (ticks since the last clean
// verdict); the final bucket is everything past the last edge.
constexpr Tick kStalenessEdges[] = {50, 100, 200, 400};
constexpr size_t kStalenessBuckets =
    sizeof(kStalenessEdges) / sizeof(kStalenessEdges[0]) + 1;

// What every row and round must reproduce exactly: the cadence
// reports, the self-healing reports and the staleness histogram.
struct RowOutcome {
  std::vector<HeartbeatReport> cadence_reports;
  std::vector<HealthReport> heal_reports;
  // Per-device staleness histogram, snapshotted after pass 2 (see
  // below): counts per kStalenessEdges bucket, last bucket = overflow.
  std::vector<size_t> staleness_hist;
  bool operator==(const RowOutcome&) const = default;
};

RowOutcome run_row(CellRun& run, size_t devices, common::ThreadPool& pool) {
  RowOutcome out;
  Fleet fleet;
  for (size_t i = 0; i < devices; ++i) {
    DeviceSession& dev =
        fleet.provision(device_id(i), firmware(0), "fw",
                        EnforcementPolicy::kCfaBaseline,
                        {.cfa = {.log_capacity = 65536}});
    dev.run_to_symbol("halt", 100000);
  }
  auto gen0 = fleet.at(device_id(0)).shared_build();
  auto golden = fleet.build(firmware(1), "fw", {.eilid = false});

  // --- 1. cadence sweep over the healthy fleet -----------------------
  size_t verdicts = 0;
  for (Tick period : kCadences) {
    HeartbeatScheduler scheduler(fleet, {.period = period});
    const Tick deadline = fleet.clock().now() + kHorizon;
    HeartbeatReport report;
    run.time("cadence", [&] { report = scheduler.run_until(deadline, pool); });
    run.check(report.beats.size() == kHorizon / period,
              "cadence beat count mismatch");
    for (const HeartbeatBeat& beat : report.beats) {
      run.check(beat.verdicts.size() == devices && beat.missed.empty(),
                "cadence sweep missed devices");
      for (const auto& verdict : beat.verdicts) {
        run.check(verdict.ok(), "cadence verdict not ok");
      }
      verdicts += beat.verdicts.size();
    }
    out.cadence_reports.push_back(std::move(report));
  }
  run.count("verdicts", verdicts);

  // --- 2. self-healing: forced-stale + forced-conviction -------------
  std::set<std::string> offline_ids;
  std::set<std::string> diverged_ids;
  for (size_t i = 0; i < devices; ++i) {
    if (forced_offline(i)) {
      fleet.at(device_id(i)).set_online(false);
      offline_ids.insert(device_id(i));
    } else if (forced_diverged(i)) {
      DeviceSession& dev = fleet.at(device_id(i));
      const crypto::Digest key = fleet.update_key(device_id(i));
      casu::UpdateAuthority authority(
          std::span<const uint8_t>(key.data(), key.size()));
      run.check(dev.apply_update(authority.make_package(
                    0xE800, dev.firmware_version() + 1, {0x03, 0x43})) ==
                    casu::UpdateStatus::kApplied,
                "rogue package refused");
      diverged_ids.insert(device_id(i));
    }
  }

  HealthMonitor health(fleet, {.heartbeat = {.period = 100, .jitter = 9,
                                             .jitter_seed = 42},
                               .policy = {.staleness_threshold = 250}});
  health.stage_remediation(fleet.stage_update(golden));
  const Tick t_start = fleet.clock().now();
  size_t remediations = 0;
  auto run_pass = [&](Tick deadline) {
    HealthReport report;
    run.time("heal", [&] { report = health.run_until(deadline, pool); });
    remediations += report.remediations.size();
    out.heal_reports.push_back(report);
    return report;
  };
  auto quarantined_ids = [](const std::vector<QuarantineEntry>& entries) {
    std::set<std::string> ids;
    for (const auto& entry : entries) ids.insert(entry.device_id);
    return ids;
  };

  // Pass 1: first beat. Diverged devices convict, quarantine, and heal
  // in one pass; offline devices miss but are not yet stale.
  HealthReport pass = run_pass(t_start + 150);
  run.check(quarantined_ids(pass.newly_quarantined) == diverged_ids,
            "pass 1: conviction quarantine membership wrong");
  for (const auto& entry : pass.newly_quarantined) {
    run.check(entry.reason == QuarantineReason::kConvicted,
              "pass 1: conviction reason wrong");
  }
  run.check(pass.remediations.size() == diverged_ids.size(),
            "pass 1: remediation count wrong");
  for (const auto& heal : pass.remediations) {
    run.check(heal.healed && heal.update.result == UpdateResult::kApplied &&
                  heal.verdict.ok(),
              "pass 1: convicted device did not heal");
  }
  run.check(pass.quarantined_after == 0, "pass 1: quarantine not empty");

  // Pass 2: the offline eighth ages past the staleness threshold. They
  // are quarantined but unreachable -- remediation must not pretend.
  pass = run_pass(t_start + 400);
  run.check(quarantined_ids(pass.newly_quarantined) == offline_ids,
            "pass 2: staleness quarantine membership wrong");
  for (const auto& entry : pass.newly_quarantined) {
    run.check(entry.reason == QuarantineReason::kStale,
              "pass 2: staleness reason wrong");
  }
  for (const auto& heal : pass.remediations) {
    run.check(!heal.reachable && !heal.healed,
              "pass 2: unreachable device 'remediated'");
  }
  run.check(pass.quarantined_after == offline_ids.size(),
            "pass 2: stale devices not held in quarantine");

  // Staleness histogram at the scenario's most contrasty moment: the
  // online seven-eighths beat clean moments ago, the offline eighth has
  // aged past the threshold. Staleness = ticks since the last clean
  // verdict (enrollment when there never was one).
  {
    const Tick now = fleet.clock().now();
    out.staleness_hist.assign(kStalenessBuckets, 0);
    size_t over_threshold = 0;
    for (const FreshnessRecord& record : health.records()) {
      const Tick anchor =
          record.ever_ok ? record.last_ok_tick : record.enrolled_tick;
      const Tick age = now >= anchor ? now - anchor : 0;
      size_t bucket = kStalenessBuckets - 1;
      for (size_t b = 0; b < kStalenessBuckets - 1; ++b) {
        if (age <= kStalenessEdges[b]) {
          bucket = b;
          break;
        }
      }
      ++out.staleness_hist[bucket];
      if (age > 250) ++over_threshold;  // the monitor's threshold
    }
    run.check(over_threshold == offline_ids.size(),
              "staleness histogram: over-threshold population wrong");
  }

  // Pass 3: the stale devices come back online and heal -- reflash,
  // re-update onto the golden build, clean verdict, released.
  for (const std::string& id : offline_ids) fleet.at(id).set_online(true);
  pass = run_pass(t_start + 500);
  run.check(pass.remediations.size() == offline_ids.size(),
            "pass 3: remediation count wrong");
  for (const auto& heal : pass.remediations) {
    run.check(heal.healed && heal.update.result == UpdateResult::kApplied &&
                  heal.verdict.ok(),
              "pass 3: stale device did not heal");
  }
  run.check(pass.quarantined_after == 0, "pass 3: quarantine not empty");

  // Pass 4: steady state -- nothing new quarantines, every beat clean.
  pass = run_pass(t_start + 700);
  run.check(pass.newly_quarantined.empty() && pass.quarantined_after == 0,
            "pass 4: steady state not clean");
  for (const auto& beat : pass.heartbeats.beats) {
    for (const auto& verdict : beat.verdicts) {
      run.check(verdict.ok(), "pass 4: verdict not ok");
    }
  }
  run.count("remediations", remediations);
  uint64_t beats = 0;
  uint64_t misses = 0;
  for (const FreshnessRecord& record : health.records()) {
    beats += record.heartbeats;
    misses += record.misses;
  }
  run.count("heartbeats", beats);
  run.count("heartbeat_misses", misses);

  // Healed devices genuinely run the golden build; untouched devices
  // were never moved off generation 0.
  for (size_t i = 0; i < devices; ++i) {
    DeviceSession& dev = fleet.at(device_id(i));
    const bool healed = forced_offline(i) || forced_diverged(i);
    run.check(dev.shared_build().get() == (healed ? golden.get() : gen0.get()),
              "final build placement wrong");
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);
  const size_t devices = smoke ? 64 : 256;
  const int rounds = smoke ? 15 : 5;
  PoolSweep pools;
  Cells<RowOutcome> cells;
  add_pool_rows(cells, pools, [devices](CellRun& run, common::ThreadPool& pool) {
    return run_row(run, devices, pool);
  });
  cells.run(rounds);

  std::printf("Fleet health (%s): %zu devices, cadences {25,50,100} over "
              "%llu ticks, 1/8 forced stale + 1/8 forced conviction, "
              "%d rounds\n",
              smoke ? "smoke" : "full", devices,
              static_cast<unsigned long long>(kHorizon), rounds);
  std::vector<Json> rows;
  for (size_t row = 0; row < pools.size(); ++row) {
    print_cell(cells, 0, row, {"cadence", "heal"}, "cadence");
    const double verdicts = cells.counts(row).at("verdicts");
    const double wall_ms = cells.stats(row, "cadence", &Sample::wall_ms).median;
    Json json;
    json.count("threads", pools.threads(row));
    add_columns(json, cells, row, {"cadence", "heal"});
    json.num("verdicts_per_sec", wall_ms > 0 ? 1000.0 * verdicts / wall_ms : 0.0,
             0);
    add_speedup(json, cells, 0, row, "cadence", "speedup");
    rows.push_back(json.flag("gates_ok", cells.ok(row)));
  }

  const RowOutcome& base = cells.result(0);
  std::printf("staleness histogram after pass 2 (ticks since last clean "
              "verdict):\n");
  std::vector<Json> hist;
  for (size_t b = 0; b < kStalenessBuckets; ++b) {
    const bool last = b == kStalenessBuckets - 1;
    const Tick edge = kStalenessEdges[last ? b - 1 : b];
    std::printf("  %s %4llu: %zu\n", last ? " >" : "<=",
                static_cast<unsigned long long>(edge), base.staleness_hist[b]);
    Json bucket;
    if (last) {
      bucket.null("le");
    } else {
      bucket.count("le", edge);
    }
    hist.push_back(bucket.count("count", base.staleness_hist[b]));
  }
  std::printf("reports: %zu heartbeat + %zu health per row, bit-identical "
              "across all pool sizes\n",
              base.cadence_reports.size(), base.heal_reports.size());

  const bool ok = cells.ok();
  report("fleet_health", smoke, rounds)
      .count("pool_cap", pools.cap())
      .count("devices", devices)
      .array("rows", rows)
      .array("staleness_histogram", hist)
      .flag("ok", ok)
      .write("BENCH_fleet_health.json");
  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
