// Fleet at 10k: copy-on-write device memory + incremental windowed
// attestation, measured together at the scale that motivated them.
//
// One mixed-policy fleet (5/8 CFA-baseline, 1/8 CASU, 1/8 unprotected,
// 1/8 EILID-hw; a sprinkle of the CFA devices diverged by a rogue
// validly-MAC'd patch) is built once per variant and round --
// SEQUENTIALLY, so peak memory stays one fleet's worth -- and its
// evidence verified three ways over the same scenario (boot workload,
// then a rolling four-wave update campaign interleaved with
// verification):
//
//   barrier          -- VerifierService::verify_all full drains,
//   windowed-serial  -- IncrementalVerifier bounded slices on the
//                       rolling FleetClock schedule,
//   windowed-pooled  -- the same window fanned over the largest pool
//                       of the {1, 2, 4} sweep capped at the host's
//                       hardware threads (bench_util.h).
//
// Correctness gates (the bench FAILS on any violation):
//   - per-device folded AttestSummary maps and heartbeat records are
//     bit-identical across all three variants (hijacks convicted at the
//     same first edge, campaign epoch markers honored mid-window) and
//     repeat every round,
//   - exactly the diverged devices convict,
//   - resident bytes/device: the fleet-wide mean stays under
//     kMeanResidentGate and the worst device under kMaxResidentGate --
//     the copy-on-write memory diet, gated absolutely (a flat design
//     costs 65536 B/device before logs).
//
// Each variant's phases are timed in CPU time over interleaved rounds:
// provision, apply (campaign applies and reboots), run (device runs
// back to halt), heartbeat (the backoff window) and drain (the boot
// drain plus the four per-wave drains: verify_all() for barrier,
// drain_windowed() for the windowed rows). windowed-serial's gated
// speedup_vs_barrier is the median over rounds of barrier drain CPU /
// its drain CPU within one round. windowed-pooled is gated on the work
// it does (its summaries and counters must equal barrier's); its drain
// ratio is recorded as cpu_speedup_vs_barrier, not gated. The other
// phase times are informational.
//
// Results land in BENCH_fleet_10k.json (committed at the repo root; CI
// re-runs --smoke and scripts/check_bench_regression.py compares
// speedup_* ratios, resident_* absolutes and count_* columns (verdict
// edges, convictions, heartbeats and missed beats) against the
// baseline's smoke block; each row records the pool size it ran on as
// `threads`).
//
// Usage: bench_fleet_10k [--smoke]   (--smoke: 512 devices; full: 10000)
#include <cstdio>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/eilid/fleet.h"
#include "src/eilid/health.h"
#include "src/eilid/incremental.h"

using namespace eilid;
using namespace eilid::bench;

namespace {

EnforcementPolicy policy_for(size_t i) {
  switch (i % 8) {
    case 5: return EnforcementPolicy::kCasu;
    case 6: return EnforcementPolicy::kNone;
    case 7: return EnforcementPolicy::kEilidHw;
    default: return EnforcementPolicy::kCfaBaseline;
  }
}

bool is_cfa(size_t i) {
  return policy_for(i) == EnforcementPolicy::kCfaBaseline;
}
// Rogue validly-MAC'd out-of-band patch: convicts at the next drain.
bool diverged(size_t i) { return is_cfa(i) && i % 97 == 13; }
// Unreachable during the heartbeat window: exercises the exponential
// backoff path at fleet scale. CFA devices only (the heartbeat
// scheduler watches attestation-capable sessions), disjoint from the
// diverged set.
bool unreachable(size_t i) {
  return is_cfa(i) && i % 211 == 71 && !diverged(i);
}

constexpr size_t kWaves = 4;
constexpr uint64_t kHaltSpin = 300;  // halt-loop cycles -> log edges
// Heartbeat window start: a fixed tick past anything the drain phases
// can reach, so all variants beat on identical absolute schedules.
constexpr Tick kHeartbeatStart = 1 << 20;
// Memory-diet gates, in private bytes per device (pages + page tables
// + CFA log arena). A flat memory design starts at 65536 B before any
// log; the COW fleet must average far under that.
constexpr double kMeanResidentGate = 16384.0;
constexpr size_t kMaxResidentGate = 32768;

enum class Variant { kBarrier, kWindowedSerial, kWindowedPooled };
constexpr Variant kVariants[] = {Variant::kBarrier, Variant::kWindowedSerial,
                                 Variant::kWindowedPooled};
const char* const kVariantNames[] = {"barrier", "windowed-serial",
                                     "windowed-pooled"};
const std::vector<std::string> kPhases = {"provision", "apply", "run",
                                          "heartbeat", "drain"};

// What every variant and round must reproduce exactly.
struct VariantOutcome {
  std::map<std::string, AttestSummary> summaries;
  std::vector<FreshnessRecord> heartbeat_records;
  size_t resident_total = 0;  // bytes at the pre-drain peak
  size_t resident_max = 0;
  bool operator==(const VariantOutcome&) const = default;
};

void provision(CellRun& run, Fleet& fleet, size_t devices) {
  for (size_t i = 0; i < devices; ++i) {
    DeviceSession& dev =
        fleet.provision(device_id(i, 5), firmware(0), "fw", policy_for(i),
                        {.cfa = {.log_capacity = 65536}});
    dev.run_to_symbol("halt", 100000);
    dev.run(kHaltSpin);
  }
  for (size_t i = 0; i < devices; ++i) {
    if (!diverged(i)) continue;
    DeviceSession& dev = fleet.at(device_id(i, 5));
    const crypto::Digest key = fleet.update_key(device_id(i, 5));
    casu::UpdateAuthority authority(
        std::span<const uint8_t>(key.data(), key.size()));
    run.check(dev.apply_update(authority.make_package(
                  0xE800, dev.firmware_version() + 1, {0x03, 0x43})) ==
                  casu::UpdateStatus::kApplied,
              "rogue package refused");
  }
}

// Fold one barrier sweep into the per-device summary map.
void fold_sweep(std::map<std::string, AttestSummary>& acc,
                const std::vector<VerifierService::AttestResult>& results) {
  for (const auto& r : results) fold(acc[r.device_id], r);
}

// Drive the windowed verifier until no CFA device holds evidence.
bool drain_windowed(Fleet& fleet, IncrementalVerifier& verifier,
                    common::ThreadPool& pool) {
  for (int guard = 0; guard < 100000; ++guard) {
    bool pending = false;
    for (DeviceSession* s : fleet.sessions()) {
      if (s->cfa_monitor() != nullptr && s->cfa_monitor()->log_size() > 0) {
        pending = true;
        break;
      }
    }
    if (!pending) return true;
    verifier.run_until(fleet.clock().now() + verifier.options().period, pool);
  }
  return false;
}

VariantOutcome run_variant(CellRun& run, Variant variant, size_t devices,
                           common::ThreadPool& pool) {
  VariantOutcome out;
  Fleet fleet;
  run.time("provision", [&] { provision(run, fleet, devices); });

  // Memory-diet snapshot at the pre-drain peak: boot workload run,
  // every CFA log still resident.
  for (DeviceSession* dev : fleet.sessions()) {
    const size_t bytes = dev->resident_memory_bytes();
    out.resident_total += bytes;
    out.resident_max = std::max(out.resident_max, bytes);
  }

  // Campaign waves: the updatable CFA devices in id order, quartered.
  // (Diverged devices would kImageMismatch the diff; health remediation
  // owns those -- see bench_fleet_health.)
  std::vector<std::string> wave_pool;
  for (size_t i = 0; i < devices; ++i) {
    if (is_cfa(i) && !diverged(i)) wave_pool.push_back(device_id(i, 5));
  }
  auto golden = fleet.build(firmware(1), "fw", {.eilid = false});

  IncrementalOptions window_options = {
      .period = 10,
      .max_devices_per_tick = devices / 16 + 1,
      .max_bytes_per_slice = 128 * cfa::LoggedEdge::kWireBytes};
  IncrementalVerifier windowed(fleet, window_options);

  // One evidence drain: a barrier sweep, or windowed slices until no
  // device holds evidence.
  auto drain = [&](const char* failure) {
    run.time("drain", [&] {
      if (variant == Variant::kBarrier) {
        fold_sweep(out.summaries, fleet.verifier().verify_all());
      } else {
        run.check(drain_windowed(fleet, windowed, pool), failure);
      }
    });
  };

  // Phase 0: boot evidence (diverged devices convict here).
  drain("windowed verifier never drained boot evidence");

  // Heartbeat window: PAISA-style periodic announcements over the
  // whole fleet, with a slice of devices unreachable so the
  // exponential backoff path runs at scale. The clock is normalized to
  // a fixed tick first so the three variants (whose drains consumed
  // different numbers of rounds) beat on identical absolute schedules
  // -- the records are then gated bit-identical across variants.
  {
    fleet.clock().advance_to(kHeartbeatStart);
    size_t expect_offline = 0;
    for (size_t i = 0; i < devices; ++i) {
      if (!unreachable(i)) continue;
      fleet.at(device_id(i, 5)).set_online(false);
      ++expect_offline;
    }
    HeartbeatScheduler heartbeats(
        fleet, {.period = 50, .jitter = 20, .max_backoff_exponent = 4});
    run.time("heartbeat",
             [&] { heartbeats.run_until(kHeartbeatStart + 1000, pool); });
    out.heartbeat_records = heartbeats.records();
    for (size_t i = 0; i < devices; ++i) {
      if (unreachable(i)) fleet.at(device_id(i, 5)).set_online(true);
    }
    size_t backed_off = 0;
    uint64_t beats = 0;
    uint64_t misses = 0;
    for (const FreshnessRecord& record : out.heartbeat_records) {
      beats += record.heartbeats;
      misses += record.misses;
      if (record.misses > 0) {
        ++backed_off;
        // 20 periods fit in the window; backoff must have collapsed
        // the miss run to a handful of due beats.
        run.check(record.misses <= 6, "backoff did not engage");
      } else {
        run.check(record.heartbeats > 0, "reachable device never beat");
      }
    }
    run.check(backed_off == expect_offline,
              "offline device count wrong in heartbeat records");
    run.count("heartbeats", beats);
    run.count("heartbeat_misses", misses);
  }

  // Rolling campaign: each wave updates a quarter of the fleet and
  // reboots it into the shifted image, the devices run back to halt,
  // then verification drains the epoch markers plus the new
  // generation's evidence -- mid-window for the incremental variants.
  UpdateCampaign campaign = fleet.stage_update(golden);
  for (size_t wave = 0; wave < kWaves; ++wave) {
    const size_t begin = wave * wave_pool.size() / kWaves;
    const size_t end = (wave + 1) * wave_pool.size() / kWaves;
    run.time("apply", [&] {
      for (size_t w = begin; w < end; ++w) {
        DeviceSession& dev = fleet.at(wave_pool[w]);
        run.check(campaign.apply_to(dev).ok(), "campaign wave update refused");
        dev.power_cycle();
      }
    });
    run.time("run", [&] {
      for (size_t w = begin; w < end; ++w) {
        DeviceSession& dev = fleet.at(wave_pool[w]);
        dev.run_to_symbol("halt", 100000);
        dev.run(kHaltSpin);
      }
    });
    drain("windowed verifier never drained a wave");
  }

  if (variant != Variant::kBarrier) {
    for (const AttestSummary& s : windowed.summaries()) {
      out.summaries[s.device_id] = s;
    }
  }
  // Conviction membership: exactly the diverged devices.
  std::set<std::string> expect;
  for (size_t i = 0; i < devices; ++i) {
    if (diverged(i)) expect.insert(device_id(i, 5));
  }
  std::set<std::string> got;
  uint64_t edges = 0;
  for (const auto& [id, summary] : out.summaries) {
    edges += summary.edges;
    if (summary.convicted()) got.insert(id);
  }
  run.check(got == expect, "conviction membership wrong");
  run.count("edges", edges);
  run.count("convicted", got.size());

  run.check(static_cast<double>(out.resident_total) <=
                kMeanResidentGate * static_cast<double>(devices),
            "mean resident bytes/device over gate");
  run.check(out.resident_max <= kMaxResidentGate,
            "max resident bytes/device over gate");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);
  const size_t devices = smoke ? 512 : 10000;
  const int rounds = smoke ? 15 : 5;
  PoolSweep pools;
  const size_t pooled_row = pools.size() - 1;

  // Sequential by design: each cell builds and drops its own fleet, so
  // one fleet is resident at a time.
  Cells<VariantOutcome> cells;
  for (Variant variant : kVariants) {
    const bool pooled = variant == Variant::kWindowedPooled;
    cells.add(kVariantNames[static_cast<int>(variant)], pooled ? pools.threads(pooled_row) : 1,
              [&pools, variant, pooled, pooled_row, devices](CellRun& run) {
                return run_variant(run, variant, devices,
                                   pools.pool(pooled ? pooled_row : 0));
              },
              0);
  }
  cells.run(rounds);

  const VariantOutcome& base = cells.result(0);
  const double resident_mean = static_cast<double>(base.resident_total) /
                               static_cast<double>(devices);
  size_t cfa_devices = 0;
  for (size_t i = 0; i < devices; ++i) cfa_devices += is_cfa(i) ? 1 : 0;
  std::printf("Fleet 10k (%s): %zu devices (%zu CFA), 4-wave rolling "
              "campaign, windowed slices of %zu edges, %d rounds, CPU ms "
              "median [q1, q3]\n",
              smoke ? "smoke" : "full", devices, cfa_devices, size_t{128},
              rounds);
  std::vector<Json> rows;
  for (size_t v = 0; v < std::size(kVariants); ++v) {
    print_cell(cells, 0, v, kPhases, "drain");
    Json json;
    json.text("policy", cells.label(v))
        .count("threads", kVariants[v] == Variant::kWindowedPooled
                              ? pools.threads(pooled_row)
                              : 1);
    add_columns(json, cells, v, kPhases);
    json.num("resident_bytes_per_device", resident_mean, 0)
        .count("resident_bytes_per_device_max", base.resident_max)
        .num("speedup_resident_vs_flat",
             resident_mean > 0 ? 65536.0 / resident_mean : 0.0);
    add_speedup(json, cells, 0, v, "drain", "speedup_vs_barrier");
    rows.push_back(json.flag("gates_ok", cells.ok(v)));
  }
  std::printf("verdict edges %llu, convicted %llu, identical across "
              "variants\n",
              static_cast<unsigned long long>(cells.counts(0).at("edges")),
              static_cast<unsigned long long>(cells.counts(0).at("convicted")));
  std::printf("resident bytes/device at peak: mean %.0f, max %zu "
              "(flat design: 65536 + log)\n",
              resident_mean, base.resident_max);

  const bool ok = cells.ok();
  report("fleet_10k", smoke, rounds)
      .count("pool_cap", pools.cap())
      .count("devices", devices)
      .array("rows", rows)
      .flag("ok", ok)
      .write("BENCH_fleet_10k.json");
  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
