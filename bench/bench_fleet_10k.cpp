// Fleet at 10k: copy-on-write device memory + incremental windowed
// attestation, measured together at the scale that motivated them.
//
// One mixed-policy fleet (5/8 CFA-baseline, 1/8 CASU, 1/8 unprotected,
// 1/8 EILID-hw; a sprinkle of the CFA devices diverged by a rogue
// validly-MAC'd patch) is built three times -- SEQUENTIALLY, so peak
// memory stays one fleet's worth -- and its evidence verified three
// ways over the same scenario (boot workload, then a rolling
// four-wave update campaign interleaved with verification):
//
//   barrier          -- VerifierService::verify_all full drains,
//   windowed-serial  -- IncrementalVerifier bounded slices on the
//                       rolling FleetClock schedule,
//   windowed-pooled  -- the same window fanned over a thread pool.
//
// Correctness gates (the bench FAILS on any violation):
//   - per-device folded AttestSummary maps are bit-identical across
//     all three variants (hijacks convicted at the same first edge,
//     campaign epoch markers honored mid-window),
//   - exactly the diverged devices convict,
//   - resident bytes/device: the fleet-wide mean stays under
//     kMeanResidentGate and the worst device under kMaxResidentGate --
//     the copy-on-write memory diet, gated absolutely (a flat design
//     costs 65536 B/device before logs).
//
// speedup_vs_barrier compares the drains alone (drain_ms: the boot
// drain plus the four per-wave drains, i.e. verify_all() for barrier
// and drain_windowed() for the windowed rows). verify_ms still spans
// the whole scenario -- campaign applies, device runs, power cycles
// and the heartbeat window included -- and is printed, not gated.
//
// Results land in BENCH_fleet_10k.json (committed at the repo root; CI
// re-runs --smoke and scripts/check_bench_regression.py compares
// speedup_* ratios and resident_* absolutes against the baseline).
//
// Usage: bench_fleet_10k [--smoke]   (--smoke: 512 devices; full: 10000)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/eilid/fleet.h"
#include "src/eilid/health.h"
#include "src/eilid/incremental.h"

using namespace eilid;

namespace {

using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point start) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - start)
      .count();
}

std::string firmware(int generation) {
  std::string s = R"(.equ UART_TX, 0x0130
.org 0xE000
main:
    mov #0x1000, r1
)";
  for (int i = 0; i < generation + 1; ++i) s += "    call #emit\n";
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

std::string device_id(size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "dev-%05zu", i);
  return buf;
}

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

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kBarrier: return "barrier";
    case Variant::kWindowedSerial: return "windowed-serial";
    case Variant::kWindowedPooled: return "windowed-pooled";
  }
  return "?";
}

struct RowResult {
  Variant variant = Variant::kBarrier;
  double provision_ms = 0;
  double verify_ms = 0;     // the whole scenario after provisioning
  double drain_ms = 0;      // the five evidence drains alone
  double heartbeat_ms = 0;  // the backoff heartbeat window
  size_t devices = 0;
  size_t cfa_devices = 0;
  size_t convicted = 0;
  uint64_t edges = 0;  // total evidence replayed
  double resident_mean = 0;  // bytes/device at the pre-drain peak
  size_t resident_max = 0;
  bool gates_ok = true;
  std::map<std::string, AttestSummary> summaries;
  std::vector<FreshnessRecord> heartbeat_records;
};

void fail(RowResult& row, const char* what) {
  std::printf("  !! %s: %s\n", variant_name(row.variant), what);
  row.gates_ok = false;
}

void provision(Fleet& fleet, size_t devices, RowResult& row) {
  for (size_t i = 0; i < devices; ++i) {
    DeviceSession& dev =
        fleet.provision(device_id(i), firmware(0), "fw", policy_for(i),
                        {.cfa = {.log_capacity = 65536}});
    dev.run_to_symbol("halt", 100000);
    dev.run(kHaltSpin);
  }
  for (size_t i = 0; i < devices; ++i) {
    if (!diverged(i)) continue;
    DeviceSession& dev = fleet.at(device_id(i));
    const crypto::Digest key = fleet.update_key(device_id(i));
    casu::UpdateAuthority authority(
        std::span<const uint8_t>(key.data(), key.size()));
    if (dev.apply_update(authority.make_package(
            0xE800, dev.firmware_version() + 1, {0x03, 0x43})) !=
        casu::UpdateStatus::kApplied) {
      fail(row, "rogue package refused");
    }
  }
}

// Fold one barrier sweep into the per-device summary map.
void fold_sweep(std::map<std::string, AttestSummary>& acc,
                const std::vector<VerifierService::AttestResult>& results) {
  for (const auto& r : results) fold(acc[r.device_id], r);
}

// Drive the windowed verifier until no CFA device holds evidence.
bool drain_windowed(Fleet& fleet, IncrementalVerifier& verifier,
                    common::ThreadPool* pool) {
  for (int guard = 0; guard < 100000; ++guard) {
    bool pending = false;
    for (DeviceSession* s : fleet.sessions()) {
      if (s->cfa_monitor() != nullptr && s->cfa_monitor()->log_size() > 0) {
        pending = true;
        break;
      }
    }
    if (!pending) return true;
    const Tick next = fleet.clock().now() + verifier.options().period;
    if (pool == nullptr) {
      verifier.run_until(next);
    } else {
      verifier.run_until(next, *pool);
    }
  }
  return false;
}

RowResult run_variant(Variant variant, size_t devices, size_t threads) {
  RowResult row;
  row.variant = variant;
  row.devices = devices;
  common::ThreadPool pool(threads);
  common::ThreadPool* windowed_pool =
      variant == Variant::kWindowedPooled ? &pool : nullptr;

  auto t0 = clock_type::now();
  Fleet fleet;
  provision(fleet, devices, row);
  row.provision_ms = ms_since(t0);

  // Memory-diet snapshot at the pre-drain peak: boot workload run,
  // every CFA log still resident.
  {
    size_t total = 0;
    for (DeviceSession* dev : fleet.sessions()) {
      const size_t bytes = dev->resident_memory_bytes();
      total += bytes;
      if (bytes > row.resident_max) row.resident_max = bytes;
    }
    row.resident_mean =
        static_cast<double>(total) / static_cast<double>(devices);
  }

  // Campaign waves: the updatable CFA devices in id order, quartered.
  // (Diverged devices would kImageMismatch the diff; health remediation
  // owns those -- see bench_fleet_health.)
  std::vector<std::string> wave_pool;
  for (size_t i = 0; i < devices; ++i) {
    if (is_cfa(i) && !diverged(i)) {
      wave_pool.push_back(device_id(i));
      ++row.cfa_devices;
    }
    if (is_cfa(i) && diverged(i)) ++row.cfa_devices;
  }
  auto golden = fleet.build(firmware(1), "fw", {.eilid = false});

  IncrementalOptions window_options = {
      .period = 10,
      .max_devices_per_tick = devices / 16 + 1,
      .max_bytes_per_slice = 128 * cfa::LoggedEdge::kWireBytes};
  IncrementalVerifier windowed(fleet, window_options);

  // One evidence drain: a barrier sweep, or windowed slices until no
  // device holds evidence. Timed on its own into row.drain_ms.
  auto drain = [&](const char* failure) {
    const auto start = clock_type::now();
    if (variant == Variant::kBarrier) {
      fold_sweep(row.summaries, fleet.verifier().verify_all());
    } else if (!drain_windowed(fleet, windowed, windowed_pool)) {
      fail(row, failure);
    }
    row.drain_ms += ms_since(start);
  };

  t0 = clock_type::now();
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
    for (size_t i = 0; i < devices; ++i) {
      if (unreachable(i)) fleet.at(device_id(i)).set_online(false);
    }
    HeartbeatScheduler heartbeats(
        fleet, {.period = 50, .jitter = 20, .max_backoff_exponent = 4});
    auto hb0 = clock_type::now();
    if (windowed_pool == nullptr) {
      heartbeats.run_until(kHeartbeatStart + 1000);
    } else {
      heartbeats.run_until(kHeartbeatStart + 1000, *windowed_pool);
    }
    row.heartbeat_ms = ms_since(hb0);
    row.heartbeat_records = heartbeats.records();
    for (size_t i = 0; i < devices; ++i) {
      if (unreachable(i)) fleet.at(device_id(i)).set_online(true);
    }
    size_t backed_off = 0;
    for (const FreshnessRecord& record : row.heartbeat_records) {
      if (record.misses > 0) {
        ++backed_off;
        // 20 periods fit in the window; backoff must have collapsed
        // the miss run to a handful of due beats.
        if (record.misses > 6) fail(row, "backoff did not engage");
      } else if (record.heartbeats == 0) {
        fail(row, "reachable device never beat");
      }
    }
    size_t expect_offline = 0;
    for (size_t i = 0; i < devices; ++i) {
      if (unreachable(i)) ++expect_offline;
    }
    if (backed_off != expect_offline) {
      fail(row, "offline device count wrong in heartbeat records");
    }
  }

  // Rolling campaign: each wave updates a quarter of the fleet, then
  // verification drains the epoch markers plus the new generation's
  // evidence -- mid-window for the incremental variants.
  UpdateCampaign campaign = fleet.stage_update(golden);
  for (size_t wave = 0; wave < kWaves; ++wave) {
    const size_t begin = wave * wave_pool.size() / kWaves;
    const size_t end = (wave + 1) * wave_pool.size() / kWaves;
    for (size_t w = begin; w < end; ++w) {
      DeviceSession& dev = fleet.at(wave_pool[w]);
      UpdateOutcome outcome = campaign.apply_to(dev);
      if (!outcome.ok()) fail(row, "campaign wave update refused");
      dev.power_cycle();  // reboot into the shifted image
      dev.run_to_symbol("halt", 100000);
      dev.run(kHaltSpin);
    }
    drain("windowed verifier never drained a wave");
  }
  row.verify_ms = ms_since(t0);

  if (variant != Variant::kBarrier) {
    for (const AttestSummary& s : windowed.summaries()) {
      row.summaries[s.device_id] = s;
    }
  }
  for (const auto& [id, summary] : row.summaries) {
    (void)id;
    row.edges += summary.edges;
    if (summary.convicted()) ++row.convicted;
  }

  // Conviction membership: exactly the diverged devices.
  std::set<std::string> expect;
  for (size_t i = 0; i < devices; ++i) {
    if (diverged(i)) expect.insert(device_id(i));
  }
  std::set<std::string> got;
  for (const auto& [id, summary] : row.summaries) {
    if (summary.convicted()) got.insert(id);
  }
  if (got != expect) fail(row, "conviction membership wrong");

  if (row.resident_mean > kMeanResidentGate) {
    fail(row, "mean resident bytes/device over gate");
  }
  if (row.resident_max > kMaxResidentGate) {
    fail(row, "max resident bytes/device over gate");
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const size_t devices = smoke ? 512 : 10000;
  const size_t threads = 4;

  std::vector<RowResult> rows;
  // Sequential by design: one fleet resident at a time bounds the
  // bench's own peak memory to a single 10k fleet.
  rows.push_back(run_variant(Variant::kBarrier, devices, threads));
  rows.push_back(run_variant(Variant::kWindowedSerial, devices, threads));
  rows.push_back(run_variant(Variant::kWindowedPooled, devices, threads));
  const RowResult& barrier = rows[0];

  std::printf("Fleet 10k (%s): %zu devices (%zu CFA), 4-wave rolling "
              "campaign, windowed slices of %zu edges\n",
              smoke ? "smoke" : "full", devices, barrier.cfa_devices,
              size_t{128});
  std::printf("%16s | %12s | %10s | %10s | %12s | %10s | %9s\n",
              "variant", "provision ms", "verify ms", "drain ms",
              "verdict edges", "convicted", "speedup");
  bool ok = true;
  for (const RowResult& row : rows) {
    std::printf("%16s | %12.2f | %10.2f | %10.2f | %12llu | %10zu | %8.2fx\n",
                variant_name(row.variant), row.provision_ms, row.verify_ms,
                row.drain_ms, static_cast<unsigned long long>(row.edges),
                row.convicted,
                row.drain_ms > 0 ? barrier.drain_ms / row.drain_ms : 0.0);
    if (!row.gates_ok) {
      std::printf("  !! %s: correctness gate failed\n",
                  variant_name(row.variant));
      ok = false;
    }
    if (!(row.summaries == barrier.summaries)) {
      std::printf("  !! %s: summaries diverge from the barrier sweep\n",
                  variant_name(row.variant));
      ok = false;
    }
    if (!(row.heartbeat_records == barrier.heartbeat_records)) {
      std::printf("  !! %s: heartbeat records diverge across variants\n",
                  variant_name(row.variant));
      ok = false;
    }
  }
  std::printf("resident bytes/device at peak: mean %.0f, max %zu "
              "(flat design: 65536 + log)\n",
              barrier.resident_mean, barrier.resident_max);

  std::string rows_json;
  for (const RowResult& row : rows) {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"policy\": \"%s\", \"provision_ms\": %.2f, "
        "\"verify_ms\": %.2f, \"drain_ms\": %.2f, "
        "\"heartbeat_ms\": %.2f, "
        "\"edges\": %llu, \"convicted\": %zu, "
        "\"resident_bytes_per_device\": %.0f, "
        "\"resident_bytes_per_device_max\": %zu, "
        "\"speedup_resident_vs_flat\": %.2f, "
        "\"speedup_vs_barrier\": %.2f, \"gates_ok\": %s},\n",
        variant_name(row.variant), row.provision_ms, row.verify_ms,
        row.drain_ms, row.heartbeat_ms,
        static_cast<unsigned long long>(row.edges), row.convicted,
        row.resident_mean, row.resident_max,
        row.resident_mean > 0 ? 65536.0 / row.resident_mean : 0.0,
        row.drain_ms > 0 ? barrier.drain_ms / row.drain_ms : 0.0,
        row.gates_ok ? "true" : "false");
    rows_json += buf;
  }
  if (!rows_json.empty()) rows_json.resize(rows_json.size() - 2);
  FILE* json = std::fopen("BENCH_fleet_10k.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"fleet_10k\",\n  \"mode\": \"%s\",\n"
                 "  \"devices\": %zu,\n  \"rows\": [\n%s\n  ],\n"
                 "  \"ok\": %s\n}\n",
                 smoke ? "smoke" : "full", devices, rows_json.c_str(),
                 ok ? "true" : "false");
    std::fclose(json);
  }

  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
