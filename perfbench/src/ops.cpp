// The fleet-operations scenario (see OpsScenario in workloads.h).
//
// One iteration, every random choice keyed by (seed, iteration):
//   1. boot burst: every device power-cycles and runs the current
//      firmware generation to halt, per policy group;
//   2. windowed attestation: a fresh IncrementalVerifier drains that
//      evidence in many small slices;
//   3. faults: a seeded ~1% of the CFA devices go offline, another ~1%
//      lose power mid-transfer (a one-round lossy delivery that leaves a
//      staged partial transfer for the rollout to resume);
//   4. rollout: the next generation, in four waves (2/10/38/50 %) over
//      seeded lossy chunked transport, with a workload probe and a soak
//      gate per wave -- one scheduler for the plain builds, one for the
//      instrumented (kEilidHw) builds;
//   5. compromise: a seeded ~1% of the CFA devices take a rogue, validly
//      MAC'd out-of-band patch;
//   6. health horizon: a HealthMonitor convicts, quarantines and heals
//      the patched devices, quarantines the offline ones as stale, and
//      heals them once they are back;
//   7. a few honest devices are reflashed (timed), then one barrier
//      sweep audits the whole fleet.
// Gates: benign runs halt clean and identically per (generation,
// policy); every verdict of an honest device is ok(); offline devices
// are the only ones whose delivery is interrupted; power-cut devices
// resume; every honest device ends on the target build; the convicted
// set is exactly the patched set; the healed set is exactly patched +
// offline.
#include <atomic>
#include <cstdio>
#include <mutex>
#include <set>
#include <span>

#include "common/rng.h"
#include "eilid/health.h"
#include "eilid/incremental.h"
#include "eilid/rollout.h"
#include "workloads.h"

namespace perfbench {

using namespace eilid;

namespace {

constexpr size_t kGenerations = 4;
constexpr size_t kWaves = 4;
constexpr double kWaveCuts[kWaves] = {0.02, 0.12, 0.5, 1.0};
constexpr Tick kSoakTicks = 20;
constexpr size_t kChunkBytes = 16;
constexpr Tick kWindowPeriod = 10;
constexpr size_t kSliceEdges = 4;
constexpr Tick kHeartbeatPeriod = 40;
constexpr Tick kStaleAfter = 100;
// Health passes, as offsets from the horizon start: first beats
// (convict + heal), staleness, return + heal, steady state.
constexpr Tick kPassEnds[] = {60, 160, 220, 300};
constexpr const char* kWaveLayers[3][kWaves] = {
    {"rollout.apply_ms.wave0", "rollout.apply_ms.wave1",
     "rollout.apply_ms.wave2", "rollout.apply_ms.wave3"},
    {"rollout.probe_ms.wave0", "rollout.probe_ms.wave1",
     "rollout.probe_ms.wave2", "rollout.probe_ms.wave3"},
    {"rollout.gate_ms.wave0", "rollout.gate_ms.wave1",
     "rollout.gate_ms.wave2", "rollout.gate_ms.wave3"}};

// Generation g calls emit 3 + g times and transmits 'a' + g: every
// generation differs from the next in PMEM only, so each transition is
// a small CASU package.
std::string firmware(size_t generation) {
  std::string s = R"(.equ UART_TX, 0x0130
.org 0xE000
main:
    mov #0x1000, r1
    mov #)";
  s += std::to_string(3 + generation);
  s += R"(, r10
loop:
    call #emit
    dec r10
    jnz loop
halt:
    jmp halt
emit:
    mov.b #')";
  s += static_cast<char>('a' + generation);
  s += R"(', &UART_TX
    ret
.vector 15, main
.end
)";
  return s;
}

void no_stimulus(sim::Machine&) {}

std::string check_transmitted(sim::Machine& m) {
  const std::string tx = m.uart().tx_text();
  if (tx.empty()) return "nothing transmitted";
  if (tx.find_first_not_of(tx[0]) != std::string::npos) return "mixed output";
  return "";
}

EnforcementPolicy policy_for(size_t i) {
  switch (i % 8) {
    case 5: return EnforcementPolicy::kCasu;
    case 6: return EnforcementPolicy::kNone;
    case 7: return EnforcementPolicy::kEilidHw;
    default: return EnforcementPolicy::kCfaBaseline;
  }
}

std::string device_id(size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ops-%05zu", i);
  return buf;
}

// Wave-phase boundaries observed from outside the scheduler: the probe
// callback marks each wave's probe start and end on the driver thread;
// the campaign's tamper hook (which leaves the package untouched)
// marks when the first package of the next wave is made, from
// whichever worker gets there first.
struct WaveClock {
  std::atomic<size_t> wave{0};
  std::array<std::atomic<int64_t>, kWaves> apply_ns{};  // 0: not seen
  std::array<Clock::time_point, kWaves> probe_start{};
  std::array<Clock::time_point, kWaves> probe_end{};
  Clock::time_point epoch = Clock::now();

  void mark_apply() {
    const size_t w = wave.load(std::memory_order_acquire);
    if (w >= kWaves) return;
    int64_t unset = 0;
    const int64_t now = (Clock::now() - epoch).count();
    apply_ns[w].compare_exchange_strong(unset, now);
  }
  Clock::time_point apply_start(size_t w, Clock::time_point fallback) const {
    const int64_t ticks = apply_ns[w].load();
    return ticks == 0 ? fallback : epoch + Clock::duration(ticks);
  }
};

// Keyed choice of `count` distinct members of `pool`, none in `taken`.
std::vector<size_t> choose(Rng& rng, const std::vector<size_t>& pool,
                           size_t count, std::set<size_t>& taken) {
  std::vector<size_t> out;
  while (out.size() < count && taken.size() < pool.size()) {
    const size_t pick = pool[rng.below(pool.size())];
    if (taken.insert(pick).second) out.push_back(pick);
  }
  return out;
}

}  // namespace

struct OpsScenario::State {
  std::unique_ptr<Fleet> fleet;
  std::array<std::shared_ptr<const core::BuildResult>, kGenerations> plain;
  std::array<std::shared_ptr<const core::BuildResult>, kGenerations> instr;
  std::array<apps::AppSpec, kGenerations> specs;
  std::vector<DeviceSession*> devices;  // deployment order
  std::vector<size_t> cfa;              // indices of kCfaBaseline devices
  size_t generation = 0;
  uint64_t iteration = 0;
};

OpsScenario::OpsScenario(Run& run, size_t devices, common::ThreadPool* pool)
    : run_(run), devices_(devices), pool_(pool), state_(new State) {}

OpsScenario::~OpsScenario() = default;

size_t OpsScenario::pipeline_runs() const {
  return state_->fleet->pipeline_runs();
}

size_t OpsScenario::build_cache_hits() const {
  return state_->fleet->build_cache_hits();
}

void OpsScenario::set_up() {
  State& s = *state_;
  s.fleet = std::make_unique<Fleet>();
  for (size_t g = 0; g < kGenerations; ++g) {
    s.specs[g] = {"fw", firmware(g), no_stimulus, 20000, check_transmitted};
    s.plain[g] = build(run_, *s.fleet, s.specs[g].source, "fw", false);
    s.instr[g] = build(run_, *s.fleet, s.specs[g].source, "fw", true);
  }
  for (size_t i = 0; i < devices_; ++i) {
    const EnforcementPolicy policy = policy_for(i);
    s.devices.push_back(&deploy(
        run_, *s.fleet, device_id(i),
        policy == EnforcementPolicy::kEilidHw ? s.instr[0] : s.plain[0],
        policy));
    if (policy == EnforcementPolicy::kCfaBaseline) s.cfa.push_back(i);
  }
}

void OpsScenario::iterate() {
  State& s = *state_;
  Fleet& fleet = *s.fleet;
  Run& run = run_;
  Gates& gates = run.gates;
  const uint64_t k = s.iteration++;
  const uint64_t group = (uint64_t{1} << 32) + k;
  const size_t next = (s.generation + 1) % kGenerations;
  const bool serial_probe = run.rec.tracing() && pool_ != nullptr && k % 2 == 1;
  Counts c;

  Rng rng = Rng::keyed(run.opts.seed, "ops-iteration-" + std::to_string(k));
  const size_t per_fault = std::max<size_t>(1, s.cfa.size() / 100);
  std::set<size_t> taken;
  const std::vector<size_t> hostile = choose(rng, s.cfa, per_fault, taken);
  const std::vector<size_t> offline = choose(rng, s.cfa, per_fault, taken);
  const std::vector<size_t> cut = choose(rng, s.cfa, per_fault, taken);
  const std::vector<size_t> reflashed = choose(rng, s.cfa, per_fault, taken);
  const std::set<size_t> offline_set(offline.begin(), offline.end());
  const std::set<size_t> cut_set(cut.begin(), cut.end());
  std::set<std::string> hostile_ids;
  std::set<std::string> offline_ids;
  for (size_t i : hostile) hostile_ids.insert(device_id(i));
  for (size_t i : offline) offline_ids.insert(device_id(i));

  // --- 1. boot burst, one policy group at a time -----------------------
  probe_host(run);
  const Clock::time_point burst_start = Clock::now();
  double burst_cpu = 0;
  uint64_t burst_insns = 0;
  for (EnforcementPolicy policy : kPolicies) {
    std::vector<DeviceSession*> members;
    for (size_t i = 0; i < s.devices.size(); ++i) {
      if (policy_for(i) == policy) members.push_back(s.devices[i]);
    }
    if (members.empty()) continue;
    const apps::AppSpec& spec = s.specs[s.generation];
    run.rec.time("session.power_cycle", group, [&] {
      auto reboot = [&](size_t i) {
        std::lock_guard<std::mutex> lock(members[i]->mutex());
        members[i]->power_cycle();
        clear_observers(*members[i]);
      };
      if (pool_ != nullptr) {
        pool_->parallel_for(members.size(), reboot);
      } else {
        for (size_t i = 0; i < members.size(); ++i) reboot(i);
      }
    });
    c.add("session.power_cycles", members.size());
    std::vector<Marks> before;
    before.reserve(members.size());
    for (DeviceSession* dev : members) before.push_back(marks(*dev));
    std::vector<apps::WorkloadOutcome> outcomes(members.size());
    burst_cpu += run.rec.time(sim_layer(policy), group, [&] {
      if (pool_ != nullptr) {
        std::vector<apps::FleetWorkload> items;
        for (DeviceSession* dev : members) items.push_back({dev, &spec, 0});
        outcomes = apps::run_workload_all(items, *pool_);
      } else {
        for (size_t i = 0; i < members.size(); ++i) {
          std::lock_guard<std::mutex> lock(members[i]->mutex());
          outcomes[i] = apps::run_workload(*members[i], spec);
        }
      }
    }).cpu;
    Work reference;
    for (size_t i = 0; i < members.size(); ++i) {
      const Work w = work_between(before[i], marks(*members[i]),
                                  outcomes[i].reached_halt);
      if (i == 0) reference = w;
      gates.check(w.halted && w.violations == 0 &&
                      outcomes[i].check_failure.empty() && w == reference,
                  members[i]->id() + ": boot run differs or failed " +
                      outcomes[i].check_failure);
      add_work(c, policy, w);
      burst_insns += w.insns;
    }
  }
  add_sample(run, "ops.exec_mips",
             1e-6 * static_cast<double>(burst_insns) / burst_cpu, burst_start,
             Clock::now());
  record_resident(run, "ops.", s.devices);

  // --- 2. windowed attestation -----------------------------------------
  probe_host(run);
  const Clock::time_point window_start = Clock::now();
  double window_cpu = 0;
  Tick window_ticks = 0;
  uint64_t window_edges = 0;
  {
    IncrementalVerifier window(
        fleet,
        {.period = kWindowPeriod,
         .max_devices_per_tick = std::max<size_t>(1, s.cfa.size() / 8),
         .max_bytes_per_slice = kSliceEdges * cfa::LoggedEdge::kWireBytes});
    auto pending = [&] {
      for (size_t i : s.cfa) {
        if (s.devices[i]->cfa_monitor()->log_size() > 0) return true;
      }
      return false;
    };
    for (int guard = 0; pending() && guard < 100000; ++guard) {
      const Tick from = fleet.clock().now();
      const Tick deadline = from + 8 * kWindowPeriod;
      IncrementalVerifier::WindowReport report;
      window_cpu += run.rec.time("window.run", group, [&] {
        report = pool_ != nullptr ? window.run_until(deadline, *pool_)
                                  : window.run_until(deadline);
      }).cpu;
      window_ticks += deadline - from;
      c.add("window.rounds", report.rounds.size());
      for (const auto& round : report.rounds) {
        c.add("window.slices", round.slices.size());
        for (const auto& slice : round.slices) {
          c.add("window.edges", slice.edges);
          window_edges += slice.edges;
          gates.check(slice.ok() && slice.dropped == 0,
                      slice.device_id + ": window slice not clean");
        }
      }
    }
    gates.check(!pending(), "window never drained the boot evidence");
    for (const AttestSummary& summary : window.summaries()) {
      gates.check(!summary.convicted() && summary.dropped == 0,
                  summary.device_id + ": window summary convicted");
    }
  }
  c.add("window.ticks", window_ticks);

  // --- 3. faults: offline devices, power cuts ---------------------------
  for (size_t i : offline) s.devices[i]->set_online(false);
  {
    TransportOptions transport;
    transport.chunk_size = kChunkBytes;
    transport.seed = run.opts.seed ^ (k << 20);
    transport.max_rounds = 1;
    transport.faults.power_loss_at_chunk = 1;
    CampaignOptions options;
    options.transport = transport;
    UpdateCampaign cut_campaign = fleet.stage_update(s.plain[next], options);
    for (size_t i : cut) {
      UpdateOutcome outcome;
      run.rec.time("update.power_cut", group,
                   [&] { outcome = cut_campaign.apply_to(*s.devices[i]); });
      gates.check(outcome.result == UpdateResult::kInterrupted,
                  device_id(i) + ": power cut did not interrupt delivery");
    }
  }

  // --- 4. rollout ---------------------------------------------------------
  probe_host(run);
  const Clock::time_point rollout_start = Clock::now();
  double rollout_cpu = 0;
  size_t moved = 0;
  uint64_t shipped_bytes = 0;  // payload, retransmits included
  std::array<std::array<double, kWaves>, 3> wave_s{};
  for (bool instrumented : {false, true}) {
    std::vector<std::string> ids;
    for (size_t i = 0; i < s.devices.size(); ++i) {
      if ((policy_for(i) == EnforcementPolicy::kEilidHw) == instrumented) {
        ids.push_back(device_id(i));
      }
    }
    auto target = instrumented ? s.instr[next] : s.plain[next];
    RolloutPlan plan;
    size_t begin = 0;
    for (size_t w = 0; w < kWaves; ++w) {
      // Cumulative cut, at least one device per wave while any remain.
      size_t end =
          static_cast<size_t>(kWaveCuts[w] * static_cast<double>(ids.size()));
      end = std::max(end, begin + 1);
      if (w + 1 == kWaves) end = ids.size();
      end = std::min(end, ids.size());
      plan.waves.push_back(
          {.name = "wave-" + std::to_string(w),
           .device_ids = std::vector<std::string>(ids.begin() + begin,
                                                  ids.begin() + end)});
      begin = end;
    }
    plan.budget = {.max_count = offline.size()};
    plan.soak_ticks = kSoakTicks;
    auto clock = std::make_shared<WaveClock>();
    const apps::AppSpec spec = s.specs[next];
    plan.probe = [clock, spec](const std::vector<DeviceSession*>& wave,
                               common::ThreadPool* pool) {
      const size_t w = clock->wave.load();
      if (w < kWaves) clock->probe_start[w] = Clock::now();
      if (pool != nullptr) {
        std::vector<apps::FleetWorkload> items;
        for (DeviceSession* dev : wave) {
          clear_observers(*dev);
          items.push_back({dev, &spec, 0});
        }
        apps::run_workload_all(items, *pool);
      } else {
        for (DeviceSession* dev : wave) {
          std::lock_guard<std::mutex> lock(dev->mutex());
          clear_observers(*dev);
          apps::run_workload(*dev, spec);
        }
      }
      if (w < kWaves) clock->probe_end[w] = Clock::now();
      clock->wave.store(w + 1, std::memory_order_release);
    };
    CampaignOptions options;
    options.tamper = [clock](const DeviceSession&, casu::UpdatePackage&) {
      clock->mark_apply();
    };
    TransportOptions transport;
    transport.chunk_size = kChunkBytes;
    transport.seed = run.opts.seed ^ (k << 20) ^ (instrumented ? 0x5a5a : 0);
    transport.max_rounds = 32;
    transport.faults.drop_per_mille = 50;
    transport.faults.corrupt_per_mille = 10;
    transport.faults.duplicate_per_mille = 10;
    transport.faults.reorder_per_mille = 20;
    transport.faults.delay_per_mille = 20;
    options.transport = transport;
    UpdateCampaign campaign = fleet.stage_update(target, options);
    // Package cost, sampled on a few devices before they move.
    for (size_t n = 0; n < std::min<size_t>(4, ids.size()); ++n) {
      DeviceSession& dev = fleet.at(ids[n * ids.size() / 4]);
      run.rec.time("update.package", group,
                   [&] { (void)campaign.package_for(dev); });
      c.add("update.packages", 1);
    }
    CampaignScheduler scheduler = fleet.plan_rollout(std::move(campaign), plan);
    RolloutReport report;
    Clock::time_point start;
    Clock::time_point end;
    double cpu = 0;
    int64_t span = -1;
    {
      Recorder::Scope scope(run.rec, serial_probe ? "rollout.run_serial"
                                                  : "rollout.run",
                            group);
      span = scope.index();
      start = scope.start();
      report = pool_ != nullptr && !serial_probe ? scheduler.run(*pool_)
                                                 : scheduler.run();
      end = Clock::now();
      cpu = process_cpu_seconds() - scope.cpu_start();
    }
    const double seconds = seconds_between(start, end);
    if (serial_probe) {
      run.series["rollout.serial_s_per_device"].push_back(
          seconds / static_cast<double>(ids.size()));
    } else {
      rollout_cpu += cpu;
      run.series["rollout.pooled_s_per_device"].push_back(
          seconds / static_cast<double>(ids.size()));
      // Wave phases: apply runs from the first package of the wave to
      // the probe (it includes the immediate post-apply soak sweep), the
      // probe is the callback itself, the gate runs from the probe to
      // the next wave's first package (soak advance + promoting sweep).
      Clock::time_point cursor = clock->apply_start(0, start);
      run.rec.add("rollout.plan", group, start, cursor, span);
      for (size_t w = 0; w < kWaves; ++w) {
        const Clock::time_point gate_end =
            w + 1 < kWaves ? clock->apply_start(w + 1, clock->probe_end[w])
                           : end;
        const Clock::time_point phases[4] = {cursor, clock->probe_start[w],
                                             clock->probe_end[w], gate_end};
        const char* names[3] = {"rollout.apply", "rollout.probe",
                                "rollout.gate"};
        for (size_t p = 0; p < 3; ++p) {
          run.rec.add(names[p], group, phases[p], phases[p + 1], span);
          wave_s[p][w] += seconds_between(phases[p], phases[p + 1]);
        }
        cursor = gate_end;
      }
    }

    gates.check(report.ok(), "rollout halted: " + report.halt_reason);
    for (const WaveOutcome& wave : report.waves) {
      for (const UpdateOutcome& outcome : wave.updates) {
        const size_t i = static_cast<size_t>(
            std::stoul(outcome.device_id.substr(4)));
        shipped_bytes += outcome.payload_bytes + outcome.bytes_retransmitted;
        c.add("update.payload_bytes", outcome.payload_bytes);
        c.add("update.bytes_retransmitted", outcome.bytes_retransmitted);
        c.add("update.attempts", outcome.attempts);
        c.add("update.resumed", outcome.resumed ? 1 : 0);
        if (offline_set.count(i) != 0) {
          gates.check(outcome.result == UpdateResult::kInterrupted,
                      outcome.device_id + ": offline device was updated");
          continue;
        }
        const bool swapped = gates.check(
            outcome.result == UpdateResult::kApplied && outcome.build_swapped,
            outcome.device_id + ": update " +
                std::string(update_result_name(outcome.result)));
        if (cut_set.count(i) != 0) {
          gates.check(outcome.resumed,
                      outcome.device_id + ": power-cut transfer not resumed");
        }
        if (swapped) ++moved;
      }
      for (const auto* verdicts : {&wave.soak_gate, &wave.gate}) {
        for (const auto& verdict : *verdicts) {
          if (!verdict.attested) continue;
          gates.check(verdict.ok() && verdict.dropped == 0,
                      verdict.device_id + ": wave gate convicted");
        }
      }
    }
  }
  c.add("update.devices", moved);
  if (rollout_cpu > 0) {
    add_sample(run, "campaign_devices_per_s",
               static_cast<double>(moved) / rollout_cpu, rollout_start,
               Clock::now());
    double apply_s = 0;
    for (size_t p = 0; p < 3; ++p) {
      for (size_t w = 0; w < kWaves; ++w) {
        run.series[kWaveLayers[p][w]].push_back(1e3 * wave_s[p][w]);
        if (p == 0) apply_s += wave_s[p][w];
      }
    }
    if (shipped_bytes > 0) {
      run.series["update.ns_per_payload_byte"].push_back(
          1e9 * apply_s / static_cast<double>(shipped_bytes));
    }
  }

  // --- 5. compromise ------------------------------------------------------
  for (size_t i : hostile) {
    DeviceSession& dev = *s.devices[i];
    const crypto::Digest key = fleet.update_key(dev.id());
    casu::UpdateAuthority authority(
        std::span<const uint8_t>(key.data(), key.size()));
    std::lock_guard<std::mutex> lock(dev.mutex());
    gates.check(dev.apply_update(authority.make_package(
                    0xE800, dev.firmware_version() + 1, {0x03, 0x43})) ==
                    casu::UpdateStatus::kApplied,
                dev.id() + ": rogue patch refused");
  }

  // --- 6. health horizon --------------------------------------------------
  probe_host(run);
  double health_cpu = 0;
  double heal_s = 0;
  {
    HealthMonitor health(
        fleet, {.heartbeat = {.period = kHeartbeatPeriod,
                              .jitter = 4,
                              .jitter_seed = run.opts.seed ^ k,
                              .max_backoff_exponent = 2},
                .policy = {.staleness_threshold = kStaleAfter}});
    health.stage_remediation(fleet.stage_update(s.plain[next]));
    const Tick t0 = fleet.clock().now();
    std::set<std::string> convicted;
    std::set<std::string> stale;
    std::set<std::string> healed;
    for (size_t pass = 0; pass < std::size(kPassEnds); ++pass) {
      if (pass == 2) {
        for (size_t i : offline) s.devices[i]->set_online(true);
      }
      HealthReport report;
      const Elapsed took = run.rec.time("health.run", group, [&] {
        report = pool_ != nullptr
                     ? health.run_until(t0 + kPassEnds[pass], *pool_)
                     : health.run_until(t0 + kPassEnds[pass]);
      });
      health_cpu += took.cpu;
      if (!report.remediations.empty()) heal_s += took.wall;
      for (const auto& beat : report.heartbeats.beats) {
        c.add("health.verdicts", beat.verdicts.size() + beat.missed.size());
        if (pass + 1 == std::size(kPassEnds)) {
          for (const auto& verdict : beat.verdicts) {
            gates.check(verdict.ok(),
                        verdict.device_id + ": steady-state beat convicted");
          }
        }
      }
      for (const QuarantineEntry& entry : report.newly_quarantined) {
        (entry.reason == QuarantineReason::kConvicted ? convicted : stale)
            .insert(entry.device_id);
      }
      for (const RemediationOutcome& heal : report.remediations) {
        c.add("health.remediations", 1);
        if (heal.healed) healed.insert(heal.device_id);
      }
      if (pass + 1 == std::size(kPassEnds)) {
        gates.check(report.quarantined_after == 0,
                    "quarantine not empty after the horizon");
      }
    }
    gates.check(convicted == hostile_ids,
                "convicted set differs from the compromised set");
    gates.check(stale == offline_ids,
                "stale set differs from the offline set");
    std::set<std::string> expect_healed = hostile_ids;
    expect_healed.insert(offline_ids.begin(), offline_ids.end());
    gates.check(healed == expect_healed,
                "healed set differs from compromised + offline");
    c.add("verifier.convictions", convicted.size());
    c.add("health.healed", healed.size());

    const Tick now = fleet.clock().now();
    std::vector<double> ages;
    for (const FreshnessRecord& record : health.records()) {
      const Tick anchor =
          record.ever_ok ? record.last_ok_tick : record.enrolled_tick;
      ages.push_back(static_cast<double>(now >= anchor ? now - anchor : 0));
    }
    const double p99 = quantile(ages, 0.99);
    run.series["staleness_ticks_p99"].push_back(p99);
    c.add("health.staleness_p99", static_cast<uint64_t>(p99));
    c.add("health.ticks", kPassEnds[std::size(kPassEnds) - 1]);
  }
  run.series["heal_ms"].push_back(1e3 * heal_s);
  const Tick horizon_ticks = window_ticks + kPassEnds[std::size(kPassEnds) - 1];
  add_sample(run, "window_ticks_per_s",
             static_cast<double>(horizon_ticks) / (window_cpu + health_cpu),
             window_start, Clock::now());

  // --- 7. reflash a few honest devices, audit the fleet ------------------
  for (size_t i : reflashed) {
    DeviceSession& dev = *s.devices[i];
    run.rec.time("session.reflash", group, [&] {
      std::lock_guard<std::mutex> lock(dev.mutex());
      dev.reflash();
    });
    c.add("session.reflashes", 1);
  }
  probe_host(run);
  const SweepResult audit =
      sweep(run, fleet, pool_, serial_probe, group, c, "ops.");
  if (!serial_probe) {
    add_sample(run, "ops.attest_edges_per_s",
               static_cast<double>(window_edges + audit.edges) /
                   (window_cpu + audit.cpu_seconds),
               window_start, audit.end);
  }
  for (const auto& verdict : audit.verdicts) {
    if (!verdict.attested) continue;
    gates.check(verdict.ok() && verdict.dropped == 0,
                verdict.device_id + ": audit sweep convicted");
  }
  for (size_t i = 0; i < s.devices.size(); ++i) {
    const auto& target = policy_for(i) == EnforcementPolicy::kEilidHw
                             ? s.instr[next]
                             : s.plain[next];
    gates.check(s.devices[i]->shared_build() == target,
                device_id(i) + ": not on the target build");
  }
  probe_host(run);
  s.generation = next;
  if (run.ops_digests.empty()) run.first_ops = c;
  run.totals.merge(c);
  run.ops_digests.push_back(c.digest());
}

}  // namespace perfbench
