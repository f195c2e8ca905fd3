// Self-healing fleet walkthrough, in two acts, all on the fleet's
// deterministic clock (no wall time anywhere):
//
//   Act 1 -- heartbeats, quarantine, remediation. A HealthMonitor
//   sweeps the fleet on a fixed cadence. One sensor is diverged by a
//   rogue (validly-MAC'd) out-of-band patch: the next heartbeat
//   convicts it and the monitor heals it automatically -- reflash,
//   re-update onto the golden build, clean verdict. Another sensor
//   drops offline: it misses beats, ages past the staleness threshold,
//   is quarantined, and stays quarantined (remediation refuses to
//   pretend an unreachable device is fixed) until it comes back -- at
//   which point it, too, is healed without operator action.
//
//   Act 2 -- rollback on halt. A staged rollout with a soak window
//   trips its failure budget in the wide wave; because the plan set
//   rollback_on_halt, the scheduler stages reverse campaigns from the
//   same build diffs and walks every touched device back to the build
//   it ran before, leaving the fleet exactly where it started.
#include <cstdio>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/eilid/fleet.h"
#include "src/eilid/health.h"
#include "src/eilid/rollout.h"

using namespace eilid;

namespace {

std::string app_version(char marker) {
  std::string s = R"(.equ UART_TX, 0x0130
.org 0xE000
main:
    mov #0x1000, r1
    mov.b #')";
  s += marker;
  s += R"(', &UART_TX
halt:
    jmp halt
.vector 15, main
.end
)";
  return s;
}

void print_health(const char* title, const HealthReport& report) {
  std::printf("%s\n", title);
  for (const HeartbeatBeat& beat : report.heartbeats.beats) {
    std::printf("  beat @%llu: %zu attested",
                static_cast<unsigned long long>(beat.tick),
                beat.verdicts.size());
    for (const auto& verdict : beat.verdicts) {
      if (!verdict.ok()) {
        std::printf(", %s CONVICTED", verdict.device_id.c_str());
      }
    }
    for (const std::string& id : beat.missed) {
      std::printf(", %s missed", id.c_str());
    }
    std::printf("\n");
  }
  for (const QuarantineEntry& entry : report.newly_quarantined) {
    std::printf("  quarantined %s (%s) @%llu\n", entry.device_id.c_str(),
                std::string(quarantine_reason_name(entry.reason)).c_str(),
                static_cast<unsigned long long>(entry.since));
  }
  for (const RemediationOutcome& heal : report.remediations) {
    if (!heal.reachable) {
      std::printf("  remediation %s: UNREACHABLE, stays quarantined\n",
                  heal.device_id.c_str());
    } else {
      std::printf("  remediation %s: reflash + %s, %s -> %s\n",
                  heal.device_id.c_str(),
                  std::string(update_result_name(heal.update.result)).c_str(),
                  heal.verdict.ok() ? "attests ok" : "still convicted",
                  heal.healed ? "HEALED" : "still quarantined");
    }
  }
  std::printf("  in quarantine after: %zu\n", report.quarantined_after);
}

void drive_wave(const std::vector<DeviceSession*>& wave,
                common::ThreadPool*) {
  for (DeviceSession* dev : wave) {
    std::lock_guard<std::mutex> lock(dev->mutex());
    dev->machine().run(64);
    dev->run_to_symbol("halt", 10000);
  }
}

// Returns false when pass 3 leaves anyone in quarantine.
bool act_one() {
  std::printf("=== Act 1: heartbeat -> quarantine -> self-heal ===\n");
  Fleet fleet;
  for (int i = 0; i < 6; ++i) {
    DeviceSession& dev = fleet.provision(
        "sensor-" + std::to_string(i), app_version('1'), "fw",
        EnforcementPolicy::kCfaBaseline, {.cfa = {.log_capacity = 65536}});
    dev.run_to_symbol("halt", 10000);
  }

  // Beat every 100 ticks; a device whose last good attestation is more
  // than 250 ticks old is quarantined. Remediation re-images onto v2.
  HealthMonitor health(fleet, {.heartbeat = {.period = 100},
                               .policy = {.staleness_threshold = 250}});
  auto golden = fleet.build(app_version('2'), "fw", {.eilid = false});
  health.stage_remediation(fleet.stage_update(golden));

  // sensor-2 drops off the network; sensor-4 is diverged out-of-band
  // by a rogue patch whose MAC verifies -- the device applies it, but
  // no campaign sanctioned the epoch, so attestation will convict.
  fleet.at("sensor-2").set_online(false);
  {
    DeviceSession& rogue = fleet.at("sensor-4");
    const crypto::Digest key = fleet.update_key("sensor-4");
    casu::UpdateAuthority authority(
        std::span<const uint8_t>(key.data(), key.size()));
    rogue.apply_update(authority.make_package(
        0xE800, rogue.firmware_version() + 1, {0x03, 0x43}));
  }

  // First beat: sensor-4 convicts and is healed in the same pass;
  // sensor-2 just misses (150 ticks old is not yet stale).
  print_health("pass 1 (to tick 150):", health.run_until(150));

  // By tick 400 sensor-2 is 400 ticks stale: quarantined, but
  // unreachable -- the monitor records the attempt and keeps it locked.
  print_health("pass 2 (to tick 400):", health.run_until(400));

  // The sensor comes back online; the next pass heals it.
  fleet.at("sensor-2").set_online(true);
  const HealthReport healed = health.run_until(500);
  print_health("pass 3 (to tick 500):", healed);

  for (auto* dev : fleet.sessions()) {
    dev->machine().uart().clear_tx();
    dev->power_cycle();
    dev->run_to_symbol("halt", 10000);
    std::printf("%s now transmits '%c'\n", dev->id().c_str(),
                dev->machine().uart().tx_text()[0]);
  }
  return healed.quarantined_after == 0;
}

// Returns false when the halted rollout did not roll back.
bool act_two() {
  std::printf("\n=== Act 2: halted rollout rolls itself back ===\n");
  Fleet fleet;
  for (int i = 0; i < 6; ++i) {
    DeviceSession& dev = fleet.provision(
        "unit-" + std::to_string(i), app_version('1'), "fw",
        EnforcementPolicy::kCfaBaseline, {.cfa = {.log_capacity = 65536}});
    dev.run_to_symbol("halt", 10000);
  }

  RolloutPlan plan;
  plan.waves = {{.name = "canary", .device_ids = {"unit-0", "unit-1"}},
                {.name = "rest", .fraction = 1.0}};
  plan.probe = drive_wave;
  plan.soak_ticks = 25;        // probe, then let the wave soak + re-sweep
  plan.rollback_on_halt = true;

  // unit-4's transport forges the package: the canary soaks clean, the
  // wide wave blows the (zero) failure budget, and the scheduler walks
  // every swapped device back to v1.
  auto v2 = fleet.build(app_version('2'), "fw", {.eilid = false});
  CampaignOptions compromised;
  compromised.tamper = [](const DeviceSession& dev,
                          casu::UpdatePackage& package) {
    if (dev.id() == "unit-4") package.mac[0] ^= 0xFF;
  };
  RolloutReport report = fleet.plan_rollout(v2, plan, compromised).run();

  for (const WaveOutcome& wave : report.waves) {
    std::printf("wave '%s': %s @%llu, soaked until @%llu, gated @%llu\n",
                wave.name.c_str(), wave.applied ? "applied" : "NOT APPLIED",
                static_cast<unsigned long long>(wave.applied_tick),
                static_cast<unsigned long long>(wave.soaked_until),
                static_cast<unsigned long long>(wave.gated_tick));
    for (size_t i = 0; i < wave.rollbacks.size(); ++i) {
      std::printf("  rollback %s: %s%s\n", wave.device_ids[i].c_str(),
                  std::string(update_result_name(wave.rollbacks[i].result))
                      .c_str(),
                  wave.rollbacks[i].build_swapped ? " (build swapped back)"
                                                  : "");
    }
  }
  std::printf("halted: %s\nrolled back @%llu\n", report.halt_reason.c_str(),
              static_cast<unsigned long long>(report.rollback_tick));

  for (auto* dev : fleet.sessions()) {
    dev->machine().uart().clear_tx();
    dev->power_cycle();
    dev->run_to_symbol("halt", 10000);
    std::printf("%s back on '%c'\n", dev->id().c_str(),
                dev->machine().uart().tx_text()[0]);
  }
  return report.rolled_back;
}

}  // namespace

int main() {
  const bool healed = act_one();
  const bool rolled_back = act_two();
  if (!healed) std::printf("FAILED: quarantine not empty after pass 3\n");
  if (!rolled_back) std::printf("FAILED: the halted rollout kept v2\n");
  return healed && rolled_back ? 0 : 1;
}
