// Fleet time + self-healing: the deterministic FleetClock, heartbeat
// cadence/jitter scheduling, freshness bookkeeping, the pure
// quarantine decision, automated remediation (reflash -> re-update ->
// re-attest), and the CampaignScheduler's soak windows and automatic
// rollback on halt. Every time-driven behavior here runs on simulated
// ticks -- a frozen clock quarantines nothing, and pooled runs are
// bit-identical to serial ones.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "attacks/attack.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "eilid/fleet.h"
#include "eilid/health.h"
#include "eilid/incremental.h"
#include "eilid/rollout.h"

namespace eilid {
namespace {

// Firmware generations with genuinely different layouts (the
// emit-call count shifts every later address).
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
  std::string n = std::to_string(i);
  return "dev-" + std::string(n.size() < 2 ? 2 - n.size() : 0, '0') + n;
}

// N CFA-baseline devices on firmware(0), each run to halt so the first
// sweep has evidence to judge.
void provision_fleet(Fleet& fleet, size_t devices) {
  for (size_t i = 0; i < devices; ++i) {
    DeviceSession& dev =
        fleet.provision(device_id(i), firmware(0), "fw",
                        EnforcementPolicy::kCfaBaseline,
                        {.cfa = {.log_capacity = 65536}});
    dev.run_to_symbol("halt", 100000);
  }
}

// Rogue-but-validly-MAC'd out-of-band patch: the device applies it (the
// MAC verifies), logs an epoch marker no campaign sanctioned, and the
// next sweep convicts the unexplained code change (path_ok = false).
void diverge_out_of_band(Fleet& fleet, const std::string& id) {
  DeviceSession& dev = fleet.at(id);
  const crypto::Digest key = fleet.update_key(id);
  casu::UpdateAuthority authority(
      std::span<const uint8_t>(key.data(), key.size()));
  ASSERT_EQ(dev.apply_update(authority.make_package(
                0xE800, dev.firmware_version() + 1, {0x03, 0x43})),
            casu::UpdateStatus::kApplied);
}

// ------------------------------------------------------------ FleetClock

TEST(FleetClockTest, StartsAtZeroAndAdvancesMonotonically) {
  FleetClock clock;
  EXPECT_EQ(clock.now(), 0u);
  EXPECT_EQ(clock.advance(10), 10u);
  EXPECT_EQ(clock.now(), 10u);
  EXPECT_EQ(clock.advance_to(25), 25u);
  // advance_to never moves time backwards: a stale deadline is a no-op.
  EXPECT_EQ(clock.advance_to(5), 25u);
  EXPECT_EQ(clock.now(), 25u);
}

TEST(FleetClockTest, FleetOwnsOneClockAndStampsVerdicts) {
  Fleet fleet;
  provision_fleet(fleet, 2);
  fleet.clock().advance(42);
  for (const auto& verdict : fleet.verifier().verify_all()) {
    EXPECT_TRUE(verdict.ok()) << verdict.device_id;
    EXPECT_EQ(verdict.tick, 42u) << verdict.device_id;
  }
}

// ------------------------------------------------------------- SeededRng

TEST(SeededRngTest, KeyedStreamsAreStableAndPerKey) {
  // The keyed stream is a pure function of (seed, key) -- FNV-1a, not
  // std::hash -- so heartbeat jitter phases are identical on every
  // platform and every run.
  auto a1 = common::SeededRng::keyed(7, "dev-00");
  auto a2 = common::SeededRng::keyed(7, "dev-00");
  EXPECT_EQ(a1.next(), a2.next());
  auto b = common::SeededRng::keyed(7, "dev-01");
  auto a3 = common::SeededRng::keyed(7, "dev-00");
  EXPECT_NE(a3.next(), b.next());
  // A different seed re-phases every key.
  auto c = common::SeededRng::keyed(8, "dev-00");
  auto a4 = common::SeededRng::keyed(7, "dev-00");
  EXPECT_NE(a4.next(), c.next());
}

// ------------------------------------------------------------ heartbeats

TEST(HeartbeatTest, CadenceFiresEveryPeriodAndRecordsFreshness) {
  Fleet fleet;
  provision_fleet(fleet, 3);
  HeartbeatScheduler scheduler(fleet, {.period = 100});
  const HeartbeatReport report = scheduler.run_until(1000);

  EXPECT_EQ(report.from, 0u);
  EXPECT_EQ(report.until, 1000u);
  EXPECT_EQ(fleet.clock().now(), 1000u);
  // No jitter: all devices beat together at 100, 200, ..., 1000.
  ASSERT_EQ(report.beats.size(), 10u);
  for (size_t b = 0; b < report.beats.size(); ++b) {
    const HeartbeatBeat& beat = report.beats[b];
    EXPECT_EQ(beat.tick, (b + 1) * 100);
    EXPECT_TRUE(beat.missed.empty());
    ASSERT_EQ(beat.verdicts.size(), 3u);
    for (const auto& verdict : beat.verdicts) {
      EXPECT_TRUE(verdict.ok()) << verdict.device_id;
      EXPECT_EQ(verdict.tick, beat.tick);
    }
  }
  for (const FreshnessRecord& record : scheduler.records()) {
    EXPECT_EQ(record.heartbeats, 10u) << record.device_id;
    EXPECT_EQ(record.misses, 0u);
    EXPECT_EQ(record.last_ok_tick, 1000u);
    EXPECT_EQ(record.next_due, 1100u);
    EXPECT_TRUE(record.ever_ok);
    EXPECT_FALSE(record.convicted);
  }
}

TEST(HeartbeatTest, JitterSpreadsPhasesDeterministically) {
  Fleet fleet;
  provision_fleet(fleet, 4);
  const HeartbeatOptions options{.period = 100, .jitter = 7,
                                 .jitter_seed = 1234};
  HeartbeatScheduler scheduler(fleet, options);
  scheduler.run_until(300);

  std::set<Tick> first_beats;
  for (const FreshnessRecord& record : scheduler.records()) {
    // Phase is exactly the keyed-stream draw for this device.
    const Tick phase = common::SeededRng::keyed(options.jitter_seed,
                                                record.device_id)
                           .below(options.jitter + 1);
    EXPECT_LE(phase, options.jitter);
    // Enrolled at 0: beats at 100+phase, 200+phase; next due 300+phase
    // (or 400+phase when the phase fit a third beat under 300).
    EXPECT_EQ(record.next_due % 100, phase % 100) << record.device_id;
    EXPECT_GE(record.heartbeats, 2u);
    first_beats.insert(100 + phase);
  }
  // Seed 1234 spreads these four ids across more than one tick.
  EXPECT_GT(first_beats.size(), 1u);
}

TEST(HeartbeatTest, OfflineDevicesRecordMissesNotVerdicts) {
  Fleet fleet;
  provision_fleet(fleet, 3);
  fleet.at(device_id(1)).set_online(false);
  HeartbeatScheduler scheduler(fleet, {.period = 50});
  const HeartbeatReport report = scheduler.run_until(200);

  ASSERT_EQ(report.beats.size(), 4u);
  for (const HeartbeatBeat& beat : report.beats) {
    EXPECT_EQ(beat.verdicts.size(), 2u);
    EXPECT_EQ(beat.missed, std::vector<std::string>{device_id(1)});
  }
  const FreshnessRecord down = scheduler.record(device_id(1));
  EXPECT_EQ(down.misses, 4u);
  EXPECT_EQ(down.heartbeats, 0u);
  EXPECT_FALSE(down.ever_attested);
  // Misses keep the schedule moving: the device is due again at 250.
  EXPECT_EQ(down.next_due, 250u);
}

TEST(HeartbeatTest, PooledRunBitIdenticalToSerial) {
  auto run = [](bool pooled) {
    auto fleet = std::make_unique<Fleet>();
    provision_fleet(*fleet, 6);
    fleet->at(device_id(4)).set_online(false);
    HeartbeatScheduler scheduler(*fleet,
                                 {.period = 60, .jitter = 9,
                                  .jitter_seed = 99});
    HeartbeatReport report;
    if (pooled) {
      common::ThreadPool pool(4);
      report = scheduler.run_until(700, pool);
    } else {
      report = scheduler.run_until(700);
    }
    return std::make_pair(std::move(report), scheduler.records());
  };
  const auto serial = run(false);
  const auto pooled = run(true);
  EXPECT_TRUE(serial.first == pooled.first);
  EXPECT_TRUE(serial.second == pooled.second);
}

// Another actor moves the clock far past the schedule between runs: a
// due beat the clock has already passed catches up onto the device's
// cadence (the first tick >= now) instead of replaying a backlog of
// beats stamped with ticks that are already gone.
TEST(HeartbeatTest, ClockJumpCatchesUpOntoTheCadence) {
  Fleet fleet;
  provision_fleet(fleet, 3);
  HeartbeatScheduler scheduler(fleet, {.period = 10});
  scheduler.run_until(100);
  fleet.clock().advance_to(1000);
  const HeartbeatReport report = scheduler.run_until(1010);

  ASSERT_EQ(report.beats.size(), 2u);
  EXPECT_EQ(report.beats[0].tick, 1000u);
  EXPECT_EQ(report.beats[1].tick, 1010u);
  for (const HeartbeatBeat& beat : report.beats) {
    ASSERT_EQ(beat.verdicts.size(), 3u);
    for (const auto& verdict : beat.verdicts) {
      EXPECT_EQ(verdict.tick, beat.tick) << verdict.device_id;
    }
  }
  for (const FreshnessRecord& record : scheduler.records()) {
    EXPECT_EQ(record.heartbeats, 12u) << record.device_id;
    EXPECT_EQ(record.last_ok_tick, 1010u) << record.device_id;
    EXPECT_EQ(record.next_due, 1020u) << record.device_id;
  }
}

TEST(HeartbeatTest, ZeroPeriodThrows) {
  Fleet fleet;
  EXPECT_THROW(HeartbeatScheduler(fleet, {.period = 0}), FleetError);
  EXPECT_THROW(
      HealthMonitor(fleet, {.heartbeat = {.period = 0}, .policy = {}}),
      FleetError);
}

// --------------------------------------------------- quarantine decision

TEST(QuarantineTest, FrozenClockQuarantinesNothing) {
  Fleet fleet;
  provision_fleet(fleet, 3);
  HealthMonitor health(fleet, {.heartbeat = {.period = 100},
                               .policy = {.staleness_threshold = 150}});
  // Time never moves: no beats fire, nothing ages, nothing quarantines
  // -- run after run.
  for (int pass = 0; pass < 3; ++pass) {
    const HealthReport report = health.run_until(fleet.clock().now());
    EXPECT_TRUE(report.heartbeats.beats.empty());
    EXPECT_TRUE(report.newly_quarantined.empty());
    EXPECT_EQ(report.quarantined_after, 0u);
  }
  EXPECT_EQ(fleet.clock().now(), 0u);
  EXPECT_TRUE(health.quarantined().empty());
}

TEST(QuarantineTest, AssessIsAPureFunctionOfTheRecord) {
  // Mirrors the rollout property suite: seeded random records, the
  // decision recomputed from the documented rules alone, and purity
  // (copies, repeats, monotonicity in now) checked on every case.
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    common::SeededRng rng(seed * 977);
    FreshnessRecord record;
    record.device_id = device_id(seed % 30);
    record.enrolled_tick = rng.below(1000);
    record.ever_ok = rng.chance(1, 2);
    record.ever_attested = record.ever_ok || rng.chance(1, 2);
    record.last_ok_tick =
        record.ever_ok ? record.enrolled_tick + rng.below(1000) : 0;
    record.last_attested_tick =
        record.ever_attested ? record.last_ok_tick + rng.below(200) : 0;
    record.convicted = record.ever_attested && rng.chance(1, 3);
    record.heartbeats = static_cast<uint32_t>(rng.below(50));
    record.misses = static_cast<uint32_t>(rng.below(10));

    HealthPolicy policy;
    policy.staleness_threshold = rng.below(600) + 1;
    policy.quarantine_convicted = rng.chance(3, 4);
    const Tick now = record.enrolled_tick + rng.below(2000);

    const QuarantineReason verdict = assess(record, now, policy);

    // Oracle, straight from the contract: conviction (when policed)
    // outranks staleness; staleness ages from the last clean verdict,
    // or enrollment if there never was one.
    QuarantineReason expected = QuarantineReason::kNone;
    const Tick anchor =
        record.ever_ok ? record.last_ok_tick : record.enrolled_tick;
    const Tick age = now >= anchor ? now - anchor : 0;
    if (policy.quarantine_convicted && record.convicted) {
      expected = QuarantineReason::kConvicted;
    } else if (age > policy.staleness_threshold) {
      expected = QuarantineReason::kStale;
    }
    EXPECT_EQ(verdict, expected) << "seed " << seed;

    // Purity: a field-identical copy and a repeat call agree.
    const FreshnessRecord copy = record;
    EXPECT_EQ(assess(copy, now, policy), verdict) << "seed " << seed;
    EXPECT_EQ(assess(record, now, policy), verdict) << "seed " << seed;
    // Monotone in now: time passing never releases a quarantine.
    if (verdict != QuarantineReason::kNone) {
      EXPECT_NE(assess(record, now + rng.below(5000), policy),
                QuarantineReason::kNone)
          << "seed " << seed;
    }
  }
}

// ---------------------------------------------------------- self-healing

TEST(SelfHealingTest, StaleDeviceQuarantinedThenRemediatedRoundTrip) {
  Fleet fleet;
  provision_fleet(fleet, 3);
  HealthMonitor health(fleet, {.heartbeat = {.period = 100},
                               .policy = {.staleness_threshold = 150}});
  health.stage_remediation(
      fleet.stage_update(fleet.at(device_id(0)).shared_build()));

  // Everyone beats clean at 100.
  HealthReport report = health.run_until(100);
  EXPECT_TRUE(report.newly_quarantined.empty());

  // dev-01 drops off the network; by 300 its last clean verdict (100)
  // is 200 ticks old > 150: quarantined as stale. Offline means the
  // remediation attempt cannot reach it -- it stays quarantined.
  fleet.at(device_id(1)).set_online(false);
  report = health.run_until(300);
  ASSERT_EQ(report.newly_quarantined.size(), 1u);
  EXPECT_EQ(report.newly_quarantined[0].device_id, device_id(1));
  EXPECT_EQ(report.newly_quarantined[0].reason, QuarantineReason::kStale);
  EXPECT_EQ(report.newly_quarantined[0].since, 300u);
  ASSERT_EQ(report.remediations.size(), 1u);
  EXPECT_FALSE(report.remediations[0].reachable);
  EXPECT_FALSE(report.remediations[0].healed);
  EXPECT_EQ(report.quarantined_after, 1u);
  ASSERT_EQ(health.quarantined().size(), 1u);
  EXPECT_EQ(health.quarantined()[0].remediation_attempts, 1u);

  // The device comes back: the next pass remediates it -- reflash,
  // re-update (already current is a success), a clean re-attestation --
  // and releases it. No operator in the loop anywhere.
  fleet.at(device_id(1)).set_online(true);
  report = health.run_until(400);
  ASSERT_EQ(report.remediations.size(), 1u);
  const RemediationOutcome& heal = report.remediations[0];
  EXPECT_EQ(heal.device_id, device_id(1));
  EXPECT_TRUE(heal.reachable);
  EXPECT_EQ(heal.update.result, UpdateResult::kAlreadyCurrent);
  EXPECT_TRUE(heal.verdict.ok());
  EXPECT_TRUE(heal.healed);
  EXPECT_EQ(report.quarantined_after, 0u);
  EXPECT_TRUE(health.quarantined().empty());
  // Freshness restarted: the healed device is not re-quarantined by
  // the very next pass.
  report = health.run_until(500);
  EXPECT_TRUE(report.newly_quarantined.empty());
  EXPECT_EQ(report.quarantined_after, 0u);
}

TEST(SelfHealingTest, ConvictedDeviceIsReflashedReupdatedAndHeals) {
  Fleet fleet;
  provision_fleet(fleet, 3);
  HealthMonitor health(fleet, {.heartbeat = {.period = 100},
                               .policy = {.staleness_threshold = 500}});
  // Remediation re-updates onto a *new* golden build: the rogue-patched
  // device's diverged PMEM would refuse a diff-based update
  // (kImageMismatch) -- reflash first makes the transition applicable.
  auto golden = fleet.build(firmware(1), "fw", {.eilid = false});
  health.stage_remediation(fleet.stage_update(golden));

  // dev-02 takes a validly-MAC'd but unsanctioned patch. The beat at
  // 100 convicts the unexplained epoch marker; the same pass
  // quarantines and remediates it.
  diverge_out_of_band(fleet, device_id(2));
  const HealthReport report = health.run_until(100);

  ASSERT_EQ(report.heartbeats.beats.size(), 1u);
  bool convicted_seen = false;
  for (const auto& verdict : report.heartbeats.beats[0].verdicts) {
    if (verdict.device_id == device_id(2)) {
      convicted_seen = true;
      EXPECT_TRUE(verdict.attested);
      EXPECT_TRUE(verdict.mac_ok);
      EXPECT_FALSE(verdict.path_ok);
    } else {
      EXPECT_TRUE(verdict.ok()) << verdict.device_id;
    }
  }
  EXPECT_TRUE(convicted_seen);

  ASSERT_EQ(report.newly_quarantined.size(), 1u);
  EXPECT_EQ(report.newly_quarantined[0].device_id, device_id(2));
  EXPECT_EQ(report.newly_quarantined[0].reason,
            QuarantineReason::kConvicted);
  ASSERT_EQ(report.remediations.size(), 1u);
  const RemediationOutcome& heal = report.remediations[0];
  EXPECT_TRUE(heal.reachable);
  EXPECT_EQ(heal.update.result, UpdateResult::kApplied);
  EXPECT_TRUE(heal.update.build_swapped);
  EXPECT_TRUE(heal.verdict.ok());
  EXPECT_TRUE(heal.healed);
  EXPECT_EQ(report.quarantined_after, 0u);

  // The healed device genuinely runs the golden build now and keeps
  // attesting clean on the next beats.
  EXPECT_EQ(fleet.at(device_id(2)).shared_build().get(), golden.get());
  const HealthReport after = health.run_until(300);
  EXPECT_TRUE(after.newly_quarantined.empty());
  for (const auto& beat : after.heartbeats.beats) {
    for (const auto& verdict : beat.verdicts) {
      EXPECT_TRUE(verdict.ok()) << verdict.device_id;
    }
  }
}

TEST(SelfHealingTest, PooledHealthRunBitIdenticalToSerial) {
  auto run = [](bool pooled) {
    auto fleet = std::make_unique<Fleet>();
    provision_fleet(*fleet, 6);
    fleet->at(device_id(3)).set_online(false);  // goes stale
    diverge_out_of_band(*fleet, device_id(5));  // convicts at beat 1
    HealthMonitor health(*fleet, {.heartbeat = {.period = 100, .jitter = 5,
                                                .jitter_seed = 7},
                                  .policy = {.staleness_threshold = 150}});
    health.stage_remediation(
        fleet->stage_update(fleet->at(device_id(0)).shared_build()));
    HealthReport report;
    if (pooled) {
      common::ThreadPool pool(4);
      report = health.run_until(400, pool);
    } else {
      report = health.run_until(400);
    }
    return std::make_pair(std::move(report), health.quarantined());
  };
  const auto serial = run(false);
  const auto pooled = run(true);
  EXPECT_TRUE(serial.first == pooled.first);
  EXPECT_TRUE(serial.second == pooled.second);
}

// ----------------------------------------------------------- escalation

TEST(EscalationTest, UnreachableDeviceEscalatesAfterMaxAttempts) {
  Fleet fleet;
  provision_fleet(fleet, 2);
  HealthMonitor health(
      fleet, {.heartbeat = {.period = 100},
              .policy = {.staleness_threshold = 150, .max_heal_attempts = 2}});
  health.stage_remediation(
      fleet.stage_update(fleet.at(device_id(0)).shared_build()));

  // dev-01 drops off after a clean first beat; by 300 it is stale and
  // the remediation attempt cannot reach it (failed attempt #1).
  health.run_until(100);
  fleet.at(device_id(1)).set_online(false);
  HealthReport report = health.run_until(300);
  ASSERT_EQ(report.remediations.size(), 1u);
  EXPECT_FALSE(report.remediations[0].healed);
  EXPECT_TRUE(report.escalated.empty());
  ASSERT_EQ(health.quarantined().size(), 1u);
  EXPECT_EQ(health.quarantined()[0].remediation_attempts, 1u);

  // Failed attempt #2 exhausts the budget: the same pass escalates.
  report = health.run_until(400);
  ASSERT_EQ(report.remediations.size(), 1u);
  EXPECT_FALSE(report.remediations[0].healed);
  ASSERT_EQ(report.escalated.size(), 1u);
  EXPECT_EQ(report.escalated[0].device_id, device_id(1));
  EXPECT_EQ(report.escalated[0].reason, QuarantineReason::kEscalated);
  EXPECT_EQ(report.escalated[0].remediation_attempts, 2u);

  // Terminal: no further remediation passes are spent on it -- even
  // after the device comes back online -- and it stays quarantined
  // until an operator acts.
  fleet.at(device_id(1)).set_online(true);
  report = health.run_until(600);
  EXPECT_TRUE(report.remediations.empty());
  EXPECT_TRUE(report.escalated.empty());  // transition reported once
  EXPECT_EQ(report.quarantined_after, 1u);
  ASSERT_EQ(health.quarantined().size(), 1u);
  EXPECT_EQ(health.quarantined()[0].reason, QuarantineReason::kEscalated);
}

TEST(EscalationTest, HealCountSurvivesReleaseAndReconviction) {
  Fleet fleet;
  provision_fleet(fleet, 2);
  HealthMonitor health(
      fleet, {.heartbeat = {.period = 100},
              .policy = {.staleness_threshold = 150, .max_heal_attempts = 2}});
  health.stage_remediation(
      fleet.stage_update(fleet.at(device_id(0)).shared_build()));

  // Incarnation 1: offline -> stale -> one failed attempt, then the
  // device comes back and the next pass heals and releases it.
  health.run_until(100);
  fleet.at(device_id(1)).set_online(false);
  HealthReport report = health.run_until(300);
  ASSERT_EQ(report.remediations.size(), 1u);
  EXPECT_FALSE(report.remediations[0].healed);
  fleet.at(device_id(1)).set_online(true);
  report = health.run_until(400);
  ASSERT_EQ(report.remediations.size(), 1u);
  EXPECT_TRUE(report.remediations[0].healed);
  EXPECT_TRUE(health.quarantined().empty());

  // Incarnation 2: the same device goes bad again. Its new quarantine
  // entry carries the *lifetime* attempt count (the release did not
  // reset it), so the very next failed attempt -- #2 overall --
  // escalates instead of looping heal -> re-quarantine forever.
  fleet.at(device_id(1)).set_online(false);
  report = health.run_until(700);
  ASSERT_EQ(report.newly_quarantined.size(), 1u);
  EXPECT_EQ(report.newly_quarantined[0].remediation_attempts, 1u);
  ASSERT_EQ(report.escalated.size(), 1u);
  EXPECT_EQ(report.escalated[0].device_id, device_id(1));
  EXPECT_EQ(report.escalated[0].remediation_attempts, 2u);
  ASSERT_EQ(health.quarantined().size(), 1u);
  EXPECT_EQ(health.quarantined()[0].reason, QuarantineReason::kEscalated);
}

TEST(EscalationTest, ZeroMaxHealAttemptsMeansUnbounded) {
  Fleet fleet;
  provision_fleet(fleet, 2);
  HealthMonitor health(fleet, {.heartbeat = {.period = 100},
                               .policy = {.staleness_threshold = 150}});
  health.stage_remediation(
      fleet.stage_update(fleet.at(device_id(0)).shared_build()));
  health.run_until(100);
  fleet.at(device_id(1)).set_online(false);
  // Five straight failed passes under the default (0 = unbounded)
  // budget: the device keeps getting attempts and never escalates.
  for (Tick deadline = 300; deadline <= 700; deadline += 100) {
    HealthReport report = health.run_until(deadline);
    ASSERT_EQ(report.remediations.size(), 1u) << deadline;
    EXPECT_FALSE(report.remediations[0].healed);
    EXPECT_TRUE(report.escalated.empty());
  }
  ASSERT_EQ(health.quarantined().size(), 1u);
  EXPECT_EQ(health.quarantined()[0].reason, QuarantineReason::kStale);
  EXPECT_EQ(health.quarantined()[0].remediation_attempts, 5u);
}

// --------------------------------------------------------- soak windows

TEST(SoakTest, SoakResweepCatchesCompromiseTheFirstSweepMissed) {
  const apps::AppSpec& app = apps::vuln_gateway();
  Fleet fleet;
  for (int i = 0; i < 4; ++i) {
    DeviceSession& dev = fleet.provision(
        "unit-" + std::to_string(i), app.source, app.name,
        EnforcementPolicy::kCfaBaseline, {.cfa = {.log_capacity = 65536}});
    dev.machine().uart().feed(attacks::benign_payload());
    dev.run_to_symbol("halt", app.cycle_budget);
  }
  std::string v2 = app.source;
  v2.insert(v2.rfind(".vector"), "v2_tag:\n    ret\n");
  auto target = fleet.build(v2, "gateway-v2", {.eilid = false});

  RolloutPlan plan;
  plan.waves = {{.name = "canary", .device_ids = {"unit-0", "unit-1"}},
                {.name = "rest", .fraction = 1.0}};
  plan.soak_ticks = 50;
  // The compromise only manifests while the new firmware *runs*: the
  // probe (inside the soak window, after the immediate sweep) feeds
  // unit-0 the stack-smash exploit.
  plan.probe = [&app](const std::vector<DeviceSession*>& wave,
                      common::ThreadPool*) {
    for (DeviceSession* dev : wave) {
      std::lock_guard<std::mutex> lock(dev->mutex());
      dev->machine().run(64);
      if (dev->id() == "unit-0") {
        dev->machine().uart().feed(
            attacks::overflow_ret_payload(dev->symbol("unlock")));
        dev->run_to_symbol("halt", 8 * app.cycle_budget);
      } else {
        apps::run_workload(*dev, app);
      }
    }
  };

  const RolloutReport report = fleet.plan_rollout(target, plan).run();
  EXPECT_TRUE(report.halted);
  ASSERT_EQ(report.waves.size(), 2u);
  const WaveOutcome& canary = report.waves[0];

  // The immediate post-apply sweep saw a perfectly healthy update...
  ASSERT_EQ(canary.soak_gate.size(), 2u);
  for (const auto& verdict : canary.soak_gate) {
    EXPECT_TRUE(verdict.ok()) << verdict.device_id;
  }
  // ...and only the soak re-sweep convicts the hijack.
  ASSERT_EQ(canary.gate.size(), 2u);
  EXPECT_EQ(canary.gate[0].device_id, "unit-0");
  EXPECT_FALSE(canary.gate[0].path_ok);
  EXPECT_TRUE(canary.gate[1].ok());
  EXPECT_EQ(canary.failures, 1u);

  // The soak window is fleet time: gate tick = apply tick + soak.
  EXPECT_EQ(canary.applied_tick, 0u);
  EXPECT_EQ(canary.soaked_until, 50u);
  EXPECT_EQ(canary.gated_tick, 50u);
  EXPECT_FALSE(report.waves[1].applied);
}

// ---------------------------------------------------- rollback on halt

TEST(RollbackTest, HaltRollsTheTouchedFleetBackToPriorBuilds) {
  Fleet fleet;
  provision_fleet(fleet, 6);
  // Mixed-version fleet: dev-04/dev-05 already run generation 1.
  auto gen1 = fleet.build(firmware(1), "fw", {.eilid = false});
  UpdateCampaign to_gen1 = fleet.stage_update(gen1);
  for (size_t i = 4; i < 6; ++i) {
    ASSERT_TRUE(to_gen1.apply_to(fleet.at(device_id(i))).ok());
  }
  auto gen0 = fleet.at(device_id(0)).shared_build();
  auto gen2 = fleet.build(firmware(2), "fw", {.eilid = false});

  // Forge dev-00's transport; zero budget; one wave over everything.
  CampaignOptions campaign_options;
  campaign_options.tamper = [](const DeviceSession& dev,
                               casu::UpdatePackage& package) {
    if (dev.id() == device_id(0)) package.mac[0] ^= 0xFF;
  };
  RolloutPlan plan;
  plan.waves = {{.name = "all", .fraction = 1.0}};
  plan.rollback_on_halt = true;
  const RolloutReport report =
      fleet.plan_rollout(gen2, plan, campaign_options).run();

  EXPECT_TRUE(report.halted);
  EXPECT_TRUE(report.rolled_back);
  ASSERT_EQ(report.waves.size(), 1u);
  const WaveOutcome& wave = report.waves[0];
  ASSERT_EQ(wave.rollbacks.size(), 6u);

  // dev-00 never swapped (bad MAC): the reverse campaign finds it
  // already on its prior build. Everyone else is driven back.
  EXPECT_EQ(wave.updates[0].result, UpdateResult::kBadMac);
  EXPECT_EQ(wave.rollbacks[0].result, UpdateResult::kAlreadyCurrent);
  EXPECT_FALSE(wave.rollbacks[0].build_swapped);
  for (size_t i = 1; i < 6; ++i) {
    EXPECT_EQ(wave.updates[i].result, UpdateResult::kApplied) << i;
    EXPECT_EQ(wave.rollbacks[i].result, UpdateResult::kApplied) << i;
    EXPECT_TRUE(wave.rollbacks[i].build_swapped) << i;
  }

  // Each device is back on the exact build it ran before the wave --
  // including the generation-1 pair -- and the rollback was a genuine
  // anti-rollback-monotonic update (versions went up, not back).
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(fleet.at(device_id(i)).shared_build().get(), gen0.get()) << i;
  }
  for (size_t i = 4; i < 6; ++i) {
    EXPECT_EQ(fleet.at(device_id(i)).shared_build().get(), gen1.get()) << i;
  }
  EXPECT_EQ(fleet.at(device_id(0)).firmware_version(), 0u);
  EXPECT_EQ(fleet.at(device_id(1)).firmware_version(), 2u);  // fwd + back
  EXPECT_EQ(fleet.at(device_id(4)).firmware_version(), 3u);  // gen1 + fwd + back

  // Rolled-back devices keep attesting clean: the reverse campaign
  // staged real epoch markers and CFG swaps back.
  for (const auto& verdict : fleet.verifier().verify_all()) {
    EXPECT_TRUE(verdict.ok()) << verdict.device_id;
  }
}

TEST(RollbackTest, SuccessfulPlansNeverRollBack) {
  Fleet fleet;
  provision_fleet(fleet, 4);
  auto gen1 = fleet.build(firmware(1), "fw", {.eilid = false});
  RolloutPlan plan;
  plan.waves = {{.name = "all", .fraction = 1.0}};
  plan.rollback_on_halt = true;
  const RolloutReport report = fleet.plan_rollout(gen1, plan).run();
  EXPECT_FALSE(report.halted);
  EXPECT_FALSE(report.rolled_back);
  EXPECT_TRUE(report.waves[0].rollbacks.empty());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(fleet.at(device_id(i)).shared_build().get(), gen1.get()) << i;
  }
}

TEST(RollbackTest, PooledRollbackReportBitIdenticalToSerial) {
  auto run = [](bool pooled) {
    auto fleet = std::make_unique<Fleet>();
    provision_fleet(*fleet, 8);
    auto gen1 = fleet->build(firmware(1), "fw", {.eilid = false});
    UpdateCampaign to_gen1 = fleet->stage_update(gen1);
    for (size_t i = 5; i < 8; ++i) {
      EXPECT_TRUE(to_gen1.apply_to(fleet->at(device_id(i))).ok());
    }
    CampaignOptions campaign_options;
    campaign_options.tamper = [](const DeviceSession& dev,
                                 casu::UpdatePackage& package) {
      if (dev.id() == device_id(2)) package.mac[0] ^= 0xFF;
    };
    RolloutPlan plan;
    plan.waves = {{.name = "canary", .fraction = 0.5},
                  {.name = "rest", .fraction = 1.0}};
    plan.max_in_flight = 3;
    plan.soak_ticks = 25;
    plan.rollback_on_halt = true;
    auto gen2 = fleet->build(firmware(2), "fw", {.eilid = false});
    CampaignScheduler scheduler =
        fleet->plan_rollout(gen2, plan, campaign_options);
    if (pooled) {
      common::ThreadPool pool(4);
      return scheduler.run(pool);
    }
    return scheduler.run();
  };
  const RolloutReport serial = run(false);
  const RolloutReport pooled = run(true);
  EXPECT_TRUE(serial.halted);
  EXPECT_TRUE(serial.rolled_back);
  EXPECT_TRUE(serial == pooled);
}

// ---------------------------------------------------------------- roster

// The fleet-time schedulers watch the verifier's enrolled devices:
// kCfaBaseline devices deployed between runs join, decommissioned ones
// leave. Each case runs on the inline pool and on four workers.
class RosterTest : public ::testing::TestWithParam<size_t> {
 protected:
  common::ThreadPool& pool() {
    if (GetParam() == 0) return common::ThreadPool::inline_pool();
    if (workers_ == nullptr) {
      workers_ = std::make_unique<common::ThreadPool>(GetParam());
    }
    return *workers_;
  }

  // A late kCfaBaseline device (dev-02) plus a kCasu one, which emits
  // no announcements and so is never watched.
  static void deploy_late(Fleet& fleet) {
    fleet.provision(device_id(2), firmware(0), "fw",
                    EnforcementPolicy::kCfaBaseline,
                    {.cfa = {.log_capacity = 65536}})
        .run_to_symbol("halt", 100000);
    fleet.provision("casu-00", firmware(0), "fw", EnforcementPolicy::kCasu)
        .run_to_symbol("halt", 100000);
  }

 private:
  std::unique_ptr<common::ThreadPool> workers_;
};

TEST_P(RosterTest, DeployedDeviceJoinsHeartbeats) {
  Fleet fleet;
  provision_fleet(fleet, 2);
  HeartbeatScheduler scheduler(fleet, {.period = 10});
  scheduler.run_until(50, pool());
  ASSERT_EQ(scheduler.records().size(), 2u);

  deploy_late(fleet);
  const HeartbeatReport report = scheduler.run_until(100, pool());
  ASSERT_EQ(report.beats.size(), 5u);
  for (const HeartbeatBeat& beat : report.beats) {
    ASSERT_EQ(beat.verdicts.size(), 3u) << beat.tick;
    EXPECT_EQ(beat.verdicts[2].device_id, device_id(2));
  }
  EXPECT_EQ(scheduler.records().size(), 3u);
  const FreshnessRecord late = scheduler.record(device_id(2));
  EXPECT_EQ(late.enrolled_tick, 50u);
  EXPECT_EQ(late.heartbeats, 5u);
  EXPECT_EQ(late.last_ok_tick, 100u);
  EXPECT_EQ(scheduler.record("casu-00"), FreshnessRecord{});
}

TEST_P(RosterTest, DeployedDeviceJoinsWindowRotation) {
  Fleet fleet;
  provision_fleet(fleet, 2);
  IncrementalVerifier window(fleet, {.period = 10,
                                     .max_devices_per_tick = 1,
                                     .max_bytes_per_slice = 0});
  // One device per round: dev-00 at 10, dev-01 at 20.
  ASSERT_EQ(window.run_until(20, pool()).rounds.size(), 2u);

  deploy_late(fleet);
  const auto report = window.run_until(30, pool());
  ASSERT_EQ(report.rounds.size(), 1u);
  ASSERT_EQ(report.rounds[0].slices.size(), 1u);
  EXPECT_EQ(report.rounds[0].slices[0].device_id, device_id(2));
  EXPECT_TRUE(report.rounds[0].slices[0].ok());
  EXPECT_GT(window.summary(device_id(2)).edges, 0u);
  EXPECT_EQ(window.summary("casu-00"), AttestSummary{});
}

TEST_P(RosterTest, DecommissionedDeviceLeavesRecordsAndQuarantine) {
  Fleet fleet;
  provision_fleet(fleet, 3);
  HealthMonitor health(fleet, {.heartbeat = {.period = 100},
                               .policy = {.staleness_threshold = 150}});
  health.stage_remediation(
      fleet.stage_update(fleet.at(device_id(0)).shared_build()));

  // dev-01 goes dark: stale by 300, one unreachable remediation.
  fleet.at(device_id(1)).set_online(false);
  health.run_until(300, pool());
  ASSERT_EQ(health.quarantined().size(), 1u);
  EXPECT_EQ(health.quarantined()[0].remediation_attempts, 1u);

  fleet.decommission(device_id(1));
  const HealthReport gone = health.run_until(400, pool());
  EXPECT_EQ(gone.quarantined_after, 0u);
  EXPECT_TRUE(health.quarantined().empty());
  ASSERT_EQ(health.records().size(), 2u);
  EXPECT_EQ(health.records()[0].device_id, device_id(0));
  EXPECT_EQ(health.records()[1].device_id, device_id(2));

  // Redeployed under the same id, the device starts over: a fresh
  // record, and zero heal attempts when it goes stale again.
  fleet.provision(device_id(1), firmware(0), "fw",
                  EnforcementPolicy::kCfaBaseline,
                  {.cfa = {.log_capacity = 65536}})
      .set_online(false);
  const HealthReport again = health.run_until(600, pool());
  ASSERT_EQ(again.newly_quarantined.size(), 1u);
  EXPECT_EQ(again.newly_quarantined[0].device_id, device_id(1));
  EXPECT_EQ(again.newly_quarantined[0].remediation_attempts, 0u);
  ASSERT_EQ(health.quarantined().size(), 1u);
  EXPECT_EQ(health.quarantined()[0].remediation_attempts, 1u);
  const FreshnessRecord fresh = health.scheduler().record(device_id(1));
  EXPECT_EQ(fresh.enrolled_tick, 400u);
  EXPECT_EQ(fresh.misses, 2u);
}

INSTANTIATE_TEST_SUITE_P(Pools, RosterTest, ::testing::Values(0u, 4u),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return info.param == 0
                                      ? std::string("inline")
                                      : "pool" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace eilid
