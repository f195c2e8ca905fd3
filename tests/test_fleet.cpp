// The Fleet facade: build-cache identity, N-device provisioning,
// policy-switched enforcement, and VerifierService state isolation
// between sessions that share one cached build.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/apps.h"
#include "attacks/attack.h"
#include "common/error.h"
#include "eilid/fleet.h"
#include "eilid/pipeline.h"
#include "sim/memory_map.h"

namespace eilid {
namespace {

const char* kTinyApp = R"(.equ UART_TX, 0x0130
.org 0xE000
main:
    mov #0x1000, r1
    call #emit
    call #emit
halt:
    jmp halt
emit:
    mov.b #'x', &UART_TX
    ret
.vector 15, main
.end
)";

// ---------------------------------------------------------------- cache

TEST(FleetBuildCache, SameSourceBuildsOnce) {
  Fleet fleet;
  auto a = fleet.build(kTinyApp, "tiny");
  auto b = fleet.build(kTinyApp, "tiny");
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(fleet.pipeline_runs(), 1u);
  EXPECT_EQ(fleet.build_cache_hits(), 1u);
  EXPECT_EQ(fleet.build_cache_size(), 1u);
}

TEST(FleetBuildCache, DistinctOptionsBuildSeparately) {
  Fleet fleet;
  auto instrumented = fleet.build(kTinyApp, "tiny");
  auto plain = fleet.build(kTinyApp, "tiny", {.eilid = false});
  EXPECT_NE(instrumented.get(), plain.get());
  EXPECT_EQ(fleet.pipeline_runs(), 2u);
  EXPECT_EQ(fleet.build_cache_hits(), 0u);

  core::BuildOptions label_mode;
  label_mode.instrument.label_mode = true;
  auto labeled = fleet.build(kTinyApp, "tiny", label_mode);
  EXPECT_NE(labeled.get(), instrumented.get());
  EXPECT_EQ(fleet.pipeline_runs(), 3u);
}

TEST(FleetBuildCache, DistinctSourcesBuildSeparately) {
  Fleet fleet;
  auto a = fleet.build(kTinyApp, "tiny");
  std::string other = kTinyApp;
  other.insert(other.find("mov.b #'x'"), "nop\n    ");
  auto b = fleet.build(other, "tiny");
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(fleet.pipeline_runs(), 2u);
}

// Regression: the cache key must cover a prebuilt ROM's *image bytes*,
// not just its config. Two ROMs built from different configs (so their
// code differs) but relabelled with identical configs used to alias to
// one cache entry, flashing the second device with the first ROM.
TEST(FleetBuildCache, PrebuiltRomImageBytesAreKeyed) {
  core::RomInfo rom_a = core::build_rom();
  core::RomConfig bigger;
  bigger.table_capacity = 32;  // different layout -> different ROM code
  core::RomInfo rom_b = core::build_rom(bigger);
  ASSERT_NE(rom_a.unit.image.bytes(), rom_b.unit.image.bytes());
  rom_b.config = rom_a.config;  // configs now alias; only bytes differ

  core::BuildOptions with_a;
  with_a.prebuilt_rom = &rom_a;
  core::BuildOptions with_b;
  with_b.prebuilt_rom = &rom_b;

  Fleet fleet;
  auto a = fleet.build(kTinyApp, "tiny", with_a);
  auto b = fleet.build(kTinyApp, "tiny", with_b);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(fleet.pipeline_runs(), 2u);
  // Each cached build carries the ROM it was actually given.
  EXPECT_EQ(a->rom.unit.image.bytes(), rom_a.unit.image.bytes());
  EXPECT_EQ(b->rom.unit.image.bytes(), rom_b.unit.image.bytes());

  // The same prebuilt ROM is still a cache hit, not a rebuild.
  auto a2 = fleet.build(kTinyApp, "tiny", with_a);
  EXPECT_EQ(a2.get(), a.get());
  EXPECT_EQ(fleet.pipeline_runs(), 2u);
}

// ------------------------------------------------------------- registry

TEST(FleetRegistry, ProvisionManyFromOnePipelineRun) {
  Fleet fleet;
  for (int i = 0; i < 8; ++i) {
    DeviceSession& dev =
        fleet.provision("node-" + std::to_string(i), kTinyApp, "tiny",
                        EnforcementPolicy::kEilidHw);
    auto run = dev.run_to_symbol("halt", 100000);
    EXPECT_EQ(run.cause, sim::StopCause::kBreakpoint);
    EXPECT_EQ(dev.violation_count(), 0u);
    EXPECT_EQ(dev.machine().uart().tx_text(), "xx");
  }
  EXPECT_EQ(fleet.size(), 8u);
  EXPECT_EQ(fleet.pipeline_runs(), 1u);
  EXPECT_EQ(fleet.build_cache_hits(), 7u);
  // All sessions share the identical immutable build.
  EXPECT_EQ(fleet.at("node-0").shared_build().get(),
            fleet.at("node-7").shared_build().get());
}

TEST(FleetRegistry, DuplicateIdThrowsTyped) {
  Fleet fleet;
  fleet.provision("dup", kTinyApp, "tiny", EnforcementPolicy::kCasu);
  EXPECT_THROW(
      fleet.provision("dup", kTinyApp, "tiny", EnforcementPolicy::kCasu),
      FleetError);
}

TEST(FleetRegistry, UnknownIdAndDecommission) {
  Fleet fleet;
  EXPECT_EQ(fleet.find("ghost"), nullptr);
  EXPECT_THROW(fleet.at("ghost"), FleetError);
  fleet.provision("gone", kTinyApp, "tiny", EnforcementPolicy::kCfaBaseline);
  EXPECT_TRUE(fleet.verifier().enrolled("gone"));
  fleet.decommission("gone");
  EXPECT_EQ(fleet.size(), 0u);
  EXPECT_FALSE(fleet.verifier().enrolled("gone"));
}

TEST(FleetRegistry, EilidPolicyRejectsPlainBuild) {
  Fleet fleet;
  auto plain = fleet.build(kTinyApp, "tiny", {.eilid = false});
  EXPECT_THROW(fleet.deploy("mismatch", plain, EnforcementPolicy::kEilidHw),
               FleetError);
  // FleetError stays catchable through the legacy hierarchy.
  EXPECT_THROW(fleet.deploy("mismatch", plain, EnforcementPolicy::kEilidHw),
               ConfigError);
}

// Regression: deploy is exception-safe. When enrollment rejects the
// device after the session was registered, the registration is rolled
// back, and at no point does the verifier keep a DeviceSession* the
// fleet does not own (the old enroll-before-register order leaked a
// dangling pointer into the verifier if a later step threw).
TEST(FleetRegistry, FailedDeployLeavesNoTrace) {
  Fleet fleet;
  auto build = fleet.build(kTinyApp, "tiny", {.eilid = false});

  // Occupy the verifier slot behind the fleet's back with a standalone
  // session, so the fleet's own enroll attempt is rejected.
  SessionOptions standalone_options;
  standalone_options.attest_key = fleet.device_key("clash");
  DeviceSession standalone("clash", build, EnforcementPolicy::kCfaBaseline,
                           standalone_options);
  fleet.verifier().enroll(standalone);

  EXPECT_THROW(
      fleet.deploy("clash", build, EnforcementPolicy::kCfaBaseline),
      FleetError);

  // The failed deploy is invisible: no registry entry, no count, and
  // the verifier still serves the session it actually knows.
  EXPECT_EQ(fleet.find("clash"), nullptr);
  EXPECT_EQ(fleet.size(), 0u);
  EXPECT_TRUE(fleet.sessions().empty());
  EXPECT_TRUE(fleet.verifier().enrolled("clash"));
  auto sweep = fleet.verifier().verify_all();
  ASSERT_EQ(sweep.size(), 1u);
  EXPECT_TRUE(sweep[0].attested);
  EXPECT_TRUE(sweep[0].mac_ok);

  // The id becomes deployable once the standalone claim is withdrawn.
  fleet.verifier().withdraw("clash");
  DeviceSession& redeployed =
      fleet.deploy("clash", build, EnforcementPolicy::kCfaBaseline);
  EXPECT_EQ(fleet.find("clash"), &redeployed);
  EXPECT_EQ(fleet.size(), 1u);
}

TEST(FleetRegistry, UnknownSymbolThrowsTyped) {
  Fleet fleet;
  DeviceSession& dev =
      fleet.provision("sym", kTinyApp, "tiny", EnforcementPolicy::kCasu);
  EXPECT_THROW(dev.symbol("nonexistent"), FleetError);
}

// ------------------------------------------------------ policy behavior

// The same stack-smash exploit lands differently per policy: kNone and
// kCasu devices are hijacked, the kCfaBaseline device is hijacked but
// convicted at the next attestation, the kEilidHw device resets before
// the hijacked return is ever used.
TEST(FleetPolicies, HijackOutcomePerPolicy) {
  const auto& app = apps::vuln_gateway();
  Fleet fleet;

  auto hijack = [&](DeviceSession& dev) {
    dev.machine().uart().feed(
        attacks::overflow_ret_payload(dev.symbol("unlock")));
    dev.run_to_symbol("halt", app.cycle_budget);
    return dev.machine().uart().tx_text().find('U') != std::string::npos;
  };

  DeviceSession& none = fleet.provision("gw-none", app.source, app.name,
                                        EnforcementPolicy::kNone);
  EXPECT_EQ(none.hw_monitor(), nullptr);
  EXPECT_EQ(none.cfa_monitor(), nullptr);
  EXPECT_TRUE(hijack(none));

  DeviceSession& casu = fleet.provision("gw-casu", app.source, app.name,
                                        EnforcementPolicy::kCasu);
  EXPECT_NE(casu.hw_monitor(), nullptr);
  EXPECT_TRUE(hijack(casu));  // code reuse defeats CASU alone

  DeviceSession& cfa =
      fleet.provision("gw-cfa", app.source, app.name,
                      EnforcementPolicy::kCfaBaseline,
                      {.cfa = {.log_capacity = 8192}});
  ASSERT_NE(cfa.cfa_monitor(), nullptr);
  EXPECT_TRUE(hijack(cfa));  // detection is not prevention...
  auto verdict = fleet.verifier().attest(cfa);
  EXPECT_TRUE(verdict.mac_ok);
  EXPECT_TRUE(verdict.seq_ok);
  EXPECT_FALSE(verdict.path_ok);  // ...but the verifier convicts the log
  ASSERT_TRUE(verdict.first_bad.has_value());
  EXPECT_EQ(verdict.first_bad->to, cfa.symbol("unlock"));

  DeviceSession& eilid =
      fleet.provision("gw-eilid", app.source, app.name,
                      EnforcementPolicy::kEilidHw, {.halt_on_reset = true});
  EXPECT_FALSE(hijack(eilid));
  EXPECT_GT(eilid.violation_count(), 0u);
  EXPECT_EQ(eilid.last_reset_reason(), "cfi-return-mismatch");

  // Both plain-policy devices shared one build; EILID built once more.
  EXPECT_EQ(fleet.pipeline_runs(), 2u);
}

// A session with no CFA monitor has no evidence to collect: attest()
// reports attested = false (never ok()) rather than aborting a mixed
// sweep, while explicit enroll() of such a session is still an error.
TEST(FleetPolicies, AttestingNonCfaSessionReportsUnattested) {
  Fleet fleet;
  DeviceSession& dev =
      fleet.provision("plain", kTinyApp, "tiny", EnforcementPolicy::kCasu);

  auto verdict = fleet.verifier().attest(dev);
  EXPECT_EQ(verdict.device_id, "plain");
  EXPECT_FALSE(verdict.attested);
  EXPECT_FALSE(verdict.mac_ok);
  EXPECT_FALSE(verdict.seq_ok);
  EXPECT_FALSE(verdict.path_ok);
  EXPECT_FALSE(verdict.ok());
  // The non-CFA device was not silently enrolled into sweeps.
  EXPECT_FALSE(fleet.verifier().enrolled("plain"));
  EXPECT_TRUE(fleet.verifier().verify_all().empty());

  EXPECT_THROW(fleet.verifier().enroll(dev), FleetError);
}

// ----------------------------------------------------- verifier service

// Two sessions share one cached build but enforce independently: a
// hijack on (and power cycle of) one device must not perturb the
// other's attestation replay state or sequence numbers.
TEST(VerifierServiceTest, ReplayStateIsolatedBetweenSessions) {
  const auto& app = apps::vuln_gateway();
  Fleet fleet;
  // halt_on_reset keeps the victim parked at its post-hijack reset, so
  // its log holds the hijack evidence rather than thousands of
  // post-reboot polling edges.
  SessionOptions big_log{.halt_on_reset = true,
                         .cfa = {.log_capacity = 8192}};
  DeviceSession& victim = fleet.provision(
      "victim", app.source, app.name, EnforcementPolicy::kCfaBaseline, big_log);
  DeviceSession& healthy = fleet.provision(
      "healthy", app.source, app.name, EnforcementPolicy::kCfaBaseline,
      big_log);
  ASSERT_EQ(victim.shared_build().get(), healthy.shared_build().get());

  // Distinct devices MAC with distinct derived keys.
  EXPECT_NE(fleet.device_key("victim"), fleet.device_key("healthy"));

  victim.machine().uart().feed(
      attacks::overflow_ret_payload(victim.symbol("unlock")));
  healthy.machine().uart().feed(attacks::benign_payload());

  victim.run_to_symbol("halt", app.cycle_budget);
  healthy.run_to_symbol("halt", app.cycle_budget);

  auto round1 = fleet.verifier().verify_all();
  ASSERT_EQ(round1.size(), 2u);
  for (const auto& r : round1) {
    EXPECT_TRUE(r.mac_ok) << r.device_id;
    EXPECT_TRUE(r.seq_ok) << r.device_id;
    if (r.device_id == "victim") {
      EXPECT_FALSE(r.path_ok);
    } else {
      EXPECT_TRUE(r.path_ok) << r.device_id;
    }
  }

  // Enforcement reset on the victim: power-cycle it and run it clean.
  victim.machine().uart().clear_tx();
  victim.power_cycle();
  victim.machine().uart().feed(attacks::benign_payload());
  victim.run_to_symbol("halt", app.cycle_budget);
  healthy.run(5000);

  // The healthy device's replay continues mid-stream with the next
  // sequence number; the victim's restart is accepted because its log
  // carries the reset marker.
  auto round2 = fleet.verifier().verify_all();
  for (const auto& r : round2) {
    EXPECT_TRUE(r.mac_ok) << r.device_id;
    EXPECT_TRUE(r.seq_ok) << r.device_id;
    EXPECT_TRUE(r.path_ok) << r.device_id;
    EXPECT_EQ(r.seq, 1u) << r.device_id;
  }
}

// ----------------------------------------------------- update campaigns

// Firmware v1/v2 pair whose control-flow graphs genuinely differ (v2
// adds a call, shifting every address after it): replaying v1 evidence
// against v2's CFG would convict, so these catch any epoch mix-up.
const char* kFwV1 = R"(.equ UART_TX, 0x0130
.org 0xE000
main:
    mov #0x1000, r1
    call #emit
    call #emit
halt:
    jmp halt
emit:
    mov.b #'1', &UART_TX
    ret
.vector 15, main
.end
)";

const char* kFwV2 = R"(.equ UART_TX, 0x0130
.org 0xE000
main:
    mov #0x1000, r1
    call #emit
    call #emit
    call #emit
halt:
    jmp halt
emit:
    mov.b #'2', &UART_TX
    ret
.vector 15, main
.end
)";

// The full build-transition lifecycle: the campaign moves every device
// to the target build, bumps its own version, keeps it predecoded, and
// the next attestation verifies pre-update evidence against the old
// CFG and post-update evidence against the new one -- in one report.
TEST(UpdateCampaignTest, BuildTransitionUpdatesAttestAndStayPredecoded) {
  Fleet fleet;
  constexpr int kDevices = 4;
  for (int i = 0; i < kDevices; ++i) {
    DeviceSession& dev =
        fleet.provision("fw-" + std::to_string(i), kFwV1, "fw",
                        EnforcementPolicy::kCfaBaseline);
    // v1 evidence accumulates and is deliberately NOT attested before
    // the update: the single post-update report must span the epoch.
    dev.run_to_symbol("halt", 100000);
    EXPECT_EQ(dev.machine().uart().tx_text(), "11");
  }

  UpdateCampaign campaign = fleet.stage_update(kFwV2, "fw", {.eilid = false});
  // Capture one device's genuine package to replay after the rollout.
  casu::UpdatePackage captured = campaign.package_for(fleet.at("fw-0"));

  auto outcomes = campaign.roll_out();
  ASSERT_EQ(outcomes.size(), static_cast<size_t>(kDevices));
  for (const auto& outcome : outcomes) {
    EXPECT_EQ(outcome.result, UpdateResult::kApplied) << outcome.device_id;
    EXPECT_EQ(outcome.version_before, 0u);
    EXPECT_EQ(outcome.version_after, 1u);
    EXPECT_TRUE(outcome.build_swapped);
    EXPECT_TRUE(outcome.cfg_staged);
    EXPECT_GT(outcome.payload_bytes, 0u);
  }
  // One campaign, one target build, shared by every session.
  EXPECT_EQ(fleet.pipeline_runs(), 2u);
  for (auto* dev : fleet.sessions()) {
    EXPECT_EQ(dev->shared_build().get(), campaign.target_build().get());
    EXPECT_EQ(dev->firmware_version(), 1u);
  }

  for (auto* dev : fleet.sessions()) {
    dev->machine().uart().clear_tx();
    dev->run_to_symbol("halt", 100000);
    EXPECT_EQ(dev->machine().uart().tx_text(), "222") << dev->id();
    // No permanent interpretive fall-back: the session decodes from
    // the target build's shared table.
    EXPECT_TRUE(dev->machine().cpu().decode_cache_valid()) << dev->id();
    EXPECT_EQ(dev->machine().cpu().decoded_image(),
              campaign.target_build()->decoded_image.get());
  }

  // One report per device covering [v1 edges, update, reset, v2 edges]:
  // clean only if the verifier swaps CFGs at the marker.
  for (const auto& verdict : fleet.verifier().verify_all()) {
    EXPECT_TRUE(verdict.ok()) << verdict.device_id << " first_bad="
                              << (verdict.first_bad ? verdict.first_bad->to : 0);
  }

  // Anti-rollback is per device: the captured (genuine, version-1)
  // package is stale for fw-0 now and must be refused.
  EXPECT_EQ(fleet.at("fw-0").apply_update(captured),
            casu::UpdateStatus::kRollback);
  // A second identical campaign is a fleet-wide no-op.
  for (const auto& outcome :
       fleet.stage_update(kFwV2, "fw", {.eilid = false}).roll_out()) {
    EXPECT_EQ(outcome.result, UpdateResult::kAlreadyCurrent);
  }
}

// A hijack that happened *before* an update must still be convicted by
// the post-update attestation: the epoch swap must not launder old
// evidence.
TEST(UpdateCampaignTest, PreUpdateHijackStillConvictedAfterUpdate) {
  const auto& app = apps::vuln_gateway();
  Fleet fleet;
  DeviceSession& dev = fleet.provision(
      "victim", app.source, app.name, EnforcementPolicy::kCfaBaseline,
      {.halt_on_reset = true, .cfa = {.log_capacity = 8192}});
  dev.machine().uart().feed(
      attacks::overflow_ret_payload(dev.symbol("unlock")));
  dev.run_to_symbol("halt", app.cycle_budget);
  uint16_t unlock = dev.symbol("unlock");

  // Vendor ships a patched gateway (an extra nop shifts the layout).
  std::string patched = app.source;
  patched.insert(patched.find("recv_packet:"), "    nop\n");
  auto outcome =
      fleet.stage_update(patched, app.name, {.eilid = false}).apply_to(dev);
  EXPECT_EQ(outcome.result, UpdateResult::kApplied);

  auto verdict = fleet.verifier().attest(dev);
  EXPECT_TRUE(verdict.mac_ok);
  EXPECT_FALSE(verdict.path_ok);  // the old-epoch evidence convicts
  ASSERT_TRUE(verdict.first_bad.has_value());
  EXPECT_EQ(verdict.first_bad->to, unlock);
}

// An update the verifier did not sanction (a valid package applied
// outside any campaign) leaves an epoch marker with no staged CFG: the
// next attestation flags the code change instead of trusting it.
TEST(UpdateCampaignTest, UnsanctionedUpdateFlaggedAtAttestation) {
  Fleet fleet;
  DeviceSession& dev =
      fleet.provision("rogue", kFwV1, "fw", EnforcementPolicy::kCfaBaseline);
  dev.run_to_symbol("halt", 100000);

  const crypto::Digest key = fleet.update_key("rogue");
  casu::UpdateAuthority authority(
      std::span<const uint8_t>(key.data(), key.size()));
  ASSERT_EQ(dev.apply_update(authority.make_package(0xE800, 1, {0x03, 0x43})),
            casu::UpdateStatus::kApplied);

  auto verdict = fleet.verifier().attest(dev);
  EXPECT_TRUE(verdict.mac_ok);
  EXPECT_TRUE(verdict.seq_ok);
  EXPECT_FALSE(verdict.path_ok);
  ASSERT_TRUE(verdict.first_bad.has_value());
  EXPECT_TRUE(verdict.first_bad->update);
}

// Forged campaign packages are refused per device and the device heals
// by reset; the fleet's remaining devices update normally.
TEST(UpdateCampaignTest, ForgedPackageHealsDeviceWithoutPerturbingFleet) {
  Fleet fleet;
  DeviceSession& good =
      fleet.provision("good", kFwV1, "fw", EnforcementPolicy::kCfaBaseline);
  DeviceSession& bad =
      fleet.provision("bad", kFwV1, "fw", EnforcementPolicy::kCfaBaseline);
  good.run_to_symbol("halt", 100000);
  bad.run_to_symbol("halt", 100000);

  UpdateCampaign campaign = fleet.stage_update(kFwV2, "fw", {.eilid = false});
  casu::UpdatePackage forged = campaign.package_for(bad);
  forged.mac[0] ^= 0xFF;
  EXPECT_EQ(bad.apply_update(forged), casu::UpdateStatus::kBadMac);
  bad.machine().run(100);
  EXPECT_EQ(bad.last_reset_reason(), "update-auth");
  EXPECT_EQ(bad.firmware_version(), 0u);

  auto outcome = campaign.apply_to(good);
  EXPECT_EQ(outcome.result, UpdateResult::kApplied);
  good.machine().uart().clear_tx();
  good.run_to_symbol("halt", 100000);
  EXPECT_EQ(good.machine().uart().tx_text(), "222");
  for (const auto& verdict : fleet.verifier().verify_all()) {
    EXPECT_TRUE(verdict.mac_ok) << verdict.device_id;
    EXPECT_TRUE(verdict.seq_ok) << verdict.device_id;
  }
}

// A build-to-build diff is only applicable while the device's PMEM
// still equals the from-image. A device patched out of band must be
// refused -- applying the diff would leave memory matching neither
// build while the session adopts the target's predecoded table.
TEST(UpdateCampaignTest, DivergedDeviceRefusedCleanDeviceUpdates) {
  Fleet fleet;
  DeviceSession& diverged = fleet.provision("diverged", kFwV1, "fw",
                                            EnforcementPolicy::kCfaBaseline);
  DeviceSession& clean =
      fleet.provision("clean", kFwV1, "fw", EnforcementPolicy::kCfaBaseline);
  diverged.run_to_symbol("halt", 100000);
  clean.run_to_symbol("halt", 100000);

  // Out-of-band (but validly MAC'd) patch: the device's PMEM no longer
  // matches its recorded build.
  const crypto::Digest key = fleet.update_key("diverged");
  casu::UpdateAuthority authority(
      std::span<const uint8_t>(key.data(), key.size()));
  ASSERT_EQ(
      diverged.apply_update(authority.make_package(0xE800, 1, {0x03, 0x43})),
      casu::UpdateStatus::kApplied);

  UpdateCampaign campaign = fleet.stage_update(kFwV2, "fw", {.eilid = false});
  auto outcome = campaign.apply_to(diverged);
  EXPECT_EQ(outcome.result, UpdateResult::kImageMismatch);
  EXPECT_FALSE(outcome.build_swapped);
  EXPECT_EQ(diverged.firmware_version(), 1u);  // nothing newly applied
  EXPECT_NE(diverged.shared_build().get(), campaign.target_build().get());

  // The shared diff cache does not taint the clean device on the same
  // from-build.
  auto clean_outcome = campaign.apply_to(clean);
  EXPECT_EQ(clean_outcome.result, UpdateResult::kApplied);
}

// Options of the uninstrumented builds the campaign tests below stage.
core::BuildOptions plain_build() {
  core::BuildOptions options;
  options.eilid = false;
  return options;
}

// The mismatch check covers secure ROM as well as PMEM: one byte of
// ROM changed behind the update engine's back is refused.
TEST(UpdateCampaignTest, DivergedSecureRomRefused) {
  Fleet fleet;
  DeviceSession& dev =
      fleet.provision("rom", kFwV1, "fw", EnforcementPolicy::kCfaBaseline);
  dev.run_to_symbol("halt", 100000);
  sim::Bus& bus = dev.machine().bus();
  const uint16_t addr = sim::kRomStart + 0x123;
  bus.raw_store_byte(addr, static_cast<uint8_t>(bus.raw_byte(addr) ^ 0x5A));

  UpdateCampaign campaign = fleet.stage_update(kFwV2, "fw", plain_build());
  auto outcome = campaign.apply_to(dev);
  EXPECT_EQ(outcome.result, UpdateResult::kImageMismatch);
  EXPECT_FALSE(outcome.build_swapped);
  EXPECT_EQ(dev.firmware_version(), 0u);
  EXPECT_NE(dev.shared_build().get(), campaign.target_build().get());
}

// The last byte of the checked range -- 0xFFFF, the high byte of the
// reset vector -- is inside the check.
TEST(UpdateCampaignTest, DivergedResetVectorRefused) {
  Fleet fleet;
  DeviceSession& dev =
      fleet.provision("vec", kFwV1, "fw", EnforcementPolicy::kCfaBaseline);
  dev.run_to_symbol("halt", 100000);
  sim::Bus& bus = dev.machine().bus();
  bus.raw_store_byte(0xFFFF, static_cast<uint8_t>(bus.raw_byte(0xFFFF) ^ 0x01));

  UpdateCampaign campaign = fleet.stage_update(kFwV2, "fw", plain_build());
  auto outcome = campaign.apply_to(dev);
  EXPECT_EQ(outcome.result, UpdateResult::kImageMismatch);
  EXPECT_FALSE(outcome.build_swapped);
  EXPECT_EQ(dev.firmware_version(), 0u);
}

// A code page written and then restored to its original bytes is
// private to the device but byte-identical to the build: the check
// compares bytes, not page ownership, so the update goes through.
TEST(UpdateCampaignTest, PageRestoredToItsBytesStillUpdates) {
  Fleet fleet;
  DeviceSession& dev =
      fleet.provision("restored", kFwV1, "fw", EnforcementPolicy::kCfaBaseline);
  dev.run_to_symbol("halt", 100000);
  sim::Bus& bus = dev.machine().bus();
  const size_t owned_before = bus.owned_pages();
  std::vector<uint8_t> original;
  for (uint16_t addr = 0xE000; addr < 0xE010; ++addr) {
    original.push_back(bus.raw_byte(addr));
    bus.raw_store_byte(addr, static_cast<uint8_t>(~original.back()));
  }
  for (uint16_t addr = 0xE000; addr < 0xE010; ++addr) {
    bus.raw_store_byte(addr, original[addr - 0xE000]);
  }
  EXPECT_EQ(bus.owned_pages(), owned_before + 1);  // the page is private

  UpdateCampaign campaign = fleet.stage_update(kFwV2, "fw", plain_build());
  auto outcome = campaign.apply_to(dev);
  EXPECT_EQ(outcome.result, UpdateResult::kApplied);
  EXPECT_TRUE(outcome.build_swapped);
  dev.machine().uart().clear_tx();
  dev.run_to_symbol("halt", 100000);
  EXPECT_EQ(dev.machine().uart().tx_text(), "222");
}

// A build carries its three per-build tables (flat image, code table,
// CFG) or is refused: a session never flattens, predecodes or extracts
// on its own. Each table is dropped in turn; the session constructor,
// deploy (leaving no trace), adopt_build and stage_update all refuse.
TEST(UpdateCampaignTest, BuildMissingATableIsRefused) {
  Fleet fleet;
  const auto full = fleet.build(kFwV1, "fw", plain_build());
  DeviceSession& dev =
      fleet.deploy("dev", full, EnforcementPolicy::kCfaBaseline);
  for (int table = 0; table < 3; ++table) {
    auto bare = std::make_shared<core::BuildResult>(*full);
    if (table == 0) bare->flat_image = nullptr;
    if (table == 1) bare->decoded_image = nullptr;
    if (table == 2) bare->cfg = nullptr;
    ASSERT_FALSE(bare->has_tables()) << table;
    EXPECT_THROW(
        DeviceSession("solo", bare, EnforcementPolicy::kCfaBaseline),
        FleetError)
        << table;
    EXPECT_THROW(fleet.deploy("bare", bare, EnforcementPolicy::kCfaBaseline),
                 FleetError)
        << table;
    EXPECT_EQ(fleet.find("bare"), nullptr) << table;
    EXPECT_FALSE(fleet.verifier().enrolled("bare")) << table;
    EXPECT_THROW(dev.adopt_build(bare), FleetError) << table;
    EXPECT_EQ(dev.shared_build(), full) << table;
    EXPECT_THROW(fleet.stage_update(bare), FleetError) << table;
  }
  EXPECT_EQ(fleet.size(), 1u);

  // attach_tables completes a hand-assembled copy.
  auto rebuilt = std::make_shared<core::BuildResult>(*full);
  rebuilt->flat_image = nullptr;
  rebuilt->decoded_image = nullptr;
  rebuilt->cfg = nullptr;
  core::attach_tables(*rebuilt);
  ASSERT_TRUE(rebuilt->has_tables());
  EXPECT_EQ(*rebuilt->flat_image, *full->flat_image);
  DeviceSession& completed =
      fleet.deploy("completed", rebuilt, EnforcementPolicy::kCfaBaseline);
  completed.run_to_symbol("halt", 100000);
  EXPECT_TRUE(fleet.verifier().attest(completed).ok());
}

// Records every retired-instruction transition, fall-through included.
class TraceMonitor : public sim::Monitor {
 public:
  struct Step {
    uint16_t from, to, fallthrough;
    bool operator==(const Step&) const = default;
  };
  void on_step(uint16_t from_pc, uint16_t to_pc,
               uint16_t fallthrough) override {
    steps_.push_back({from_pc, to_pc, fallthrough});
  }
  const std::vector<Step>& steps() const { return steps_; }

 private:
  std::vector<Step> steps_;
};

// Across an update, the table-driven core (old build's table ->
// interpretive window during the patch -> new build's table) and the
// pure interpretive core retire bit-identical traces and produce
// identical attestation verdicts. The trace monitor wants every step,
// so the superblock session walks its table one entry at a time here:
// this pins Cpu::step()'s table path across the table swap.
TEST(UpdateCampaignTest, PostUpdatePredecodedMatchesInterpretive) {
  struct VariantResult {
    std::vector<TraceMonitor::Step> steps;
    std::string tx;
    uint64_t cycles = 0;
    bool verdict_ok = false;
    uint32_t seq = 0;
    size_t edges = 0;
  };
  auto run_variant = [&](ExecutionEngine engine) {
    Fleet fleet;
    SessionOptions options;
    options.engine = engine;
    DeviceSession& dev = fleet.provision(
        "dev", kFwV1, "fw", EnforcementPolicy::kCfaBaseline, options);
    TraceMonitor trace;
    dev.machine().add_monitor(&trace);
    dev.run_to_symbol("halt", 100000);
    auto outcome =
        fleet.stage_update(kFwV2, "fw", {.eilid = false}).apply_to(dev);
    EXPECT_EQ(outcome.result, UpdateResult::kApplied);
    dev.run_to_symbol("halt", 100000);
    EXPECT_EQ(dev.machine().cpu().decode_cache_valid(),
              engine != ExecutionEngine::kInterpretive);
    EXPECT_EQ(dev.machine().blocks_executed(), 0u);  // stepped throughout
    auto verdict = fleet.verifier().attest(dev);
    VariantResult r;
    r.steps = trace.steps();
    r.tx = dev.machine().uart().tx_text();
    r.cycles = dev.machine().cycles();
    r.verdict_ok = verdict.ok();
    r.seq = verdict.seq;
    r.edges = verdict.edges;
    return r;
  };

  VariantResult interp = run_variant(ExecutionEngine::kInterpretive);
  VariantResult block = run_variant(ExecutionEngine::kSuperblock);
  ASSERT_FALSE(block.steps.empty());
  EXPECT_TRUE(interp.verdict_ok);
  EXPECT_EQ(block.steps, interp.steps);
  EXPECT_EQ(block.tx, interp.tx);
  EXPECT_EQ(block.cycles, interp.cycles);
  EXPECT_TRUE(block.verdict_ok);
  EXPECT_EQ(block.seq, interp.seq);
  EXPECT_EQ(block.edges, interp.edges);
}

// A transition whose images differ outside PMEM (here: instrumented
// target with an EILIDsw ROM vs plain from-build with none) cannot be
// expressed as a CASU update and is reported, not applied.
TEST(UpdateCampaignTest, NonPmemDifferenceIsIncompatible) {
  Fleet fleet;
  DeviceSession& dev =
      fleet.provision("plain", kFwV1, "fw", EnforcementPolicy::kCasu);
  auto instrumented = fleet.build(kFwV2, "fw");  // eilid build, has ROM
  UpdateCampaign campaign = fleet.stage_update(instrumented);
  auto outcome = campaign.apply_to(dev);
  EXPECT_EQ(outcome.result, UpdateResult::kIncompatible);
  EXPECT_FALSE(outcome.build_swapped);
  EXPECT_EQ(dev.firmware_version(), 0u);
  EXPECT_THROW(campaign.package_for(dev), FleetError);
}

// The CFG is a per-build table: every device of a build replays
// against the build's one Cfg object (each enrolled verifier holds a
// reference to it, none a copy), and withdrawing a device drops its
// reference.
TEST(VerifierServiceTest, SessionsOfOneBuildShareItsCfg) {
  Fleet fleet;
  const auto build = fleet.build(kTinyApp, "tiny", {.eilid = false});
  ASSERT_NE(build->cfg, nullptr);
  const long base = build->cfg.use_count();
  for (int i = 0; i < 3; ++i) {
    DeviceSession& dev = fleet.deploy("cfa-" + std::to_string(i), build,
                                      EnforcementPolicy::kCfaBaseline);
    EXPECT_EQ(dev.build().cfg, build->cfg);
  }
  fleet.deploy("casu", build, EnforcementPolicy::kCasu);
  EXPECT_EQ(build->cfg.use_count(), base + 3);
  for (DeviceSession* dev : fleet.sessions()) dev->run_to_symbol("halt", 100000);
  for (const auto& verdict : fleet.verifier().verify_all()) {
    EXPECT_TRUE(verdict.ok()) << verdict.device_id;
  }
  fleet.decommission("cfa-1");
  EXPECT_EQ(build->cfg.use_count(), base + 2);
}

// A report replayed to the verifier out of sequence is flagged even
// though its MAC is genuine.
TEST(VerifierServiceTest, SequenceGapFlagged) {
  const auto& app = apps::vuln_gateway();
  Fleet fleet;
  DeviceSession& dev =
      fleet.provision("seq", app.source, app.name,
                      EnforcementPolicy::kCfaBaseline,
                      {.cfa = {.log_capacity = 8192}});
  dev.machine().uart().feed(attacks::benign_payload());
  dev.run(20000);

  // A report the verifier never sees: the device emitted it (seq 0),
  // but it was lost in transit.
  (void)dev.cfa_monitor()->take_report(/*nonce=*/999,
                                       dev.machine().cycles());
  dev.run(20000);
  auto verdict = fleet.verifier().attest(dev);
  EXPECT_TRUE(verdict.mac_ok);
  EXPECT_FALSE(verdict.seq_ok);  // seq 1 arrived where 0 was expected
}

}  // namespace
}  // namespace eilid
