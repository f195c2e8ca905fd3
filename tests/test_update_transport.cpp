// Lossy-transport OTA scenario matrix: chunked delivery over a faulty
// pipe (drop / corrupt / duplicate / reorder / delay), bounded retry
// with resume, and the power-loss guarantees -- a reset at ANY chunk
// boundary or mid-apply point leaves the device attestable on exactly
// one of {old build, new build}, never half-flashed, and a resumed
// campaign converges to kApplied. Plus the adversarial multipliers:
// forged chunks, replayed chunk streams, interleaved campaigns, and
// the pooled == serial determinism contract over all of it.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "casu/update.h"
#include "common/thread_pool.h"
#include "eilid/fleet.h"
#include "eilid/health.h"
#include "eilid/rollout.h"
#include "eilid/transport.h"

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
  // Zero-padded so lexicographic enrollment-id order == deploy order.
  std::string n = std::to_string(i);
  return "dev-" + std::string(n.size() < 2 ? 2 - n.size() : 0, '0') + n;
}

// N CFA-baseline devices on firmware(0), each run to halt so sweeps
// have evidence to judge.
void provision_fleet(Fleet& fleet, size_t devices) {
  for (size_t i = 0; i < devices; ++i) {
    DeviceSession& dev =
        fleet.provision(device_id(i), firmware(0), "fw",
                        EnforcementPolicy::kCfaBaseline,
                        {.cfa = {.log_capacity = 65536}});
    dev.run_to_symbol("halt", 100000);
  }
}

TransportOptions clean_pipe(size_t chunk_size = 24) {
  TransportOptions t;
  t.chunk_size = chunk_size;
  return t;
}

// ------------------------------------------------------------- delivery

TEST(TransportScenarios, CleanPipeDeliversChunkedUpdate) {
  Fleet fleet;
  provision_fleet(fleet, 3);
  CampaignOptions options;
  options.transport = clean_pipe(32);
  UpdateCampaign campaign =
      fleet.stage_update(firmware(1), "fw", {.eilid = false}, options);
  for (const UpdateOutcome& out : campaign.roll_out()) {
    EXPECT_EQ(out.result, UpdateResult::kApplied) << out.device_id;
    EXPECT_EQ(out.attempts, 1u);
    EXPECT_FALSE(out.resumed);
    EXPECT_EQ(out.bytes_retransmitted, 0u);
    EXPECT_EQ(out.version_after, 1u);
    EXPECT_TRUE(out.build_swapped);
  }
  for (const auto& verdict : fleet.verifier().verify_all()) {
    EXPECT_TRUE(verdict.ok()) << verdict.device_id;
  }
  DeviceSession& dev = fleet.at(device_id(0));
  dev.machine().uart().clear_tx();
  dev.run_to_symbol("halt", 100000);
  EXPECT_EQ(dev.machine().uart().tx_text(), "11");
}

TEST(TransportScenarios, LossyPipeConvergesAndRetransmits) {
  Fleet fleet;
  provision_fleet(fleet, 4);
  CampaignOptions options;
  TransportOptions transport = clean_pipe(16);
  transport.seed = 0x10551;
  transport.max_rounds = 64;
  transport.faults = {.drop_per_mille = 200,
                      .corrupt_per_mille = 100,
                      .duplicate_per_mille = 100,
                      .reorder_per_mille = 150,
                      .delay_per_mille = 100};
  options.transport = transport;
  UpdateCampaign campaign =
      fleet.stage_update(firmware(1), "fw", {.eilid = false}, options);

  size_t retransmitted = 0;
  for (const UpdateOutcome& out : campaign.roll_out()) {
    EXPECT_EQ(out.result, UpdateResult::kApplied) << out.device_id;
    EXPECT_EQ(out.version_after, 1u);
    retransmitted += out.bytes_retransmitted;
  }
  // At these rates some chunk somewhere was certainly retransmitted
  // (the run is seeded, so this is a fixed fact, not a probability).
  EXPECT_GT(retransmitted, 0u);
  for (const auto& verdict : fleet.verifier().verify_all()) {
    EXPECT_TRUE(verdict.ok()) << verdict.device_id;
  }
}

// ------------------------------------------------------ power-loss matrix

// A reset at EVERY chunk boundary: the device must come back attestable
// on its old build (the staged slot holds partial progress, PMEM is
// untouched), and re-delivering the same campaign must RESUME -- ship
// only the missing chunks -- and converge to kApplied.
TEST(PowerLossMatrix, EveryChunkBoundaryLeavesBootableImage) {
  constexpr size_t kChunkSize = 24;
  // One probe fleet to learn the chunk count of this transition.
  size_t total_chunks = 0;
  {
    Fleet probe;
    provision_fleet(probe, 1);
    UpdateCampaign campaign =
        probe.stage_update(firmware(1), "fw", {.eilid = false});
    total_chunks =
        casu::chunk_package(campaign.package_for(probe.at(device_id(0))),
                            kChunkSize)
            .size();
  }
  ASSERT_GE(total_chunks, 3u);

  Fleet fleet;
  provision_fleet(fleet, total_chunks);
  for (size_t k = 1; k <= total_chunks; ++k) {
    DeviceSession& dev = fleet.at(device_id(k - 1));
    CampaignOptions options;
    TransportOptions transport = clean_pipe(kChunkSize);
    transport.max_rounds = 1;  // the loss ends this delivery attempt
    transport.faults.power_loss_at_chunk = static_cast<uint32_t>(k);
    options.transport = transport;
    UpdateCampaign campaign =
        fleet.stage_update(firmware(1), "fw", {.eilid = false}, options);
    const UpdateOutcome first = campaign.apply_to(dev);

    if (k < total_chunks) {
      // Interrupted mid-transfer: still the old build, old version,
      // attestable -- and exactly k chunks staged for the resume.
      EXPECT_EQ(first.result, UpdateResult::kInterrupted) << "k=" << k;
      EXPECT_EQ(dev.firmware_version(), 0u);
      EXPECT_FALSE(first.build_swapped);
      const casu::UpdatePackage pkg = campaign.package_for(dev);
      size_t staged = 0;
      for (bool have : dev.staged_update_chunks(pkg.mac)) staged += have;
      EXPECT_EQ(staged, k) << "k=" << k;
    } else {
      // Power loss at the LAST boundary: the transfer is complete, so
      // the post-reset attempt finalizes and commits.
      EXPECT_EQ(first.result, UpdateResult::kApplied) << "k=" << k;
      EXPECT_EQ(first.attempts, 2u);
      EXPECT_TRUE(first.resumed);
    }
    EXPECT_TRUE(fleet.verifier().attest(dev).ok()) << "k=" << k;

    if (k < total_chunks) {
      // Re-deliver over a clean pipe: resumes, converges.
      CampaignOptions retry;
      retry.transport = clean_pipe(kChunkSize);
      const UpdateOutcome second =
          fleet.stage_update(firmware(1), "fw", {.eilid = false}, retry)
              .apply_to(dev);
      EXPECT_EQ(second.result, UpdateResult::kApplied) << "k=" << k;
      EXPECT_TRUE(second.resumed) << "k=" << k;
    }
    EXPECT_EQ(dev.firmware_version(), 1u) << "k=" << k;
    EXPECT_TRUE(fleet.verifier().attest(dev).ok()) << "k=" << k;
    dev.machine().uart().clear_tx();
    dev.run_to_symbol("halt", 100000);
    EXPECT_EQ(dev.machine().uart().tx_text(), "11") << "k=" << k;
  }
}

// A reset at EVERY mid-apply point: the supply fails after N regions of
// the commit replay. The journal is non-volatile and replay idempotent,
// so the boot that follows finishes the swap -- the device lands on
// exactly the new build with anti-rollback state consistent.
TEST(PowerLossMatrix, EveryMidApplyPointRecoversAtBoot) {
  size_t region_count = 0;
  {
    Fleet probe;
    provision_fleet(probe, 1);
    UpdateCampaign campaign =
        probe.stage_update(firmware(1), "fw", {.eilid = false});
    region_count = campaign.package_for(probe.at(device_id(0))).regions.size();
  }
  ASSERT_GE(region_count, 1u);

  Fleet fleet;
  provision_fleet(fleet, region_count + 1);
  for (size_t cut = 0; cut <= region_count; ++cut) {
    DeviceSession& dev = fleet.at(device_id(cut));
    CampaignOptions options;
    TransportOptions transport = clean_pipe(24);
    transport.faults.power_loss_mid_apply = cut;
    options.transport = transport;
    const UpdateOutcome out =
        fleet.stage_update(firmware(1), "fw", {.eilid = false}, options)
            .apply_to(dev);
    EXPECT_EQ(out.result, UpdateResult::kApplied) << "cut=" << cut;
    // A cut short of the last region really interrupted the replay and
    // was healed by the boot-time recovery; a cut past the end never
    // fired.
    EXPECT_EQ(out.attempts, cut < region_count ? 2u : 1u) << "cut=" << cut;
    EXPECT_EQ(out.version_after, 1u);
    EXPECT_TRUE(out.build_swapped);
    EXPECT_EQ(dev.firmware_version(), 1u);
    EXPECT_TRUE(fleet.verifier().attest(dev).ok()) << "cut=" << cut;
    dev.machine().uart().clear_tx();
    dev.run_to_symbol("halt", 100000);
    EXPECT_EQ(dev.machine().uart().tx_text(), "11") << "cut=" << cut;
  }
}

// One commit path: an atomic apply() goes through the same journal as
// finalize_transfer(), so it retires a journal an earlier power cut
// left pending. When apply() bypassed the journal, the next boot
// replayed the stale v1 journal over the applied v2: the version went
// 2 -> 1 and the patched byte 0xBB -> 0xAA.
TEST(PowerLossMatrix, AtomicApplyRetiresAPendingJournal) {
  Fleet fleet;
  DeviceSession& dev = fleet.provision("stale-journal", firmware(0), "fw",
                                       EnforcementPolicy::kCasu);
  const crypto::Digest key = fleet.update_key("stale-journal");
  casu::UpdateAuthority authority(
      std::span<const uint8_t>(key.data(), key.size()));
  const casu::UpdatePackage v1 = authority.make_package(0xE000, 1, {0xAA});
  const casu::UpdatePackage v2 = authority.make_package(0xE000, 2, {0xBB});

  for (const casu::TransferChunk& chunk : casu::chunk_package(v1, 24)) {
    dev.receive_update_chunk(chunk);
  }
  // The supply fails before the first region: v1's journal is pending.
  ASSERT_EQ(dev.finalize_update(0), casu::UpdateStatus::kInterrupted);
  ASSERT_EQ(dev.firmware_version(), 0u);

  ASSERT_EQ(dev.apply_update(v2), casu::UpdateStatus::kApplied);
  EXPECT_EQ(dev.firmware_version(), 2u);
  EXPECT_EQ(dev.machine().bus().raw_byte(0xE000), 0xBB);

  dev.power_cycle();  // boot-time recovery must find nothing to replay
  EXPECT_EQ(dev.firmware_version(), 2u);
  EXPECT_EQ(dev.machine().bus().raw_byte(0xE000), 0xBB);
}

TEST(TransportScenarios, UnreachableDeviceInterruptsThenLaterConverges) {
  Fleet fleet;
  provision_fleet(fleet, 1);
  DeviceSession& dev = fleet.at(device_id(0));
  dev.set_online(false);

  CampaignOptions options;
  TransportOptions transport = clean_pipe(24);
  transport.max_rounds = 4;
  options.transport = transport;
  UpdateCampaign campaign =
      fleet.stage_update(firmware(1), "fw", {.eilid = false}, options);
  const UpdateOutcome offline = campaign.apply_to(dev);
  EXPECT_EQ(offline.result, UpdateResult::kInterrupted);
  EXPECT_FALSE(offline.resumed);  // nothing ever reached the device
  EXPECT_EQ(dev.firmware_version(), 0u);

  dev.set_online(true);
  const UpdateOutcome online = campaign.apply_to(dev);
  EXPECT_EQ(online.result, UpdateResult::kApplied);
  EXPECT_EQ(dev.firmware_version(), 1u);
}

// --------------------------------------------------------- adversaries

// Forge EVERY chunk index in turn, with a recomputed (valid) transport
// checksum: the pipe accepts the forgery, and the package MAC kills it
// at reassembly -- kBadMac, version untouched, and the device heals to
// a clean apply afterwards.
TEST(TransportScenarios, ForgedChunkAnyIndexDiesAtPackageMac) {
  constexpr size_t kChunkSize = 32;
  size_t total_chunks = 0;
  {
    Fleet probe;
    provision_fleet(probe, 1);
    UpdateCampaign campaign =
        probe.stage_update(firmware(1), "fw", {.eilid = false});
    total_chunks =
        casu::chunk_package(campaign.package_for(probe.at(device_id(0))),
                            kChunkSize)
            .size();
  }

  Fleet fleet;
  provision_fleet(fleet, total_chunks);
  for (size_t forged = 0; forged < total_chunks; ++forged) {
    DeviceSession& dev = fleet.at(device_id(forged));
    CampaignOptions options;
    TransportOptions transport = clean_pipe(kChunkSize);
    transport.tamper_chunk = [forged](const DeviceSession&,
                                      casu::TransferChunk& chunk) {
      if (chunk.index != forged) return;
      chunk.payload[0] ^= 0xA5;
      chunk.checksum = casu::chunk_checksum(chunk);  // adversary, not noise
    };
    options.transport = transport;
    const UpdateOutcome out =
        fleet.stage_update(firmware(1), "fw", {.eilid = false}, options)
            .apply_to(dev);
    EXPECT_EQ(out.result, UpdateResult::kBadMac) << "forged=" << forged;
    EXPECT_EQ(out.version_after, 0u);
    EXPECT_FALSE(out.build_swapped);
    EXPECT_EQ(dev.firmware_version(), 0u);

    // The forgery consumed the staged transfer; a clean delivery
    // starts fresh and applies.
    CampaignOptions retry;
    retry.transport = clean_pipe(kChunkSize);
    const UpdateOutcome clean =
        fleet.stage_update(firmware(1), "fw", {.eilid = false}, retry)
            .apply_to(dev);
    EXPECT_EQ(clean.result, UpdateResult::kApplied) << "forged=" << forged;
    EXPECT_FALSE(clean.resumed);
    EXPECT_TRUE(fleet.verifier().attest(dev).ok()) << "forged=" << forged;
  }
}

// Replaying a captured chunk stream reassembles a bit-perfect package
// whose version the device has already consumed: anti-rollback rejects
// it at finalize, exactly like the unchunked path.
TEST(TransportScenarios, ReplayedChunkStreamIsRolledBack) {
  Fleet fleet;
  provision_fleet(fleet, 1);
  DeviceSession& dev = fleet.at(device_id(0));
  CampaignOptions options;
  options.transport = clean_pipe(24);
  UpdateCampaign campaign =
      fleet.stage_update(firmware(1), "fw", {.eilid = false}, options);
  const std::vector<casu::TransferChunk> captured =
      casu::chunk_package(campaign.package_for(dev), 24);
  ASSERT_EQ(campaign.apply_to(dev).result, UpdateResult::kApplied);
  ASSERT_EQ(dev.firmware_version(), 1u);

  // Replay the captured stream wholesale.
  for (const casu::TransferChunk& chunk : captured) {
    const casu::ChunkAck ack = dev.receive_update_chunk(chunk);
    EXPECT_TRUE(ack == casu::ChunkAck::kAccepted ||
                ack == casu::ChunkAck::kComplete);
  }
  EXPECT_EQ(dev.finalize_update(), casu::UpdateStatus::kRollback);
  EXPECT_EQ(dev.firmware_version(), 1u);  // counter never moved
}

// Two campaigns racing for one device: chunks are content-addressed by
// package MAC, so the later campaign's first chunk preempts the staged
// transfer -- the streams can never splice into a franken-image.
TEST(TransportScenarios, InterleavedCampaignsPreemptCleanly) {
  Fleet fleet;
  provision_fleet(fleet, 1);
  DeviceSession& dev = fleet.at(device_id(0));

  UpdateCampaign to_v1 = fleet.stage_update(firmware(1), "fw", {.eilid = false});
  UpdateCampaign to_v2 = fleet.stage_update(firmware(2), "fw", {.eilid = false});
  const std::vector<casu::TransferChunk> v1_chunks =
      casu::chunk_package(to_v1.package_for(dev), 24);
  const std::vector<casu::TransferChunk> v2_chunks =
      casu::chunk_package(to_v2.package_for(dev), 24);
  ASSERT_GE(v1_chunks.size(), 2u);

  // Half of v1 lands...
  for (size_t i = 0; i < v1_chunks.size() / 2; ++i) {
    ASSERT_EQ(dev.receive_update_chunk(v1_chunks[i]), casu::ChunkAck::kAccepted);
  }
  EXPECT_FALSE(dev.staged_update_chunks(v1_chunks[0].transfer_id).empty());

  // ...then one chunk of v2 preempts the whole staged transfer.
  ASSERT_EQ(dev.receive_update_chunk(v2_chunks[0]), casu::ChunkAck::kAccepted);
  EXPECT_TRUE(dev.staged_update_chunks(v1_chunks[0].transfer_id).empty());

  // A v2 delivery now RESUMES from that one staged chunk and applies.
  CampaignOptions options;
  options.transport = clean_pipe(24);
  const UpdateOutcome out =
      fleet.stage_update(firmware(2), "fw", {.eilid = false}, options)
          .apply_to(dev);
  EXPECT_EQ(out.result, UpdateResult::kApplied);
  EXPECT_TRUE(out.resumed);
  EXPECT_EQ(dev.firmware_version(), 1u);
  dev.machine().uart().clear_tx();
  dev.run_to_symbol("halt", 100000);
  EXPECT_EQ(dev.machine().uart().tx_text(), "222");
}

// ----------------------------------------------------------- determinism

// The whole point of keying fault streams by (seed, device_id): a
// pooled rollout over a lossy pipe must produce outcomes bit-identical
// to the serial rollout's -- attempts, resumes and retransmit counts
// included (UpdateOutcome's defaulted operator== covers the new
// fields).
TEST(TransportScenarios, PooledLossyRolloutBitIdenticalToSerial) {
  CampaignOptions options;
  TransportOptions transport = clean_pipe(16);
  transport.seed = 0xd15c0;
  transport.max_rounds = 64;
  transport.faults = {.drop_per_mille = 150,
                      .corrupt_per_mille = 80,
                      .duplicate_per_mille = 60,
                      .reorder_per_mille = 100,
                      .delay_per_mille = 60};
  options.transport = transport;

  auto run = [&](common::ThreadPool* pool) {
    Fleet fleet;
    provision_fleet(fleet, 12);
    fleet.at(device_id(3)).set_online(false);  // one device unreachable
    UpdateCampaign campaign =
        fleet.stage_update(firmware(1), "fw", {.eilid = false}, options);
    return pool ? campaign.roll_out(*pool) : campaign.roll_out();
  };

  const std::vector<UpdateOutcome> serial = run(nullptr);
  common::ThreadPool pool(8);
  const std::vector<UpdateOutcome> pooled = run(&pool);
  ASSERT_EQ(serial.size(), pooled.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], pooled[i]) << serial[i].device_id;
  }
  // The unreachable device reads kInterrupted in both runs.
  EXPECT_EQ(serial[3].result, UpdateResult::kInterrupted);
}

// ------------------------------------------------------------- rollout

// A halt during transfer: wave devices interrupted mid-transfer count
// as failures, the plan halts, and the affected devices sit on their
// old build with staged progress -- a later scheduler run RESUMES them
// to convergence.
TEST(RolloutTransport, HaltDuringTransferLeavesWaveResumable) {
  Fleet fleet;
  provision_fleet(fleet, 4);

  CampaignOptions lossy;
  TransportOptions transport = clean_pipe(24);
  transport.max_rounds = 1;
  transport.faults.power_loss_at_chunk = 2;  // dies after 2 chunks, every device
  lossy.transport = transport;
  RolloutPlan plan;
  plan.waves = {{.name = "canary", .device_ids = {device_id(0), device_id(1)}},
                {.name = "rest", .fraction = 1.0}};
  const RolloutReport halted =
      fleet.plan_rollout(fleet.build(firmware(1), "fw", {.eilid = false}),
                         plan, lossy)
          .run();
  EXPECT_TRUE(halted.halted);
  EXPECT_EQ(halted.waves_applied, 1u);
  for (const UpdateOutcome& out : halted.waves[0].updates) {
    EXPECT_EQ(out.result, UpdateResult::kInterrupted) << out.device_id;
  }
  // Mid-transfer devices still run the old build; the second wave was
  // never touched.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(fleet.at(device_id(i)).firmware_version(), 0u);
  }

  // A fresh scheduler over a clean pipe resumes the canaries (staged
  // chunks survive) and carries the plan to completion.
  CampaignOptions clean;
  clean.transport = clean_pipe(24);
  const RolloutReport resumed =
      fleet.plan_rollout(fleet.build(firmware(1), "fw", {.eilid = false}),
                         plan, clean)
          .run();
  EXPECT_FALSE(resumed.halted);
  EXPECT_EQ(resumed.waves_applied, 2u);
  for (const UpdateOutcome& out : resumed.waves[0].updates) {
    EXPECT_EQ(out.result, UpdateResult::kApplied) << out.device_id;
    EXPECT_TRUE(out.resumed) << out.device_id;
  }
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(fleet.at(device_id(i)).firmware_version(), 1u);
  }
}

// --------------------------------------------------------- self-healing

// An unreachable-then-reachable device: its interrupted transfer stays
// staged through quarantine and the remediation reflash, so the healing
// re-update RESUMES the transfer instead of restarting it.
TEST(SelfHealingTransport, RemediationResumesInterruptedTransfer) {
  Fleet fleet;
  provision_fleet(fleet, 2);
  DeviceSession& dev = fleet.at(device_id(1));

  // Interrupt a transfer on dev-01: power loss after 2 chunks, one
  // round -- kInterrupted with 2 chunks staged.
  CampaignOptions lossy;
  TransportOptions transport = clean_pipe(24);
  transport.max_rounds = 1;
  transport.faults.power_loss_at_chunk = 2;
  lossy.transport = transport;
  UpdateCampaign interrupted =
      fleet.stage_update(firmware(1), "fw", {.eilid = false}, lossy);
  ASSERT_EQ(interrupted.apply_to(dev).result, UpdateResult::kInterrupted);

  HealthMonitor health(fleet, {.heartbeat = {.period = 100},
                               .policy = {.staleness_threshold = 150}});
  CampaignOptions clean;
  clean.transport = clean_pipe(24);
  health.stage_remediation(
      fleet.stage_update(firmware(1), "fw", {.eilid = false}, clean));

  // Clean beat, then the device drops off the network long enough to
  // go stale: quarantined, but unreachable -- remediation cannot act.
  HealthReport report = health.run_until(100);
  EXPECT_TRUE(report.newly_quarantined.empty());
  dev.set_online(false);
  report = health.run_until(300);
  ASSERT_EQ(report.newly_quarantined.size(), 1u);
  EXPECT_EQ(report.newly_quarantined[0].device_id, device_id(1));
  ASSERT_EQ(report.remediations.size(), 1u);
  EXPECT_FALSE(report.remediations[0].reachable);

  // Back online: the next pass reflashes and re-updates -- and the
  // re-update resumes the staged transfer rather than starting over.
  dev.set_online(true);
  report = health.run_until(400);
  ASSERT_EQ(report.remediations.size(), 1u);
  const RemediationOutcome& healed = report.remediations[0];
  EXPECT_EQ(healed.device_id, device_id(1));
  EXPECT_TRUE(healed.reachable);
  EXPECT_EQ(healed.update.result, UpdateResult::kApplied);
  EXPECT_TRUE(healed.update.resumed);
  EXPECT_TRUE(healed.healed);
  EXPECT_EQ(dev.firmware_version(), 1u);
  EXPECT_EQ(health.quarantined().size(), 0u);
}

}  // namespace
}  // namespace eilid
