// CFA baseline tests: CFG extraction, log integrity (MAC), stateful
// replay verification, overflow accounting and reset-marker handling.
#include <gtest/gtest.h>

#include <memory>

#include "apps/apps.h"
#include "attacks/attack.h"
#include "cfa/attestation.h"
#include "cfa/cfg.h"
#include "eilid/pipeline.h"
#include "eilid/session.h"
#include "sim/memory_map.h"

namespace eilid::cfa {
namespace {

crypto::Digest key() {
  crypto::Digest k{};
  k.fill(0x33);
  return k;
}

std::shared_ptr<const core::BuildResult> plain_build(const apps::AppSpec& app) {
  return std::make_shared<const core::BuildResult>(
      core::build_app(app.source, app.name, {.eilid = false}));
}

TEST(Cfg, ExtractsSitesFromVulnGateway) {
  auto build = plain_build(apps::vuln_gateway());
  Cfg cfg = extract_cfg(build->app);
  EXPECT_GT(cfg.code_addrs.size(), 20u);
  EXPECT_GE(cfg.call_sites.size(), 4u);  // recv_packet, read_byte x2, act...
  EXPECT_GE(cfg.ret_addrs.size(), 4u);
  EXPECT_GE(cfg.jump_edges.size(), 3u);
  EXPECT_EQ(cfg.reset_entry, build->app.symbols.at("main"));
  // Indirect-call site exists (call r13 in act).
  bool has_indirect = false;
  for (const auto& [addr, site] : cfg.call_sites) {
    has_indirect = has_indirect || site.indirect;
  }
  EXPECT_TRUE(has_indirect);
  // .func blink is a legal target.
  EXPECT_TRUE(cfg.call_targets.count(build->app.symbols.at("blink")));
}

TEST(Cfa, LegalRunVerifiesAcrossReports) {
  const auto& app = apps::app_by_name("temp_sensor");
  auto build = plain_build(app);
  DeviceSession device(app.name, build, EnforcementPolicy::kCasu);
  CfaMonitor monitor(key(), {.log_capacity = 1u << 16});
  device.machine().add_monitor(&monitor);
  app.setup(device.machine());
  CfaVerifier verifier(extract_cfg(build->app), key());

  uint64_t nonce = 100;
  for (int slice = 0; slice < 6; ++slice) {
    device.machine().run(5000);
    Report report = monitor.take_report(nonce, device.machine().cycles());
    auto result = verifier.verify(report, nonce);
    ++nonce;
    EXPECT_TRUE(result.mac_ok);
    EXPECT_TRUE(result.path_ok) << "false positive in slice " << slice;
  }
}

TEST(Cfa, LegalIsrRunVerifies) {
  const auto& app = apps::app_by_name("light_sensor");
  auto build = plain_build(app);
  DeviceSession device(app.name, build, EnforcementPolicy::kCasu);
  CfaMonitor monitor(key(), {.log_capacity = 1u << 16});
  device.machine().add_monitor(&monitor);
  app.setup(device.machine());
  device.run_to_symbol("halt", 8 * app.cycle_budget);

  Report report = monitor.take_report(5, device.machine().cycles());
  bool saw_irq = false;
  for (const auto& e : report.edges) saw_irq = saw_irq || e.irq;
  EXPECT_TRUE(saw_irq) << "timer ISR edges must be logged";
  CfaVerifier verifier(extract_cfg(build->app), key());
  auto result = verifier.verify(report, 5);
  EXPECT_TRUE(result.mac_ok);
  EXPECT_TRUE(result.path_ok);
}

TEST(Cfa, HijackDetectedInReplay) {
  const auto& app = apps::vuln_gateway();
  auto build = plain_build(app);
  DeviceSession device(app.name, build, EnforcementPolicy::kCasu);
  CfaMonitor monitor(key(), {.log_capacity = 1u << 16});
  device.machine().add_monitor(&monitor);
  uint16_t unlock = device.symbol("unlock");
  device.machine().uart().feed(attacks::overflow_ret_payload(unlock));
  device.run_to_symbol("halt", 200000);

  Report report = monitor.take_report(6, device.machine().cycles());
  CfaVerifier verifier(extract_cfg(build->app), key());
  auto result = verifier.verify(report, 6);
  EXPECT_TRUE(result.mac_ok);
  EXPECT_FALSE(result.path_ok);
  ASSERT_TRUE(result.first_bad.has_value());
  EXPECT_EQ(result.first_bad->to, unlock);
}

TEST(Cfa, TamperedReportFailsMac) {
  const auto& app = apps::app_by_name("temp_sensor");
  auto build = plain_build(app);
  DeviceSession device(app.name, build, EnforcementPolicy::kCasu);
  CfaMonitor monitor(key(), {});
  device.machine().add_monitor(&monitor);
  app.setup(device.machine());
  device.machine().run(3000);
  Report report = monitor.take_report(7, device.machine().cycles());
  ASSERT_FALSE(report.edges.empty());
  report.edges[0].to ^= 4;  // a compromised prover rewrites history
  CfaVerifier verifier(extract_cfg(build->app), key());
  auto result = verifier.verify(report, 7);
  EXPECT_FALSE(result.mac_ok);
}

TEST(Cfa, WrongNonceFailsMac) {
  const auto& app = apps::app_by_name("temp_sensor");
  auto build = plain_build(app);
  DeviceSession device(app.name, build, EnforcementPolicy::kCasu);
  CfaMonitor monitor(key(), {});
  device.machine().add_monitor(&monitor);
  device.machine().run(2000);
  Report report = monitor.take_report(8, device.machine().cycles());
  CfaVerifier verifier(extract_cfg(build->app), key());
  EXPECT_FALSE(verifier.verify(report, 9).mac_ok);  // replayed old report
}

TEST(Cfa, OverflowDropsAreCounted) {
  const auto& app = apps::app_by_name("charlieplexing");
  auto build = plain_build(app);
  DeviceSession device(app.name, build, EnforcementPolicy::kCasu);
  CfaMonitor monitor(key(), {.log_capacity = 16});
  device.machine().add_monitor(&monitor);
  device.run_to_symbol("halt", 8 * app.cycle_budget);
  Report report = monitor.take_report(9, device.machine().cycles());
  EXPECT_EQ(report.edges.size(), 16u);
  EXPECT_GT(report.dropped, 0u);
}

TEST(Cfa, ResetMarkerResynchronisesReplay) {
  // Trigger an enforcement reset mid-run; the log must contain a reset
  // marker and the verifier must resync (no false positive afterwards).
  const auto& app = apps::vuln_gateway();
  auto build = plain_build(app);
  // halt_on_reset = false: the device reboots after the reset.
  DeviceSession device(app.name, build, EnforcementPolicy::kCasu);
  CfaMonitor monitor(key(), {.log_capacity = 1u << 16});
  device.machine().add_monitor(&monitor);
  // Exploit redirecting into RAM: CASU W^X resets the device.
  device.machine().uart().feed(attacks::overflow_ret_payload(0x0300));
  device.run_to_symbol("halt", 400000);
  EXPECT_GE(device.machine().violation_count(), 1u);

  Report report = monitor.take_report(10, device.machine().cycles());
  bool saw_reset = false;
  for (const auto& e : report.edges) saw_reset = saw_reset || e.reset;
  EXPECT_TRUE(saw_reset);
  CfaVerifier verifier(extract_cfg(build->app), key());
  auto result = verifier.verify(report, 10);
  EXPECT_TRUE(result.mac_ok);
  // The pre-reset hijack edge (ret into RAM) must be flagged.
  EXPECT_FALSE(result.path_ok);
  ASSERT_TRUE(result.first_bad.has_value());
  EXPECT_EQ(result.first_bad->to, 0x0300);
}

// --- bounded replay stacks --------------------------------------------
//
// A hand-built CFG for a function that calls itself: main calls f at
// 0xE000, f recurses at 0xE104 and returns at 0xE10A; one ISR at
// 0xE200 returns at 0xE210. Reports are built edge by edge and MAC'd
// with the attestation key, so only the replay bound can refuse them.
constexpr uint16_t kMainCall = 0xE000, kMainResume = 0xE004;
constexpr uint16_t kF = 0xE100, kSelfCall = 0xE104, kSelfResume = 0xE108,
                   kRet = 0xE10A;
constexpr uint16_t kIsr = 0xE200, kReti = 0xE210;

std::shared_ptr<const Cfg> recursive_cfg() {
  auto cfg = std::make_shared<Cfg>();
  cfg->call_sites[kMainCall] = {false, kF, kMainResume};
  cfg->call_sites[kSelfCall] = {false, kF, kSelfResume};
  cfg->ret_addrs.insert(kRet);
  cfg->reti_addrs.insert(kReti);
  cfg->isr_entries.insert(kIsr);
  cfg->call_targets.insert(kF);
  return cfg;
}

// main -> f, then `depth - 1` self-calls.
std::vector<LoggedEdge> nest_calls(size_t depth) {
  std::vector<LoggedEdge> edges{{kMainCall, kF}};
  for (size_t i = 1; i < depth; ++i) edges.push_back({kSelfCall, kF});
  return edges;
}

Report macd_report(std::vector<LoggedEdge> edges, uint32_t seq,
                   uint64_t nonce) {
  Report r;
  r.seq = seq;
  r.edges = std::move(edges);
  r.mac = CfaMonitor::mac_report(key(), nonce, r);
  return r;
}

TEST(CfaReplayBound, CapacityIsTheRamStackInWords) {
  EXPECT_EQ(CfaVerifier::kMaxReplayDepthWords,
            static_cast<size_t>(sim::kStackTop - sim::kRamStart) / 2);
}

TEST(CfaReplayBound, NestingExactlyAtCapacityStaysClean) {
  constexpr size_t kCap = CfaVerifier::kMaxReplayDepthWords;
  CfaVerifier verifier(recursive_cfg(), key());
  // kCap - 2 call frames plus one interrupt frame (two words) fill the
  // stack exactly.
  std::vector<LoggedEdge> down = nest_calls(kCap - 2);
  down.push_back({kF, kIsr, true});
  auto result = verifier.verify(macd_report(down, 0, 1), 1);
  EXPECT_TRUE(result.mac_ok);
  EXPECT_TRUE(result.path_ok);
  EXPECT_FALSE(result.first_bad.has_value());
  EXPECT_EQ(verifier.replay_depth_words(), kCap);

  // Unwind everything in the next report: still clean, stacks empty.
  std::vector<LoggedEdge> up{{kReti, kF}};
  for (size_t i = 1; i < kCap - 2; ++i) up.push_back({kRet, kSelfResume});
  up.push_back({kRet, kMainResume});
  result = verifier.verify(macd_report(up, 1, 2), 2);
  EXPECT_TRUE(result.mac_ok);
  EXPECT_TRUE(result.path_ok);
  EXPECT_EQ(verifier.replay_depth_words(), 0u);
}

TEST(CfaReplayBound, OneCallBeyondCapacityConvicts) {
  constexpr size_t kCap = CfaVerifier::kMaxReplayDepthWords;
  CfaVerifier verifier(recursive_cfg(), key());
  std::vector<LoggedEdge> edges = nest_calls(kCap + 1);
  // Evidence keeps recursing after the overflowing call; replay must
  // stop there rather than grow its stacks.
  for (int i = 0; i < 64; ++i) edges.push_back({kSelfCall, kF});
  auto result = verifier.verify(macd_report(edges, 0, 7), 7);
  EXPECT_TRUE(result.mac_ok);
  EXPECT_FALSE(result.path_ok);
  ASSERT_TRUE(result.first_bad.has_value());
  EXPECT_EQ(*result.first_bad, (LoggedEdge{kSelfCall, kF}));
  EXPECT_EQ(verifier.replay_depth_words(), kCap);

  // An interrupt needs two words: one word short of the cap is not
  // enough room for it either.
  CfaVerifier irq_verifier(recursive_cfg(), key());
  std::vector<LoggedEdge> irq_edges = nest_calls(kCap - 1);
  irq_edges.push_back({kF, kIsr, true});
  result = irq_verifier.verify(macd_report(irq_edges, 0, 8), 8);
  EXPECT_TRUE(result.mac_ok);
  EXPECT_FALSE(result.path_ok);
  ASSERT_TRUE(result.first_bad.has_value());
  EXPECT_TRUE(result.first_bad->irq);
  EXPECT_EQ(irq_verifier.replay_depth_words(), kCap - 1);
}

}  // namespace
}  // namespace eilid::cfa
