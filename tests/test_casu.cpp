// CASU substrate tests: the immutability/W^X/ROM-gate invariants, the
// soundness of the pages the CASU-derived monitors declare to the bus,
// and the authenticated update protocol.
#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "casu/monitor.h"
#include "casu/update.h"
#include "eilid/hw_monitor.h"
#include "eilid/pipeline.h"
#include "eilid/session.h"
#include "masm/assembler.h"

namespace eilid::casu {
namespace {

using sim::ResetReason;

struct DeviceUnderTest {
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<CasuMonitor> monitor;
};

DeviceUnderTest make_device(const std::string& body, CasuConfig cfg = {}) {
  std::string src =
      ".org 0xe000\nstart:\n    mov #0x1000, r1\n" + body +
      "halt:\n    jmp halt\n.vector 15, start\n";
  auto unit = masm::assemble_text(src, "casu");
  DeviceUnderTest d;
  d.machine = std::make_unique<sim::Machine>();
  cfg.rom_present = false;  // bare CASU device unless a test injects ROM
  d.monitor = std::make_unique<CasuMonitor>(cfg);
  d.machine->add_monitor(d.monitor.get());
  for (const auto& chunk : unit.image.chunks()) {
    d.machine->load(chunk.base, chunk.data);
  }
  d.machine->power_on();
  d.machine->set_halt_on_reset(true);
  return d;
}

TEST(Casu, PmemWriteFromAppResets) {
  auto d = make_device("    mov #0xdead, &0xe100\n");
  auto r = d.machine->run(1000);
  EXPECT_EQ(r.cause, sim::StopCause::kDeviceReset);
  EXPECT_EQ(d.machine->resets().back().reason, ResetReason::kPmemWriteViolation);
  // The store must not have landed (immutability, not just detection).
  EXPECT_NE(d.machine->bus().raw_word(0xE100), 0xDEAD);
}

TEST(Casu, RamWriteIsFine) {
  auto d = make_device("    mov #0xdead, &0x0300\n");
  auto r = d.machine->run(1000);
  EXPECT_EQ(r.cause, sim::StopCause::kCycleBudget);
  EXPECT_EQ(d.machine->violation_count(), 0u);
  EXPECT_EQ(d.machine->bus().raw_word(0x0300), 0xDEAD);
}

TEST(Casu, ExecFromRamResets) {
  auto d = make_device(R"(    mov #0x4303, &0x0300
    br #0x0300
)");
  auto r = d.machine->run(1000);
  EXPECT_EQ(r.cause, sim::StopCause::kDeviceReset);
  EXPECT_EQ(d.machine->resets().back().reason, ResetReason::kDmemExecViolation);
}

TEST(Casu, RomWriteResets) {
  auto d = make_device("    mov #1, &0xa100\n");
  d.machine->run(1000);
  EXPECT_EQ(d.machine->resets().back().reason, ResetReason::kRomWriteViolation);
}

TEST(Casu, ViolationRegFromAppIsPrivileged) {
  auto d = make_device("    mov #1, &0x0190\n");
  d.machine->run(1000);
  EXPECT_EQ(d.machine->resets().back().reason,
            ResetReason::kPrivilegedMmioViolation);
}

TEST(Casu, KeyRegionUnreadableFromApp) {
  auto d = make_device("    mov &0xafe0, r10\n");
  d.machine->run(1000);
  EXPECT_EQ(d.machine->resets().back().reason,
            ResetReason::kSecureRamAccessViolation);
}

TEST(Casu, RomEntryGateEnforced) {
  // A device WITH trusted ROM: jumping into the middle of the ROM body
  // (past the entry section) must reset.
  core::BuildResult build = core::build_app(
      ".org 0xe000\nmain:\n    mov #0x1000, r1\nhalt:\n    jmp halt\n"
      ".vector 15, main\n.end\n",
      "gate");
  uint16_t body_addr = build.rom.unit.symbols.at("S_EILID_store_ra");
  std::string attack_src =
      ".org 0xe000\nmain:\n    mov #0x1000, r1\n    br #" +
      std::to_string(body_addr) + "\nhalt:\n    jmp halt\n.vector 15, main\n";
  core::BuildResult attack = core::build_app(attack_src, "gate2",
                                             {.eilid = false});
  attack.rom = build.rom;  // same trusted ROM
  DeviceSession device(
      "gate2", std::make_shared<const core::BuildResult>(std::move(attack)),
      EnforcementPolicy::kEilidHw, {.halt_on_reset = true});
  auto r = device.machine().run(1000);
  EXPECT_EQ(r.cause, sim::StopCause::kDeviceReset);
  EXPECT_EQ(device.machine().resets().back().reason,
            ResetReason::kRomEntryViolation);
}

TEST(Casu, RomEntryThroughStubIsLegal) {
  auto build = std::make_shared<const core::BuildResult>(core::build_app(
      ".org 0xe000\nmain:\n    mov #0x1000, r1\n    call #foo\nhalt:\n"
      "    jmp halt\nfoo:\n    ret\n.vector 15, main\n.end\n",
      "legal"));
  DeviceSession device("legal", build, EnforcementPolicy::kEilidHw,
                       {.halt_on_reset = true});
  auto r = device.run_to_symbol("halt", 5000);
  EXPECT_EQ(r.cause, sim::StopCause::kBreakpoint);
  EXPECT_EQ(device.machine().violation_count(), 0u);
}

// ------------------------------------------------ page-mask soundness

// The bus calls a watcher only on the pages it declared, so every read
// or write on any other page must be one the monitor allows without
// latching anything. Sweeps all 65536 addresses, word and byte writes
// of two values, from an app pc and a ROM pc, with and without an
// update session. Counts the accesses that fell outside the mask into
// `off_mask`.
void expect_silent_off_mask(CasuMonitor& monitor, const std::string& tag,
                            size_t& off_mask) {
  const sim::WatchPages pages = monitor.watched_pages();
  off_mask = 0;
  for (bool session : {false, true}) {
    if (session) monitor.begin_update_session();
    for (uint16_t pc : {uint16_t{0xE010}, uint16_t{sim::kRomStart + 0x40}}) {
      for (uint32_t a = 0; a <= 0xFFFF; ++a) {
        const auto addr = static_cast<uint16_t>(a);
        if (!pages.reads[addr >> 8]) {
          ++off_mask;
          ASSERT_TRUE(monitor.on_read(addr, pc))
              << tag << " read " << addr << " pc " << pc;
        }
        if (!pages.writes[addr >> 8]) {
          for (uint16_t value : {uint16_t{0}, uint16_t{0xFFFF}}) {
            for (bool byte : {false, true}) {
              ++off_mask;
              ASSERT_TRUE(monitor.on_write(addr, value, byte, pc))
                  << tag << " write " << addr << " pc " << pc;
            }
          }
        }
        ASSERT_FALSE(monitor.pending_violation())
            << tag << " latched at " << addr << " pc " << pc;
      }
    }
    monitor.end_update_session();
  }
}

// The fetch half: every fetch whose predecessor shares its nonzero
// fetch region goes unreported, so the monitor must allow it without
// latching. Checks every pair drawn from three pcs per region page plus
// the ROM's entry and leave edges.
void expect_silent_within_fetch_regions(CasuMonitor& monitor,
                                        const std::string& tag,
                                        size_t& pairs) {
  const sim::WatchPages pages = monitor.watched_pages();
  const CasuConfig& cfg = monitor.config();
  std::vector<uint16_t> pcs;
  for (unsigned page = 0; page < 256; ++page) {
    if (pages.fetch_regions[page] == 0) continue;
    for (unsigned offset : {0x00u, 0x80u, 0xFEu}) {
      pcs.push_back(static_cast<uint16_t>(page * 256 + offset));
    }
  }
  for (uint16_t edge : {cfg.entry_start, cfg.entry_end, cfg.leave_start,
                        cfg.leave_end}) {
    for (int delta : {-2, 0, 2}) {
      const auto pc = static_cast<uint16_t>((edge + delta) & 0xFFFE);
      if (pages.fetch_regions[pc >> 8] != 0) pcs.push_back(pc);
    }
  }
  pairs = 0;
  for (uint16_t prev : pcs) {
    for (uint16_t pc : pcs) {
      if (pages.fetch_regions[prev >> 8] != pages.fetch_regions[pc >> 8]) {
        continue;
      }
      ++pairs;
      ASSERT_TRUE(monitor.on_fetch(pc, prev))
          << tag << " fetch " << pc << " after " << prev;
      ASSERT_FALSE(monitor.pending_violation())
          << tag << " latched on fetch " << pc << " after " << prev;
    }
  }
}

// The configs sessions build their monitors with: a plain build (no
// ROM, no gates) and an instrumented one (EILIDsw entry and leave).
TEST(CasuPages, DeclaredPagesAreSoundForSessionConfigs) {
  const char* source =
      ".org 0xe000\nmain:\n    mov #0x1000, r1\n    call #foo\nhalt:\n"
      "    jmp halt\nfoo:\n    ret\n.vector 15, main\n.end\n";
  auto plain = std::make_shared<const core::BuildResult>(
      core::build_app(source, "pages", {.eilid = false}));
  auto instrumented = std::make_shared<const core::BuildResult>(
      core::build_app(source, "pages", {.eilid = true}));
  DeviceSession casu("pages-casu", plain, EnforcementPolicy::kCasu);
  DeviceSession eilid("pages-eilid", instrumented, EnforcementPolicy::kEilidHw);
  ASSERT_FALSE(casu.hw_monitor()->config().rom_present);
  ASSERT_TRUE(eilid.hw_monitor()->config().rom_present);

  for (DeviceSession* session : {&casu, &eilid}) {
    const std::string tag = session->id();
    CasuMonitor bare(session->hw_monitor()->config());
    size_t casu_off = 0;
    size_t eilid_off = 0;
    expect_silent_off_mask(bare, tag + "-casu", casu_off);
    expect_silent_off_mask(*session->hw_monitor(), tag + "-eilid", eilid_off);
    // Not vacuous: most of the address space is off-mask, and EILID
    // polices strictly more (the secure-RAM pages) than CASU.
    EXPECT_GT(eilid_off, 0u);
    EXPECT_GT(casu_off, eilid_off);
    size_t casu_pairs = 0;
    size_t eilid_pairs = 0;
    expect_silent_within_fetch_regions(bare, tag + "-casu", casu_pairs);
    expect_silent_within_fetch_regions(*session->hw_monitor(), tag + "-eilid",
                                       eilid_pairs);
    EXPECT_GT(casu_pairs, 0u);
    EXPECT_EQ(casu_pairs, eilid_pairs);

    const sim::WatchPages casu_pages = bare.watched_pages();
    const sim::WatchPages eilid_pages = session->hw_monitor()->watched_pages();
    EXPECT_TRUE(casu_pages.fetches);
    // PMEM and ROM are fetch regions; RAM and the gap are reported.
    EXPECT_NE(casu_pages.fetch_regions[sim::kPmemStart >> 8], 0);
    EXPECT_NE(casu_pages.fetch_regions[sim::kRomStart >> 8], 0);
    EXPECT_NE(casu_pages.fetch_regions[sim::kRomStart >> 8],
              casu_pages.fetch_regions[sim::kPmemStart >> 8]);
    EXPECT_EQ(casu_pages.fetch_regions[sim::kRamStart >> 8], 0);
    EXPECT_EQ(casu_pages.fetch_regions[0xB0], 0);
    EXPECT_TRUE(casu_pages.reads[0xAF]);                 // device key
    EXPECT_TRUE(casu_pages.writes[sim::kRomStart >> 8]);
    EXPECT_TRUE(casu_pages.writes[sim::kPmemStart >> 8]);
    EXPECT_TRUE(casu_pages.writes[sim::mmio::kViolationReg >> 8]);
    EXPECT_FALSE(casu_pages.reads[sim::kSecureRamStart >> 8]);
    EXPECT_TRUE(eilid_pages.reads[sim::kSecureRamStart >> 8]);
    EXPECT_TRUE(eilid_pages.writes[sim::kSecureRamStart >> 8]);
    EXPECT_FALSE(eilid_pages.writes[sim::kRamStart >> 8]);
  }
}

// Counts every hook the bus calls on it and logs the fetches.
class CountingWatcher : public sim::BusWatcher {
 public:
  explicit CountingWatcher(sim::WatchPages pages) : pages_(pages) {}
  sim::WatchPages watched_pages() const override { return pages_; }
  bool on_fetch(uint16_t pc, std::optional<uint16_t> prev) override {
    log.emplace_back(pc, prev);
    return ++fetches, true;
  }
  std::vector<std::pair<uint16_t, std::optional<uint16_t>>> log;
  bool on_read(uint16_t, uint16_t) override { return ++reads, true; }
  bool on_write(uint16_t, uint16_t, bool, uint16_t) override {
    return ++writes, true;
  }
  size_t fetches = 0;
  size_t reads = 0;
  size_t writes = 0;

 private:
  sim::WatchPages pages_;
};

// Sweeps every address with word and byte reads and writes, and every
// even address with a fetch.
void sweep_bus(sim::Bus& bus) {
  for (uint32_t a = 0; a <= 0xFFFF; ++a) {
    const auto addr = static_cast<uint16_t>(a);
    bus.read_byte(addr, 0xE000);
    bus.read_word(addr, 0xE000);
    bus.write_byte(addr, 0, 0xE000);
    bus.write_word(addr, 0, 0xE000);
    if ((addr & 1) == 0) bus.notify_fetch(addr);
  }
}

TEST(CasuPages, DefaultWatcherSeesEveryAccessAndOthersOnlyTheirPages) {
  // The base-class default declaration is every page plus fetch.
  struct Plain : sim::BusWatcher {} plain;
  const sim::WatchPages declared = plain.watched_pages();
  EXPECT_TRUE(declared.fetches);
  EXPECT_TRUE(declared.reads.all());
  EXPECT_TRUE(declared.writes.all());

  sim::Bus bus;
  CountingWatcher all(sim::WatchPages::all());
  CountingWatcher none{sim::WatchPages{}};
  bus.add_watcher(&all);
  bus.add_watcher(&none);
  sweep_bus(bus);
  EXPECT_EQ(all.reads, 2u * 0x10000);
  EXPECT_EQ(all.writes, 2u * 0x10000);
  EXPECT_EQ(all.fetches, 0x8000u);
  EXPECT_EQ(none.reads + none.writes + none.fetches, 0u);
  EXPECT_FALSE(bus.access_denied());

  // Alone on a bus, a one-page watcher is asked about that page only.
  sim::Bus quiet_bus;
  sim::WatchPages one_page;
  one_page.add_reads(0x0300, 0x0300);
  one_page.add_writes(0x0300, 0x0300);
  CountingWatcher page3(one_page);
  quiet_bus.add_watcher(&page3);
  sweep_bus(quiet_bus);
  EXPECT_EQ(page3.reads, 2u * 256);
  EXPECT_EQ(page3.writes, 2u * 256);
  EXPECT_EQ(page3.fetches, 0u);
}

// A region watcher hears only the fetches that cross regions, each with
// its true predecessor; the first fetch after a CPU reset has none. A
// default watcher on the same bus hears every fetch again.
TEST(CasuPages, FetchRegionsReportOnlyCrossingsWithTheTruePredecessor) {
  using Log = std::vector<std::pair<uint16_t, std::optional<uint16_t>>>;
  sim::WatchPages regions;
  regions.fetches = true;
  regions.set_fetch_region(0xE000, 0xFFFF, 1);
  regions.set_fetch_region(0xA000, 0xAFFF, 2);
  EXPECT_EQ(regions.fetch_regions[0xDF], 0);
  EXPECT_EQ(regions.fetch_regions[0xE0], 1);
  EXPECT_EQ(regions.fetch_regions[0xAF], 2);
  const uint16_t trace[] = {0xE000, 0xE002, 0xE0FE, 0xE100, 0xA000, 0xA002,
                            0xA100, 0xE004, 0x0300, 0x0302, 0xE006};

  sim::Bus bus;
  CountingWatcher watcher(regions);
  bus.add_watcher(&watcher);
  for (uint16_t pc : trace) bus.notify_fetch(pc);
  EXPECT_EQ(watcher.log, (Log{{0xE000, std::nullopt},
                              {0xA000, 0xE100},
                              {0xE004, 0xA100},
                              {0x0300, 0xE004},
                              {0x0302, 0x0300},
                              {0xE006, 0x0302}}));
  watcher.log.clear();
  bus.forget_last_fetch();
  bus.notify_fetch(0xE008);
  bus.notify_fetch(0xE00A);
  EXPECT_EQ(watcher.log, (Log{{0xE008, std::nullopt}}));

  CountingWatcher all(sim::WatchPages::all());
  bus.add_watcher(&all);
  watcher.log.clear();
  for (uint16_t pc : trace) bus.notify_fetch(pc);
  EXPECT_EQ(all.log.size(), std::size(trace));
  EXPECT_EQ(watcher.log.size(), std::size(trace));
  EXPECT_EQ(all.log.front().second, std::nullopt);  // attached just now
  EXPECT_EQ(all.log.back(),
            (std::pair<uint16_t, std::optional<uint16_t>>{0xE006, 0x0302}));
}

// Every peripheral register, read straight from the peripherals (no
// bus flush, no watcher).
std::vector<uint16_t> peripheral_registers(sim::Machine& m) {
  std::vector<uint16_t> regs;
  sim::Peripheral* peripherals[] = {&m.timer(), &m.adc(), &m.port1(),
                                    &m.uart()};
  for (sim::Peripheral* p : peripherals) {
    for (uint32_t a = p->first_addr(); a <= p->last_addr(); a += 2) {
      regs.push_back(p->read(static_cast<uint16_t>(a)));
    }
  }
  return regs;
}

// A host power cycle leaves exactly the reset-visible state an
// enforcement reset leaves -- tick debt settled, peripherals reset,
// access-denied and monitor violations cleared, the next fetch without
// a predecessor -- but records no ResetEvent.
TEST(SessionReset, PowerCycleLeavesWhatAnEnforcementResetLeaves) {
  auto build = std::make_shared<const core::BuildResult>(core::build_app(
      ".org 0xe000\nmain:\n    mov #0x1000, r1\nhalt:\n    jmp halt\n"
      ".vector 15, main\n.end\n",
      "app"));
  DeviceSession enforced("enforced", build, EnforcementPolicy::kCasu);
  DeviceSession cycled("cycled", build, EnforcementPolicy::kCasu);
  CountingWatcher enforced_fetches(sim::WatchPages::all());
  CountingWatcher cycled_fetches(sim::WatchPages::all());
  enforced.machine().bus().add_watcher(&enforced_fetches);
  cycled.machine().bus().add_watcher(&cycled_fetches);
  for (DeviceSession* dev : {&enforced, &cycled}) {
    dev->run_to_symbol("halt", 1000);
    sim::Machine& m = dev->machine();
    m.timer().write(sim::mmio::kTimerCtl, 0x0001);  // running
    m.bus().accrue_ticks(7);
    // An app-context PMEM store: CASU denies it and latches.
    m.bus().write_word(0xE000, 0x1234, dev->symbol("halt"));
    ASSERT_TRUE(m.bus().access_denied());
    ASSERT_TRUE(dev->hw_monitor()->pending_violation().has_value());
  }
  const size_t resets_before = cycled.machine().resets().size();
  enforced.machine().run(1);  // the next step takes the enforcement reset
  cycled.power_cycle();
  EXPECT_EQ(enforced.machine().resets().size(), resets_before + 1);
  EXPECT_EQ(cycled.machine().resets().size(), resets_before);

  for (DeviceSession* dev : {&enforced, &cycled}) {
    sim::Machine& m = dev->machine();
    EXPECT_EQ(m.bus().tick_debt(), 0u) << dev->id();
    EXPECT_FALSE(m.bus().access_denied()) << dev->id();
    EXPECT_FALSE(dev->hw_monitor()->pending_violation().has_value())
        << dev->id();
    EXPECT_EQ(m.cpu().pc(), dev->symbol("main")) << dev->id();
  }
  EXPECT_EQ(peripheral_registers(enforced.machine()),
            peripheral_registers(cycled.machine()));

  enforced_fetches.log.clear();
  cycled_fetches.log.clear();
  enforced.machine().run(1);
  cycled.machine().run(1);
  ASSERT_FALSE(enforced_fetches.log.empty());
  ASSERT_FALSE(cycled_fetches.log.empty());
  EXPECT_EQ(enforced_fetches.log.front(),
            (std::pair<uint16_t, std::optional<uint16_t>>{
                enforced.symbol("main"), std::nullopt}));
  EXPECT_EQ(cycled_fetches.log.front(), enforced_fetches.log.front());
}

class UpdateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    build_ = std::make_shared<const core::BuildResult>(core::build_app(
        ".org 0xe000\nmain:\n    mov #0x1000, r1\nhalt:\n    jmp halt\n"
        ".vector 15, main\n.end\n",
        "app"));
    device_ = std::make_unique<DeviceSession>("app", build_,
                                              EnforcementPolicy::kEilidHw);
    // Receiver side is bound to the device's machine and monitor at
    // construction: there is no way to aim it at another machine.
    engine_ = std::make_unique<UpdateEngine>(key_span(), device_->machine(),
                                             device_->hw_monitor());
  }

  std::span<const uint8_t> key_span() const {
    return std::span<const uint8_t>(key_.data(), key_.size());
  }

  std::vector<uint8_t> key_ = std::vector<uint8_t>(32, 0x77);
  std::shared_ptr<const core::BuildResult> build_;
  std::unique_ptr<DeviceSession> device_;
  std::unique_ptr<UpdateEngine> engine_;
};

TEST_F(UpdateTest, ValidUpdateApplies) {
  UpdateAuthority authority(key_span());
  auto pkg = authority.make_package(0xE800, 1, {0x11, 0x22, 0x33});
  EXPECT_EQ(engine_->apply(pkg), UpdateStatus::kApplied);
  EXPECT_EQ(device_->machine().bus().raw_byte(0xE800), 0x11);
  EXPECT_EQ(engine_->current_version(), 1u);
}

TEST_F(UpdateTest, MultiRegionPackageAppliesAtomically) {
  UpdateAuthority authority(key_span());
  auto pkg = authority.make_package(
      1, {{0xE800, {0x11, 0x22}}, {0xF000, {0x33}}, {0xFF00, {0x44, 0x55}}});
  EXPECT_EQ(pkg.payload_bytes(), 5u);
  EXPECT_EQ(engine_->apply(pkg), UpdateStatus::kApplied);
  EXPECT_EQ(device_->machine().bus().raw_byte(0xE801), 0x22);
  EXPECT_EQ(device_->machine().bus().raw_byte(0xF000), 0x33);
  EXPECT_EQ(device_->machine().bus().raw_byte(0xFF01), 0x55);
  EXPECT_EQ(engine_->current_version(), 1u);
}

TEST_F(UpdateTest, TamperedPayloadRejectedAndDeviceHeals) {
  UpdateAuthority authority(key_span());
  auto pkg = authority.make_package(0xE800, 1, {0x11, 0x22, 0x33});
  pkg.regions[0].payload[0] = 0x99;  // tampered in transit
  EXPECT_EQ(engine_->apply(pkg), UpdateStatus::kBadMac);
  EXPECT_NE(device_->machine().bus().raw_byte(0xE800), 0x99);
  device_->machine().run(100);
  EXPECT_EQ(device_->machine().resets().back().reason,
            ResetReason::kUpdateAuthFailure);
}

TEST_F(UpdateTest, RollbackRejectedAndLatchesViolation) {
  UpdateAuthority authority(key_span());
  auto v2 = authority.make_package(0xE800, 2, {0xAA});
  EXPECT_EQ(engine_->apply(v2), UpdateStatus::kApplied);
  auto v1 = authority.make_package(0xE802, 1, {0xBB});
  EXPECT_EQ(engine_->apply(v1), UpdateStatus::kRollback);
  auto v2b = authority.make_package(0xE802, 2, {0xBB});
  EXPECT_EQ(engine_->apply(v2b), UpdateStatus::kRollback);
  // A validly MAC'd but stale package is an attack signal: the device
  // heals by reset, like any other update abuse.
  device_->machine().run(100);
  EXPECT_EQ(device_->machine().resets().back().reason,
            ResetReason::kUpdateRollback);
}

TEST_F(UpdateTest, NonPmemTargetRejected) {
  UpdateAuthority authority(key_span());
  auto pkg = authority.make_package(0x0300, 1, {0x11});
  EXPECT_EQ(engine_->apply(pkg), UpdateStatus::kBadRegion);
  // A bad region hiding behind valid ones poisons the whole package:
  // nothing is applied.
  auto mixed = authority.make_package(1, {{0xE800, {0x11}}, {0x0300, {0x22}}});
  EXPECT_EQ(engine_->apply(mixed), UpdateStatus::kBadRegion);
  EXPECT_NE(device_->machine().bus().raw_byte(0xE800), 0x11);
}

TEST_F(UpdateTest, WrongKeyRejected) {
  std::vector<uint8_t> other_key(32, 0x78);
  UpdateAuthority rogue(
      std::span<const uint8_t>(other_key.data(), other_key.size()));
  auto pkg = rogue.make_package(0xE800, 1, {0x11});
  EXPECT_EQ(engine_->apply(pkg), UpdateStatus::kBadMac);
}

// Regression: the anti-rollback version counter is per device, not
// per host. Updating one device must never advance (or be blocked by)
// another device's version state.
TEST_F(UpdateTest, VersionStateIsPerDevice) {
  DeviceSession other("other", build_, EnforcementPolicy::kEilidHw);
  UpdateEngine other_engine(key_span(), other.machine(), other.hw_monitor());
  UpdateAuthority authority(key_span());

  // Device A reaches version 3.
  EXPECT_EQ(engine_->apply(authority.make_package(0xE800, 3, {0xAA})),
            UpdateStatus::kApplied);
  // Device B is still at 0: version 1 is monotonic *for it*.
  EXPECT_EQ(other_engine.apply(authority.make_package(0xE800, 1, {0xBB})),
            UpdateStatus::kApplied);
  EXPECT_EQ(engine_->current_version(), 3u);
  EXPECT_EQ(other_engine.current_version(), 1u);
  // And the bytes landed on the right machines.
  EXPECT_EQ(device_->machine().bus().raw_byte(0xE800), 0xAA);
  EXPECT_EQ(other.machine().bus().raw_byte(0xE800), 0xBB);
}

}  // namespace
}  // namespace eilid::casu
