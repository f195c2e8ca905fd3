// Fleet at 10k scale: the copy-on-write paged device memory
// (sim::PagedMemory behind Bus) and the incremental windowed verifier
// (eilid::IncrementalVerifier). The two invariants everything here
// gates:
//
//   1. Paged memory is observationally identical to the old flat
//      64 KiB array -- under random writes, resets, reflashes,
//      wipe_volatile, base swaps and self-modifying code, under both
//      execution engines -- while a device's resident bytes stay
//      proportional to what it *dirtied*, not to the address space.
//   2. Windowed slice-by-slice verification folds to verdicts
//      bit-identical to the barrier verify_all() on the same evidence
//      (serial and pooled), convicting a hijack at the same edge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "casu/update.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "eilid/fleet.h"
#include "eilid/health.h"
#include "eilid/incremental.h"
#include "eilid/pipeline.h"
#include "sim/memory_map.h"
#include "sim/monitor.h"
#include "sim/paged_memory.h"

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

// ---------------------------------------------------- PagedMemory

// The COW pager against a flat 64 KiB reference array, under a random
// mix of every mutation the Bus can issue. After every operation the
// entire address space must read identically.
TEST(PagedMemoryTest, MatchesFlatReferenceUnderRandomOperations) {
  auto base = std::make_shared<const std::vector<uint8_t>>([] {
    std::vector<uint8_t> image(0x10000, 0);
    common::SeededRng fill(11);
    for (size_t i = 0xE000; i < 0x10000; ++i) image[i] = fill.u8();
    return image;
  }());
  auto base2 = std::make_shared<const std::vector<uint8_t>>([] {
    std::vector<uint8_t> image(0x10000, 0);
    common::SeededRng fill(12);
    for (size_t i = 0xA000; i < 0x10000; ++i) image[i] = fill.u8();
    return image;
  }());

  sim::PagedMemory mem;
  std::vector<uint8_t> ref(0x10000, 0);
  auto sync_ref_to = [&ref](const std::vector<uint8_t>& img) { ref = img; };

  mem.attach_base(base);
  sync_ref_to(*base);

  common::SeededRng rng(0xF1EE7);
  for (int op = 0; op < 4000; ++op) {
    switch (rng.below(100)) {
      default: {  // byte write (the common case)
        const uint16_t addr = rng.u16();
        const uint8_t value = rng.u8();
        mem.write(addr, value);
        ref[addr] = value;
        break;
      }
      case 0: case 1: case 2: case 3: case 4:
      case 5: case 6: case 7: case 8: case 9: {  // word write
        const uint16_t addr = rng.u16() & 0xFFFE;
        const uint16_t value = rng.u16();
        mem.write_word(addr, value);
        ref[addr] = static_cast<uint8_t>(value & 0xFF);
        ref[addr + 1] = static_cast<uint8_t>(value >> 8);
        break;
      }
      case 10: case 11: case 12: case 13: {  // bulk store, may wrap 0xFFFF
        const uint16_t addr = rng.u16();
        std::vector<uint8_t> bytes(1 + rng.below(700));
        for (auto& b : bytes) b = rng.u8();
        mem.store_bytes(addr, bytes.data(), bytes.size());
        for (size_t i = 0; i < bytes.size(); ++i) {
          ref[static_cast<uint16_t>(addr + i)] = bytes[i];
        }
        break;
      }
      case 14: case 15: {  // wipe_volatile analog
        mem.zero_range(sim::kRamStart, sim::kRamEnd);
        mem.zero_range(sim::kSecureRamStart, sim::kSecureRamEnd);
        std::fill(ref.begin() + sim::kRamStart,
                  ref.begin() + sim::kRamEnd + 1, 0);
        std::fill(ref.begin() + sim::kSecureRamStart,
                  ref.begin() + sim::kSecureRamEnd + 1, 0);
        break;
      }
      case 16: case 17: {  // reflash analog (partial-page boundaries too)
        const uint16_t first = 0xE000 + (rng.u16() & 0x0FFF);
        const uint16_t last =
            static_cast<uint16_t>(first + rng.below(0x10000 - first));
        mem.reset_range_to_base(first, last);
        const auto& img = *mem.base();
        std::copy(img.begin() + first, img.begin() + last + 1,
                  ref.begin() + first);
        break;
      }
      case 18: {  // adopt_build analog: swap base, reclaim clean pages
        const auto& next = mem.base() == base ? base2 : base;
        // A base swap alone changes what un-owned pages read; mirror by
        // materializing everything first (write-back), which the pager
        // must treat as all-owned and therefore swap-invariant.
        for (uint32_t page = 0; page < 0x100; ++page) {
          const uint16_t addr = static_cast<uint16_t>(page << 8);
          mem.write(addr, mem.read(addr));
        }
        mem.attach_base(next);
        mem.reclaim_identical(0x0000, 0xFFFF);
        break;
      }
      case 19: {  // reclaim is a pure storage optimization
        mem.reclaim_identical(rng.u16(), 0xFFFF);
        break;
      }
    }
    if (op % 97 == 0 || op == 3999) {
      for (uint32_t a = 0; a < 0x10000; ++a) {
        ASSERT_EQ(mem.read(static_cast<uint16_t>(a)),
                  ref[static_cast<uint16_t>(a)])
            << "op " << op << " addr " << a;
      }
    }
  }
  // Residency stays page-proportional: the tables plus at most one
  // owned copy of the address space, never more.
  EXPECT_LE(mem.resident_bytes(),
            0x10000u + 2 * sizeof(void*) * sim::PagedMemory::kPageCount);
}

// Random 64 KiB image with bytes in [0xA000, 0xFFFF] (secure ROM, the
// gap and PMEM) and zeros below.
std::shared_ptr<const std::vector<uint8_t>> random_code_image(uint64_t seed) {
  std::vector<uint8_t> image(0x10000, 0);
  common::SeededRng fill(seed);
  for (size_t i = sim::kRomStart; i < 0x10000; ++i) image[i] = fill.u8();
  return std::make_shared<const std::vector<uint8_t>>(std::move(image));
}

// range_equals (the campaign's kImageMismatch check) against a flat
// byte compare of what the memory reads, under random writes,
// write-backs of identical bytes, wipes, resets to base and base swaps
// -- swaps onto a distinct copy holding equal bytes included, so equal
// pages reach the memcmp path as well as the pointer path. Both code
// ranges are checked up to their last byte, plus a random subrange.
TEST(PagedMemoryTest, RangeEqualsMatchesFlatCompareUnderRandomOperations) {
  const auto base = random_code_image(21);
  const auto base_copy = std::make_shared<const std::vector<uint8_t>>(*base);
  const auto other = random_code_image(22);
  const std::shared_ptr<const std::vector<uint8_t>> images[] = {
      base, base_copy, other};

  sim::PagedMemory mem;
  mem.attach_base(base);
  auto random_code_range = [](common::SeededRng& rng) {
    const uint16_t first =
        static_cast<uint16_t>(sim::kRomStart + rng.below(0x6000));
    const uint16_t last =
        static_cast<uint16_t>(first + rng.below(0x10000 - first));
    return std::pair<uint16_t, uint16_t>{first, last};
  };

  common::SeededRng rng(0x5EED);
  size_t equal_verdicts = 0;
  size_t unequal_verdicts = 0;
  std::vector<uint8_t> reads(0x10000, 0);
  for (int op = 0; op < 2000; ++op) {
    switch (rng.below(20)) {
      default: {  // byte store; half of them write back the same byte
        const uint16_t addr =
            static_cast<uint16_t>(sim::kRomStart + rng.below(0x6000));
        mem.write(addr, rng.below(2) == 0 ? mem.read(addr) : rng.u8());
        break;
      }
      case 10: case 11: {  // wipe a random code subrange to zero
        const auto [first, last] = random_code_range(rng);
        mem.zero_range(first, last);
        break;
      }
      case 12: case 13: case 14: case 15:  // reflash both code ranges
        mem.reset_range_to_base(sim::kRomStart, sim::kRomEnd);
        mem.reset_range_to_base(sim::kPmemStart, 0xFFFF);
        break;
      case 16: case 17: case 18: {  // base swap, equal-byte copy included
        mem.attach_base(images[rng.below(3)]);
        if (rng.below(2) == 0) mem.reclaim_identical(0x0000, 0xFFFF);
        break;
      }
      case 19: {  // partial reset to base
        const auto [first, last] = random_code_range(rng);
        mem.reset_range_to_base(first, last);
        break;
      }
    }
    for (size_t a = sim::kRomStart; a < 0x10000; ++a) {
      reads[a] = mem.read(static_cast<uint16_t>(a));
    }
    const std::pair<uint16_t, uint16_t> ranges[] = {
        {sim::kRomStart, sim::kRomEnd},
        {sim::kPmemStart, 0xFFFF},
        random_code_range(rng)};
    for (const auto& image : images) {
      for (const auto& [first, last] : ranges) {
        const bool flat = std::equal(reads.begin() + first,
                                     reads.begin() + last + 1,
                                     image->begin() + first);
        ASSERT_EQ(mem.range_equals(first, last, *image), flat)
            << "op " << op << " range " << first << ".." << last;
        ++(flat ? equal_verdicts : unequal_verdicts);
      }
    }
  }
  // Both verdicts were exercised, not just the easy one.
  EXPECT_GT(equal_verdicts, 1000u);
  EXPECT_GT(unequal_verdicts, 1000u);
}

// One case per page kind the compare meets: shared view (pointer
// path), owned pages written back to identical bytes, owned pages that
// differ, wiped zero pages, and a distinct base copy with equal bytes
// (memcmp path). Each code range is checked up to its last byte.
TEST(PagedMemoryTest, RangeEqualsCoversEveryPageKind) {
  const auto base = random_code_image(31);
  const auto base_copy = std::make_shared<const std::vector<uint8_t>>(*base);
  const auto other = random_code_image(32);
  sim::PagedMemory mem;
  mem.attach_base(base);

  // Shared views: equal to the image they view and to an equal copy,
  // unequal to a different image.
  for (const auto& [first, last] :
       {std::pair<uint16_t, uint16_t>{sim::kRomStart, sim::kRomEnd},
        std::pair<uint16_t, uint16_t>{sim::kPmemStart, 0xFFFF}}) {
    EXPECT_TRUE(mem.range_equals(first, last, *base));
    EXPECT_TRUE(mem.range_equals(first, last, *base_copy));
    EXPECT_FALSE(mem.range_equals(first, last, *other));
  }

  // Owned page written back to its own bytes: still equal.
  mem.write(0xE800, mem.read(0xE800));
  EXPECT_EQ(mem.owned_pages(), 1u);
  EXPECT_TRUE(mem.range_equals(sim::kPmemStart, 0xFFFF, *base));
  EXPECT_TRUE(mem.range_equals(sim::kPmemStart, 0xFFFF, *base_copy));

  // Owned pages that differ, at the last byte of each range: the full
  // range is unequal, the range one byte short is still equal.
  mem.write(0xFFFF, static_cast<uint8_t>(~(*base)[0xFFFF]));
  EXPECT_FALSE(mem.range_equals(sim::kPmemStart, 0xFFFF, *base));
  EXPECT_TRUE(mem.range_equals(sim::kPmemStart, 0xFFFE, *base));
  EXPECT_FALSE(mem.range_equals(0xFFFF, 0xFFFF, *base));
  mem.write(sim::kRomEnd, static_cast<uint8_t>(~(*base)[sim::kRomEnd]));
  EXPECT_FALSE(mem.range_equals(sim::kRomStart, sim::kRomEnd, *base));
  EXPECT_TRUE(mem.range_equals(sim::kRomStart, sim::kRomEnd - 1, *base));
  mem.reset_range_to_base(sim::kRomStart, sim::kRomEnd);
  mem.reset_range_to_base(sim::kPmemStart, 0xFFFF);
  EXPECT_EQ(mem.owned_pages(), 0u);
  EXPECT_TRUE(mem.range_equals(sim::kRomStart, sim::kRomEnd, *base));
  EXPECT_TRUE(mem.range_equals(sim::kPmemStart, 0xFFFF, *base));

  // Wiped page: reads the static zero page, so it equals an image that
  // is zero there and not the base.
  mem.zero_range(sim::kRomStart, sim::kRomStart + 0xFF);
  std::vector<uint8_t> zeroed = *base;
  std::fill(zeroed.begin() + sim::kRomStart,
            zeroed.begin() + sim::kRomStart + 0x100, 0);
  EXPECT_FALSE(mem.range_equals(sim::kRomStart, sim::kRomEnd, *base));
  EXPECT_TRUE(mem.range_equals(sim::kRomStart, sim::kRomEnd, zeroed));
  mem.reset_range_to_base(sim::kRomStart, sim::kRomEnd);

  // A distinct base copy with equal bytes: every page views the copy,
  // so the compare against the original takes the memcmp path.
  mem.attach_base(base_copy);
  EXPECT_TRUE(mem.range_equals(sim::kRomStart, sim::kRomEnd, *base));
  EXPECT_TRUE(mem.range_equals(sim::kPmemStart, 0xFFFF, *base));
  mem.write(0xE123, static_cast<uint8_t>(~(*base)[0xE123]));
  EXPECT_FALSE(mem.range_equals(sim::kPmemStart, 0xFFFF, *base));
  EXPECT_FALSE(mem.range_equals(sim::kPmemStart, 0xFFFF, *base_copy));
}

// diff_builds skips equal pages with one memcmp and byte-walks only the
// pages that differ. Its result must equal a plain byte walk's --
// regions coalesced across page boundaries, payload_bytes, and the
// lowest non-PMEM difference -- whether the builds carry a cached
// flat_image or are flattened on the fly.
TEST(DiffBuildsTest, PageSkipMatchesByteWalk) {
  auto byte_walk = [](const std::vector<uint8_t>& a,
                      const std::vector<uint8_t>& b) {
    core::ImageDiff diff;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] == b[i]) continue;
      const uint16_t addr = static_cast<uint16_t>(i);
      if (!sim::is_pmem(addr)) {
        diff.compatible = false;
        diff.first_incompatible = addr;
        diff.regions.clear();
        diff.payload_bytes = 0;
        return diff;
      }
      if (!diff.regions.empty() && diff.regions.back().target_addr +
                                           diff.regions.back().payload.size() ==
                                       i) {
        diff.regions.back().payload.push_back(b[i]);
      } else {
        diff.regions.push_back({addr, {b[i]}});
      }
      ++diff.payload_bytes;
    }
    return diff;
  };
  auto expect_same = [](const core::ImageDiff& got,
                        const core::ImageDiff& want) {
    EXPECT_EQ(got.compatible, want.compatible);
    EXPECT_EQ(got.first_incompatible, want.first_incompatible);
    EXPECT_EQ(got.payload_bytes, want.payload_bytes);
    ASSERT_EQ(got.regions.size(), want.regions.size());
    for (size_t i = 0; i < got.regions.size(); ++i) {
      EXPECT_EQ(got.regions[i].target_addr, want.regions[i].target_addr);
      EXPECT_EQ(got.regions[i].payload, want.regions[i].payload);
    }
  };

  // Synthetic images: runs of changed PMEM bytes, many straddling a
  // page boundary, and now and then one non-PMEM difference.
  const auto base = random_code_image(41);
  common::SeededRng rng(0xD1FF);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> next = *base;
    for (uint64_t run = rng.below(6); run > 0; --run) {
      size_t at = sim::kPmemStart + rng.below(0x2000);
      if (rng.below(2) == 0) at = (at | 0xFF) - rng.below(3);
      for (uint64_t n = 1 + rng.below(8); n > 0 && at < 0x10000; --n, ++at) {
        next[at] ^= static_cast<uint8_t>(1 + rng.below(255));
      }
    }
    if (rng.below(5) == 0) next[rng.below(sim::kPmemStart)] ^= 0x5A;
    core::BuildResult from;
    core::BuildResult to;
    from.flat_image = base;
    to.flat_image = std::make_shared<const std::vector<uint8_t>>(next);
    expect_same(core::diff_builds(from, to), byte_walk(*base, next));
  }

  // Real builds.
  Fleet fleet;
  core::BuildOptions plain;
  plain.eilid = false;
  const auto gen1 = fleet.build(firmware(1), "fw", plain);
  const auto gen2 = fleet.build(firmware(2), "fw", plain);
  const core::ImageDiff want = byte_walk(*gen1->flat_image, *gen2->flat_image);
  EXPECT_GT(want.payload_bytes, 0u);
  expect_same(core::diff_builds(*gen1, *gen2), want);
}

TEST(PagedMemoryTest, ResidencyTracksDirtiedPagesOnly) {
  auto base = std::make_shared<const std::vector<uint8_t>>(
      std::vector<uint8_t>(0x10000, 0xAB));
  sim::PagedMemory mem;
  mem.attach_base(base);
  const size_t tables = mem.resident_bytes();
  EXPECT_EQ(mem.owned_pages(), 0u);

  mem.write(0x0200, 1);    // one RAM page
  mem.write(0x0201, 2);    // same page: no growth
  mem.write(0xE000, 3);    // one PMEM page
  EXPECT_EQ(mem.owned_pages(), 2u);
  EXPECT_EQ(mem.resident_bytes(), tables + 2 * sim::PagedMemory::kPageBytes);

  // A page written back to its base value is reclaimable.
  mem.write(0xE000, 0xAB);
  mem.reclaim_identical(0xE000, 0xEFFF);
  EXPECT_EQ(mem.owned_pages(), 1u);

  // Full-page resets release; the recycled pages are reused, so the
  // arena's high-water mark -- not churn -- bounds residency.
  mem.reset_range_to_base(0x0200, 0x02FF);
  EXPECT_EQ(mem.owned_pages(), 0u);
  mem.write(0x0400, 9);
  EXPECT_EQ(mem.resident_bytes(), tables + 2 * sim::PagedMemory::kPageBytes);
}

// adopt_build swaps the copy-on-write base under a live device. Only
// pages still viewing the previous base follow the swap: a RAM page
// that wipe_volatile cleared keeps reading zero, instead of reading
// the new image's initial data. The campaign skips its closing power
// cycle so nothing wipes the page again and hides the difference.
TEST(PagedMemoryTest, AdoptBuildKeepsWipedRamPagesZero) {
  auto fw = [](int generation) {
    return ".org 0x0200\n    .word 0x1234\n.org 0xE000\nmain:\n"
           "    mov #0x1000, r1\n    mov #" +
           std::to_string(generation) +
           ", r12\nhalt:\n    jmp halt\n.vector 15, main\n";
  };
  Fleet fleet;
  DeviceSession& dev =
      fleet.provision("wiped", fw(1), "fw", EnforcementPolicy::kNone);
  const sim::Bus& bus = dev.machine().bus();
  ASSERT_EQ(bus.raw_byte(0x0200), 0x34);  // the image's initial data
  dev.power_cycle();
  ASSERT_EQ(bus.raw_byte(0x0200), 0x00);

  CampaignOptions options;
  options.power_cycle = false;
  const UpdateOutcome out =
      fleet.stage_update(fw(2), "fw", {.eilid = false}, options).apply_to(dev);
  ASSERT_EQ(out.result, UpdateResult::kApplied);
  ASSERT_TRUE(out.build_swapped);
  EXPECT_EQ(bus.raw_byte(0x0200), 0x00);
  EXPECT_EQ(bus.raw_byte(0x0201), 0x00);
}

// A provisioned device's private cost is a handful of dirtied pages,
// not the 64 KiB address space; reflash returns it to near-baseline.
TEST(PagedMemoryTest, SessionResidentBytesStayNearSharedImageCost) {
  Fleet fleet;
  provision_fleet(fleet, 2);
  DeviceSession& dev = fleet.at(device_id(0));
  const size_t resident = dev.resident_memory_bytes();
  // Page tables (~4 KiB) + a few RAM/stack pages + the CFA arena's
  // first chunk: far below a flat 64 KiB copy.
  EXPECT_LT(resident, 16384u);
  dev.reflash();
  EXPECT_LE(dev.resident_memory_bytes(), resident);
}

// --------------------------------------------- engine differential

// Random write/reset/reflash/self-modify sequences must leave every
// way of running a device in bit-identical states -- same retirement
// counts, registers, and full memory image -- on the paged memory
// exactly as they did on the flat array: interpretive, the superblock
// engine, and the superblock engine pinned to per-step table dispatch
// by a wants_step() monitor. kNone policy so self-modifying stores are
// legal.
TEST(PagedMemoryTest, EnginesStayBitIdenticalUnderResetsAndSelfModification) {
  struct Variant {
    ExecutionEngine engine;
    bool per_step;
  };
  constexpr Variant kVariants[] = {{ExecutionEngine::kInterpretive, false},
                                   {ExecutionEngine::kSuperblock, true},
                                   {ExecutionEngine::kSuperblock, false}};
  sim::Monitor step_pin;  // outlives every fleet below
  std::vector<std::unique_ptr<Fleet>> fleets;
  std::vector<DeviceSession*> devs;
  for (const Variant& v : kVariants) {
    auto fleet = std::make_unique<Fleet>();
    devs.push_back(&fleet->provision("d", firmware(0), "fw",
                                     EnforcementPolicy::kNone,
                                     {.engine = v.engine}));
    if (v.per_step) devs.back()->machine().add_monitor(&step_pin);
    fleets.push_back(std::move(fleet));
  }

  common::SeededRng script(0x5EED);
  for (int round = 0; round < 30; ++round) {
    const uint64_t budget = 200 + script.below(3000);
    const uint64_t action = script.below(6);
    const uint16_t addr = 0xE000 + (script.u16() & 0x1FFE);
    const uint16_t value = script.u16();
    for (DeviceSession* dev : devs) {
      dev->run(budget);
      switch (action) {
        case 0:
          dev->power_cycle();
          break;
        case 1:
          dev->reflash();
          break;
        case 2:
        case 3:
          // Self-modifying store into PMEM: bumps the code generation,
          // drops table-driven engines to interpretive decode.
          dev->machine().bus().raw_store_word(addr, value);
          break;
        default:
          break;
      }
    }
    for (size_t e = 1; e < devs.size(); ++e) {
      ASSERT_EQ(devs[e]->machine().cycles(), devs[0]->machine().cycles())
          << "round " << round;
      ASSERT_EQ(devs[e]->machine().cpu().instructions_retired(),
                devs[0]->machine().cpu().instructions_retired())
          << "round " << round;
      for (int r = 0; r < 16; ++r) {
        ASSERT_EQ(devs[e]->machine().cpu().reg(r),
                  devs[0]->machine().cpu().reg(r))
            << "round " << round << " r" << r;
      }
      for (uint32_t a = 0; a < 0x10000; a += 2) {
        ASSERT_EQ(devs[e]->machine().bus().raw_word(static_cast<uint16_t>(a)),
                  devs[0]->machine().bus().raw_word(static_cast<uint16_t>(a)))
            << "round " << round << " addr " << a;
      }
    }
  }
}

// --------------------------------------------------- CFA arena slices

TEST(CfaArenaTest, BoundedSlicesCarryExactlyTheBarrierEvidence) {
  // Two identical devices accumulate identical logs; drain one in one
  // unbounded report and the other in bounded slices.
  Fleet barrier_fleet;
  Fleet sliced_fleet;
  provision_fleet(barrier_fleet, 1);
  provision_fleet(sliced_fleet, 1);
  // Spin the halt loop: every `jmp halt` iteration logs an edge, so the
  // logs span several slices (and several arena chunks' worth over the
  // device's life).
  barrier_fleet.at(device_id(0)).run(600);
  sliced_fleet.at(device_id(0)).run(600);
  cfa::CfaMonitor* whole = barrier_fleet.at(device_id(0)).cfa_monitor();
  cfa::CfaMonitor* sliced = sliced_fleet.at(device_id(0)).cfa_monitor();
  ASSERT_GT(whole->log_size(), 10u);
  ASSERT_EQ(whole->log_size(), sliced->log_size());

  const uint64_t arena_before = sliced->total_log_bytes();
  EXPECT_GT(arena_before, 0u);

  cfa::Report full = whole->take_report(7, 0);
  std::vector<cfa::LoggedEdge> concatenated;
  uint32_t seq = 0;
  while (sliced->log_size() > 0) {
    cfa::Report slice = sliced->take_report(100 + seq, 0, 3);
    EXPECT_EQ(slice.seq, seq++);
    EXPECT_LE(slice.edges.size(), 3u);
    concatenated.insert(concatenated.end(), slice.edges.begin(),
                        slice.edges.end());
  }
  EXPECT_EQ(concatenated, full.edges);
  // Drained chunks recycle through the free list: the arena's resident
  // bytes never exceed the pre-drain high-water mark, and an emptied
  // log does not free-and-regrow.
  EXPECT_EQ(sliced->total_log_bytes(), arena_before);
}

// --------------------------------------- incremental windowed verdicts

// Fold every device's barrier verdicts (one verify_all per evidence
// phase) into summaries, keyed by id.
std::map<std::string, AttestSummary> fold_all(
    std::map<std::string, AttestSummary> acc,
    const std::vector<VerifierService::AttestResult>& results) {
  for (const auto& r : results) fold(acc[r.device_id], r);
  return acc;
}

// Drive the windowed verifier until every device's log is drained.
void drain_windowed(Fleet& fleet, IncrementalVerifier& verifier,
                    common::ThreadPool* pool) {
  for (int guard = 0; guard < 10000; ++guard) {
    bool pending = false;
    for (DeviceSession* s : fleet.sessions()) {
      if (s->cfa_monitor() != nullptr && s->cfa_monitor()->log_size() > 0) {
        pending = true;
        break;
      }
    }
    if (!pending) return;
    const Tick next = fleet.clock().now() + verifier.options().period;
    if (pool == nullptr) {
      verifier.run_until(next);
    } else {
      verifier.run_until(next, *pool);
    }
  }
  FAIL() << "windowed verifier never drained the fleet";
}

struct WindowedScenarioResult {
  std::map<std::string, AttestSummary> windowed;
  IncrementalVerifier::WindowReport serial_rounds;
};

// One evidence scenario, run identically against a barrier fleet and a
// windowed fleet: run to halt, hijack one device, update-campaign a
// second phase, run again. Returns both sides' folded summaries.
void run_identity_scenario(size_t devices, IncrementalOptions options,
                           common::ThreadPool* pool,
                           std::map<std::string, AttestSummary>& barrier_out,
                           std::map<std::string, AttestSummary>& windowed_out) {
  Fleet barrier_fleet;
  Fleet windowed_fleet;
  provision_fleet(barrier_fleet, devices);
  provision_fleet(windowed_fleet, devices);
  // Halt-loop iterations pad every device's log well past one slice
  // budget, so the windowed side genuinely slices.
  for (Fleet* fleet : {&barrier_fleet, &windowed_fleet}) {
    for (DeviceSession* dev : fleet->sessions()) dev->run(600);
  }
  diverge_out_of_band(barrier_fleet, device_id(1));
  diverge_out_of_band(windowed_fleet, device_id(1));

  std::map<std::string, AttestSummary> barrier;
  IncrementalVerifier windowed(windowed_fleet, options);

  // Phase 1: drain the boot evidence (and the unsanctioned epoch
  // marker on dev-01).
  barrier = fold_all(std::move(barrier), barrier_fleet.verifier().verify_all());
  drain_windowed(windowed_fleet, windowed, pool);

  // Phase 2: a sanctioned campaign moves every device to firmware(1);
  // its epoch markers land mid-window and must replay clean.
  for (Fleet* fleet : {&barrier_fleet, &windowed_fleet}) {
    // Plain (uninstrumented) target: the devices' kCfaBaseline builds
    // are plain, and the transition must match shapes.
    UpdateCampaign campaign =
        fleet->stage_update(firmware(1), "fw", {.eilid = false});
    for (DeviceSession* dev : fleet->sessions()) {
      // dev-01 diverged, so its image mismatches the campaign diff;
      // reflash it first, as remediation would.
      if (dev->id() == device_id(1)) {
        std::lock_guard<std::mutex> lock(dev->mutex());
        dev->reflash();
      }
      UpdateOutcome outcome = campaign.apply_to(*dev);
      ASSERT_TRUE(outcome.ok()) << dev->id();
      // Reboot into the new image (the old PC points into shifted
      // code); the reset marker lands after the epoch marker and both
      // replay clean mid-window.
      dev->power_cycle();
      dev->run_to_symbol("halt", 100000);
      dev->run(600);
    }
  }
  barrier = fold_all(std::move(barrier), barrier_fleet.verifier().verify_all());
  drain_windowed(windowed_fleet, windowed, pool);

  barrier_out = std::move(barrier);
  windowed_out.clear();
  for (const AttestSummary& s : windowed.summaries()) {
    windowed_out[s.device_id] = s;
  }
}

TEST(IncrementalVerifierTest, WindowedVerdictsMatchBarrierSweep) {
  std::map<std::string, AttestSummary> barrier;
  std::map<std::string, AttestSummary> windowed;
  run_identity_scenario(
      6,
      {.period = 5,
       .max_devices_per_tick = 2,
       .max_bytes_per_slice = 16 * cfa::LoggedEdge::kWireBytes},
      nullptr, barrier, windowed);

  ASSERT_EQ(barrier.size(), 6u);
  EXPECT_EQ(barrier, windowed);
  // The hijacked device convicted, at the same first bad edge both
  // ways; everyone else stayed clean.
  EXPECT_FALSE(barrier.at(device_id(1)).path_ok);
  ASSERT_TRUE(barrier.at(device_id(1)).first_bad.has_value());
  EXPECT_EQ(barrier.at(device_id(1)).first_bad,
            windowed.at(device_id(1)).first_bad);
  for (size_t i = 0; i < 6; ++i) {
    if (i == 1) continue;
    EXPECT_FALSE(barrier.at(device_id(i)).convicted()) << device_id(i);
    EXPECT_GT(barrier.at(device_id(i)).edges, 0u) << device_id(i);
  }
}

TEST(IncrementalVerifierTest, PooledWindowIsBitIdenticalToSerial) {
  const IncrementalOptions options = {
      .period = 5,
      .max_devices_per_tick = 3,
      .max_bytes_per_slice = 16 * cfa::LoggedEdge::kWireBytes};
  std::map<std::string, AttestSummary> barrier_serial;
  std::map<std::string, AttestSummary> serial;
  run_identity_scenario(5, options, nullptr, barrier_serial, serial);

  common::ThreadPool pool(4);
  std::map<std::string, AttestSummary> barrier_pooled;
  std::map<std::string, AttestSummary> pooled;
  run_identity_scenario(5, options, &pool, barrier_pooled, pooled);

  EXPECT_EQ(serial, pooled);
  EXPECT_EQ(barrier_serial, barrier_pooled);
  EXPECT_EQ(serial, barrier_serial);
}

TEST(IncrementalVerifierTest, RotationCoversEveryDeviceAndSkipsOffline) {
  Fleet fleet;
  provision_fleet(fleet, 5);
  fleet.at(device_id(2)).set_online(false);
  IncrementalVerifier windowed(
      fleet, {.period = 10, .max_devices_per_tick = 2,
              .max_bytes_per_slice = 0});
  // Three rounds of two: the cyclic rotation reaches all four online
  // devices and never touches the offline one.
  auto report = windowed.run_until(30);
  ASSERT_EQ(report.rounds.size(), 3u);
  for (const auto& round : report.rounds) {
    EXPECT_LE(round.slices.size(), 2u);
  }
  EXPECT_EQ(windowed.summary(device_id(2)), AttestSummary{});
  for (size_t i : {0u, 1u, 3u, 4u}) {
    EXPECT_GT(windowed.summary(device_id(i)).edges, 0u) << device_id(i);
  }
  // The offline device's log is untouched, waiting for its return.
  EXPECT_GT(fleet.at(device_id(2)).cfa_monitor()->log_size(), 0u);
}

// A round the clock has already passed (another actor advanced it)
// catches up onto the cadence: the first round lands on the first tick
// >= now, not one period after it. Serial and pooled.
TEST(IncrementalVerifierTest, ClockJumpCatchesUpOntoTheCadence) {
  common::ThreadPool workers(4);
  for (common::ThreadPool* pool :
       {&common::ThreadPool::inline_pool(), &workers}) {
    Fleet fleet;
    provision_fleet(fleet, 3);
    IncrementalVerifier window(
        fleet, {.period = 10, .max_devices_per_tick = 1,
                .max_bytes_per_slice = 0});
    ASSERT_EQ(window.run_until(100, *pool).rounds.size(), 10u);
    fleet.clock().advance_to(1005);
    const auto report = window.run_until(1030, *pool);
    ASSERT_EQ(report.rounds.size(), 3u);
    for (size_t r = 0; r < report.rounds.size(); ++r) {
      const IncrementalVerifier::Round& round = report.rounds[r];
      EXPECT_EQ(round.tick, 1010u + 10 * r);
      ASSERT_EQ(round.slices.size(), 1u);
      EXPECT_EQ(round.slices[0].tick, round.tick);
    }
  }
}

TEST(IncrementalVerifierTest, ZeroPeriodThrows) {
  Fleet fleet;
  EXPECT_THROW(IncrementalVerifier(fleet, {.period = 0}), FleetError);
}

// ------------------------------------------------- heartbeat backoff

TEST(HeartbeatBackoffTest, UnreachableDevicesBackOffExponentially) {
  Fleet fleet;
  provision_fleet(fleet, 2);
  fleet.at(device_id(1)).set_online(false);
  HeartbeatScheduler scheduler(fleet,
                               {.period = 10, .max_backoff_exponent = 3});
  // dev-00 beats every 10 ticks. dev-01 misses back off: due at 10,
  // then +20, +40, +80, then capped at +80.
  scheduler.run_until(400);
  const FreshnessRecord offline = scheduler.record(device_id(1));
  EXPECT_EQ(offline.misses, offline.consecutive_misses);
  // Misses at t = 10, 30, 70, 150, 230, 310, 390 -> 7 in 400 ticks;
  // without backoff it would be 40.
  EXPECT_EQ(offline.misses, 7u);
  EXPECT_EQ(offline.next_due, 470u);
  const FreshnessRecord online = scheduler.record(device_id(0));
  EXPECT_EQ(online.heartbeats, 40u);
  EXPECT_EQ(online.consecutive_misses, 0u);

  // The device comes back: one verdict snaps the cadence back to the
  // base period.
  fleet.at(device_id(1)).set_online(true);
  scheduler.run_until(475);
  const FreshnessRecord back = scheduler.record(device_id(1));
  EXPECT_EQ(back.consecutive_misses, 0u);
  EXPECT_EQ(back.next_due, 480u);
  EXPECT_EQ(back.heartbeats, 1u);
}

TEST(HeartbeatBackoffTest, BackoffScheduleIsDeterministicAndPoolInvariant) {
  auto run = [](common::ThreadPool* pool) {
    Fleet fleet;
    provision_fleet(fleet, 4);
    fleet.at(device_id(0)).set_online(false);
    fleet.at(device_id(3)).set_online(false);
    HeartbeatScheduler scheduler(
        fleet, {.period = 7, .jitter = 5, .max_backoff_exponent = 4});
    HeartbeatReport report = pool == nullptr ? scheduler.run_until(600)
                                             : scheduler.run_until(600, *pool);
    return std::make_pair(std::move(report), scheduler.records());
  };
  auto [report_a, records_a] = run(nullptr);
  auto [report_b, records_b] = run(nullptr);
  EXPECT_EQ(report_a, report_b);
  EXPECT_EQ(records_a, records_b);
  common::ThreadPool pool(4);
  auto [report_c, records_c] = run(&pool);
  EXPECT_EQ(report_a, report_c);
  EXPECT_EQ(records_a, records_c);
}

}  // namespace
}  // namespace eilid
