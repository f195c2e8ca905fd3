// The memory bus: a 64 KB von Neumann address space with memory-mapped
// peripherals and *veto-capable* watchers.
//
// Watchers model bus-snooping hardware (CASU / EILID monitors). They
// see the CPU accesses they police before those commit and may deny
// them; a denied write never lands (this is how CASU guarantees PMEM
// immutability -- the violating store is suppressed and the device
// resets).
//
// Page-granular policing: each watcher declares once, when it is
// attached, which 256-byte pages it polices for reads and for writes
// and whether it watches instruction fetches (BusWatcher::
// watched_pages). The bus folds the declarations into one read mask,
// one write mask and one fetch-watcher list, so an access to a page no
// watcher polices costs one byte load and no call, and a watcher is
// only ever called for the pages it declared. Fetch watchers may also
// declare fetch regions: a fetch whose predecessor lies on a page of
// the same region is not reported, so a monitor whose fetch rules are
// about leaving one executable region for another is called only when
// execution crosses regions. The default declaration is every page
// plus every fetch, so tracers and attack engines still see every
// access; CASU-derived monitors declare the handful of pages their
// rules name plus the ROM and PMEM as fetch regions, and a
// transfer-only monitor (CFA) declares nothing.
//
// Hot-path layout: the common case (an unpoliced page, plain memory
// access) is fully inlined; watcher checks and peripheral dispatch are
// the out-of-line slow path. Peripheral dispatch is an O(1)
// per-address table rather than a linear range scan, and pending_irq()
// is cached and recomputed only when something that can change an
// interrupt line actually happened (a tick that moved irq state, an
// ack, a peripheral register access, a reset).
#ifndef EILID_SIM_BUS_H
#define EILID_SIM_BUS_H

#include <array>
#include <bitset>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "sim/memory_map.h"
#include "sim/paged_memory.h"

namespace eilid::sim {

// A memory-mapped peripheral occupying a register address range.
class Peripheral {
 public:
  virtual ~Peripheral() = default;

  // Register interface (addresses are absolute).
  virtual uint16_t read(uint16_t addr) = 0;
  virtual void write(uint16_t addr, uint16_t value) = 0;

  // Advance the peripheral's clock by `cycles` CPU cycles. Returns
  // true when the tick may have changed this peripheral's interrupt
  // line (the bus uses this to keep its pending_irq() cache exact).
  virtual bool tick(uint64_t cycles) {
    (void)cycles;
    return false;
  }

  // Asserted interrupt line (vector index), or -1.
  virtual int pending_irq() const { return -1; }
  virtual void ack_irq() {}

  // No tick within this many cycles can assert this peripheral's
  // interrupt line (kIrqNever: ticking alone can never assert it --
  // only register access or host stimulus, which the superblock core
  // already treats as block-ending events). The block dispatcher sums
  // a block's cycles against this horizon so a timer firing mid-block
  // drops execution to the per-instruction core, which delivers the
  // IRQ at the architecturally exact instruction.
  static constexpr uint64_t kIrqNever = ~0ull;
  virtual uint64_t cycles_to_irq() const { return kIrqNever; }

  // Restore power-on state.
  virtual void reset() {}

  // Address range [first, last] this peripheral claims.
  virtual uint16_t first_addr() const = 0;
  virtual uint16_t last_addr() const = 0;
};

// The 256-byte pages (addr >> 8) a watcher polices, per access kind.
// Soundness contract: a watcher must allow -- return true and latch
// nothing -- every read or write on a page it does not declare. The bus
// skips such an access when no watcher polices the page; when another
// watcher does, every watcher of that access kind is asked.
struct WatchPages {
  std::bitset<256> reads;
  std::bitset<256> writes;
  // Whether the watcher is called on instruction fetches at all.
  bool fetches = false;
  // Where fetch calls may be skipped. A fetch whose predecessor (the
  // previous fetch since the last CPU reset or watcher attach) lies on
  // a page of the same nonzero region as its own page is not reported;
  // the watcher must allow every such fetch and keep no state for it
  // (the next reported fetch carries the true predecessor). Region 0,
  // the default everywhere, reports every fetch on that page.
  std::array<uint8_t, 256> fetch_regions{};

  // Every page plus every fetch (the BusWatcher default).
  static WatchPages all() {
    WatchPages pages;
    pages.reads.set();
    pages.writes.set();
    pages.fetches = true;
    return pages;
  }
  // Add the pages covering [first, last] (nothing when first > last).
  void add_reads(uint16_t first, uint16_t last) { add(reads, first, last); }
  void add_writes(uint16_t first, uint16_t last) { add(writes, first, last); }
  // Put the pages lying wholly inside [first, last] in fetch `region`
  // (a partly covered page keeps its region).
  void set_fetch_region(uint16_t first, uint16_t last, uint8_t region) {
    for (unsigned page = 0; page < 256; ++page) {
      if (page * 256u >= first && page * 256u + 255u <= last) {
        fetch_regions[page] = region;
      }
    }
  }

 private:
  static void add(std::bitset<256>& set, uint16_t first, uint16_t last) {
    for (unsigned page = first >> 8u; first <= last && page <= (last >> 8u);
         ++page) {
      set.set(page);
    }
  }
};

// Bus-snooping hardware monitor. Return false from an on_* hook to
// deny the access; record the violation reason internally (the machine
// queries the monitor afterwards). Hooks fire only for what
// watched_pages() declares.
class BusWatcher {
 public:
  virtual ~BusWatcher() = default;
  // Declared once, by Bus::add_watcher; the answer must not change
  // afterwards. Default: every page plus every fetch.
  virtual WatchPages watched_pages() const { return WatchPages::all(); }
  // Instruction fetch beginning at pc. `prev_pc` is the fetch before
  // it, or nullopt for the first fetch after a CPU reset or after this
  // watcher was attached.
  virtual bool on_fetch(uint16_t pc, std::optional<uint16_t> prev_pc) {
    (void)pc;
    (void)prev_pc;
    return true;
  }
  virtual bool on_read(uint16_t addr, uint16_t pc) {
    (void)addr;
    (void)pc;
    return true;
  }
  virtual bool on_write(uint16_t addr, uint16_t value, bool byte, uint16_t pc) {
    (void)addr;
    (void)value;
    (void)byte;
    (void)pc;
    return true;
  }
};

class Bus {
 public:
  Bus();

  // --- CPU-visible accesses (watched, peripheral-aware). ---
  // `pc` attributes the access to the currently executing instruction.
  // Only watchers that declared the page are asked. Denied reads return
  // 0xFFFF; denied writes are dropped. Either sets access_denied()
  // until cleared.
  uint16_t read_word(uint16_t addr, uint16_t pc) {
    addr &= 0xFFFE;  // word accesses are even-aligned (LSB ignored, as in hw)
    if ((pages_[addr >> 8] & kReadWatched) && !check_read(addr, pc)) {
      return 0xFFFF;
    }
    if (is_periph(addr)) return periph_read_word(addr);
    return raw_word(addr);
  }
  uint8_t read_byte(uint16_t addr, uint16_t pc) {
    if ((pages_[addr >> 8] & kReadWatched) && !check_read(addr, pc)) {
      return 0xFF;
    }
    if (is_periph(addr)) return periph_read_byte(addr);
    return mem_.read(addr);
  }
  void write_word(uint16_t addr, uint16_t value, uint16_t pc) {
    addr &= 0xFFFE;
    if ((pages_[addr >> 8] & kWriteWatched) &&
        !check_write(addr, value, /*byte=*/false, pc)) {
      return;
    }
    if (is_periph(addr)) {
      periph_write(addr, value);
      return;
    }
    note_code_store(addr);
    mem_.write_word(addr, value);
  }
  void write_byte(uint16_t addr, uint8_t value, uint16_t pc) {
    if ((pages_[addr >> 8] & kWriteWatched) &&
        !check_write(addr, value, /*byte=*/true, pc)) {
      return;
    }
    if (is_periph(addr)) {
      periph_write(addr & 0xFFFE, value);
      return;
    }
    note_code_store(addr);
    mem_.write(addr, value);
  }

  // Instruction-fetch notification to the watchers that declared
  // fetches; false if one denied it. Skipped (one byte load, no call)
  // when this fetch and its predecessor share a fetch region of every
  // fetch watcher -- always, when there is none.
  bool notify_fetch(uint16_t pc) {
    const uint8_t region = pages_[pc >> 8] >> kRegionShift;
    const uint8_t prev_region = last_region_;
    const uint16_t prev = last_fetch_;
    last_fetch_ = pc;
    last_region_ = region;
    if (region != 0 && region == prev_region) return true;
    return notify_fetch_slow(pc, prev_region == kNoPredecessor
                                     ? std::nullopt
                                     : std::optional<uint16_t>(prev));
  }
  // The CPU restarted from its reset vector: the next fetch has no
  // predecessor (Cpu::power_on_reset calls this).
  void forget_last_fetch() { last_region_ = kNoPredecessor; }

  bool access_denied() const { return access_denied_; }
  void clear_access_denied() { access_denied_ = false; }

  // --- Raw accesses (image loading, decode, host inspection). ---
  // No watchers, no peripherals: backing memory only.
  uint16_t raw_word(uint16_t addr) const {
    return mem_.read_word(addr & 0xFFFE);
  }
  uint8_t raw_byte(uint16_t addr) const { return mem_.read(addr); }
  void raw_store_word(uint16_t addr, uint16_t value) {
    addr &= 0xFFFE;
    note_code_store(addr);
    mem_.write_word(addr, value);
  }
  void raw_store_byte(uint16_t addr, uint8_t value) {
    note_code_store(addr);
    mem_.write(addr, value);
  }
  // Bulk image load (wraps at the top of the address space like the
  // byte-at-a-time loop it replaces).
  void raw_store_bytes(uint16_t addr, std::span<const uint8_t> bytes);
  // True iff backing memory over [first, last] reads exactly
  // image[addr] (a 64 KiB image); see PagedMemory::range_equals --
  // pages still viewing `image` itself pass on a pointer compare.
  bool raw_range_equals(uint16_t first, uint16_t last,
                        const std::vector<uint8_t>& image) const {
    return mem_.range_equals(first, last, image);
  }

  // Monotonic counter of stores that landed at or above the code floor
  // (secure ROM, the unmapped gap, and PMEM). A predecoded image
  // snapshot is valid only while this counter holds the value it had
  // when the image was attached; any later code store invalidates it
  // and the CPU falls back to interpretive decode (see Cpu::step).
  uint64_t code_generation() const { return code_generation_; }

  // --- Wiring. ---
  // Attach a watcher: reads its watched_pages() once and folds them
  // into the bus's masks. Order of attachment = order of checks.
  void add_watcher(BusWatcher* watcher);
  // True when some attached watcher can be asked about (and deny) an
  // access or a fetch.
  bool has_watchers() const {
    return !read_watchers_.empty() || !write_watchers_.empty() ||
           !fetch_watchers_.empty();
  }
  void add_peripheral(Peripheral* peripheral);
  void tick_peripherals(uint64_t cycles) {
    bool irq_moved = false;
    for (auto* p : peripherals_) irq_moved |= p->tick(cycles);
    if (irq_moved) irq_dirty_ = true;
    horizon_dirty_ = true;  // time advanced; every horizon shrank
  }

  // --- Batched (superblock) peripheral time. ---
  // The block core retires several instructions per dispatch and owes
  // the peripherals their cycles only at observation points: accrue
  // per retired instruction; the debt persists across blocks and is
  // flushed wherever peripheral time becomes observable -- any CPU
  // peripheral register access (see periph_read_*/periph_write), every
  // IRQ-deliverability check, the per-step fallback, device reset, and
  // run() exit. A mid-block register read therefore observes exactly
  // the state the per-instruction core would have ticked it to: the
  // debt at that point is precisely the cycles of every retired-but-
  // unticked instruction before it.
  void accrue_ticks(uint64_t cycles) { tick_debt_ += cycles; }
  uint64_t tick_debt() const { return tick_debt_; }
  void flush_ticks() {
    if (tick_debt_ != 0) {
      uint64_t debt = tick_debt_;
      tick_debt_ = 0;
      tick_peripherals(debt);
    }
  }
  // Earliest cycle horizon at which ticking alone could assert a new
  // interrupt line (min over peripherals; kIrqNever when none can),
  // measured from the last tick flush. Cached: the block core consults
  // it once per dispatch, so the virtual sweep only reruns after
  // peripheral state or time actually moved.
  uint64_t cycles_until_irq() const {
    if (horizon_dirty_) {
      uint64_t horizon = Peripheral::kIrqNever;
      for (auto* p : peripherals_) {
        uint64_t c = p->cycles_to_irq();
        if (c < horizon) horizon = c;
      }
      horizon_cache_ = horizon;
      horizon_dirty_ = false;
    }
    return horizon_cache_;
  }
  // Highest-priority asserted line, or -1. Cached: recomputed only
  // after something that can move an interrupt line (tick/ack/register
  // access/reset) -- or after invalidate_irq_cache().
  int pending_irq() const {
    if (irq_dirty_) {
      irq_cache_ = compute_pending_irq();
      irq_dirty_ = false;
    }
    return irq_cache_;
  }
  void ack_irq(int line);
  void reset_peripherals();
  // True when any CPU access touched a peripheral register since the
  // last clear. The block core ends a block at such an instruction: a
  // register access can change interrupt state instantly (UART enable
  // with buffered input), and the per-instruction core re-checks
  // deliverability right after -- so must the block core.
  bool periph_touched() const { return periph_touched_; }
  void clear_periph_touched() { periph_touched_ = false; }
  // Force the next pending_irq() to recompute. Machine::run calls this
  // on entry so host-side stimulus injected between runs (Uart::feed
  // and friends bypass the bus) is observed immediately.
  void invalidate_irq_cache() {
    irq_dirty_ = true;
    horizon_dirty_ = true;
  }

  // Zero RAM and secure RAM (CASU reset wipes volatile state; PMEM and
  // ROM persist). A page-map edit, not a fill: wiped pages read the
  // shared zero page until the next store re-materializes them.
  void wipe_volatile();

  // --- copy-on-write base image (fleet memory diet) -----------------
  // Attach (or swap) the immutable flat image this device's memory is
  // a copy-on-write overlay of -- every page the device never wrote
  // reads the shared image directly, so N sessions of one build cost
  // one image plus their private dirty pages. Owned pages keep their
  // bytes across a swap. Conservatively bumps the code generation:
  // callers re-attach decode tables afterwards (DeviceSession does).
  void attach_base_image(std::shared_ptr<const std::vector<uint8_t>> base) {
    mem_.attach_base(std::move(base));
    ++code_generation_;
  }
  const std::shared_ptr<const std::vector<uint8_t>>& base_image() const {
    return mem_.base();
  }
  // Restore [first, last] to the attached base image (reflash): full
  // pages are pointer resets, owned pages are recycled. Counts as a
  // code store when the range reaches the code floor.
  void reset_range_to_base(uint16_t first, uint16_t last) {
    mem_.reset_range_to_base(first, last);
    if (last >= kRomStart) ++code_generation_;
  }
  // Drop owned pages in [first, last] whose bytes already equal the
  // base -- content-preserving, so the code generation is untouched.
  // Called after a base swap to return update-written pages to shared.
  void reclaim_identical_pages(uint16_t first, uint16_t last) {
    mem_.reclaim_identical(first, last);
  }
  // Private memory this device holds beyond the shared image --
  // materialized pages plus page tables (bench_fleet_10k's per-device
  // gate reads this).
  size_t resident_memory_bytes() const { return mem_.resident_bytes(); }
  size_t owned_pages() const { return mem_.owned_pages(); }

 private:
  Peripheral* peripheral_at(uint16_t addr) const {
    return addr <= kPeriphEnd ? periph_map_[addr] : nullptr;
  }
  bool check_read(uint16_t addr, uint16_t pc);
  bool check_write(uint16_t addr, uint16_t value, bool byte, uint16_t pc);
  bool notify_fetch_slow(uint16_t pc, std::optional<uint16_t> prev_pc);
  uint16_t periph_read_word(uint16_t addr);
  uint8_t periph_read_byte(uint16_t addr);
  void periph_write(uint16_t addr, uint16_t value);
  int compute_pending_irq() const;
  // Everything at or above the secure ROM can hold code reachable by a
  // predecoded range's extension-word reads; stores below it are plain
  // data traffic and never touch the decode cache.
  void note_code_store(uint16_t addr) {
    if (addr >= kRomStart) ++code_generation_;
  }

  PagedMemory mem_;
  std::vector<BusWatcher*> read_watchers_;   // declared some read page
  std::vector<BusWatcher*> write_watchers_;  // declared some write page
  std::vector<BusWatcher*> fetch_watchers_;
  // One byte per page: whether some watcher polices reads / writes
  // there, and the page's combined fetch region (two pages share one
  // iff every fetch watcher puts both in the same nonzero region of
  // its own; 0 reports every fetch there). kNoPredecessor is the
  // region of "no fetch yet" and matches no page.
  static constexpr uint8_t kReadWatched = 1;
  static constexpr uint8_t kWriteWatched = 2;
  static constexpr unsigned kRegionShift = 2;
  static constexpr uint8_t kNoPredecessor = 0xFF >> kRegionShift;
  std::array<uint8_t, 256> pages_ = no_fetch_watcher_pages();
  uint16_t last_fetch_ = 0;
  uint8_t last_region_ = kNoPredecessor;

  // No fetch watcher: one region, so every fetch pair is quiet.
  static std::array<uint8_t, 256> no_fetch_watcher_pages() {
    std::array<uint8_t, 256> pages;
    pages.fill(1 << kRegionShift);
    return pages;
  }
  std::vector<Peripheral*> peripherals_;
  std::array<Peripheral*, kPeriphEnd + 1> periph_map_{};
  bool access_denied_ = false;
  bool periph_touched_ = false;
  uint64_t code_generation_ = 0;
  uint64_t tick_debt_ = 0;
  mutable bool irq_dirty_ = true;
  mutable int irq_cache_ = -1;
  mutable bool horizon_dirty_ = true;
  mutable uint64_t horizon_cache_ = 0;
};

}  // namespace eilid::sim

#endif  // EILID_SIM_BUS_H
