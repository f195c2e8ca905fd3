#include "sim/bus.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/error.h"

namespace eilid::sim {

Bus::Bus() = default;

void Bus::add_peripheral(Peripheral* peripheral) {
  for (auto* existing : peripherals_) {
    if (peripheral->first_addr() <= existing->last_addr() &&
        existing->first_addr() <= peripheral->last_addr()) {
      throw ConfigError("peripheral address ranges overlap");
    }
  }
  if (peripheral->last_addr() > kPeriphEnd) {
    throw ConfigError("peripheral range extends past the peripheral space");
  }
  peripherals_.push_back(peripheral);
  for (uint32_t a = peripheral->first_addr(); a <= peripheral->last_addr(); ++a) {
    periph_map_[a] = peripheral;
  }
  irq_dirty_ = true;
  horizon_dirty_ = true;
}

void Bus::add_watcher(BusWatcher* watcher) {
  const WatchPages declared = watcher->watched_pages();
  if (declared.reads.any()) read_watchers_.push_back(watcher);
  if (declared.writes.any()) write_watchers_.push_back(watcher);
  // A page's new combined fetch region is the pair (old combined
  // region, the watcher's region), numbered from 1; a zero on either
  // side, or running out of numbers, reports every fetch there.
  std::vector<std::pair<uint8_t, uint8_t>> regions;
  for (size_t page = 0; page < 256; ++page) {
    uint8_t flags = pages_[page] & (kReadWatched | kWriteWatched);
    if (declared.reads[page]) flags |= kReadWatched;
    if (declared.writes[page]) flags |= kWriteWatched;
    uint8_t region = pages_[page] >> kRegionShift;
    if (declared.fetches) {
      const std::pair<uint8_t, uint8_t> key{region,
                                            declared.fetch_regions[page]};
      region = 0;
      if (key.first != 0 && key.second != 0) {
        auto it = std::find(regions.begin(), regions.end(), key);
        if (it == regions.end()) it = regions.insert(regions.end(), key);
        const size_t id = static_cast<size_t>(it - regions.begin()) + 1;
        if (id < kNoPredecessor) region = static_cast<uint8_t>(id);
      }
    }
    pages_[page] = static_cast<uint8_t>(flags | (region << kRegionShift));
  }
  if (declared.fetches) fetch_watchers_.push_back(watcher);
  forget_last_fetch();  // the new watcher has seen no fetch yet
}

bool Bus::check_read(uint16_t addr, uint16_t pc) {
  for (BusWatcher* w : read_watchers_) {
    if (!w->on_read(addr, pc)) {
      access_denied_ = true;
      return false;
    }
  }
  return true;
}

bool Bus::check_write(uint16_t addr, uint16_t value, bool byte, uint16_t pc) {
  for (BusWatcher* w : write_watchers_) {
    if (!w->on_write(addr, value, byte, pc)) {
      access_denied_ = true;
      return false;
    }
  }
  return true;
}

bool Bus::notify_fetch_slow(uint16_t pc, std::optional<uint16_t> prev_pc) {
  for (BusWatcher* w : fetch_watchers_) {
    if (!w->on_fetch(pc, prev_pc)) {
      access_denied_ = true;
      return false;
    }
  }
  return true;
}

uint16_t Bus::periph_read_word(uint16_t addr) {
  flush_ticks();  // the register must reflect all cycles retired so far
  irq_dirty_ = true;  // register reads can move irq state (rx consume)
  horizon_dirty_ = true;
  periph_touched_ = true;
  if (auto* p = peripheral_at(addr)) return p->read(addr);
  return 0;
}

uint8_t Bus::periph_read_byte(uint16_t addr) {
  flush_ticks();
  irq_dirty_ = true;
  horizon_dirty_ = true;
  periph_touched_ = true;
  if (auto* p = peripheral_at(addr)) {
    uint16_t v = p->read(addr & 0xFFFE);
    return (addr & 1) ? static_cast<uint8_t>(v >> 8) : static_cast<uint8_t>(v);
  }
  return 0;
}

void Bus::periph_write(uint16_t addr, uint16_t value) {
  flush_ticks();
  irq_dirty_ = true;  // register writes can enable/clear irq sources
  horizon_dirty_ = true;
  periph_touched_ = true;
  if (auto* p = peripheral_at(addr)) p->write(addr, value);
}

void Bus::raw_store_bytes(uint16_t addr, std::span<const uint8_t> bytes) {
  if (bytes.empty()) return;
  mem_.store_bytes(addr, bytes.data(), bytes.size());
  const size_t until_top = static_cast<size_t>(0x10000 - addr);
  const uint32_t last = addr + static_cast<uint32_t>(bytes.size()) - 1;
  if (last >= kRomStart || bytes.size() > until_top) ++code_generation_;
}

int Bus::compute_pending_irq() const {
  int best = -1;
  for (auto* p : peripherals_) {
    int line = p->pending_irq();
    if (line > best) best = line;  // higher vector index = higher priority
  }
  return best;
}

void Bus::ack_irq(int line) {
  irq_dirty_ = true;
  horizon_dirty_ = true;
  for (auto* p : peripherals_) {
    if (p->pending_irq() == line) {
      p->ack_irq();
      return;
    }
  }
}

void Bus::reset_peripherals() {
  irq_dirty_ = true;
  horizon_dirty_ = true;
  for (auto* p : peripherals_) p->reset();
}

void Bus::wipe_volatile() {
  mem_.zero_range(kRamStart, kRamEnd);
  mem_.zero_range(kSecureRamStart, kSecureRamEnd);
}

}  // namespace eilid::sim
