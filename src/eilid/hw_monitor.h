// EILID hardware: CASU hardware plus the secure-memory extension for
// the shadow stack (paper §III-A -- "derived from CASU ... except for
// the secure memory extension reserved for the shadow stack"). The
// secure DMEM region is readable/writable only while the PC is inside
// the secure ROM; any other access is denied and resets the device.
#ifndef EILID_EILID_HW_MONITOR_H
#define EILID_EILID_HW_MONITOR_H

#include "casu/monitor.h"

namespace eilid::core {

struct EilidHwConfig {
  casu::CasuConfig casu;
  uint16_t secure_ram_start = sim::kSecureRamStart;
  uint16_t secure_ram_end = sim::kSecureRamEnd;
};

class EilidHwMonitor : public casu::CasuMonitor {
 public:
  explicit EilidHwMonitor(EilidHwConfig config = {})
      : casu::CasuMonitor(config.casu), config_(config) {}

  // CASU's pages plus the secure-RAM pages, for reads and writes.
  sim::WatchPages watched_pages() const override {
    sim::WatchPages pages = casu::CasuMonitor::watched_pages();
    pages.add_reads(config_.secure_ram_start, config_.secure_ram_end);
    pages.add_writes(config_.secure_ram_start, config_.secure_ram_end);
    return pages;
  }

  bool on_read(uint16_t addr, uint16_t pc) override {
    if (in_secure_ram(addr) && !in_rom(pc)) {
      return violate(sim::ResetReason::kSecureRamAccessViolation);
    }
    return casu::CasuMonitor::on_read(addr, pc);
  }

  bool on_write(uint16_t addr, uint16_t value, bool byte, uint16_t pc) override {
    if (in_secure_ram(addr) && !in_rom(pc)) {
      return violate(sim::ResetReason::kSecureRamAccessViolation);
    }
    return casu::CasuMonitor::on_write(addr, value, byte, pc);
  }

  bool in_secure_ram(uint16_t addr) const {
    return addr >= config_.secure_ram_start && addr <= config_.secure_ram_end;
  }

 private:
  EilidHwConfig config_;
};

}  // namespace eilid::core

#endif  // EILID_EILID_HW_MONITOR_H
