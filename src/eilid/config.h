// EILID configuration: reserved registers (paper Table III), trusted
// function selectors, secure-DMEM layout, and instrumentation options.
#ifndef EILID_EILID_CONFIG_H
#define EILID_EILID_CONFIG_H

#include <cstdint>
#include <string>

#include "sim/memory_map.h"

namespace eilid::core {

// Reserved general-purpose registers (paper Table III).
inline constexpr uint8_t kSelectorReg = 4;  // r4: S_EILID function selector
inline constexpr uint8_t kIndexReg = 5;     // r5: shadow-stack index
inline constexpr uint8_t kArg0Reg = 6;      // r6: first argument
inline constexpr uint8_t kArg1Reg = 7;      // r7: second argument

// Selector values dispatched by the ROM entry section.
namespace sel {
inline constexpr int kInit = 0;
inline constexpr int kStoreRa = 1;
inline constexpr int kCheckRa = 2;
inline constexpr int kStoreRfi = 3;
inline constexpr int kCheckRfi = 4;
inline constexpr int kStoreInd = 5;
inline constexpr int kCheckInd = 6;
inline constexpr int kLock = 7;
}  // namespace sel

// Non-secure veneer names (what the instrumenter emits calls to).
inline constexpr const char* kVeneerNames[8] = {
    "NS_EILID_init",      "NS_EILID_store_ra",  "NS_EILID_check_ra",
    "NS_EILID_store_rfi", "NS_EILID_check_rfi", "NS_EILID_store_ind",
    "NS_EILID_check_ind", "NS_EILID_lock",
};

// EILIDsw / secure-DMEM configuration. Defaults reproduce the paper:
// 256 bytes of secure DMEM at 0x2000 holding the indirect-call table,
// lock word, table count and the shadow stack.
struct RomConfig {
  uint16_t secure_base = sim::kSecureRamStart;
  uint16_t secure_size = 256;
  uint16_t table_capacity = 16;  // indirect-call table entries
  // Shadow-stack entries; 0 = fill the remaining secure DMEM.
  uint16_t shadow_capacity = 0;
  // Ablation (paper §V-B): keep the shadow index in secure memory
  // instead of r5. Slower but frees r5 -- the paper argues r5-in-register
  // "obviates the need for memory access ... improving performance".
  bool memory_backed_index = false;

  // Derived layout.
  uint16_t tbl_count_addr() const { return secure_base; }
  uint16_t tbl_lock_addr() const { return static_cast<uint16_t>(secure_base + 2); }
  uint16_t idx_addr() const { return static_cast<uint16_t>(secure_base + 4); }
  uint16_t tbl_base_addr() const { return static_cast<uint16_t>(secure_base + 6); }
  uint16_t shadow_base_addr() const {
    return static_cast<uint16_t>(tbl_base_addr() + 2 * table_capacity);
  }
  uint16_t effective_shadow_capacity() const {
    if (shadow_capacity != 0) return shadow_capacity;
    uint16_t end = static_cast<uint16_t>(secure_base + secure_size);
    return static_cast<uint16_t>((end - shadow_base_addr()) / 2);
  }
};

// Which functions get registered in the P3 entry table.
enum class TablePolicy : uint8_t {
  // Only address-taken functions (.func declarations): the smallest
  // valid target set, analogous to address-taken CFI (default).
  kAddressTaken,
  // Every function (direct call targets + .func), as the paper
  // describes ("enumerates entry points of all functions"). Larger
  // table => weaker forward-edge precision; measured by an ablation.
  kAllFunctions,
};

// Instrumentation options (which properties to enforce and how return
// addresses are resolved).
struct InstrumentConfig {
  bool backward_edge = true;   // P1: call/ret
  bool interrupt_edge = true;  // P2: ISR prologue/epilogue
  bool forward_edge = true;    // P3: indirect calls + entry table
  TablePolicy table_policy = TablePolicy::kAddressTaken;
  // true: single-pass assembler-label return addresses (ablation);
  // false: the paper's numeric addresses from the previous iteration's
  // .lst, requiring the three-iteration build of Fig. 2.
  bool label_mode = false;
};

}  // namespace eilid::core

#endif  // EILID_EILID_CONFIG_H
