#include "isa/decoded_image.h"

#include <array>

#include "isa/cycles.h"
#include "isa/registers.h"

namespace eilid::isa {

bool is_control_transfer(const Instruction& insn) {
  const OpcodeInfo& info = opcode_info(insn.op);
  switch (info.format) {
    case Format::kJump:
      return true;
    case Format::kDouble:
      return insn.dst.mode == AddrMode::kRegister && insn.dst.reg == kPC;
    case Format::kSingle:
      if (insn.op == Opcode::kCall || insn.op == Opcode::kReti) return true;
      // rrc/rra/swpb/sxt with PC as the read-modify-write operand.
      return insn.op != Opcode::kPush &&
             insn.src.mode == AddrMode::kRegister && insn.src.reg == kPC;
  }
  return false;
}

bool writes_status_register(const Instruction& insn) {
  const OpcodeInfo& info = opcode_info(insn.op);
  switch (info.format) {
    case Format::kJump:
      return false;
    case Format::kDouble:
      return insn.dst.mode == AddrMode::kRegister && insn.dst.reg == kSR;
    case Format::kSingle:
      // rrc/rra/swpb/sxt with SR as the read-modify-write operand.
      // push reads only; call/reti are control transfers.
      return insn.op != Opcode::kPush && insn.op != Opcode::kCall &&
             insn.op != Opcode::kReti &&
             insn.src.mode == AddrMode::kRegister && insn.src.reg == kSR;
  }
  return false;
}

// Block dispatch walks this table entry by entry; keep the instruction
// and block fields within 40 bytes so it stays as cache-dense as the
// two separate tables it replaced.
static_assert(sizeof(DecodedImage::Entry) <= 40);

DecodedImage::DecodedImage(std::span<const uint8_t> memory,
                           std::span<const Range> ranges) {
  auto word_at = [&memory](uint32_t addr) {
    // Word reads wrap within the 16-bit space, mirroring Bus::raw_word;
    // the decoder rejects instructions extending past 0xFFFF anyway, so
    // wrapped values never reach an executed instruction.
    return static_cast<uint16_t>(
        memory[addr & 0xFFFF] |
        (static_cast<uint16_t>(memory[(addr + 1) & 0xFFFF]) << 8));
  };

  tables_.reserve(ranges.size());
  for (const Range& range : ranges) {
    RangeTable table;
    table.first = range.first & 0xFFFE;
    table.last = range.last;
    table.entries.resize((static_cast<size_t>(table.last - table.first) >> 1) + 1);
    // Backward pass: decode each slot, then its run is its own
    // instruction plus the run of its fall-through slot (already built,
    // it sits higher), unless the instruction is itself a hazard or the
    // fall-through leaves the range.
    for (size_t i = table.entries.size(); i-- > 0;) {
      const uint32_t pc = table.first + 2 * static_cast<uint32_t>(i);
      std::array<uint16_t, 3> words = {word_at(pc), word_at(pc + 2),
                                       word_at(pc + 4)};
      auto decoded = decode(words, static_cast<uint16_t>(pc));
      if (!decoded) continue;  // size_words == span == 0: illegal slot
      Entry& entry = table.entries[i];
      entry.insn = decoded->insn;
      entry.next_address = decoded->next_address();
      entry.size_words = decoded->size_words;
      entry.cycles = static_cast<uint8_t>(instruction_cycles(decoded->insn));
      entry.format = opcode_info(decoded->insn.op).format;
      entry.span = 1;
      entry.block_cycles = entry.cycles;
      if (is_control_transfer(entry.insn)) {
        entry.end = BlockEnd::kTransfer;
        if (entry.format == Format::kJump) {
          entry.target = decoded->jump_target();
        } else if (entry.insn.op == Opcode::kCall &&
                   entry.insn.src.mode == AddrMode::kImmediate) {
          entry.target = static_cast<uint16_t>(entry.insn.src.value) & 0xFFFE;
        }
        continue;
      }
      if (writes_status_register(entry.insn)) {
        entry.end = BlockEnd::kSrWrite;
        continue;
      }
      if (pc + 2u * entry.size_words > table.last) {
        entry.end = BlockEnd::kRangeEnd;
        continue;
      }
      const Entry& succ = table.entries[i + entry.size_words];
      if (succ.span == 0) {
        // The successor slot does not decode. Stop before it so the
        // illegal trap fires from the per-instruction path.
        entry.end = BlockEnd::kLeadsIllegal;
        continue;
      }
      entry.span = static_cast<uint16_t>(1 + succ.span);
      entry.block_cycles = static_cast<uint16_t>(entry.cycles + succ.block_cycles);
      entry.target = succ.target;
      entry.end = succ.end;
    }
    tables_.push_back(std::move(table));
  }
}

}  // namespace eilid::isa
