// Superblock execution engine: block-granular dispatch must be
// architecturally invisible. Every case here runs the same program
// three ways -- interpretive, the shared code table stepped one entry
// at a time (a wants_step() monitor stands block dispatch down), and
// block dispatch -- and demands bit-identical final machine state
// (registers, cycles, retired instructions, reset log and any RAM the
// program wrote) -- plus proof the block run actually dispatched
// blocks, so the equality is not vacuous. Each program runs under all
// four enforcement policies: block runs chain with monitors attached,
// so the CASU / EILID bus hooks and the CFA transfer log must see the
// same accesses, denials and edges whether a block was chained or
// dispatched alone. The cases target the block engine's hard edges: a
// store into the currently executing block, an interrupt landing
// mid-block, the decode boundary at the top of memory, an indirect
// branch into the middle of another entry's run, a chain ended by a
// watcher (denied PMEM store, off-gate ROM entry, a violation report
// from EILIDsw), interrupts held back by ROM atomicity or by a clear
// GIE, and fleet-wide sharing of one immutable code table per build.
// One invariant pins the table itself: every slot's block fields equal
// a naive forward walk over the decoded entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/apps.h"
#include "cfa/attestation.h"
#include "eilid/fleet.h"
#include "eilid/config.h"
#include "eilid/pipeline.h"
#include "eilid/rom_builder.h"
#include "isa/decoded_image.h"
#include "isa/encoder.h"
#include "masm/assembler.h"
#include "sim/memory_map.h"
#include "sim/monitor.h"

namespace eilid {
namespace {

// One way to run a program. `per_step` attaches a bare monitor whose
// wants_step() is true: the superblock session then takes Cpu::step()'s
// per-entry table path everywhere, which keeps that path under the
// interpretive oracle too.
struct Variant {
  ExecutionEngine engine;
  bool per_step;

  std::string name() const {
    return std::string(execution_engine_name(engine)) +
           (per_step ? "-stepped" : "");
  }
  // Whether this variant must dispatch blocks (and only this one may).
  bool dispatches_blocks() const {
    return engine == ExecutionEngine::kSuperblock && !per_step;
  }
};

constexpr Variant kVariants[] = {
    {ExecutionEngine::kInterpretive, false},
    {ExecutionEngine::kSuperblock, true},
    {ExecutionEngine::kSuperblock, false},
};

// Everything a program run can observably produce. RAM words to compare
// are listed explicitly per case (ram_from, ram_words).
struct FinalState {
  std::array<uint16_t, 16> regs{};
  uint64_t cycles = 0;
  uint64_t retired = 0;
  std::vector<std::tuple<uint64_t, uint16_t, uint8_t>> resets;
  std::vector<uint16_t> ram;

  bool operator==(const FinalState&) const = default;
};

FinalState capture(sim::Machine& m, uint16_t ram_from = 0,
                   size_t ram_words = 0) {
  FinalState out;
  for (int i = 0; i < 16; ++i) out.regs[static_cast<size_t>(i)] = m.cpu().reg(i);
  out.cycles = m.cycles();
  out.retired = m.cpu().instructions_retired();
  for (const sim::ResetEvent& e : m.resets()) {
    out.resets.emplace_back(e.cycle, e.pc, static_cast<uint8_t>(e.reason));
  }
  for (size_t i = 0; i < ram_words; ++i) {
    out.ram.push_back(m.bus().raw_word(static_cast<uint16_t>(ram_from + 2 * i)));
  }
  return out;
}

std::shared_ptr<const core::BuildResult> build_of(const char* source) {
  return std::make_shared<const core::BuildResult>(
      core::build_app(source, "superblock-case", {.eilid = false}));
}

// The same program, unmodified, flashed next to the EILIDsw ROM: the
// CASU monitor then enforces the ROM entry and leave sections, and
// kEilidHw accepts the build. `.equ` lines for the ROM's veneers and
// two of its body labels are prepended, so a program can call the
// stubs directly or jump off-gate.
std::shared_ptr<const core::BuildResult> build_with_rom(const char* source) {
  core::RomInfo rom = core::build_rom();
  std::string src;
  for (const char* name : core::kVeneerNames) {
    src += ".equ " + std::string(name) + ", " +
           std::to_string(rom.unit.symbols.at(name)) + "\n";
  }
  for (const char* name : {"S_EILID_store_ra", "S_EILID_check_ra"}) {
    src += ".equ " + std::string(name) + ", " +
           std::to_string(rom.unit.symbols.at(name)) + "\n";
  }
  auto build = std::make_shared<core::BuildResult>();
  build->rom = std::move(rom);
  build->app = masm::assemble_text(src + source, "superblock-rom-case");
  core::attach_tables(*build);
  return build;
}

// How a case drives each device: the budget, an optional breakpoint
// symbol, UART bytes fed before the run, and the RAM window compared.
struct RunSpec {
  uint64_t budget = 10000;
  const char* until = nullptr;  // null: run the whole budget
  std::string uart;
  uint16_t ram_from = 0;
  size_t ram_words = 0;
};

struct Outcome {
  FinalState state;
  uint64_t blocks = 0;
  uint64_t dispatches = 0;
  std::optional<cfa::Report> report;  // kCfaBaseline only
};

// Runs `build` under `policy` on every variant (halting at the first
// enforcement reset) and returns each variant's outcome, in kVariants
// order.
std::vector<Outcome> run_variants(std::shared_ptr<const core::BuildResult> build,
                                  EnforcementPolicy policy,
                                  const std::string& tag, const RunSpec& spec) {
  std::vector<Outcome> out;
  for (const Variant& v : kVariants) {
    sim::Monitor step_pin;
    DeviceSession dev(
        tag + "-" + std::string(enforcement_policy_name(policy)) + "-" +
            v.name(),
        build, policy, {.halt_on_reset = true, .engine = v.engine});
    if (v.per_step) dev.machine().add_monitor(&step_pin);
    if (!spec.uart.empty()) dev.machine().uart().feed(spec.uart);
    if (spec.until != nullptr) {
      dev.run_to_symbol(spec.until, spec.budget);
    } else {
      dev.machine().run(spec.budget);
    }
    Outcome o;
    o.state = capture(dev.machine(), spec.ram_from, spec.ram_words);
    o.blocks = dev.machine().blocks_executed();
    o.dispatches = dev.machine().block_dispatches();
    if (dev.cfa_monitor() != nullptr) {
      o.report =
          dev.cfa_monitor()->take_report(0xA5A5, dev.machine().cycles());
    }
    out.push_back(std::move(o));
  }
  return out;
}

// Every variant agrees with the interpretive run on the final state
// and, under kCfaBaseline, on the attestation evidence: same edges in
// the same order, same drop count, same MAC. A block engine that
// reported transfers at wrong boundaries, merged edges or skipped the
// denied store would forge different evidence. Only the block variant
// may dispatch blocks, and it must.
void expect_identical(const std::vector<Outcome>& runs, const std::string& tag) {
  for (size_t i = 0; i < runs.size(); ++i) {
    const std::string where = tag + " " + kVariants[i].name();
    if (kVariants[i].dispatches_blocks()) {
      EXPECT_GT(runs[i].blocks, 0u) << where;
      EXPECT_GT(runs[i].dispatches, 0u) << where;
    } else {
      EXPECT_EQ(runs[i].blocks, 0u) << where;
    }
    if (i == 0) continue;
    EXPECT_EQ(runs[i].state, runs[0].state) << where;
    ASSERT_EQ(runs[i].report.has_value(), runs[0].report.has_value()) << where;
    if (!runs[0].report) continue;
    EXPECT_FALSE(runs[0].report->edges.empty()) << tag;
    EXPECT_EQ(runs[i].report->edges, runs[0].report->edges) << where;
    EXPECT_EQ(runs[i].report->dropped, runs[0].report->dropped) << where;
    EXPECT_EQ(runs[i].report->cycle, runs[0].report->cycle) << where;
    EXPECT_EQ(runs[i].report->mac, runs[0].report->mac) << where;
  }
}

// The block variant's outcome (the one that chains).
const Outcome& block_run(const std::vector<Outcome>& runs) {
  return runs.back();
}

// The monitored half of every differential: kCasu and kCfaBaseline on
// the plain build, and all three monitored policies on the same
// program flashed next to the ROM (kEilidHw needs it; under kCasu and
// kCfaBaseline it arms the ROM gates).
void expect_monitored_identical(const char* source, const std::string& tag,
                                const RunSpec& spec) {
  auto plain = build_of(source);
  auto with_rom = build_with_rom(source);
  for (EnforcementPolicy policy :
       {EnforcementPolicy::kCasu, EnforcementPolicy::kCfaBaseline}) {
    expect_identical(run_variants(plain, policy, tag, spec), tag);
  }
  for (EnforcementPolicy policy :
       {EnforcementPolicy::kCasu, EnforcementPolicy::kCfaBaseline,
        EnforcementPolicy::kEilidHw}) {
    expect_identical(run_variants(with_rom, policy, tag + "-rom", spec),
                     tag + "-rom");
  }
}

// ------------------------------------------------- self-modifying store

// The second instruction of main's straight-line run overwrites the
// fourth (`victim`) with the donor word (`incd r13`), while the block
// containing both is executing. The generation check must end the
// block at the patching store so the victim re-decodes from memory:
// r12 stays 0 and r13 becomes 2. A block engine that kept running its
// stale table would execute the original `inc r12`.
const char* kStoreIntoOwnBlock = R"(.equ DSTA, 0xE00A
.equ SRCA, 0xE010
.org 0xE000
main:
    mov #0x1000, r1
    mov &SRCA, &DSTA
victim:
    inc r12
halt:
    jmp halt
.org 0xE010
donor:
    incd r13
.vector 15, main
)";

TEST(Superblock, SelfModifyingStoreIntoExecutingBlock) {
  auto build = build_of(kStoreIntoOwnBlock);
  ASSERT_NE(build->decoded_image, nullptr);
  // The victim sits mid-run: the suffix at main spans the store, the
  // victim and the jmp terminator.
  const auto* entry = build->decoded_image->lookup(0xE000);
  ASSERT_NE(entry, nullptr);
  EXPECT_GE(entry->span, 4u);

  std::vector<FinalState> states;
  for (const Variant& v : kVariants) {
    sim::Monitor step_pin;
    DeviceSession dev("selfmod-" + v.name(), build, EnforcementPolicy::kNone,
                      {.engine = v.engine});
    if (v.per_step) dev.machine().add_monitor(&step_pin);
    auto result = dev.run_to_symbol("halt", 10000);
    EXPECT_EQ(result.cause, sim::StopCause::kBreakpoint);
    EXPECT_EQ(dev.machine().cpu().reg(12), 0) << v.name();
    EXPECT_EQ(dev.machine().cpu().reg(13), 2) << v.name();
    if (v.dispatches_blocks()) {
      EXPECT_GT(dev.machine().blocks_executed(), 0u);
    } else {
      EXPECT_EQ(dev.machine().blocks_executed(), 0u) << v.name();
    }
    if (v.engine == ExecutionEngine::kSuperblock) {
      // The patched build table is stale for good: the device fell back
      // to interpretive decode at the patch and stays there.
      EXPECT_FALSE(dev.machine().cpu().decode_cache_valid()) << v.name();
    }
    states.push_back(capture(dev.machine()));
  }
  EXPECT_EQ(states[1], states[0]);
  EXPECT_EQ(states[2], states[0]);

  // Under CASU the store into program memory is *denied* and the device
  // resets -- at the identical instruction, with identical evidence, on
  // every engine.
  expect_monitored_identical(kStoreIntoOwnBlock, "selfmod", {.budget = 5000});
}

// ----------------------------------------------------------- IRQ timing

// The timer fires every 37 cycles while an 8-instruction straight-line
// block spins; almost every delivery lands mid-block. The ISR appends
// the *live value of r12* to a RAM log, so the exact instruction
// boundary of every delivery is frozen into memory: any engine that
// defers or advances an interrupt by even one instruction produces a
// different log.
const char* kIrqMidBlock = R"(.equ TIMER_CTL, 0x0100
.equ TIMER_CCR0, 0x0102
.equ TIMER_FLAGS, 0x0106
.org 0xE000
main:
    mov #0x1000, r1
    mov #0x0300, r15
    mov #37, &TIMER_CCR0
    mov #3, &TIMER_CTL
    eint
loop:
    inc r12
    inc r12
    inc r12
    inc r12
    inc r12
    inc r12
    inc r12
    inc r12
    cmp #40, r14
    jnz loop
    dint
halt:
    jmp halt
timer_isr:
    mov r12, 0(r15)
    incd r15
    inc r14
    clr &TIMER_FLAGS
    reti
.vector 15, main
.vector 8, timer_isr
)";

TEST(Superblock, IrqDeliversAtTheExactMidBlockBoundary) {
  auto build = build_of(kIrqMidBlock);
  std::vector<FinalState> states;
  for (const Variant& v : kVariants) {
    sim::Monitor step_pin;
    DeviceSession dev("irq-" + v.name(), build, EnforcementPolicy::kNone,
                      {.engine = v.engine});
    if (v.per_step) dev.machine().add_monitor(&step_pin);
    auto result = dev.run_to_symbol("halt", 200000);
    EXPECT_EQ(result.cause, sim::StopCause::kBreakpoint);
    EXPECT_EQ(dev.machine().cpu().reg(14), 40) << v.name();
    if (v.dispatches_blocks()) {
      EXPECT_GT(dev.machine().blocks_executed(), 0u);
    }
    // 40 logged r12 snapshots, one per delivery.
    states.push_back(capture(dev.machine(), 0x0300, 40));
  }
  // The log must not be trivially constant (deliveries really landed at
  // different spin counts).
  EXPECT_NE(states[0].ram.front(), states[0].ram.back());
  EXPECT_EQ(states[1], states[0]);
  EXPECT_EQ(states[2], states[0]);

  // Interrupt entries and retis are logged edges: the CFA evidence
  // pins every delivery boundary.
  expect_monitored_identical(kIrqMidBlock, "irq",
                             {.budget = 150000, .ram_from = 0x0300,
                              .ram_words = 40});
}

// ------------------------------------------------- top-of-memory bound

TEST(Superblock, BlockEndsAtRangeBoundary) {
  // Unit-level: a range whose last slot holds a plain (non-transfer)
  // instruction. The backward pass must stop the run there with
  // kRangeEnd -- the fall-through leaves the table.
  isa::Instruction inc = isa::Instruction::double_op(
      isa::Opcode::kAdd, isa::Operand::make_imm(1),
      isa::Operand::make_reg(12));
  std::vector<uint8_t> memory(0x10000, 0);
  for (uint32_t pc = 0xFF00; pc <= 0xFF0A; pc += 2) {
    auto words = isa::encode(inc, static_cast<uint16_t>(pc));
    ASSERT_EQ(words.size(), 1u);
    memory[pc] = static_cast<uint8_t>(words[0]);
    memory[pc + 1] = static_cast<uint8_t>(words[0] >> 8);
  }
  const isa::DecodedImage::Range range[] = {{0xFF00, 0xFF0A}};
  isa::DecodedImage decoded(memory, range);
  const auto* first = decoded.lookup(0xFF00);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->span, 6u);
  EXPECT_EQ(first->end, isa::BlockEnd::kRangeEnd);
  const auto* last = decoded.lookup(0xFF0A);
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->span, 1u);
  EXPECT_EQ(last->end, isa::BlockEnd::kRangeEnd);
}

// Machine-level: straight-line code high in PMEM runs off its own
// decoded tail into words that do not decode (the unused vector area).
// Every engine must fault at the same pc on the same cycle and reset
// identically.
const char* kRunsOffTheTop = R"(.org 0xE000
main:
    mov #0x1000, r1
    br #top
halt:
    jmp halt
.org 0xFFC0
top:
    inc r12
    inc r12
    inc r12
    inc r12
.vector 15, main
)";

TEST(Superblock, RunOffDecodedTailFaultsIdentically) {
  auto build = build_of(kRunsOffTheTop);
  std::vector<FinalState> states;
  for (const Variant& v : kVariants) {
    sim::Monitor step_pin;
    DeviceSession dev("top-" + v.name(), build, EnforcementPolicy::kNone,
                      {.engine = v.engine});
    if (v.per_step) dev.machine().add_monitor(&step_pin);
    dev.machine().set_halt_on_reset(true);
    auto result = dev.machine().run(10000);
    EXPECT_EQ(result.cause, sim::StopCause::kDeviceReset) << v.name();
    if (v.dispatches_blocks()) {
      EXPECT_GT(dev.machine().blocks_executed(), 0u);
    }
    // Power-on plus exactly one illegal-instruction trap at 0xFFC8 (the
    // first undecodable word after the inc run).
    ASSERT_EQ(dev.machine().resets().size(), 2u);
    EXPECT_EQ(dev.machine().resets()[1].pc, 0xFFC8);
    EXPECT_EQ(dev.machine().resets()[1].reason,
              sim::ResetReason::kIllegalInstruction);
    states.push_back(capture(dev.machine()));
  }
  EXPECT_EQ(states[1], states[0]);
  EXPECT_EQ(states[2], states[0]);

  expect_monitored_identical(kRunsOffTheTop, "top", {.budget = 10000});
}

// ------------------------------------------- indirect branch mid-block

// `br r10` lands in the middle of the straight-line run that starts at
// `blockstart`. The suffix table needs no splitting: the landing pc is
// itself a block entry whose run is exactly the tail.
const char* kIndirectToMidBlock = R"(.org 0xE000
main:
    mov #0x1000, r1
    mov #midblock, r10
    clr r12
    br r10
blockstart:
    inc r12
midblock:
    inc r12
    inc r12
halt:
    jmp halt
.vector 15, main
)";

TEST(Superblock, IndirectBranchToMidBlockPcDispatchesTheSuffix) {
  auto build = build_of(kIndirectToMidBlock);
  ASSERT_NE(build->decoded_image, nullptr);
  // blockstart = 0xE00C, midblock = 0xE00E (mov #imm,r1 and mov #imm,r10
  // are two words each; clr and br are one). The suffix at the landing
  // pc is strictly shorter than the leader's run that contains it.
  const auto* leader = build->decoded_image->lookup(0xE00C);
  const auto* suffix = build->decoded_image->lookup(0xE00E);
  ASSERT_NE(leader, nullptr);
  ASSERT_NE(suffix, nullptr);
  EXPECT_EQ(leader->span, 4u);  // inc, inc, inc, jmp
  EXPECT_EQ(suffix->span, 3u);  // inc, inc, jmp
  EXPECT_EQ(suffix->end, isa::BlockEnd::kTransfer);

  std::vector<FinalState> states;
  for (const Variant& v : kVariants) {
    sim::Monitor step_pin;
    DeviceSession dev("mid-" + v.name(), build, EnforcementPolicy::kNone,
                      {.engine = v.engine});
    if (v.per_step) dev.machine().add_monitor(&step_pin);
    auto result = dev.run_to_symbol("halt", 10000);
    EXPECT_EQ(result.cause, sim::StopCause::kBreakpoint);
    // The first inc (blockstart) was skipped: only the suffix ran.
    EXPECT_EQ(dev.machine().cpu().reg(12), 2) << v.name();
    if (v.dispatches_blocks()) {
      EXPECT_GT(dev.machine().blocks_executed(), 0u);
    }
    states.push_back(capture(dev.machine()));
  }
  EXPECT_EQ(states[1], states[0]);
  EXPECT_EQ(states[2], states[0]);

  // The indirect edge (br r10 -> midblock) must appear in the evidence
  // with the same from/to under block dispatch as interpretively.
  expect_monitored_identical(kIndirectToMidBlock, "mid", {.budget = 10000});
}

// ------------------------------------------- chains ended by a watcher

// Four blocks chain (main, a, b, c) before c's store into PMEM, which
// CASU denies: the store never lands and the device resets at it.
const char* kPmemStoreAfterChain = R"(.org 0xE000
main:
    mov #0x1000, r1
    jmp a
a:
    inc r12
    jmp b
b:
    inc r12
    jmp c
c:
    inc r12
store:
    mov #0xDEAD, &0xE100
halt:
    jmp halt
.vector 15, main
)";

TEST(Superblock, PmemStoreDeniedAfterChainedBlocks) {
  auto build = build_with_rom(kPmemStoreAfterChain);
  const uint16_t store = build->app.symbols.at("store");
  for (EnforcementPolicy policy :
       {EnforcementPolicy::kCasu, EnforcementPolicy::kCfaBaseline,
        EnforcementPolicy::kEilidHw}) {
    auto runs = run_variants(build, policy, "pmem", {.budget = 5000});
    expect_identical(runs, "pmem");
    const FinalState& state = runs[0].state;
    ASSERT_EQ(state.resets.size(), 2u);
    EXPECT_EQ(std::get<1>(state.resets[1]), store);
    EXPECT_EQ(std::get<2>(state.resets[1]),
              static_cast<uint8_t>(sim::ResetReason::kPmemWriteViolation));
    EXPECT_EQ(state.regs[12], 0) << "volatile state survived the reset";
    // The denial ended a chain: one machine-loop dispatch ran main, a,
    // b and c.
    EXPECT_GE(block_run(runs).blocks, 4u);
    EXPECT_LT(block_run(runs).dispatches, block_run(runs).blocks);
  }
}

// Three chained blocks, then a direct jump into the ROM body past its
// entry section: CASU denies the fetch of the first ROM instruction.
const char* kOffGateRomJump = R"(.org 0xE000
main:
    mov #0x1000, r1
    jmp a
a:
    inc r12
    jmp b
b:
    inc r12
    br #S_EILID_check_ra
halt:
    jmp halt
.vector 15, main
)";

TEST(Superblock, OffGateRomJumpEndsTheChain) {
  auto build = build_with_rom(kOffGateRomJump);
  const uint16_t target = build->rom.unit.symbols.at("S_EILID_check_ra");
  ASSERT_GT(target, build->rom.entry_end);
  for (EnforcementPolicy policy :
       {EnforcementPolicy::kCasu, EnforcementPolicy::kCfaBaseline,
        EnforcementPolicy::kEilidHw}) {
    auto runs = run_variants(build, policy, "gate", {.budget = 5000});
    expect_identical(runs, "gate");
    const FinalState& state = runs[0].state;
    ASSERT_EQ(state.resets.size(), 2u);
    EXPECT_EQ(std::get<1>(state.resets[1]), target);
    EXPECT_EQ(std::get<2>(state.resets[1]),
              static_cast<uint8_t>(sim::ResetReason::kRomEntryViolation));
    EXPECT_LT(block_run(runs).dispatches, block_run(runs).blocks);
  }
}

// A legal store_ra / check_ra pair through the entry gate, then a
// check_ra with a different return address: EILIDsw reports the
// mismatch by writing kViolationReg from ROM, and CASU resets with the
// reported reason. The whole sequence runs chained through ROM.
const char* kViolationReport = R"(.org 0xE000
main:
    mov #0x1000, r1
    mov #0x1234, r6
    call #NS_EILID_store_ra
    mov #0x1234, r6
    call #NS_EILID_check_ra
    inc r12
    mov #0x1234, r6
    call #NS_EILID_store_ra
    mov #0x5678, r6
    call #NS_EILID_check_ra
    inc r12
halt:
    jmp halt
.vector 15, main
)";

TEST(Superblock, ViolationReportFromRomEndsTheChain) {
  auto build = build_with_rom(kViolationReport);
  for (EnforcementPolicy policy :
       {EnforcementPolicy::kCasu, EnforcementPolicy::kCfaBaseline,
        EnforcementPolicy::kEilidHw}) {
    auto runs = run_variants(build, policy, "report", {.budget = 5000});
    expect_identical(runs, "report");
    const FinalState& state = runs[0].state;
    ASSERT_EQ(state.resets.size(), 2u);
    EXPECT_TRUE(sim::is_rom(std::get<1>(state.resets[1])));
    EXPECT_EQ(std::get<2>(state.resets[1]),
              static_cast<uint8_t>(sim::ResetReason::kCfiReturnMismatch));
    EXPECT_LT(block_run(runs).dispatches, block_run(runs).blocks);
  }
}

// -------------------------------------------- interrupts held pending

// The timer fires every 61 cycles while the loop spends most of its
// time inside EILIDsw, whose atomicity holds the line pending until
// the stub returns. The ISR logs the interrupted PC, so each delivery
// boundary after ROM exit is frozen into RAM.
const char* kIrqPendingInRom = R"(.equ TIMER_CTL, 0x0100
.equ TIMER_CCR0, 0x0102
.equ TIMER_FLAGS, 0x0106
.org 0xE000
main:
    mov #0x1000, r1
    mov #0x0300, r15
    mov #61, &TIMER_CCR0
    mov #3, &TIMER_CTL
    eint
loop:
    mov #0x1234, r6
    call #NS_EILID_store_ra
after_store:
    mov #0x1234, r6
    call #NS_EILID_check_ra
after_check:
    inc r12
    cmp #24, r14
    jl loop
    dint
halt:
    jmp halt
timer_isr:
    mov 2(r1), 0(r15)
    incd r15
    inc r14
    clr &TIMER_FLAGS
    reti
.vector 15, main
.vector 8, timer_isr
)";

TEST(Superblock, IrqPendingInRomDeliversAtTheSameBoundaryAfterExit) {
  auto build = build_with_rom(kIrqPendingInRom);
  const uint16_t after_store = build->app.symbols.at("after_store");
  const uint16_t after_check = build->app.symbols.at("after_check");
  for (EnforcementPolicy policy :
       {EnforcementPolicy::kCasu, EnforcementPolicy::kCfaBaseline,
        EnforcementPolicy::kEilidHw}) {
    auto runs = run_variants(build, policy, "romirq",
                             {.budget = 200000, .until = "halt",
                              .ram_from = 0x0300, .ram_words = 24});
    expect_identical(runs, "romirq");
    const FinalState& state = runs[0].state;
    EXPECT_GE(state.regs[14], 24);
    EXPECT_EQ(state.resets.size(), 1u);  // power-on only
    // No delivery lands inside ROM, and some land on the instruction
    // right after a stub returns: the line went pending in ROM and
    // waited for the exit.
    size_t after_stub = 0;
    for (uint16_t pc : state.ram) {
      EXPECT_FALSE(sim::is_rom(pc)) << pc;
      if (pc == after_store || pc == after_check) ++after_stub;
    }
    EXPECT_GT(after_stub, 0u);
    EXPECT_LT(block_run(runs).dispatches, block_run(runs).blocks);
  }
}

// A UART byte is waiting and its interrupt is enabled while GIE is
// clear; `eint` ends a block in the middle of a chain. The per-step
// core delivers the line right after `eint`, so the chain must stop
// there too: the ISR's log of r12 pins the boundary.
const char* kUartPendingBeforeEint = R"(.equ UART_RX, 0x0132
.equ UART_STAT, 0x0134
.org 0xE000
main:
    mov #0x1000, r1
    mov #0x0300, r15
    mov #4, &UART_STAT
    jmp a
a:
    inc r12
    jmp b
b:
    inc r12
    eint
    inc r12
    inc r12
    jmp c
c:
    inc r12
    dint
halt:
    jmp halt
uart_isr:
    mov r12, 0(r15)
    incd r15
    mov &UART_RX, r14
    reti
.vector 15, main
.vector 6, uart_isr
)";

TEST(Superblock, PendingIrqStopsTheChainWhenGieSets) {
  RunSpec spec{.budget = 10000, .until = "halt", .uart = "x",
               .ram_from = 0x0300, .ram_words = 2};
  for (EnforcementPolicy policy :
       {EnforcementPolicy::kNone, EnforcementPolicy::kCasu,
        EnforcementPolicy::kCfaBaseline}) {
    auto runs = run_variants(build_of(kUartPendingBeforeEint), policy,
                             "uart", spec);
    expect_identical(runs, "uart");
    EXPECT_EQ(runs[0].state.ram[0], 2) << "delivered right after eint";
    EXPECT_EQ(runs[0].state.regs[14], 'x');
  }
  auto runs = run_variants(build_with_rom(kUartPendingBeforeEint),
                           EnforcementPolicy::kEilidHw, "uart-rom", spec);
  expect_identical(runs, "uart-rom");
  EXPECT_EQ(runs[0].state.ram[0], 2);
}

// ------------------------------------------------- fleet-wide sharing

TEST(Superblock, FleetSharesOneCodeTablePerBuild) {
  Fleet fleet;
  auto build = fleet.build(kIndirectToMidBlock, "shared", {.eilid = false});
  ASSERT_NE(build->decoded_image, nullptr);

  std::vector<DeviceSession*> devices;
  for (int i = 0; i < 4; ++i) {
    // Default SessionOptions: the superblock engine.
    devices.push_back(
        &fleet.deploy("share-" + std::to_string(i), build,
                      EnforcementPolicy::kNone, {}));
  }
  for (DeviceSession* dev : devices) {
    // One immutable table per build -- every session points at it.
    EXPECT_EQ(dev->machine().cpu().decoded_image(), build->decoded_image.get());
    EXPECT_EQ(dev->build().decoded_image.get(), build->decoded_image.get());
  }
  // Interpretive reference plus every shared-table device agree on the
  // complete final state, and each shared device genuinely dispatched
  // blocks from the shared table.
  DeviceSession& reference =
      fleet.deploy("share-ref", build, EnforcementPolicy::kNone,
                   {.engine = ExecutionEngine::kInterpretive});
  reference.run_to_symbol("halt", 10000);
  const FinalState expected = capture(reference.machine());
  for (DeviceSession* dev : devices) {
    dev->run_to_symbol("halt", 10000);
    EXPECT_GT(dev->machine().blocks_executed(), 0u) << dev->id();
    EXPECT_EQ(capture(dev->machine()), expected) << dev->id();
  }
}

// ----------------------------------------------- table invariant

// The block fields of the slot at `pc`, recomputed the slow way: walk
// forward over the decoded entries from `pc`, following fall-throughs,
// until the first hazard.
isa::DecodedImage::Entry forward_walk(const isa::DecodedImage& image,
                                      uint16_t pc, uint16_t range_last) {
  isa::DecodedImage::Entry block;
  const isa::DecodedImage::Entry* e = image.lookup(pc);
  if (e->size_words == 0) return block;  // kNone, span 0
  for (;;) {
    ++block.span;
    block.block_cycles = static_cast<uint16_t>(block.block_cycles + e->cycles);
    if (isa::is_control_transfer(e->insn)) {
      block.end = isa::BlockEnd::kTransfer;
      if (e->format == isa::Format::kJump) {
        block.target = isa::Decoded{e->insn, pc, e->size_words}.jump_target();
      } else if (e->insn.op == isa::Opcode::kCall &&
                 e->insn.src.mode == isa::AddrMode::kImmediate) {
        block.target = static_cast<uint16_t>(e->insn.src.value & 0xFFFE);
      }
      return block;
    }
    if (isa::writes_status_register(e->insn)) {
      block.end = isa::BlockEnd::kSrWrite;
      return block;
    }
    const uint32_t next = pc + 2u * e->size_words;
    if (next > range_last) {
      block.end = isa::BlockEnd::kRangeEnd;
      return block;
    }
    pc = static_cast<uint16_t>(next);
    e = image.lookup(pc);
    if (e->size_words == 0) {
      block.end = isa::BlockEnd::kLeadsIllegal;
      return block;
    }
  }
}

TEST(Superblock, BlockFieldsEqualAForwardWalkOnEveryTableIvBuild) {
  const std::pair<uint16_t, uint16_t> ranges[] = {
      {sim::kRomStart, sim::kRomEnd}, {sim::kPmemStart, 0xFFFE}};
  size_t multi_instruction_blocks = 0;
  for (const apps::AppSpec& app : apps::table4_apps()) {
    for (bool eilid : {false, true}) {
      const core::BuildResult build =
          core::build_app(app.source, app.name, {.eilid = eilid});
      ASSERT_NE(build.decoded_image, nullptr);
      const isa::DecodedImage& image = *build.decoded_image;
      for (const auto& [first, last] : ranges) {
        for (uint32_t pc = first; pc <= last; pc += 2) {
          const auto* entry = image.lookup(static_cast<uint16_t>(pc));
          ASSERT_NE(entry, nullptr) << app.name << " pc " << pc;
          const isa::DecodedImage::Entry want =
              forward_walk(image, static_cast<uint16_t>(pc), last);
          ASSERT_EQ(entry->span, want.span) << app.name << " pc " << pc;
          ASSERT_EQ(entry->block_cycles, want.block_cycles)
              << app.name << " pc " << pc;
          ASSERT_EQ(entry->target, want.target) << app.name << " pc " << pc;
          ASSERT_EQ(entry->end, want.end) << app.name << " pc " << pc;
          if (entry->span > 1) ++multi_instruction_blocks;
        }
      }
    }
  }
  EXPECT_GT(multi_instruction_blocks, 0u);
}

}  // namespace
}  // namespace eilid
