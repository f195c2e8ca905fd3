// Reproduces Figs. 3-8: the instrumentation patterns, shown as real
// before/after output of this repo's EILIDinst on the paper's example
// shapes (function call, return, ISR entry/exit, main-entry function
// registration, indirect call).
#include <cstdio>
#include <string>

#include "src/eilid/instrumenter.h"
#include "src/eilid/pipeline.h"
#include "src/masm/assembler.h"

using namespace eilid;

namespace {

const char* kExample = R"(.org 0xe000
.func bar
main:
    mov #0x1000, r1
    call #foo                   ; Fig. 3: direct call
    mov #bar, r13
    call r13                    ; Fig. 8: indirect call
halt:
    jmp halt

foo:
    mov #1, r10
    ret                         ; Fig. 4: function return

bar:
    mov #2, r10
    ret

isr:                            ; Fig. 5: ISR entry point
    inc r11
    reti                        ; Fig. 6: ISR return

.vector 15, main
.vector 8, isr
.end
)";

}  // namespace

int main() {
  core::RomInfo rom = core::build_rom();
  core::Instrumenter inst(core::InstrumentConfig{}, rom);

  auto original = masm::split_lines(kExample);
  masm::AssembledUnit build1 = masm::assemble(original, "example_1");
  core::InstrumentResult result = inst.instrument(original, &build1.listing);

  std::printf("Figs. 3-8: EILIDinst instrumentation patterns\n\n");
  std::printf("---- original ----\n");
  for (const auto& line : original) std::printf("%s\n", line.c_str());
  std::printf("\n---- instrumented (iteration 2; addresses shift once more "
              "in iteration 3) ----\n");
  for (const auto& line : result.lines) std::printf("%s\n", line.c_str());

  std::printf("\nsites: %d direct calls, %d returns, %d ISR prologues, %d "
              "ISR epilogues, %d indirect calls, %d functions registered\n",
              result.sites.direct_calls, result.sites.returns,
              result.sites.isr_prologues, result.sites.isr_epilogues,
              result.sites.indirect_calls, result.sites.functions_registered);
  return 0;
}
