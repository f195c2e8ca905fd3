// Scenario-fuzzer soak: generative workloads + attack mutators through
// the differential harness (src/fuzz/harness.h). Every generated
// program runs under all four enforcement policies x both execution
// engines (interpretive, superblock) demanding bit-identical state and
// attestation evidence, pooled-vs-serial verifier sweeps must agree
// verdict for verdict, and every mutated case (diverted jumps,
// gadget-repointed dispatch tables, tampered reports, bit-flipped
// packages, corrupted chunk streams) must be convicted or refused. Any
// divergence FAILS the bench and prints the reproducing seed on stderr.
// The soak runs once, as one cell of the bench_util.h harness; its
// thread CPU time is reported, not gated.
//
// Reproduce a failure:
//   bench_fuzz_soak --seed 0x<printed seed> --programs 1 --mutations 1
// then minimize it with DifferentialHarness::shrink (see
// tests/test_fuzz_regressions.cpp for pinned examples).
//
// Usage: bench_fuzz_soak [--smoke] [--seed N] [--programs N] [--mutations N]
//   --smoke: the CI-sized bounded corpus (500 programs x 2 engines x 4
//   policies, plus >= 200 mutated cases); default is the larger local
//   soak.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/fuzz/harness.h"

using namespace eilid;
using namespace eilid::bench;

int main(int argc, char** argv) {
  bool smoke = false;
  fuzz::HarnessOptions options;
  options.programs = 2000;
  options.mutations = 64;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      options.programs = 500;
      options.mutations = 24;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      options.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--programs") == 0 && i + 1 < argc) {
      options.programs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--mutations") == 0 && i + 1 < argc) {
      options.mutations = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--seed N] [--programs N] "
                   "[--mutations N]\n",
                   argv[0]);
      return 2;
    }
  }
  std::printf("Scenario-fuzzer soak (%s: %d programs, %d mutation seeds, "
              "base seed 0x%llx)\n",
              smoke ? "smoke" : "full", options.programs, options.mutations,
              static_cast<unsigned long long>(options.seed));

  // One cell, run once: the same seed explores the same corpus.
  fuzz::HarnessReport report_out;
  Cells<std::vector<std::string>> cells;
  cells.add("soak", 1, [&](CellRun& run) {
    fuzz::DifferentialHarness harness(options);
    run.time("soak", [&] { report_out = harness.run(); });
    run.count("programs", static_cast<uint64_t>(report_out.programs));
    run.count("engine_runs", static_cast<uint64_t>(report_out.engine_runs));
    run.count("mutation_cases",
              static_cast<uint64_t>(report_out.mutation_cases));
    run.count("convicted", static_cast<uint64_t>(report_out.convicted));
    run.count("refused", static_cast<uint64_t>(report_out.refused));
    return report_out.failures;
  });
  cells.run(1);
  const fuzz::HarnessReport& report = report_out;

  std::printf("\n%-28s %d\n", "programs checked", report.programs);
  std::printf("%-28s %d\n", "engine x policy runs", report.engine_runs);
  std::printf("%-28s %d\n", "mutated cases", report.mutation_cases);
  std::printf("%-28s %d\n", "  convicted by CFA replay", report.convicted);
  std::printf("%-28s %d\n", "  refused up front", report.refused);
  std::printf("%-28s %zu\n", "divergences", report.failures.size());
  std::printf("%-28s %.1f ms\n", "CPU time", cells.stats(0, "soak").median);

  // The run only counts if it exercised what it claims: when a flag
  // combination (or a mutator planning drought) shrinks the corpus
  // below the advertised floor, fail loudly instead of gating green on
  // a near-empty sweep. Floors apply to the named presets, not to
  // explicit --programs/--mutations reproduce runs.
  bool ok = report.ok() && cells.ok();
  if (smoke) {
    if (report.programs < 500 || report.mutation_cases < 200) {
      std::printf("!! smoke corpus floor violated: %d programs, %d mutated "
                  "cases (need >= 500 / >= 200)\n",
                  report.programs, report.mutation_cases);
      ok = false;
    }
  }

  Json row;
  row.text("policy", "all");
  add_columns(row, cells, 0, {"soak"});
  bench::report("fuzz_soak", smoke, 1)
      .count("seed", options.seed)
      .array("rows", {row})
      .flag("ok", ok)
      .write("BENCH_fuzz_soak.json");

  if (!ok && !report.failures.empty()) {
    std::fprintf(stderr,
                 "\nreproduce: bench_fuzz_soak --seed <failing seed above> "
                 "--programs 1 --mutations 1\n");
  }
  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
