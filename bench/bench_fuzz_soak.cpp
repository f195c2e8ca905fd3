// Scenario-fuzzer soak: generative workloads + attack mutators through
// the differential harness (src/fuzz/harness.h). Every generated
// program runs under all four enforcement policies x both execution
// engines (interpretive, superblock) demanding bit-identical state and
// attestation evidence, pooled-vs-serial verifier sweeps must agree
// verdict for verdict, and every mutated case (diverted jumps,
// gadget-repointed dispatch tables, tampered reports, bit-flipped
// packages, corrupted chunk streams) must be convicted or refused. Any
// divergence FAILS the bench and prints the reproducing seed on stderr.
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
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/fuzz/harness.h"

using namespace eilid;

namespace {

using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point start) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - start)
      .count();
}

}  // namespace

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

  fuzz::DifferentialHarness harness(options);
  const auto t0 = clock_type::now();
  const fuzz::HarnessReport report = harness.run();
  const double wall_ms = ms_since(t0);

  std::printf("\n%-28s %d\n", "programs checked", report.programs);
  std::printf("%-28s %d\n", "engine x policy runs", report.engine_runs);
  std::printf("%-28s %d\n", "mutated cases", report.mutation_cases);
  std::printf("%-28s %d\n", "  convicted by CFA replay", report.convicted);
  std::printf("%-28s %d\n", "  refused up front", report.refused);
  std::printf("%-28s %zu\n", "divergences", report.failures.size());
  std::printf("%-28s %.1f ms\n", "wall clock", wall_ms);

  // The run only counts if it exercised what it claims: when a flag
  // combination (or a mutator planning drought) shrinks the corpus
  // below the advertised floor, fail loudly instead of gating green on
  // a near-empty sweep. Floors apply to the named presets, not to
  // explicit --programs/--mutations reproduce runs.
  bool ok = report.ok();
  if (smoke) {
    if (report.programs < 500 || report.mutation_cases < 200) {
      std::printf("!! smoke corpus floor violated: %d programs, %d mutated "
                  "cases (need >= 500 / >= 200)\n",
                  report.programs, report.mutation_cases);
      ok = false;
    }
  }

  FILE* json = std::fopen("BENCH_fuzz_soak.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"fuzz_soak\",\n  \"mode\": \"%s\",\n"
                 "  \"seed\": %llu,\n"
                 "  \"rows\": [\n"
                 "    {\"policy\": \"all\", \"programs\": %d, "
                 "\"engine_runs\": %d, \"mutation_cases\": %d, "
                 "\"convicted\": %d, \"refused\": %d, \"wall_ms\": %.1f}\n"
                 "  ],\n  \"ok\": %s\n}\n",
                 smoke ? "smoke" : "full",
                 static_cast<unsigned long long>(options.seed),
                 report.programs, report.engine_runs, report.mutation_cases,
                 report.convicted, report.refused, wall_ms,
                 ok ? "true" : "false");
    std::fclose(json);
  }

  if (!ok && !report.failures.empty()) {
    std::fprintf(stderr,
                 "\nreproduce: bench_fuzz_soak --seed <failing seed above> "
                 "--programs 1 --mutations 1\n");
  }
  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
