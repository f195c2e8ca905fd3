// Fleet-scale baseline for the parallel engine: 256 CFA-attested
// devices from 4 cached builds (64 per Table IV app), provisioned,
// simulated to halt, and batch-verified twice -- once per thread count
// in {1, 2, 4, 8}. The 1-thread row drives the serial engine paths
// (plain loops, serial verify_all()); the other rows fan out through
// common::ThreadPool (device registry + single-flight cache under
// real contention, apps::run_workload_all(), pooled verify_all()).
//
// Correctness gates (the bench FAILS on any violation):
//   - every device reaches halt with a passing host check,
//   - every attestation verdict is ok(),
//   - each row's verdict tuples are byte-identical to the 1-thread
//     serial row's, in enrollment-id order.
// Wall-clock speedups are reported but not gated: they depend on the
// host's core count (this box may be single-core CI).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/apps.h"
#include "src/common/thread_pool.h"
#include "src/eilid/fleet.h"

using namespace eilid;

namespace {

using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point start) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - start)
      .count();
}

constexpr int kDevicesPerApp = 64;
const char* kAppNames[4] = {"light_sensor", "temp_sensor", "charlieplexing",
                            "lcd_sensor"};

// One attestation verdict, flattened for cross-run comparison. Nonces
// differ between runs by design (they only feed the MAC), so they are
// deliberately absent.
std::string verdict_fingerprint(const VerifierService::AttestResult& r) {
  std::ostringstream s;
  s << r.device_id << '|' << r.attested << '|' << r.seq << '|' << r.cycle
    << '|' << r.mac_ok << '|' << r.seq_ok << '|' << r.path_ok << '|'
    << r.edges << '|' << r.dropped;
  return s.str();
}

struct RowResult {
  size_t threads = 0;
  double provision_ms = 0;
  double simulate_ms = 0;
  double attest_ms = 0;
  size_t devices = 0;
  size_t pipeline_runs = 0;
  size_t cache_hits = 0;
  size_t halted = 0;
  size_t check_failures = 0;
  size_t verdict_failures = 0;
  bool ordered = true;
  std::vector<std::string> fingerprints;  // sweep 1 then sweep 2
};

RowResult run_row(size_t threads) {
  RowResult row;
  row.threads = threads;
  const bool serial = threads == 1;
  common::ThreadPool pool(threads);

  Fleet fleet;
  std::vector<std::string> ids;
  std::vector<const apps::AppSpec*> specs;
  for (const char* name : kAppNames) {
    const auto& app = apps::app_by_name(name);
    for (int i = 0; i < kDevicesPerApp; ++i) {
      ids.push_back(app.name + "-" + std::to_string(i));
      specs.push_back(&app);
    }
  }

  // --- provision: 256 sessions, 4 pipeline runs (single-flight) ----
  auto t0 = clock_type::now();
  std::vector<apps::FleetWorkload> work(ids.size());
  auto provision_one = [&](size_t i) {
    DeviceSession& dev = fleet.provision(
        ids[i], specs[i]->source, specs[i]->name,
        EnforcementPolicy::kCfaBaseline, {.cfa = {.log_capacity = 1 << 17}});
    work[i] = {&dev, specs[i], 0};
  };
  if (serial) {
    for (size_t i = 0; i < ids.size(); ++i) provision_one(i);
  } else {
    pool.parallel_for(ids.size(), provision_one);
  }
  row.provision_ms = ms_since(t0);
  row.devices = fleet.size();
  row.pipeline_runs = fleet.pipeline_runs();
  row.cache_hits = fleet.build_cache_hits();

  // --- simulate every device to its halt label ---------------------
  auto tr = clock_type::now();
  std::vector<apps::WorkloadOutcome> outcomes;
  if (serial) {
    outcomes.reserve(work.size());
    for (const auto& item : work) {
      outcomes.push_back(apps::run_workload(*item.session, *item.app));
    }
  } else {
    outcomes = apps::run_workload_all(work, pool);
  }
  row.simulate_ms = ms_since(tr);
  for (const auto& outcome : outcomes) {
    if (outcome.reached_halt) ++row.halted;
    if (!outcome.check_failure.empty()) ++row.check_failures;
  }

  // --- attest: two full sweeps (drained logs, then empty logs) -----
  auto ta = clock_type::now();
  for (int sweep = 0; sweep < 2; ++sweep) {
    std::vector<VerifierService::AttestResult> verdicts =
        serial ? fleet.verifier().verify_all()
               : fleet.verifier().verify_all(pool);
    for (size_t i = 0; i < verdicts.size(); ++i) {
      if (!verdicts[i].ok()) ++row.verdict_failures;
      if (i > 0 && !(verdicts[i - 1].device_id < verdicts[i].device_id)) {
        row.ordered = false;
      }
      row.fingerprints.push_back(verdict_fingerprint(verdicts[i]));
    }
  }
  row.attest_ms = ms_since(ta);
  return row;
}

}  // namespace

int main() {
  const size_t kThreadCounts[] = {1, 2, 4, 8};
  std::vector<RowResult> rows;
  for (size_t threads : kThreadCounts) rows.push_back(run_row(threads));
  const RowResult& base = rows[0];

  std::printf("Fleet parallel scale: %zu devices, %zu pipeline runs "
              "(%zu cache hits) per run\n",
              base.devices, base.pipeline_runs, base.cache_hits);
  std::printf("%7s | %12s | %12s | %12s | %11s | %11s\n", "threads",
              "provision ms", "simulate ms", "attest ms", "sim speedup",
              "att speedup");
  bool ok = true;
  for (const RowResult& row : rows) {
    std::printf("%7zu | %12.1f | %12.1f | %12.1f | %10.2fx | %10.2fx\n",
                row.threads, row.provision_ms, row.simulate_ms, row.attest_ms,
                row.simulate_ms > 0 ? base.simulate_ms / row.simulate_ms : 0.0,
                row.attest_ms > 0 ? base.attest_ms / row.attest_ms : 0.0);
    if (row.halted != row.devices || row.check_failures != 0 ||
        row.verdict_failures != 0 || !row.ordered ||
        row.pipeline_runs != 4 || row.devices != base.devices) {
      std::printf("  !! threads=%zu: %zu/%zu halted, %zu check failures, "
                  "%zu verdict failures, %zu pipeline runs, ordered=%d\n",
                  row.threads, row.halted, row.devices, row.check_failures,
                  row.verdict_failures, row.pipeline_runs,
                  row.ordered ? 1 : 0);
      ok = false;
    }
    if (row.fingerprints != base.fingerprints) {
      std::printf("  !! threads=%zu: verdicts diverge from the serial run\n",
                  row.threads);
      ok = false;
    }
  }
  std::printf("verdicts: %zu per run, identical across all thread counts, "
              "enrollment-id ordered\n",
              base.fingerprints.size());
  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
