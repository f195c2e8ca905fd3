// fleet-ops: ~4096 mixed-policy devices (5/8 CFA) on the small
// multi-generation firmware, so device execution is small and the
// schedulers, update/transport, copy-on-write paging and the registry
// carry the load: the whole timed phase is OpsScenario iterations
// (rollout, windowed attestation, heartbeat + health horizon). The
// verifier cost here is per report rather than per edge.
#include "workloads.h"

namespace perfbench {

using namespace eilid;

namespace {

constexpr size_t kDevices = 4096;

}  // namespace

void run_fleet_ops(Run& run) {
  const Options& o = run.opts;
  common::ThreadPool pool(run.threads);
  run.pool = &pool;

  std::unique_ptr<OpsScenario> ops;
  size_t reference_pipeline_runs = 0;
  auto set_up = [&] {
    ops.reset();
    {
      // The modelled overheads come from a private Table IV fleet.
      Fleet scratch;
      const Table4 table = deploy_table4(run, scratch, "ref-");
      run.values["eilid_runtime_overhead_pct"] = table.runtime_overhead_pct;
      run.values["eilid_size_overhead_pct"] = table.size_overhead_pct;
      reference_pipeline_runs = scratch.pipeline_runs();
    }
    ops = std::make_unique<OpsScenario>(run, o.tiny ? 64 : kDevices, &pool);
    ops->set_up();
  };
  set_up_batch(run, set_up);
  run.values["pipeline.runs"] =
      static_cast<double>(reference_pipeline_runs + ops->pipeline_runs());
  run.values["pipeline.cache_hits"] =
      static_cast<double>(ops->build_cache_hits());

  run.rec.begin_timed_phase();
  const Clock::time_point start = Clock::now();
  for (uint64_t k = 0;; ++k) {
    if (o.tiny ? k >= 3 : k > 0 && seconds_since(start) >= o.seconds) break;
    ops->iterate();
  }
  probe_host(run, true);
  run.rec.end_timed_phase();
  set_up_batch(run, set_up);
  run.pool = nullptr;
}

}  // namespace perfbench
