// exec: the seven Table IV apps under all four policies on one thread,
// each device power-cycled and rerun to halt every round, plus one
// vuln_gateway hijack per policy, then one serial sweep that drains the
// CFA devices. This is the workload where the simulator engine and the
// enforcement monitors take nearly all the host time, and the source of
// the modelled overheads; schedulers and updates do nothing in its
// rounds. A fifth of the timed phase, interleaved with the rounds,
// drives a small serial copy of the ops scenario, so the campaign /
// window / staleness metrics exist here too.
#include "workloads.h"

namespace perfbench {

using namespace eilid;

namespace {

constexpr size_t kOpsDevices = 64;

}  // namespace

void run_exec(Run& run) {
  const Options& o = run.opts;
  run.threads = 1;  // no pool: every call below is the serial path

  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<OpsScenario> ops;
  Table4 table;
  std::array<DeviceSession*, 4> gateways{};
  auto set_up = [&] {
    ops.reset();
    fleet.reset();
    fleet = std::make_unique<Fleet>();
    table = deploy_table4(run, *fleet, "");
    const apps::AppSpec& gateway = apps::vuln_gateway();
    auto plain = build(run, *fleet, gateway.source, gateway.name, false);
    auto instrumented = build(run, *fleet, gateway.source, gateway.name, true);
    for (size_t p = 0; p < kPolicies.size(); ++p) {
      const EnforcementPolicy policy = kPolicies[p];
      gateways[p] = &deploy(
          run, *fleet, std::string("gateway-") + policy_key(policy),
          policy == EnforcementPolicy::kEilidHw ? instrumented : plain, policy);
    }
    // Drain the gateways' power-on evidence: every round then starts
    // from empty logs.
    fleet->verifier().verify_all();
    ops = std::make_unique<OpsScenario>(run, o.tiny ? 32 : kOpsDevices,
                                        nullptr);
    ops->set_up();
  };
  set_up_batch(run, set_up);
  run.values["pipeline.runs"] =
      static_cast<double>(fleet->pipeline_runs() + ops->pipeline_runs());
  run.values["pipeline.cache_hits"] =
      static_cast<double>(fleet->build_cache_hits() + ops->build_cache_hits());
  run.values["eilid_runtime_overhead_pct"] = table.runtime_overhead_pct;
  run.values["eilid_size_overhead_pct"] = table.size_overhead_pct;
  const std::string convict_id = gateways[2]->id();

  auto sim_cpu_seconds = [&run](EnforcementPolicy policy) {
    return run.rec.layer(sim_layer(policy)).cpu_seconds;
  };
  run.rec.begin_timed_phase();
  const Clock::time_point start = Clock::now();
  double ops_s = 0;
  for (uint64_t r = 0;; ++r) {
    if (o.tiny ? r >= 3 : r > 0 && seconds_since(start) >= o.seconds) break;
    probe_host(run);
    const Clock::time_point round_start = Clock::now();
    Counts c;
    double sim_cpu = 0;
    uint64_t insns = 0;
    for (const Table4::App& app : table.apps) {
      for (size_t p = 0; p < kPolicies.size(); ++p) {
        DeviceSession& dev = *app.devices[p];
        power_cycle(run, dev, r, c);
        const double before = sim_cpu_seconds(dev.policy());
        const Work w = run_app(run, dev, *app.spec, r, c);
        sim_cpu += sim_cpu_seconds(dev.policy()) - before;
        insns += w.insns;
        run.gates.check(w == app.reference[p],
                        dev.id() + ": rerun differs from its checked run");
      }
    }
    for (size_t p = 0; p < kPolicies.size(); ++p) {
      const double before = sim_cpu_seconds(kPolicies[p]);
      const HijackOutcome hijack = hijack_gateway(run, *gateways[p], r, c);
      sim_cpu += sim_cpu_seconds(kPolicies[p]) - before;
      insns += hijack.work.insns;
      run.gates.check(hijack_as_expected(kPolicies[p], hijack),
                      gateways[p]->id() + ": hijack outcome wrong (" +
                          hijack.reset_reason + ")");
    }
    add_sample(run, "exec_mips", 1e-6 * static_cast<double>(insns) / sim_cpu,
               round_start, Clock::now());

    record_resident(run, "", fleet->sessions());

    const SweepResult swept = sweep(run, *fleet, nullptr, false, r, c, "");
    add_sample(run, "attest_edges_per_s",
               static_cast<double>(swept.edges) / swept.cpu_seconds,
               swept.start, swept.end);
    for (const auto& verdict : swept.verdicts) {
      if (verdict.device_id == convict_id) {
        run.gates.check(verdict.attested && !verdict.path_ok,
                        verdict.device_id + ": hijack not convicted");
      } else {
        run.gates.check(verdict.ok() && verdict.dropped == 0,
                        verdict.device_id + ": benign verdict not clean");
      }
    }
    finish_round(run, c, r);
    interleave_ops(run, *ops, start, ops_s);
  }
  probe_host(run, true);
  run.rec.end_timed_phase();
  set_up_batch(run, set_up);
}

}  // namespace perfbench
