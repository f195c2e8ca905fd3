// attest: ~1024 kCfaBaseline devices on the Table IV apps. Each round
// reboots every device over the pool, runs it to halt
// (apps::run_workload_all), then one barrier verify_all(pool) sweep
// drains and verifies everything. A seeded few devices run the
// vuln_gateway exploit instead and must be convicted. Report MAC plus
// CFG replay per edge dominates the sweep; no scheduler or update code
// runs in the rounds, so this is the bypass case for scheduler work.
// A fifth of the timed phase, interleaved with the rounds, drives a
// small pooled copy of the ops scenario, so the campaign / window /
// staleness metrics exist here too.
#include <mutex>
#include <set>

#include "attacks/attack.h"
#include "common/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace eilid;

namespace {

constexpr size_t kDevices = 1024;
constexpr size_t kOpsDevices = 256;
constexpr size_t kCfaIndex = 2;  // kCfaBaseline in kPolicies

std::string device_id(size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "att-%05zu", i);
  return buf;
}

}  // namespace

void run_attest(Run& run) {
  const Options& o = run.opts;
  common::ThreadPool pool(run.threads);
  run.pool = &pool;
  const size_t devices = o.tiny ? 32 : kDevices;

  // The hostile devices, from the seed.
  std::set<size_t> hostile;
  {
    Rng rng = Rng::keyed(o.seed, "attest-hostile");
    const size_t count = std::max<size_t>(1, devices / 64);
    while (hostile.size() < count) hostile.insert(rng.below(devices));
  }

  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<OpsScenario> ops;
  std::vector<apps::FleetWorkload> items;
  std::vector<Work> reference;  // per benign device: its app's checked run
  size_t reference_pipeline_runs = 0;
  auto set_up = [&] {
    ops.reset();
    fleet.reset();
    items.clear();
    reference.clear();
    {
      // The checked reference runs and the modelled overheads come from
      // a private Table IV fleet.
      Fleet scratch;
      const Table4 table = deploy_table4(run, scratch, "ref-");
      run.values["eilid_runtime_overhead_pct"] = table.runtime_overhead_pct;
      run.values["eilid_size_overhead_pct"] = table.size_overhead_pct;
      reference_pipeline_runs = scratch.pipeline_runs();
      for (size_t i = 0; i < devices; ++i) {
        reference.push_back(
            table.apps[i % table.apps.size()].reference[kCfaIndex]);
      }
    }
    fleet = std::make_unique<Fleet>();
    const auto& table4 = apps::table4_apps();
    std::vector<std::shared_ptr<const core::BuildResult>> builds;
    for (const apps::AppSpec& app : table4) {
      builds.push_back(build(run, *fleet, app.source, app.name, false));
    }
    const apps::AppSpec& gateway = apps::vuln_gateway();
    auto gateway_build =
        build(run, *fleet, gateway.source, gateway.name, false);
    for (size_t i = 0; i < devices; ++i) {
      const bool bad = hostile.count(i) != 0;
      DeviceSession& dev =
          deploy(run, *fleet, device_id(i),
                 bad ? gateway_build : builds[i % table4.size()],
                 EnforcementPolicy::kCfaBaseline);
      items.push_back({&dev, bad ? &gateway : &table4[i % table4.size()], 0});
    }
    // Drain the power-on evidence: every round then starts from empty
    // logs.
    fleet->verifier().verify_all(pool);
    ops = std::make_unique<OpsScenario>(run, o.tiny ? 32 : kOpsDevices, &pool);
    ops->set_up();
  };
  set_up_batch(run, set_up);
  run.values["pipeline.runs"] = static_cast<double>(
      reference_pipeline_runs + fleet->pipeline_runs() + ops->pipeline_runs());
  run.values["pipeline.cache_hits"] =
      static_cast<double>(fleet->build_cache_hits() + ops->build_cache_hits());

  run.rec.begin_timed_phase();
  const Clock::time_point start = Clock::now();
  double ops_s = 0;
  std::vector<Marks> before(devices);
  for (uint64_t r = 0;; ++r) {
    if (o.tiny ? r >= 3 : r > 0 && seconds_since(start) >= o.seconds) break;
    probe_host(run);
    const Clock::time_point round_start = Clock::now();
    Counts c;
    run.rec.time("session.power_cycle", r, [&] {
      pool.parallel_for(devices, [&](size_t i) {
        DeviceSession& dev = *items[i].session;
        std::lock_guard<std::mutex> lock(dev.mutex());
        dev.power_cycle();
        clear_observers(dev);
        if (hostile.count(i) != 0) {
          dev.machine().uart().feed(
              attacks::overflow_ret_payload(dev.symbol("unlock")));
        }
      });
    });
    c.add("session.power_cycles", devices);
    for (size_t i = 0; i < devices; ++i) before[i] = marks(*items[i].session);
    std::vector<apps::WorkloadOutcome> outcomes;
    const Elapsed sim = run.rec.time("sim.run.cfa", r, [&] {
      outcomes = apps::run_workload_all(items, pool);
    });
    uint64_t insns = 0;
    for (size_t i = 0; i < devices; ++i) {
      DeviceSession& dev = *items[i].session;
      const Work w =
          work_between(before[i], marks(dev), outcomes[i].reached_halt);
      if (hostile.count(i) != 0) {
        run.gates.check(w.halted && dev.machine().uart().tx_text().find('U') !=
                                        std::string::npos,
                        dev.id() + ": hijack did not land");
      } else {
        run.gates.check(w == reference[i],
                        dev.id() + ": run differs from its checked run");
      }
      add_work(c, EnforcementPolicy::kCfaBaseline, w);
      insns += w.insns;
    }
    add_sample(run, "exec_mips", 1e-6 * static_cast<double>(insns) / sim.cpu,
               round_start, Clock::now());
    record_resident(run, "", fleet->sessions());

    // The traced run alternates serial sweeps in over identical evidence
    // (every round replays the same runs) for pool.sweep_speedup.
    const bool serial_probe = run.rec.tracing() && r % 2 == 1;
    const SweepResult swept = sweep(run, *fleet, &pool, serial_probe, r, c, "");
    if (!serial_probe) {
      add_sample(run, "attest_edges_per_s",
                 static_cast<double>(swept.edges) / swept.cpu_seconds,
                 swept.start, swept.end);
    }
    std::set<std::string> convicted;
    for (const auto& verdict : swept.verdicts) {
      if (verdict.attested && !verdict.ok()) {
        convicted.insert(verdict.device_id);
      }
      if (hostile.count(static_cast<size_t>(
              std::stoul(verdict.device_id.substr(4)))) == 0) {
        run.gates.check(verdict.ok() && verdict.dropped == 0,
                        verdict.device_id + ": benign verdict not clean");
      }
    }
    std::set<std::string> expect;
    for (size_t i : hostile) expect.insert(device_id(i));
    run.gates.check(convicted == expect,
                    "convicted set differs from the hostile set");
    finish_round(run, c, r);
    interleave_ops(run, *ops, start, ops_s);
  }
  probe_host(run, true);
  run.rec.end_timed_phase();
  set_up_batch(run, set_up);
  run.pool = nullptr;
}

}  // namespace perfbench
