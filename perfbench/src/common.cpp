// Shared device, build and verifier helpers (see workloads.h).
#include <mutex>

#include "attacks/attack.h"
#include "workloads.h"

namespace perfbench {

using namespace eilid;

const char* policy_key(EnforcementPolicy policy) {
  switch (policy) {
    case EnforcementPolicy::kNone: return "none";
    case EnforcementPolicy::kCasu: return "casu";
    case EnforcementPolicy::kCfaBaseline: return "cfa";
    case EnforcementPolicy::kEilidHw: return "eilid";
  }
  return "?";
}

const char* sim_layer(EnforcementPolicy policy) {
  switch (policy) {
    case EnforcementPolicy::kNone: return "sim.run.none";
    case EnforcementPolicy::kCasu: return "sim.run.casu";
    case EnforcementPolicy::kCfaBaseline: return "sim.run.cfa";
    case EnforcementPolicy::kEilidHw: return "sim.run.eilid";
  }
  return "sim.run.?";
}

Marks marks(DeviceSession& session) {
  sim::Machine& m = session.machine();
  Marks out;
  out.cycles = m.cycles();
  out.insns = m.cpu().instructions_retired();
  out.blocks = m.blocks_executed();
  out.decode_misses = m.cpu().decode_cache_misses();
  const cfa::CfaMonitor* monitor = session.cfa_monitor();
  out.edges = monitor != nullptr ? monitor->total_edges() : 0;
  out.violations = session.violation_count();
  return out;
}

Work work_between(const Marks& before, const Marks& after, bool halted) {
  Work w;
  w.halted = halted;
  w.cycles = after.cycles - before.cycles;
  w.insns = after.insns - before.insns;
  w.blocks = after.blocks - before.blocks;
  w.decode_misses = after.decode_misses - before.decode_misses;
  w.edges = after.edges - before.edges;
  w.violations = after.violations - before.violations;
  return w;
}

void add_work(Counts& counts, EnforcementPolicy policy, const Work& w) {
  const std::string key = policy_key(policy);
  counts.add("sim.runs." + key, 1);
  counts.add("sim.insns." + key, w.insns);
  counts.add("sim.cycles." + key, w.cycles);
  counts.add("sim.blocks", w.blocks);
  counts.add("sim.insns", w.insns);
  counts.add("sim.decode_misses", w.decode_misses);
  counts.add("cfa.edges_logged", w.edges);
}

void clear_observers(DeviceSession& session) {
  session.machine().uart().clear_tx();
  session.machine().port1().clear_trace();
  session.machine().port2().clear_trace();
}

void power_cycle(Run& run, DeviceSession& session, uint64_t group,
                 Counts& counts) {
  run.rec.time("session.power_cycle", group, [&] { session.power_cycle(); });
  counts.add("session.power_cycles", 1);
}

Work run_app(Run& run, DeviceSession& session, const apps::AppSpec& app,
             uint64_t group, Counts& counts) {
  clear_observers(session);
  const Marks before = marks(session);
  apps::WorkloadOutcome outcome;
  run.rec.time(sim_layer(session.policy()), group,
               [&] { outcome = apps::run_workload(session, app); });
  const Work w = work_between(before, marks(session), outcome.reached_halt);
  add_work(counts, session.policy(), w);
  return w;
}

HijackOutcome hijack_gateway(Run& run, DeviceSession& session, uint64_t group,
                             Counts& counts) {
  power_cycle(run, session, group, counts);
  clear_observers(session);
  session.machine().uart().feed(
      attacks::overflow_ret_payload(session.symbol("unlock")));
  const Marks before = marks(session);
  sim::RunResult result;
  run.rec.time(sim_layer(session.policy()), group, [&] {
    result = session.run_to_symbol(
        "halt", 8 * apps::vuln_gateway().cycle_budget);
  });
  HijackOutcome out;
  out.work = work_between(before, marks(session),
                          result.cause == sim::StopCause::kBreakpoint);
  out.unlocked =
      session.machine().uart().tx_text().find('U') != std::string::npos;
  out.reset_reason = session.last_reset_reason();
  add_work(counts, session.policy(), out.work);
  return out;
}

bool hijack_as_expected(EnforcementPolicy policy,
                        const HijackOutcome& outcome) {
  if (!outcome.work.halted) return false;
  if (policy == EnforcementPolicy::kEilidHw) {
    return !outcome.unlocked && outcome.work.violations > 0 &&
           outcome.reset_reason == "cfi-return-mismatch";
  }
  return outcome.unlocked;
}

std::shared_ptr<const core::BuildResult> build(Run& run, Fleet& fleet,
                                               const std::string& source,
                                               const std::string& name,
                                               bool instrumented) {
  core::BuildOptions options;
  options.eilid = instrumented;
  std::shared_ptr<const core::BuildResult> out;
  run.rec.time("pipeline.build", 0,
               [&] { out = fleet.build(source, name, options); });
  return out;
}

DeviceSession& deploy(Run& run, Fleet& fleet, const std::string& id,
                      std::shared_ptr<const core::BuildResult> build,
                      EnforcementPolicy policy) {
  DeviceSession* out = nullptr;
  run.rec.time("fleet.deploy", 0, [&] {
    out = &fleet.deploy(id, std::move(build), policy,
                        {.cfa = {.log_capacity = kLogCapacity}});
  });
  return *out;
}

Table4 deploy_table4(Run& run, Fleet& fleet, const std::string& prefix) {
  Table4 table;
  double runtime_pct = 0;
  double size_pct = 0;
  for (const apps::AppSpec& spec : apps::table4_apps()) {
    Table4::App app;
    app.spec = &spec;
    auto plain = build(run, fleet, spec.source, spec.name, false);
    auto instrumented = build(run, fleet, spec.source, spec.name, true);
    for (size_t p = 0; p < kPolicies.size(); ++p) {
      const EnforcementPolicy policy = kPolicies[p];
      DeviceSession& dev = deploy(
          run, fleet, prefix + spec.name + "-" + policy_key(policy),
          policy == EnforcementPolicy::kEilidHw ? instrumented : plain, policy);
      app.devices[p] = &dev;
      Counts scratch;
      app.reference[p] = run_app(run, dev, spec, 0, scratch);
      const std::string check = spec.check(dev.machine());
      run.gates.check(app.reference[p].halted &&
                          app.reference[p].violations == 0 && check.empty(),
                      spec.name + " under " + policy_key(policy) +
                          " failed its reference run: " + check);
    }
    const double casu = static_cast<double>(app.reference[1].cycles);
    const double eilid = static_cast<double>(app.reference[3].cycles);
    runtime_pct += 100.0 * (eilid - casu) / casu;
    size_pct += 100.0 *
                (static_cast<double>(instrumented->binary_size()) -
                 static_cast<double>(plain->binary_size())) /
                static_cast<double>(plain->binary_size());
    table.apps.push_back(app);
  }
  const auto n = static_cast<double>(table.apps.size());
  table.runtime_overhead_pct = runtime_pct / n;
  table.size_overhead_pct = size_pct / n;
  // Drain the reference evidence so the first timed sweep sees exactly
  // one round's worth.
  for (const auto& verdict : fleet.verifier().verify_all()) {
    run.gates.check(verdict.ok() && verdict.dropped == 0,
                    verdict.device_id + ": reference evidence not clean");
  }
  return table;
}

SweepResult sweep(Run& run, Fleet& fleet, common::ThreadPool* pool,
                  bool serial_probe, uint64_t group, Counts& counts,
                  const std::string& prefix) {
  SweepResult out;
  const char* layer = serial_probe ? "verifier.sweep_serial" : "verifier.sweep";
  {
    Recorder::Scope scope(run.rec, layer, group);
    out.start = scope.start();
    out.verdicts = pool != nullptr && !serial_probe
                       ? fleet.verifier().verify_all(*pool)
                       : fleet.verifier().verify_all();
    out.end = Clock::now();
    out.cpu_seconds = process_cpu_seconds() - scope.cpu_start();
  }
  out.seconds = seconds_between(out.start, out.end);
  uint64_t reports = 0;
  for (const auto& verdict : out.verdicts) {
    if (!verdict.attested) continue;
    ++reports;
    out.edges += verdict.edges;
    if (!verdict.ok()) counts.add("verifier.convictions", 1);
    counts.add("verifier.dropped", verdict.dropped);
  }
  // MAC'd bytes: a 24-byte header (nonce, seq, cycle, dropped) per
  // report plus the edge records.
  const uint64_t mac_bytes =
      out.edges * cfa::LoggedEdge::kWireBytes + reports * 24;
  counts.add("verifier.reports", reports);
  counts.add("verifier.edges", out.edges);
  counts.add("verifier.mac_bytes", mac_bytes);
  if (out.edges == 0 || reports == 0) return out;
  const double ns = 1e9 * out.seconds;
  if (serial_probe) {
    run.series[prefix + "sweep.serial_ns_per_edge"].push_back(ns / out.edges);
    return out;
  }
  add_sample(run, prefix + "sweep_ms", 1e3 * out.cpu_seconds, out.start,
             out.end);
  run.series[prefix + "sweep.ns_per_edge"].push_back(ns / out.edges);
  run.series[prefix + "sweep.ns_per_mac_byte"].push_back(ns / mac_bytes);
  run.series[prefix + "sweep.us_per_report"].push_back(1e-3 * ns / reports);
  return out;
}

void finish_round(Run& run, const Counts& counts, uint64_t round) {
  if (run.round_digests.empty()) {
    run.first_round = counts;
  } else {
    run.gates.check(counts == run.first_round,
                    "round " + std::to_string(round) +
                        " differs from round 0 (" +
                        counts.first_difference(run.first_round) + ")");
  }
  run.totals.merge(counts);
  run.round_digests.push_back(counts.digest());
}

void record_resident(Run& run, const std::string& prefix,
                     const std::vector<DeviceSession*>& sessions) {
  size_t total = 0;
  size_t most = 0;
  for (DeviceSession* dev : sessions) {
    const size_t bytes = dev->resident_memory_bytes();
    total += bytes;
    most = std::max(most, bytes);
  }
  run.series[prefix + "resident_bytes_mean"].push_back(
      static_cast<double>(total) / static_cast<double>(sessions.size()));
  double& max_bytes = run.values[prefix + "resident_bytes_max"];
  max_bytes = std::max(max_bytes, static_cast<double>(most));
}

void interleave_ops(Run& run, OpsScenario& ops, Clock::time_point start,
                    double& ops_s) {
  while (run.opts.tiny ? run.ops_digests.size() < 2
                       : ops_s < kOpsShare * seconds_since(start)) {
    const Clock::time_point ops_start = Clock::now();
    ops.iterate();
    ops_s += seconds_since(ops_start);
  }
}

void probe_host(Run& run, bool force) {
  if (!force && !run.host.empty() &&
      seconds_since(run.host.back().at) < kProbeInterval) {
    return;
  }
  // Each worker times its own kernel run in its own CPU time, so neither
  // the pool's wake-up latency nor the hypervisor's preemption enters
  // the reading; the reading is the workers' mean rate.
  std::vector<double> rates(run.pool != nullptr ? run.threads : 1);
  auto time_kernel = [&rates](size_t i) {
    const double start = thread_cpu_seconds();
    (void)reference_kernel(kReferenceSteps);
    rates[i] = static_cast<double>(kReferenceSteps) /
               (thread_cpu_seconds() - start);
  };
  run.rec.time("host.probe", 0, [&] {
    if (run.pool != nullptr) {
      run.pool->parallel_for(rates.size(), time_kernel);
    } else {
      time_kernel(0);
    }
  });
  double sum = 0;
  for (double rate : rates) sum += rate;
  run.host.push_back({Clock::now(), sum / static_cast<double>(rates.size())});
}

void set_up_batch(Run& run, const std::function<void()>& set_up) {
  for (int n = run.opts.tiny ? 1 : kSetUpsPerBatch; n > 0; --n) {
    probe_host(run, true);
    const Clock::time_point start = Clock::now();
    const double cpu_start = process_cpu_seconds();
    set_up();
    add_sample(run, "setup_s", process_cpu_seconds() - cpu_start, start,
               Clock::now());
    probe_host(run, true);
  }
}

}  // namespace perfbench
