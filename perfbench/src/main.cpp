// eilid_perfbench: the repository benchmark. One workload per process:
//
//   eilid_perfbench --workload exec|attest|fleet-ops --seed N
//                   --seconds S --trace 0|1 [--tiny] [--trace-out FILE]
//
// Every input (hostile, offline, power-cut and reflashed device sets,
// transport fault streams, heartbeat jitter) derives from --seed. Set-up
// (builds, deploys, enrollment, the checked reference runs) is repeated
// in a batch before and a batch after the timed phase, and setup_s is
// the median (see set_up_batch); in between, the workload runs as a
// closed loop for --seconds. --tiny shrinks every workload to a fixed,
// small number of rounds for the self-check.
//
// With --trace 0 the last line carries the end-to-end metrics, with
// --trace 1 the per-layer ones (from the same loop, with span tracing
// on). Every correctness gate that fails counts in `failed` and makes
// the exit code non-zero. End-to-end host time is process CPU time (all
// threads), so waits -- pool wake-ups, the hypervisor's -- stay out of
// it, and each sample is scaled to the reference host speed (see
// host_factor); those metrics are medians (the sweep percentiles:
// quantiles) over every sample of the run. Per-layer times are unscaled
// wall-time medians or timed-phase totals; counts are per round (the
// first round of the workload's loop plus the first ops iteration) and
// repeat exactly for a seed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>

#include "crypto/hmac.h"
#include "workloads.h"

using namespace perfbench;

namespace {

// The paper's Table IV averages.
constexpr double kPaperRuntimePct = 7.35;
constexpr double kPaperSizePct = 10.78;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "eilid_perfbench: %s\nusage: eilid_perfbench --workload "
               "exec|attest|fleet-ops --seed N --seconds S --trace 0|1 "
               "[--tiny] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        o.trace = std::stoi(value()) != 0;
      } else if (arg == "--tiny") {
        o.tiny = true;
      } else if (arg == "--trace-out") {
        o.trace_out = value();
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (o.workload != "exec" && o.workload != "attest" &&
      o.workload != "fleet-ops") {
    usage("--workload must be exec, attest or fleet-ops");
  }
  if (!(o.seconds > 0)) usage("--seconds must be > 0");
  return o;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double series_median(const Run& run, const std::string& name) {
  auto it = run.series.find(name);
  return it == run.series.end() ? 0 : median(it->second);
}

// Host-speed scaling (see kReferenceRate in harness.h). A sample taken
// while the host ran slow is scaled up to the reference speed: its
// factor is kReferenceRate over the median of the host readings taken
// from kScaleWindow before the sample's start to kScaleWindow after its
// end (the next reading, else the last, when none falls in that span).
// One ~0.2 ms reading is itself noisy; a span of about ten of them is
// still short against the host's speed phases. A rate is multiplied by
// the factor, a time divided by it. Every metric is then a median or a
// quantile over all of the run's scaled samples, so the program's own
// tail stays in it.
constexpr auto kScaleWindow = std::chrono::milliseconds(50);

double host_factor(const Run& run, const TimedSample& sample) {
  const std::vector<HostReading>& host = run.host;
  if (host.empty()) return 1;
  auto first = std::lower_bound(
      host.begin(), host.end(), sample.start - kScaleWindow,
      [](const HostReading& h, Clock::time_point t) { return h.at < t; });
  auto last = std::upper_bound(
      host.begin(), host.end(), sample.end + kScaleWindow,
      [](Clock::time_point t, const HostReading& h) { return t < h.at; });
  if (first == last) {  // none in the span: the next one, else the last
    first = first == host.end() ? std::prev(first) : first;
    last = std::next(first);
  }
  std::vector<double> rates;
  for (auto it = first; it != last; ++it) rates.push_back(it->rate);
  return kReferenceRate / median(std::move(rates));
}

// q-quantile over the scaled samples of `name`; `time` says whether
// they are times (divided by the factor) or rates (multiplied).
double scaled_quantile(const Run& run, const std::string& name, double q,
                       bool time) {
  auto it = run.samples.find(name);
  if (it == run.samples.end()) return 0;
  std::vector<double> scaled;
  for (const TimedSample& sample : it->second) {
    const double factor = host_factor(run, sample);
    scaled.push_back(time ? sample.value / factor : sample.value * factor);
  }
  return quantile(std::move(scaled), q);
}

double scaled_rate(const Run& run, const std::string& name) {
  return scaled_quantile(run, name, 0.5, false);
}

double value(const Run& run, const std::string& name) {
  auto it = run.values.find(name);
  return it == run.values.end() ? 0 : it->second;
}

// The workload's own loop reports under "", the ops scenario under
// "ops."; fleet-ops has no loop of its own.
std::string primary(const Run& run) {
  return run.opts.workload == "fleet-ops" ? "ops." : "";
}

MetricTable end_to_end(const Run& run) {
  const std::string p = primary(run);
  MetricTable m;
  m["setup_s"] = {scaled_quantile(run, "setup_s", 0.5, true), "s"};
  m["exec_mips"] = {scaled_rate(run, p + "exec_mips"), "MIPS"};
  m["attest_edges_per_s"] = {scaled_rate(run, p + "attest_edges_per_s"),
                             "edges/s"};
  m["sweep_ms_p50"] = {scaled_quantile(run, p + "sweep_ms", 0.5, true), "ms"};
  m["sweep_ms_p90"] = {scaled_quantile(run, p + "sweep_ms", 0.9, true), "ms"};
  m["campaign_devices_per_s"] = {scaled_rate(run, "campaign_devices_per_s"),
                                 "devices/s"};
  m["window_ticks_per_s"] = {scaled_rate(run, "window_ticks_per_s"),
                             "ticks/s"};
  m["staleness_ticks_p99"] = {series_median(run, "staleness_ticks_p99"),
                              "ticks"};
  m["resident_bytes_per_device"] = {
      series_median(run, p + "resident_bytes_mean"), "bytes"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  m["eilid_runtime_overhead_pct"] = {value(run, "eilid_runtime_overhead_pct"),
                                     "%"};
  m["eilid_size_overhead_pct"] = {value(run, "eilid_size_overhead_pct"), "%"};
  const auto attempted = static_cast<double>(run.gates.attempted());
  m["ops_ok_frac"] = {
      attempted > 0
          ? 1.0 - static_cast<double>(run.gates.failed()) / attempted
          : 0,
      "fraction"};
  return m;
}

// Host ns per byte of crypto::hmac_sha256 over buffers the size of the
// workload's mean report.
double hmac_ns_per_byte(size_t bytes) {
  bytes = std::max<size_t>(bytes, 1);
  std::vector<uint8_t> buffer(bytes);
  for (size_t i = 0; i < bytes; ++i) buffer[i] = static_cast<uint8_t>(i * 31);
  const std::vector<uint8_t> key(32, 0x5A);
  uint8_t sink = 0;
  size_t calls = 0;
  const Clock::time_point start = Clock::now();
  while (calls < 64 || seconds_since(start) < 0.05) {
    sink ^= eilid::crypto::hmac_sha256(key, buffer)[0];
    buffer[0] = sink;
    ++calls;
  }
  return 1e9 * seconds_since(start) / static_cast<double>(calls * bytes);
}

MetricTable per_layer(const Run& run, double span_cost_s) {
  const Recorder& rec = run.rec;
  const Counts& t = run.totals;
  Counts first = run.first_round;  // per round: the first of each loop
  first.merge(run.first_ops);
  const std::string p = primary(run);
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  MetricTable m;

  double none_ns = 0;
  for (eilid::EnforcementPolicy policy : kPolicies) {
    const std::string key = policy_key(policy);
    const double ns = 1e9 * ratio(rec.seconds(sim_layer(policy)),
                                  count(t.get("sim.insns." + key)));
    m["sim.ns_per_insn." + key] = {ns, "ns"};
    if (policy == eilid::EnforcementPolicy::kNone) {
      none_ns = ns;
    } else {
      m["sim.monitor_tax." + key] = {ratio(ns, none_ns), "x"};
    }
  }
  m["sim.insns_per_block"] = {
      ratio(count(t.get("sim.insns")), count(t.get("sim.blocks"))),
      "insn/block"};
  m["sim.decode_misses"] = {count(first.get("sim.decode_misses")), "count"};

  m["cfa.edges_logged"] = {count(first.get("cfa.edges_logged")), "count"};
  m["cfa.edges_per_kinsn"] = {
      1e3 * ratio(count(t.get("cfa.edges_logged")),
                  count(t.get("sim.insns.cfa"))),
      "edges/kinsn"};
  m["cfa.edges_dropped"] = {count(first.get("verifier.dropped")), "count"};

  m["verifier.ns_per_edge"] = {series_median(run, p + "sweep.ns_per_edge"),
                               "ns"};
  m["verifier.ns_per_mac_byte"] = {
      series_median(run, p + "sweep.ns_per_mac_byte"), "ns"};
  m["verifier.us_per_report"] = {series_median(run, p + "sweep.us_per_report"),
                                 "us"};
  m["verifier.reports"] = {count(first.get("verifier.reports")), "count"};
  m["verifier.convictions"] = {count(first.get("verifier.convictions")),
                               "count"};
  m["crypto.hmac_ns_per_byte"] = {
      hmac_ns_per_byte(static_cast<size_t>(
          ratio(count(first.get("verifier.mac_bytes")),
                count(first.get("verifier.reports"))))),
      "ns"};

  m["pool.threads"] = {count(run.threads), "count"};
  const double serial = series_median(run, p + "sweep.serial_ns_per_edge");
  m["pool.sweep_speedup"] = {
      serial > 0 ? ratio(serial, series_median(run, p + "sweep.ns_per_edge"))
                 : 1.0,
      "x"};
  const double serial_rollout =
      series_median(run, "rollout.serial_s_per_device");
  m["pool.rollout_speedup"] = {
      serial_rollout > 0
          ? ratio(serial_rollout,
                  series_median(run, "rollout.pooled_s_per_device"))
          : 1.0,
      "x"};

  for (const char* phase : {"apply", "probe", "gate"}) {
    for (int w = 0; w < 4; ++w) {
      const std::string name = std::string("rollout.") + phase + "_ms.wave" +
                               std::to_string(w);
      m[name] = {series_median(run, name), "ms"};
    }
  }
  m["update.package_us"] = {
      1e6 * ratio(rec.seconds("update.package"),
                  count(t.get("update.packages"))),
      "us"};
  m["update.ns_per_payload_byte"] = {
      series_median(run, "update.ns_per_payload_byte"), "ns"};
  m["update.attempts"] = {count(first.get("update.attempts")), "count"};
  m["update.resumed"] = {count(first.get("update.resumed")), "count"};

  m["window.us_per_round"] = {
      1e6 * ratio(rec.seconds("window.run"), count(t.get("window.rounds"))),
      "us"};
  m["window.ns_per_device"] = {
      1e9 * ratio(rec.seconds("window.run"), count(t.get("window.slices"))),
      "ns"};
  m["heartbeat.ns_per_device"] = {
      1e9 * ratio(rec.seconds("health.run"), count(t.get("health.verdicts"))),
      "ns"};
  m["health.remediations"] = {count(first.get("health.remediations")), "count"};
  m["health.heal_ms"] = {series_median(run, "heal_ms"), "ms"};

  const LayerTime& builds = rec.setup_layer("pipeline.build");
  const LayerTime& deploys = rec.setup_layer("fleet.deploy");
  m["pipeline.build_ms"] = {1e3 * ratio(builds.seconds, count(builds.calls)),
                            "ms"};
  m["pipeline.runs"] = {value(run, "pipeline.runs"), "count"};
  m["pipeline.cache_hits"] = {value(run, "pipeline.cache_hits"), "count"};
  m["fleet.deploy_us"] = {1e6 * ratio(deploys.seconds, count(deploys.calls)),
                          "us"};

  m["session.resident_bytes_max"] = {value(run, p + "resident_bytes_max"),
                                     "bytes"};
  m["session.reflash_us"] = {
      1e6 * ratio(rec.seconds("session.reflash"),
                  count(t.get("session.reflashes"))),
      "us"};
  m["session.power_cycle_us"] = {
      1e6 * ratio(rec.seconds("session.power_cycle"),
                  count(t.get("session.power_cycles"))),
      "us"};

  m["trace.spans"] = {count(rec.span_count()), "count"};
  m["trace.overhead_pct"] = {
      100.0 * ratio(span_cost_s * count(rec.span_count()), rec.timed_seconds()),
      "%"};
  m["trace.unattributed_pct"] = {100.0 * rec.unattributed_share(), "%"};
  return m;
}

std::string hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// One line per loop: how many rounds, a digest over their digests in
// order, and the first round's digest.
void print_digests(const char* label, const std::vector<uint64_t>& digests) {
  Counts sequence;
  for (size_t i = 0; i < digests.size(); ++i) {
    sequence.add(std::to_string(i), digests[i]);
  }
  std::printf("determinism %s: count=%zu digest=%s first=%s\n", label,
              digests.size(), hex(sequence.digest()).c_str(),
              digests.empty() ? "-" : hex(digests.front()).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  Run run(opts);
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  run.threads = std::min(kRequestedThreads, nproc);
  std::printf("workload %s, seed %llu, %.3g s, trace %d\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0);

  try {
    if (opts.workload == "exec") {
      run_exec(run);
    } else if (opts.workload == "attest") {
      run_attest(run);
    } else {
      run_fleet_ops(run);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eilid_perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("pool: %zu thread(s) (requested %zu, nproc %zu)\n", run.threads,
              kRequestedThreads, nproc);
  std::printf("rounds %zu, ops iterations %zu, timed %.3f s\n",
              run.round_digests.size(), run.ops_digests.size(),
              run.rec.timed_seconds());
  print_digests("rounds", run.round_digests);
  print_digests("ops", run.ops_digests);
  std::vector<double> rates;
  for (const HostReading& h : run.host) rates.push_back(h.rate);
  std::printf(
      "host reference kernel: %zu readings, p10/p50/p90 %.4g/%.4g/%.4g "
      "steps/s; samples are scaled to %.4g steps/s\n",
      rates.size(), quantile(rates, 0.1), quantile(rates, 0.5),
      quantile(rates, 0.9), kReferenceRate);
  for (const auto& [name, samples] : run.samples) {
    std::vector<double> raw;
    for (const TimedSample& sample : samples) raw.push_back(sample.value);
    std::printf("  %-28s %zu samples, unscaled median %.6g\n", name.c_str(),
                raw.size(), median(raw));
  }

  const double runtime_pct = value(run, "eilid_runtime_overhead_pct");
  const double size_pct = value(run, "eilid_size_overhead_pct");
  std::printf(
      "modelled EILID overhead (mean of per-app %%, Table IV apps): runtime "
      "%+.2f%% (paper %+.2f%%, diff %+.2f pts), binary %+.2f%% (paper "
      "%+.2f%%, diff %+.2f pts)\n",
      runtime_pct, kPaperRuntimePct, runtime_pct - kPaperRuntimePct, size_pct,
      kPaperSizePct, size_pct - kPaperSizePct);
  std::printf(
      "no hardware reference is available: the cycle model is unvalidated\n");

  MetricTable metrics;
  if (opts.trace) {
    const double span_cost = Recorder::span_cost_seconds();
    metrics = per_layer(run, span_cost);
    std::printf("layer self time in the timed phase:\n");
    double layers_s = 0;
    for (const auto& [name, seconds] : run.rec.self_seconds()) {
      std::printf("  %-24s %10.3f ms\n", name.c_str(), 1e3 * seconds);
      layers_s += seconds;
    }
    std::printf("attribution: wall_s=%.6f layers_s=%.6f unattributed=%.6f\n",
                run.rec.timed_seconds(), layers_s,
                run.rec.unattributed_share());
    if (!opts.trace_out.empty() && !run.rec.write(opts.trace_out)) {
      run.gates.check(false, "could not write " + opts.trace_out);
    }
  } else {
    metrics = end_to_end(run);
  }
  for (const std::string& failure : run.gates.failures()) {
    std::printf("GATE FAILED: %s\n", failure.c_str());
  }
  for (const auto& [name, metric] : metrics) {
    std::printf("  %-32s %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }

  const bool correct = run.gates.failed() == 0 && run.gates.attempted() > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(run.gates.attempted()),
              static_cast<unsigned long long>(run.gates.failed()));
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    const double v = std::isfinite(metric.value) ? metric.value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
