// Secure-update-campaign throughput: a mixed-version fleet of
// CFA-attested devices (half provisioned on firmware v1, half on v2)
// staged onto v3 through Fleet::stage_update(), once per thread count
// in {1, 2, 4, 8}. The 1-thread row drives the serial rollout; the
// others fan out over common::ThreadPool with per-device locking. The
// adversarial prelude sends every third device a forged package and
// replays a captured stale package at every other third after the
// rollout, so the timed path includes devices that healed from abuse.
//
// Correctness gates (the bench FAILS on any violation):
//   - every forged package is rejected kBadMac and the device heals,
//   - every campaign outcome is kApplied (versions bump per device),
//   - every replayed stale package is rejected kRollback,
//   - post-rollout, every device attests ok() against the new CFG and
//     still runs predecoded,
//   - each row's outcome tuples are identical to the serial row's, in
//     input order (verdict determinism),
//   - an untimed refusal pass after the rows: with a few devices' code
//     patched out of band (a secure-ROM byte, a PMEM byte, or the reset
//     vector at 0xFFFF), exactly those devices are refused
//     kImageMismatch and every other device is kApplied, with identical
//     outcome tuples from a serial and a pooled rollout.
// Updates/sec are reported but not gated (host-dependent).
//
// Usage: bench_update_campaign [--smoke]   (--smoke: CI-sized fleet)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/eilid/fleet.h"
#include "src/sim/memory_map.h"

using namespace eilid;

namespace {

using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point start) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - start)
      .count();
}

// Three firmware generations with genuinely different layouts (the
// emit-call count shifts every later address).
std::string firmware(int generation) {
  std::string s = R"(.equ UART_TX, 0x0130
.org 0xE000
main:
    mov #0x1000, r1
)";
  for (int i = 0; i < generation + 1; ++i) s += "    call #emit\n";
  s += R"(halt:
    jmp halt
emit:
    mov.b #')";
  s += static_cast<char>('0' + generation);
  s += R"(', &UART_TX
    ret
.vector 15, main
.end
)";
  return s;
}

struct RowResult {
  size_t threads = 0;
  double rollout_ms = 0;
  size_t devices = 0;
  size_t applied = 0;
  size_t forged_rejected = 0;
  size_t rollbacks_rejected = 0;
  size_t attest_ok = 0;
  size_t predecoded = 0;
  std::vector<UpdateOutcome> outcomes;  // compared field-wise across rows
};

RowResult run_row(size_t threads, size_t devices) {
  RowResult row;
  row.threads = threads;
  row.devices = devices;
  const bool serial = threads == 1;
  common::ThreadPool pool(threads);

  // Mixed-version fleet: even devices on generation 1, odd on 2 -- one
  // campaign heals both onto generation 3 (two cached diffs).
  Fleet fleet;
  for (size_t i = 0; i < devices; ++i) {
    DeviceSession& dev = fleet.provision(
        "dev-" + std::to_string(i), firmware(i % 2 == 0 ? 1 : 2), "fw",
        EnforcementPolicy::kCfaBaseline);
    dev.run_to_symbol("halt", 100000);
  }

  UpdateCampaign campaign =
      fleet.stage_update(firmware(3), "fw", {.eilid = false});
  std::vector<DeviceSession*> sessions = fleet.sessions();

  // Adversarial prelude: forged packages at every third device (the
  // device latches the violation and heals by reset), and a genuine
  // package captured at every other third for post-rollout replay.
  std::vector<std::pair<DeviceSession*, casu::UpdatePackage>> captured;
  for (size_t i = 0; i < sessions.size(); ++i) {
    if (i % 3 == 1) {
      casu::UpdatePackage forged = campaign.package_for(*sessions[i]);
      forged.mac[0] ^= 0xFF;
      if (sessions[i]->apply_update(forged) == casu::UpdateStatus::kBadMac) {
        sessions[i]->machine().run(100);  // latched violation -> reset
        if (sessions[i]->last_reset_reason() == "update-auth") {
          ++row.forged_rejected;
        }
      }
    } else if (i % 3 == 2) {
      captured.emplace_back(sessions[i], campaign.package_for(*sessions[i]));
    }
  }

  auto t0 = clock_type::now();
  std::vector<UpdateOutcome> outcomes =
      serial ? campaign.roll_out(sessions) : campaign.roll_out(sessions, pool);
  row.rollout_ms = ms_since(t0);

  for (const auto& outcome : outcomes) {
    if (outcome.result == UpdateResult::kApplied && outcome.build_swapped &&
        outcome.cfg_staged) {
      ++row.applied;
    }
  }
  row.outcomes = std::move(outcomes);
  for (auto& [session, package] : captured) {
    if (session->apply_update(package) == casu::UpdateStatus::kRollback) {
      ++row.rollbacks_rejected;
    }
  }
  for (auto* session : sessions) {
    session->run_to_symbol("halt", 100000);
    if (session->machine().cpu().decode_cache_valid()) ++row.predecoded;
  }
  std::vector<VerifierService::AttestResult> verdicts =
      serial ? fleet.verifier().verify_all()
             : fleet.verifier().verify_all(pool);
  for (const auto& verdict : verdicts) {
    if (verdict.ok()) ++row.attest_ok;
  }
  return row;
}

// Devices the refusal pass patches out of band: every eighth.
bool patched(size_t i) { return i % 8 == 5; }

// Mixed-version fleet as in run_row, with the patched devices' code
// flipped by one byte behind the update engine's back (raw bus store,
// no package), then rolled out to generation 3 over `pool`.
std::vector<UpdateOutcome> mismatch_rollout(size_t devices,
                                            common::ThreadPool& pool) {
  Fleet fleet;
  for (size_t i = 0; i < devices; ++i) {
    DeviceSession& dev = fleet.provision(
        "dev-" + std::to_string(i), firmware(i % 2 == 0 ? 1 : 2), "fw",
        EnforcementPolicy::kCfaBaseline);
    dev.run_to_symbol("halt", 100000);
    if (!patched(i)) continue;
    const uint16_t targets[] = {static_cast<uint16_t>(sim::kRomStart + i),
                                static_cast<uint16_t>(0xE800 + i), 0xFFFF};
    const uint16_t addr = targets[(i / 8) % 3];
    sim::Bus& bus = dev.machine().bus();
    bus.raw_store_byte(addr, static_cast<uint8_t>(bus.raw_byte(addr) ^ 0xA5));
  }
  core::BuildOptions plain;
  plain.eilid = false;
  UpdateCampaign campaign = fleet.stage_update(firmware(3), "fw", plain);
  return campaign.roll_out(fleet.sessions(), pool);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const size_t devices = smoke ? 64 : 256;
  const size_t kThreadCounts[] = {1, 2, 4, 8};

  std::vector<RowResult> rows;
  for (size_t threads : kThreadCounts) rows.push_back(run_row(threads, devices));
  const RowResult& base = rows[0];

  std::printf("Update campaign (%s): %zu devices, mixed v1/v2 fleet -> v3, "
              "1/3 forged, 1/3 replayed\n",
              smoke ? "smoke" : "full", base.devices);
  std::printf("%7s | %10s | %11s | %8s\n", "threads", "rollout ms",
              "updates/sec", "speedup");
  bool ok = true;
  for (const RowResult& row : rows) {
    std::printf("%7zu | %10.2f | %11.0f | %7.2fx\n", row.threads,
                row.rollout_ms,
                row.rollout_ms > 0
                    ? 1000.0 * static_cast<double>(row.devices) / row.rollout_ms
                    : 0.0,
                row.rollout_ms > 0 ? base.rollout_ms / row.rollout_ms : 0.0);
    // Indices with i % 3 == 1 in [0, n): (n + 1) / 3; with i % 3 == 2:
    // n / 3.
    if (row.applied != row.devices || row.attest_ok != row.devices ||
        row.predecoded != row.devices ||
        row.forged_rejected != (row.devices + 1) / 3 ||
        row.rollbacks_rejected != row.devices / 3) {
      std::printf("  !! threads=%zu: %zu/%zu applied, %zu attested ok, "
                  "%zu predecoded, %zu forged rejected, %zu rollbacks "
                  "rejected\n",
                  row.threads, row.applied, row.devices, row.attest_ok,
                  row.predecoded, row.forged_rejected, row.rollbacks_rejected);
      ok = false;
    }
    if (row.outcomes != base.outcomes) {
      std::printf("  !! threads=%zu: outcomes diverge from the serial row\n",
                  row.threads);
      ok = false;
    }
  }
  std::printf("outcomes: %zu per row, identical across all thread counts\n",
              base.outcomes.size());

  common::ThreadPool pool(4);
  const std::vector<UpdateOutcome> serial =
      mismatch_rollout(devices, common::ThreadPool::inline_pool());
  const std::vector<UpdateOutcome> pooled = mismatch_rollout(devices, pool);
  size_t refused = 0;
  size_t applied = 0;
  size_t wrong = 0;
  for (size_t i = 0; i < serial.size(); ++i) {
    const UpdateResult expected =
        patched(i) ? UpdateResult::kImageMismatch : UpdateResult::kApplied;
    if (serial[i].result != expected) {
      std::printf("  !! refusal pass: %s is %s, expected %s\n",
                  serial[i].device_id.c_str(),
                  std::string(update_result_name(serial[i].result)).c_str(),
                  std::string(update_result_name(expected)).c_str());
      ++wrong;
    } else if (patched(i)) {
      ++refused;
    } else {
      ++applied;
    }
  }
  std::printf("refusal pass: %zu patched devices refused image-mismatch, "
              "%zu applied, serial %s pooled\n",
              refused, applied, serial == pooled ? "==" : "!=");
  if (wrong != 0 || serial.size() != devices || serial != pooled) {
    ok = false;
  }
  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
