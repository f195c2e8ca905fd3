// One provisioned simulated device: a machine wired with the monitor
// stack its enforcement policy demands, running one cached build. A
// DeviceSession is what `eilid::Fleet` hands out; it unifies the
// previously ad-hoc wiring of EilidHwMonitor (EILID), CasuMonitor
// (CASU-only baseline) and CfaMonitor (attestation baseline) behind a
// single policy switch, so examples/benches/tests compare devices by
// changing one enum instead of re-plumbing monitors.
//
// Memory model (the fleet-at-10k diet): a session does not own a flat
// 64KiB image. Its bus is backed by sim::PagedMemory -- 256-byte pages
// copy-on-write over the build's shared immutable flat image
// (core::BuildResult::flat_image), materialized lazily on first write.
// reflash() and adopt_build() are page-map resets against the (new)
// base image rather than 64KiB copies, wipe_volatile() zero-fills by
// page, and resident_memory_bytes() reports only the pages this device
// actually dirtied plus its CFA log arena -- so 10k sessions of one
// build cost near one shared image, not 10k copies. Reads/writes keep
// their inline fast paths and the two execution engines stay
// bit-identical over paged memory (tests/test_fleet_scale.cpp).
#ifndef EILID_EILID_SESSION_H
#define EILID_EILID_SESSION_H

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "casu/update.h"
#include "cfa/attestation.h"
#include "crypto/sha256.h"
#include "eilid/hw_monitor.h"
#include "eilid/pipeline.h"
#include "sim/machine.h"

namespace eilid {

// What hardware (if any) polices the device, §II-C's comparison axis:
// EILID *prevents* hijacks in real time; a CFA baseline merely logs
// them for the verifier to *detect* at the next attestation.
enum class EnforcementPolicy : uint8_t {
  kNone,         // bare machine, no monitors: fully unprotected
  kCasu,         // CASU invariants only (PMEM immutability, W^X, ROM gates)
  kCfaBaseline,  // CASU + LO-FAT/ACFA-style logging monitor + verifier
  kEilidHw,      // CASU + secure-DMEM extension + EILIDsw (needs an
                 // instrumented build)
};

std::string_view enforcement_policy_name(EnforcementPolicy policy);

// Which simulator core drives the device. The two engines are
// architecturally identical -- retired-instruction traces, cycle
// counts, CFA edge logs and MACs, and enforcement verdicts match
// bit-for-bit -- and differ only in where instructions come from:
//   kInterpretive -- decode every instruction from backing memory
//     (the original core, ground truth, and the always-correct
//     fallback the table-driven engine degrades to when its table goes
//     stale),
//   kSuperblock   -- dispatch from the build's shared code table
//     (isa::DecodedImage): block-granular where it can -- one
//     bounds/generation check and one batched cycle/tick account per
//     straight-line run, with interrupt delivery re-checked at block
//     boundaries (a mid-block IRQ horizon refuses the block, so
//     delivery still lands at the architecturally correct instruction)
//     -- and one table entry per step wherever block dispatch stands
//     down: a wants_step() monitor is attached, an interrupt is due,
//     the CPU is off, or a violation is pending.
// Any store at or above the code floor invalidates the shared table
// (Bus::code_generation) and drops the device to interpretive decode
// until a fresh table is attached -- the self-modifying-code rule that
// has held since the decoded table landed.
enum class ExecutionEngine : uint8_t {
  kInterpretive,
  kSuperblock,
};

std::string_view execution_engine_name(ExecutionEngine engine);

struct SessionOptions {
  double clock_hz = 8e6;
  bool halt_on_reset = false;  // stop run() at the first enforcement reset
  cfa::CfaConfig cfa;          // kCfaBaseline: on-device log sizing
  // Per-device attestation MAC key. Fleet derives it from its master
  // key; standalone sessions may set it directly.
  crypto::Digest attest_key{};
  // Per-device secure-update key (the device-unique key CASU's update
  // protocol authenticates against). Fleet derives it from its master
  // key; standalone sessions may set it directly.
  crypto::Digest update_key{};
  // Simulator core selection (see ExecutionEngine): whether the
  // session attaches the build's shared code table. Every differential
  // gate in the benches compares the two engines against each other.
  ExecutionEngine engine = ExecutionEngine::kSuperblock;
};

class DeviceSession {
 public:
  // Throws eilid::FleetError when the policy and build disagree
  // (kEilidHw without EILIDsw in the build) or the build lacks any of
  // its per-build tables (see core::attach_tables).
  DeviceSession(std::string device_id,
                std::shared_ptr<const core::BuildResult> build,
                EnforcementPolicy policy, SessionOptions options = {});

  DeviceSession(const DeviceSession&) = delete;
  DeviceSession& operator=(const DeviceSession&) = delete;

  const std::string& id() const { return id_; }
  EnforcementPolicy policy() const { return policy_; }
  const SessionOptions& options() const { return options_; }
  const core::BuildResult& build() const { return *build_; }
  std::shared_ptr<const core::BuildResult> shared_build() const {
    return build_;
  }
  sim::Machine& machine() { return machine_; }

  // Monitors installed by the policy; null when absent (kNone has
  // neither, only kCfaBaseline has a CFA monitor).
  core::EilidHwMonitor* hw_monitor() { return hw_monitor_.get(); }
  cfa::CfaMonitor* cfa_monitor() { return cfa_monitor_.get(); }

  bool eilid_enabled() const { return policy_ == EnforcementPolicy::kEilidHw; }

  // Throws eilid::FleetError if the symbol is unknown.
  uint16_t symbol(const std::string& name) const;

  sim::RunResult run(uint64_t max_cycles) { return machine_.run(max_cycles); }
  sim::RunResult run_to_symbol(const std::string& name, uint64_t max_cycles);

  // Enforcement outcome shorthand.
  size_t violation_count() const { return machine_.violation_count(); }
  // Name of the most recent enforcement reset ("" when the device never
  // enforced).
  std::string last_reset_reason() const;

  // --- authenticated update (CASU substrate) ------------------------
  // This device's anti-rollback firmware version: 0 as provisioned,
  // bumped by every applied package. Owned by the session -- each
  // device counts independently, never shared across a fleet.
  uint32_t firmware_version() const { return update_engine_->current_version(); }

  // Verify and apply a package against this device's own machine,
  // monitor and version counter (the engine is bound to them at
  // construction, so an update can never land on a different device
  // than the one whose monitor polices it). On kApplied a kCfaBaseline
  // session also logs the epoch-boundary marker the verifier swaps
  // replay CFGs at. Applying a package does NOT re-point the session's
  // build -- that is the build-transition half, see adopt_build() and
  // eilid::UpdateCampaign. Hold mutex() when a concurrent sweep may
  // touch this device.
  casu::UpdateStatus apply_update(const casu::UpdatePackage& package);

  // --- chunked lossy-transport receiver (see eilid/transport.h) -----
  // Thin forwarders to this device's UpdateEngine (same binding
  // guarantees as apply_update; hold mutex() under the same rules).
  // The staged transfer and the commit journal are modeled as
  // non-volatile: both survive power_cycle()/reflash(), like an
  // inactive mcuboot image slot.
  casu::ChunkAck receive_update_chunk(const casu::TransferChunk& chunk);
  std::vector<bool> staged_update_chunks(
      const crypto::Digest& transfer_id) const;
  // Verify and two-phase-commit the staged transfer
  // (UpdateEngine::finalize_transfer, including the power-cut
  // injection hook); on kApplied a kCfaBaseline session logs the
  // epoch-boundary update marker exactly like apply_update. When the
  // cut fires (kInterrupted, journal pending), the reboot that follows
  // real power loss is modeled by calling power_cycle(), whose boot
  // path finishes the commit.
  casu::UpdateStatus finalize_update(
      std::optional<size_t> power_cut_after_regions = std::nullopt);

  // Re-point the session at `next` after an applied update has made
  // the device's PMEM byte-identical to next's image (the caller --
  // normally UpdateCampaign -- guarantees that; the ROM must be
  // unchanged). Re-attaches next's shared predecoded table, so the
  // device keeps decoding from a build-time table instead of falling
  // back to interpretive decode forever, and future symbol lookups
  // resolve against the new code. Throws eilid::FleetError on a
  // policy/build mismatch or a null or table-less build.
  void adopt_build(std::shared_ptr<const core::BuildResult> next);

  // Power-cycle the device: volatile state and monitor latches clear
  // (an enforcement reset); the CFA log deliberately survives with a
  // reset marker (ACFA keeps evidence in attested memory), and the
  // verifier's replay state is untouched -- it lives off-device.
  void power_cycle();

  // Factory recovery: restore the flashed code regions (PMEM + secure
  // ROM) byte-for-byte from the session's *recorded* build, re-attach
  // its shared predecoded table, then power_cycle(). This is the
  // "reset" half of fleet remediation -- a device that diverged from
  // its recorded image (rogue but validly-MAC'd patch, kNone
  // self-modification) is put back onto a known image so a subsequent
  // build-transition update is applicable again (no kImageMismatch).
  // Like power_cycle(), the CFA log survives with a reset marker.
  void reflash();

  // Simulated reachability. An offline device stops producing the
  // periodic attestation announcements fleet health is built on: its
  // heartbeats are recorded as misses (its freshness goes stale) and
  // remediation cannot touch it until it returns. Pure fault-injection
  // state -- the simulated machine itself keeps running; direct
  // attest()/verify_all() calls are unaffected (the transport they
  // model is the challenge-response path, whose loss is modeled by
  // simply not calling them). Thread-safe.
  bool online() const { return online_.load(std::memory_order_acquire); }
  void set_online(bool online) {
    online_.store(online, std::memory_order_release);
  }

  // Private memory this device costs beyond its build's shared
  // artifacts: the machine's materialized copy-on-write pages and page
  // tables (sim::PagedMemory) plus the CFA monitor's resident log
  // arena. The bench_fleet_10k per-device gate reads this; the shared
  // flat image, code table and CFG are counted once per build, not
  // here.
  size_t resident_memory_bytes() const;

  // Per-device lock for fleet-level concurrency. A session is itself
  // single-threaded; when several fleet actors may touch the same
  // device at once (a workload driver simulating it, an attestation
  // sweep draining its log), each takes this mutex for the duration.
  // VerifierService::attest/verify_all and apps::run_workload_all
  // already do; hold it yourself when hand-driving a session that a
  // concurrent sweep can see.
  std::mutex& mutex() const { return mu_; }

 private:
  // (Re-)attach the build's shared code table unless options_.engine
  // is kInterpretive. Must run after every flash of the code regions
  // (construction, adopt_build, reflash): the attachment snapshots the
  // bus code generation.
  void attach_code_table();

  std::string id_;
  mutable std::mutex mu_;
  std::shared_ptr<const core::BuildResult> build_;
  EnforcementPolicy policy_;
  SessionOptions options_;
  sim::Machine machine_;
  std::unique_ptr<core::EilidHwMonitor> hw_monitor_;
  std::unique_ptr<cfa::CfaMonitor> cfa_monitor_;
  std::unique_ptr<casu::UpdateEngine> update_engine_;
  std::atomic<bool> online_{true};
};

}  // namespace eilid

#endif  // EILID_EILID_SESSION_H
