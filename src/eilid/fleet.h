// The public API of the library: a Fleet owns everything needed to
// operate many simulated devices as one session --
//
//   - a content-hash-keyed build cache: identical (source, options)
//     pairs run the three-iteration pipeline exactly once and share
//     one immutable BuildResult across every device flashed with it --
//     including its three per-build tables: the flat image every
//     session's copy-on-write memory views, the CFG the verifier
//     replays against, and isa::DecodedImage, the code table: the ROM
//     predecoded once per build, each slot also carrying its
//     superblock (the straight-line run from that PC to the first
//     hazard). A fleet of N devices on one build decodes each
//     instruction once and discovers each basic block once, at build
//     time, total; every session's hot loop then retires whole blocks
//     with one generation/IRQ check per block. A session falls back
//     to per-instruction interpretive decode only for PCs outside
//     flash or after a store lands in the code range, which bumps the
//     bus's code-generation counter -- CASU-enforced devices never
//     do. SessionOptions.engine selects kInterpretive or kSuperblock
//     (the default) per session; traces, final state and CFA evidence
//     are bit-identical across the two (the bench and
//     tests/test_superblock.cpp gate it),
//   - a device registry provisioning N DeviceSessions from cached
//     builds, each wired per its EnforcementPolicy,
//   - a VerifierService multiplexing attestation across sessions with
//     per-device keys, nonces and replay state, plus a batched
//     verify_all() sweep,
//   - update campaigns (stage_update() -> eilid::UpdateCampaign):
//     CASU's authenticated, anti-rollback software update as a *build
//     transition* -- each device moves from its own current cached
//     build to the target via a MAC'd package diffed between the two
//     images, keyed and versioned per device. A successful update
//     atomically swaps the session onto the target build (its shared
//     per-build tables and symbols) and stages a replay-CFG swap with
//     the verifier at the epoch marker the device logged, so pre-update
//     evidence replays against the old CFG and post-update evidence
//     against the new,
//   - staged rollouts (plan_rollout() -> eilid::CampaignScheduler,
//     src/eilid/rollout.h): canary waves, percentage cuts, held A/B
//     cohorts, failure budgets and rate limits layered over a
//     campaign. Each wave applies, runs an optional workload probe,
//     then passes an attestation *gate* -- a verifier subset sweep
//     over just that wave -- and the plan promotes to the next wave
//     only while failures stay within budget. Attestation verdicts
//     drive fleet control flow here, not just reporting. Plans may
//     soak each wave (advance the fleet clock and re-sweep before
//     promoting) and, with rollback_on_halt, automatically stage
//     reverse campaigns that walk every touched device back to its
//     prior build when the budget trips,
//   - fleet time and health (clock()/src/eilid/clock.h,
//     src/eilid/health.h): every Fleet owns one deterministic
//     FleetClock -- simulated ticks, advanced only by schedulers,
//     never wall time -- and every attestation verdict is stamped
//     with it. A HeartbeatScheduler sweeps the fleet on a fixed
//     cadence (deterministic per-device phase jitter) maintaining
//     per-device freshness records; a HealthMonitor quarantines
//     devices whose last good attestation goes stale or that a sweep
//     convicts, and remediates them automatically -- reflash from the
//     recorded build, re-update onto a staged golden campaign, and
//     release only on a clean verdict. Convictions drive remediation,
//     not just reports.
//
//   eilid::Fleet fleet;
//   auto& dev = fleet.provision("door-7", source, "gateway",
//                               eilid::EnforcementPolicy::kEilidHw);
//   dev.run_to_symbol("halt", 200000);
//   if (dev.violation_count() > 0) { /* hijack prevented in real time */ }
//
// Concurrency model
// -----------------
// The fleet engine is built to be driven from a thread pool
// (common::ThreadPool). Every fleet operation that fans out -- sweeps,
// rollouts, heartbeat/health/windowed runs, staged rollouts -- is ONE
// function taking a common::ThreadPool& that defaults to
// common::ThreadPool::inline_pool(), the zero-worker pool that runs
// each index in order on the caller's thread. A serial run therefore
// executes the pooled code path itself, which is why every pooled
// report is bit-identical to the serial one. The contract is:
//
//   Thread-safe (internally synchronized):
//     - Fleet::build()/provision()/deploy(): the build cache is
//       single-flight -- concurrent builds of the same content hash
//       run the pipeline once and every caller shares the one result;
//       the device registry is one map under one mutex, held only to
//       look up or publish (a deploy builds its session and enrolls it
//       outside the lock, so deploys of distinct ids overlap there).
//     - Fleet::find()/at()/size()/sessions()/decommission() against
//       concurrent deploys of *other* ids.
//     - VerifierService::enroll()/attest()/verify_all()/enrolled()/
//       roster(): each attestation locks its DeviceSession (per-device
//       locking), so disjoint devices attest in parallel and the same
//       device is never attested twice at once. There is one sweep:
//       the whole-fleet verify_all() is the subset sweep over the
//       roster (the enrolled devices in id order), so a wave gate and
//       a concurrent whole-fleet sweep serialize per device and
//       interleave across devices.
//     - apps::run_workload_all(): drives disjoint sessions
//       concurrently, taking each session's lock for the duration.
//     - UpdateCampaign::apply_to()/roll_out(): each device updates
//       under its own session lock (diff cache shared, internally
//       locked), so a pooled rollout, a concurrent attestation sweep
//       and concurrent workload drivers interleave per device.
//       The CFG epoch is staged while the device's lock is still held,
//       so a sweep can never drain an update marker the verifier has
//       not been told about.
//     - CampaignScheduler::run(pool): wave applies, probes, gate
//       sweeps, soak re-sweeps and halt rollbacks all ride the
//       per-device locks above. The scheduler object
//       itself is not shared across threads -- one run at a time per
//       scheduler.
//     - HeartbeatScheduler/HealthMonitor/IncrementalVerifier
//       run_until() (health.h, incremental.h): each watches the
//       verifier's roster -- a device is watched exactly while it is
//       enrolled, a session enrolled by hand too -- and a due tick the
//       clock has already passed catches up onto its cadence
//       (eilid::catch_up, clock.h). Heartbeat sweeps are subset sweeps
//       and windowed slices are bounded attest() calls, both under the
//       per-device session locks, so they interleave safely with
//       rollouts and workload drivers. Remediation holds the device's
//       lock across its reflash and re-updates through
//       UpdateCampaign::apply_to(), the lock an in-flight campaign
//       takes, so healing never races a campaign on that device.
//       FleetClock is atomic and monotonic. One run_until at a time per
//       object (summaries()/records() may be read concurrently).
//
//   Requires external synchronization:
//     - A DeviceSession itself is single-threaded: do not call run()/
//       power_cycle()/machine() on one session from two threads. Hold
//       DeviceSession::mutex() when driving a session that a
//       concurrent attestation sweep may also touch (run_workload_all
//       and VerifierService already do).
//     - decommission()/withdraw() of a device must not race attest()/
//       verify_all() or any use of that device's session pointer: the
//       registry hands out raw DeviceSession pointers that die with
//       decommission. Quiesce sweeps first. Likewise, lifecycle calls
//       for the *same* id (deploy vs decommission) must be externally
//       ordered -- a device cannot be retired while it is still being
//       deployed.
#ifndef EILID_EILID_FLEET_H
#define EILID_EILID_FLEET_H

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "crypto/hmac.h"
#include "eilid/clock.h"
#include "eilid/session.h"
#include "eilid/update.h"

namespace eilid {

class CampaignScheduler;
struct RolloutPlan;

// Verifier half of the CFA baseline, fleet-wide: one instance tracks
// every enrolled device's MAC key, challenge nonce and stateful path
// replay *independently*, so one device's compromise (or power cycle)
// never perturbs another's attestation history.
class VerifierService {
 public:
  struct AttestResult {
    std::string device_id;
    bool attested = false;  // false: session has no CFA monitor, so no
                            // report could be collected (mac/seq/path
                            // are meaningless and left false)
    uint32_t seq = 0;
    uint64_t cycle = 0;     // device cycle at report emission
    Tick tick = 0;          // fleet time at verification (0 when the
                            // service has no clock attached) -- the
                            // freshness primitive: health monitoring
                            // judges *when* evidence last verified, not
                            // just whether it did
    bool mac_ok = false;
    bool seq_ok = false;   // report sequence number was the expected one
    bool path_ok = false;  // replayed log stayed inside the CFG
    size_t edges = 0;
    uint32_t dropped = 0;  // evidence lost to on-device log overflow
    std::optional<cfa::LoggedEdge> first_bad;
    // Edges still held on-device after this drain: 0 for the barrier
    // sweep (which drains everything); a bounded attest() leaves
    // the remainder for the next slice. The incremental verifier uses
    // this to tell a caught-up device from one mid-drain.
    size_t remaining = 0;

    bool ok() const { return attested && mac_ok && seq_ok && path_ok; }

    // Field-wise equality: the rollout determinism gates (pooled wave
    // gate == serial wave gate) compare whole verdicts, so a new field
    // is covered automatically.
    bool operator==(const AttestResult&) const = default;
  };

  // Register a session for attestation: fresh per-device replay state
  // over its build's CFG (BuildResult::cfg, shared by every device of
  // the build). Throws eilid::FleetError when the session has no CFA
  // monitor or is already enrolled. attest() enrolls on first contact
  // automatically. The service keeps a reference for verify_all(): an
  // enrolled session must outlive the service or be withdraw()n first
  // (Fleet::decommission does this for fleet-owned sessions).
  void enroll(DeviceSession& session);
  bool enrolled(const std::string& device_id) const;

  // The roster: every enrolled session in id order -- the fleet's
  // kCfaBaseline devices (deploy()/decommission() enroll and withdraw
  // them) plus any session enrolled by hand or by attest()'s first
  // contact. verify_all() and every fleet-time scheduler walk it.
  std::vector<DeviceSession*> roster() const;

  // Challenge one device now: fresh nonce, drain at most `max_edges`
  // edges of its log (0 = everything), check MAC + sequence + path.
  // Replay state persists across calls, so a sequence of bounded
  // slices replays exactly the evidence one full drain would, in
  // order, and a hijack is convicted at the same edge (see
  // eilid::IncrementalVerifier, which schedules slices). A session
  // with no CFA monitor is not an error -- there is simply no evidence
  // to collect -- so the result comes back with attested = false
  // (ok() false) and the session is not enrolled.
  AttestResult attest(DeviceSession& session, size_t max_edges = 0);

  // Barrier sweep: the subset sweep below over the whole roster(), in
  // enrollment-id order, fanned out across `pool` with per-device
  // locking. The verdicts do not depend on the pool because every
  // device's replay state and sequence window are independent and
  // nonces only feed the per-report MAC.
  std::vector<AttestResult> verify_all(
      common::ThreadPool& pool = common::ThreadPool::inline_pool());

  // Subset sweep: attest exactly `sessions` (a rollout wave, a canary
  // cohort) instead of every enrolled device -- devices outside the
  // subset are not swept, so a wave gate never drains evidence from
  // devices still on the old build. Results come back in
  // enrollment-id order regardless of the input order, matching the
  // whole-fleet sweep's contract, and each attestation takes the
  // device's session mutex, so a subset sweep interleaves safely with
  // a concurrent full sweep or workload driver. A session with no CFA
  // monitor yields an attested = false entry (never ok()); an
  // un-enrolled CFA session is enrolled on first contact, exactly like
  // attest(). Throws eilid::FleetError on a null session or a
  // duplicate device id in the subset.
  std::vector<AttestResult> verify_all(
      const std::vector<DeviceSession*>& sessions,
      common::ThreadPool& pool = common::ThreadPool::inline_pool());

  // Forget a device (its session is going away). Must not race a
  // sweep or attest() of the same device.
  void withdraw(const std::string& device_id);

  // Stamp every subsequent verdict with `clock`'s tick at verification
  // (AttestResult::tick; 0 when never attached). Fleet attaches its own
  // clock at construction; call at most once, before any attestation --
  // the pointer must outlive the service.
  void attach_clock(const FleetClock* clock) { clock_ = clock; }

  // Sanction the code change `session` just logged: stage a replay-CFG
  // swap to the CFG of the session's *current* build (its
  // BuildResult::cfg), taking effect when the device's evidence stream
  // reaches its update marker. Caller must hold session.mutex()
  // (UpdateCampaign does). Returns false -- and stages nothing -- for
  // a session with no CFA monitor, one this service has not enrolled,
  // or one whose id is enrolled against a different live session.
  bool stage_cfg_swap(DeviceSession& session);

 private:
  struct DeviceState {
    DeviceSession* session = nullptr;
    cfa::CfaVerifier verifier;
    uint32_t expected_seq = 0;
  };

  // Build fresh replay state for a session over its build's shared
  // CFG. Throws when it has no CFA monitor.
  DeviceState make_state(DeviceSession& session);
  // The per-device attestation body; callers hold no service lock.
  // `session` is the device whose log is drained -- normally
  // state.session, but attest() passes the caller's session so an
  // aliased id can never present another device's evidence.
  // `max_edges` bounds the drain (0 = everything).
  AttestResult attest_device(DeviceState& state, DeviceSession& session,
                             size_t max_edges);
  // One sweep entry: the session to drain and its replay state (null:
  // resolve it as attest() does).
  struct SweepTarget {
    DeviceSession* session;
    DeviceState* state;
  };
  // The one fan-out body behind both verify_all()s: attest `targets`
  // (enrollment-id order, no duplicates) across `pool`, by index.
  std::vector<AttestResult> sweep(const std::vector<SweepTarget>& targets,
                                  common::ThreadPool& pool);

  mutable std::mutex mu_;  // guards devices_ (the map structure only;
                           // per-device state is guarded by the
                           // session's own mutex)
  std::map<std::string, DeviceState> devices_;
  std::atomic<uint64_t> nonce_counter_{1};

  const FleetClock* clock_ = nullptr;  // set once, before attestation
};

struct FleetOptions {
  // Master key provisioned at manufacture; per-device attestation keys
  // are derived as HMAC(master, "attest:" + device_id) and per-device
  // update keys as HMAC(master, "update:" + device_id).
  std::vector<uint8_t> master_key = std::vector<uint8_t>(32, 0x5A);
};

class Fleet {
 public:
  explicit Fleet(FleetOptions options = {});

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // --- build cache -------------------------------------------------
  // Build (or fetch) the app for (source, name, options). The result
  // is immutable and shared by every session deployed from it.
  // Single-flight: when two threads request the same content hash
  // concurrently, one runs the pipeline and the other blocks until
  // the shared result is ready (counted as a cache hit). A build that
  // throws is evicted, so a later call retries.
  std::shared_ptr<const core::BuildResult> build(
      const std::string& source, const std::string& name,
      const core::BuildOptions& options = {});

  size_t pipeline_runs() const { return pipeline_runs_.load(); }
  size_t build_cache_hits() const { return cache_hits_.load(); }
  size_t build_cache_size() const;

  // --- device registry ---------------------------------------------
  // Flash a cached build onto a new device. Throws eilid::FleetError
  // on a duplicate id or a policy/build mismatch. kCfaBaseline
  // sessions are auto-enrolled with the verifier. Exception-safe: a
  // deploy that fails at any step (construction, duplicate id,
  // enrollment) leaves neither the registry nor the verifier holding
  // the half-deployed session.
  DeviceSession& deploy(const std::string& device_id,
                        std::shared_ptr<const core::BuildResult> build,
                        EnforcementPolicy policy, SessionOptions options = {});

  // Convenience: build (cached) + deploy. BuildOptions are derived
  // from the policy: only kEilidHw instruments.
  DeviceSession& provision(const std::string& device_id,
                           const std::string& source, const std::string& name,
                           EnforcementPolicy policy,
                           SessionOptions options = {});

  DeviceSession* find(const std::string& device_id);
  DeviceSession& at(const std::string& device_id);  // throws FleetError
  void decommission(const std::string& device_id);
  size_t size() const;
  // Snapshot of the registry in deployment order. The pointers stay
  // valid until the corresponding device is decommissioned.
  std::vector<DeviceSession*> sessions() const;

  // --- update campaigns --------------------------------------------
  // Stage a secure update of fleet sessions onto `target` (normally a
  // build() result, so campaigns ride the same content-hash cache).
  // The returned campaign rolls packages out per device -- see
  // eilid/update.h for the lifecycle and concurrency contract. The
  // target's build shape must match the devices' (same RomConfig /
  // instrumentation); a transition whose images differ outside PMEM is
  // reported per device as UpdateResult::kIncompatible.
  UpdateCampaign stage_update(std::shared_ptr<const core::BuildResult> target,
                              CampaignOptions options = {});
  // Convenience: build (cached) the target from source first.
  UpdateCampaign stage_update(const std::string& source,
                              const std::string& name,
                              const core::BuildOptions& build_options = {},
                              CampaignOptions options = {});

  // --- staged rollouts ---------------------------------------------
  // Wrap a campaign in a CampaignScheduler executing `plan`: canary
  // waves with attestation gates, failure budgets, held A/B cohorts
  // and rate limits -- see eilid/rollout.h for the plan grammar,
  // report shape and concurrency contract. Callers include
  // eilid/rollout.h for the returned type.
  CampaignScheduler plan_rollout(UpdateCampaign campaign, RolloutPlan plan);
  // Convenience: stage the target build into a campaign first.
  CampaignScheduler plan_rollout(
      std::shared_ptr<const core::BuildResult> target, RolloutPlan plan,
      CampaignOptions options = {});

  VerifierService& verifier() { return verifier_; }

  // The fleet's simulated clock (see eilid/clock.h). Every time-driven
  // subsystem -- heartbeat cadences, staleness thresholds, rollout soak
  // windows -- reads this one clock, and attestation verdicts are
  // stamped with its tick (AttestResult::tick). The fleet never
  // advances it on its own: the driver (test, bench, HealthMonitor
  // loop) owns time, which is why nothing here can flake.
  FleetClock& clock() { return clock_; }
  const FleetClock& clock() const { return clock_; }

  // The key a given device MACs its attestation reports with.
  crypto::Digest device_key(const std::string& device_id) const;
  // The device-unique key a given device's secure updates are
  // authenticated against.
  crypto::Digest update_key(const std::string& device_id) const;

 private:
  FleetOptions options_;

  // Build cache: content hash -> shared future of the one pipeline
  // run for that hash (single-flight).
  using BuildFuture =
      std::shared_future<std::shared_ptr<const core::BuildResult>>;
  mutable std::mutex cache_mu_;
  std::map<crypto::Digest, BuildFuture> cache_;
  std::atomic<size_t> cache_hits_{0};
  std::atomic<size_t> pipeline_runs_{0};

  // Device registry: the sessions by id and their deployment order,
  // always updated together under registry_mu_.
  mutable std::mutex registry_mu_;
  std::map<std::string, std::unique_ptr<DeviceSession>> sessions_;
  std::vector<DeviceSession*> order_;

  FleetClock clock_;  // declared before verifier_: the verifier holds a
                      // pointer to it for its whole life
  VerifierService verifier_;
};

}  // namespace eilid

#endif  // EILID_EILID_FLEET_H
