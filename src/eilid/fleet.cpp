#include "eilid/fleet.h"

#include <algorithm>

#include "common/error.h"
#include "eilid/rollout.h"

namespace eilid {

// ------------------------------------------------------------------
// VerifierService
// ------------------------------------------------------------------

VerifierService::DeviceState VerifierService::make_state(
    DeviceSession& session) {
  if (session.cfa_monitor() == nullptr) {
    throw FleetError("verifier: session '" + session.id() +
                     "' has no CFA monitor (policy " +
                     std::string(enforcement_policy_name(session.policy())) +
                     "); only kCfaBaseline devices attest");
  }
  return DeviceState{
      &session,
      cfa::CfaVerifier(session.build().cfg, session.options().attest_key), 0};
}

void VerifierService::enroll(DeviceSession& session) {
  DeviceState state = make_state(session);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = devices_.try_emplace(session.id(), std::move(state));
  (void)it;
  if (!inserted) {
    throw FleetError("verifier: device '" + session.id() +
                     "' is already enrolled");
  }
}

bool VerifierService::enrolled(const std::string& device_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return devices_.count(device_id) != 0;
}

void VerifierService::withdraw(const std::string& device_id) {
  std::lock_guard<std::mutex> lock(mu_);
  devices_.erase(device_id);
}

bool VerifierService::stage_cfg_swap(DeviceSession& session) {
  if (session.cfa_monitor() == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = devices_.find(session.id());
  if (it == devices_.end() || it->second.session != &session) return false;
  // The caller holds session.mutex(), which is exactly the lock that
  // guards this DeviceState's replay verifier.
  it->second.verifier.queue_cfg_swap(session.build().cfg);
  return true;
}

VerifierService::AttestResult VerifierService::attest(DeviceSession& session,
                                                     size_t max_edges) {
  if (session.cfa_monitor() == nullptr) {
    // Nothing to challenge: no on-device evidence exists. Report the
    // gap instead of throwing so a sweep over a mixed-policy batch
    // degrades per device rather than aborting.
    AttestResult out;
    out.device_id = session.id();
    out.attested = false;
    return out;
  }
  DeviceState* state = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = devices_.find(session.id());
    if (it != devices_.end()) state = &it->second;
  }
  if (state == nullptr) {
    // First contact: build the replay state outside mu_, then race to
    // insert it; a concurrent first contact may win, in which case its
    // state is the one that counts.
    DeviceState fresh = make_state(session);
    std::lock_guard<std::mutex> lock(mu_);
    state = &devices_.try_emplace(session.id(), std::move(fresh))
                 .first->second;
  }
  // Attest the session the caller handed us (not state->session: if a
  // distinct live session aliases an enrolled id, its own log must be
  // the evidence -- replaying somebody else's would let it impersonate
  // a healthy device).
  return attest_device(*state, session, max_edges);
}

VerifierService::AttestResult VerifierService::attest_device(
    DeviceState& state, DeviceSession& session, size_t max_edges) {
  // Per-device locking: DeviceState (replay verifier, expected_seq) is
  // guarded by its *enrolled* session's mutex, and the session being
  // drained by its own. They are the same object except when a caller
  // attests a live session aliasing an enrolled id; then both locks
  // are taken (std::lock, deadlock-free) so the sweep of the enrolled
  // device and the aliased attest can never race on the shared state.
  std::unique_lock<std::mutex> state_lock(state.session->mutex(),
                                          std::defer_lock);
  std::unique_lock<std::mutex> drain_lock(session.mutex(), std::defer_lock);
  if (state.session == &session) {
    state_lock.lock();
  } else {
    std::lock(state_lock, drain_lock);
  }

  AttestResult out;
  out.device_id = session.id();
  out.attested = true;
  out.tick = clock_ != nullptr ? clock_->now() : 0;

  const uint64_t nonce =
      nonce_counter_.fetch_add(1, std::memory_order_relaxed);
  cfa::Report report = session.cfa_monitor()->take_report(
      nonce, session.machine().cycles(), max_edges);
  out.remaining = session.cfa_monitor()->log_size();
  out.seq = report.seq;
  out.cycle = report.cycle;
  out.edges = report.edges.size();
  out.dropped = report.dropped;
  out.seq_ok = report.seq == state.expected_seq;
  state.expected_seq = report.seq + 1;

  cfa::CfaVerifier::Result v = state.verifier.verify(report, nonce);
  out.mac_ok = v.mac_ok;
  out.path_ok = v.path_ok;
  out.first_bad = v.first_bad;
  return out;
}

std::vector<DeviceSession*> VerifierService::roster() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DeviceSession*> out;
  out.reserve(devices_.size());
  for (const auto& [id, state] : devices_) out.push_back(state.session);
  return out;
}

std::vector<VerifierService::AttestResult> VerifierService::sweep(
    const std::vector<SweepTarget>& targets, common::ThreadPool& pool) {
  // Workers fill results by index, so the verdicts do not depend on the
  // pool: each device's evidence, replay state and sequence window are
  // private to it. A target without state goes through attest(): a
  // monitor-less session degrades to attested = false, an un-enrolled
  // CFA session enrolls on first contact.
  std::vector<AttestResult> out(targets.size());
  pool.parallel_for(targets.size(), [&](size_t i) {
    const SweepTarget& target = targets[i];
    out[i] = target.state != nullptr
                 ? attest_device(*target.state, *target.session, 0)
                 : attest(*target.session);
  });
  return out;
}

std::vector<VerifierService::AttestResult> VerifierService::verify_all(
    common::ThreadPool& pool) {
  // The subset sweep over the roster: the map walk is already in id
  // order and hands over each device's state, so nothing is sorted or
  // looked up again.
  std::vector<SweepTarget> targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    targets.reserve(devices_.size());
    for (auto& [id, state] : devices_) targets.push_back({state.session, &state});
  }
  return sweep(targets, pool);
}

std::vector<VerifierService::AttestResult> VerifierService::verify_all(
    const std::vector<DeviceSession*>& sessions, common::ThreadPool& pool) {
  std::vector<SweepTarget> ordered;
  ordered.reserve(sessions.size());
  for (DeviceSession* session : sessions) {
    if (session == nullptr) {
      throw FleetError("verifier: subset sweep over a null session");
    }
    ordered.push_back({session, nullptr});
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const SweepTarget& a, const SweepTarget& b) {
              return a.session->id() < b.session->id();
            });
  for (size_t i = 1; i < ordered.size(); ++i) {
    if (ordered[i - 1].session->id() == ordered[i].session->id()) {
      throw FleetError("verifier: subset sweep lists device id '" +
                       ordered[i].session->id() + "' twice");
    }
  }
  return sweep(ordered, pool);
}

// ------------------------------------------------------------------
// Fleet
// ------------------------------------------------------------------

namespace {

// Content hash of everything that determines a BuildResult. Two
// provisioning calls with the same source and build shape share one
// pipeline run through this key.
crypto::Digest build_key(const std::string& source, const std::string& name,
                         const core::BuildOptions& o) {
  const core::RomConfig& rom =
      o.prebuilt_rom != nullptr ? o.prebuilt_rom->config : o.rom;
  const core::InstrumentConfig& in = o.instrument;
  std::string meta = "eilid-build-v2|" + name + "|";
  auto flag = [&meta](bool b) { meta += b ? '1' : '0'; };
  auto num = [&meta](uint64_t v) { meta += std::to_string(v) + ","; };
  flag(o.eilid);
  flag(o.verify_convergence);
  flag(o.prebuilt_rom != nullptr);
  flag(in.backward_edge);
  flag(in.interrupt_edge);
  flag(in.forward_edge);
  flag(in.label_mode);
  num(static_cast<uint64_t>(in.table_policy));
  num(rom.secure_base);
  num(rom.secure_size);
  num(rom.table_capacity);
  num(rom.shadow_capacity);
  flag(rom.memory_backed_index);
  // A prebuilt ROM is part of the flashed result, so its *image bytes*
  // are part of the build's identity -- the config alone is not enough
  // (two ROMs can share a config yet differ in code), and aliasing
  // them would flash the second device with the first ROM.
  if (o.prebuilt_rom != nullptr) {
    const core::RomInfo& info = *o.prebuilt_rom;
    num(info.entry_start);
    num(info.entry_end);
    num(info.leave_start);
    num(info.leave_end);
    for (const auto& chunk : info.unit.image.chunks()) {
      num(chunk.base);
      num(chunk.data.size());
      meta.append(reinterpret_cast<const char*>(chunk.data.data()),
                  chunk.data.size());
    }
  }
  meta += '|';

  crypto::Sha256 h;
  h.update(meta);
  h.update(source);
  return h.finish();
}

}  // namespace

Fleet::Fleet(FleetOptions options) : options_(std::move(options)) {
  // The fleet's verifier stamps verdicts with fleet time; both live
  // exactly as long as the Fleet.
  verifier_.attach_clock(&clock_);
}

std::shared_ptr<const core::BuildResult> Fleet::build(
    const std::string& source, const std::string& name,
    const core::BuildOptions& options) {
  const crypto::Digest key = build_key(source, name, options);

  std::promise<std::shared_ptr<const core::BuildResult>> promise;
  BuildFuture future;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++cache_hits_;
      future = it->second;
    } else {
      owner = true;
      future = promise.get_future().share();
      cache_.emplace(key, future);
      ++pipeline_runs_;
    }
  }
  if (owner) {
    try {
      promise.set_value(std::make_shared<const core::BuildResult>(
          core::build_app(source, name, options)));
    } catch (...) {
      // Evict so a later call retries; threads already waiting on this
      // flight observe the failure.
      {
        std::lock_guard<std::mutex> lock(cache_mu_);
        cache_.erase(key);
      }
      promise.set_exception(std::current_exception());
    }
  }
  return future.get();
}

size_t Fleet::build_cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_.size();
}

crypto::Digest Fleet::device_key(const std::string& device_id) const {
  return crypto::derive_key(
      std::span<const uint8_t>(options_.master_key.data(),
                               options_.master_key.size()),
      "attest:" + device_id);
}

crypto::Digest Fleet::update_key(const std::string& device_id) const {
  return crypto::derive_key(
      std::span<const uint8_t>(options_.master_key.data(),
                               options_.master_key.size()),
      "update:" + device_id);
}

UpdateCampaign Fleet::stage_update(
    std::shared_ptr<const core::BuildResult> target, CampaignOptions options) {
  return UpdateCampaign(*this, std::move(target), options);
}

UpdateCampaign Fleet::stage_update(const std::string& source,
                                   const std::string& name,
                                   const core::BuildOptions& build_options,
                                   CampaignOptions options) {
  return stage_update(build(source, name, build_options), options);
}

CampaignScheduler Fleet::plan_rollout(UpdateCampaign campaign,
                                      RolloutPlan plan) {
  return CampaignScheduler(*this, std::move(campaign), std::move(plan));
}

CampaignScheduler Fleet::plan_rollout(
    std::shared_ptr<const core::BuildResult> target, RolloutPlan plan,
    CampaignOptions options) {
  return plan_rollout(stage_update(std::move(target), std::move(options)),
                      std::move(plan));
}

DeviceSession& Fleet::deploy(const std::string& device_id,
                             std::shared_ptr<const core::BuildResult> build,
                             EnforcementPolicy policy, SessionOptions options) {
  {
    // Fast-fail a duplicate id before paying for session construction
    // (flash + power-on); the try_emplace below stays authoritative
    // for ids racing past this check.
    std::lock_guard<std::mutex> lock(registry_mu_);
    if (sessions_.count(device_id) != 0) {
      throw FleetError("fleet: device id '" + device_id +
                       "' already deployed");
    }
  }
  options.attest_key = device_key(device_id);
  options.update_key = update_key(device_id);
  auto session = std::make_unique<DeviceSession>(device_id, std::move(build),
                                                 policy, options);
  DeviceSession& ref = *session;

  // Enroll while the session is still privately owned, publish last:
  // a published session can then never be rolled back, so pointers
  // handed out by find()/sessions() stay valid until decommission, and
  // a rollback (enroll or publication failing) withdraws the
  // enrollment *before* the local unique_ptr destroys the session --
  // the verifier never holds a dangling DeviceSession*.
  bool enrolled_here = false;
  try {
    if (policy == EnforcementPolicy::kCfaBaseline) {
      verifier_.enroll(ref);
      enrolled_here = true;
    }
    // Publish the map entry and the order_ slot in one critical
    // section. The order_ slot is reserved before the map insert: once
    // the session is in the map, the remaining push_back cannot throw,
    // so publication is all-or-nothing.
    std::lock_guard<std::mutex> lock(registry_mu_);
    order_.reserve(order_.size() + 1);
    auto [it, inserted] = sessions_.try_emplace(device_id, std::move(session));
    (void)it;
    if (!inserted) {
      throw FleetError("fleet: device id '" + device_id +
                       "' already deployed");
    }
    order_.push_back(&ref);
  } catch (...) {
    // Withdraw only what *this* deploy enrolled (an enrollment that
    // predates the call -- e.g. a standalone session claimed the id --
    // is not ours to undo). `session` may still own the object (publish
    // not reached / try_emplace failed), in which case it is destroyed
    // on unwind, after the withdraw.
    if (enrolled_here) verifier_.withdraw(device_id);
    throw;
  }
  return ref;
}

DeviceSession& Fleet::provision(const std::string& device_id,
                                const std::string& source,
                                const std::string& name,
                                EnforcementPolicy policy,
                                SessionOptions options) {
  core::BuildOptions build_options;
  build_options.eilid = policy == EnforcementPolicy::kEilidHw;
  return deploy(device_id, build(source, name, build_options), policy, options);
}

DeviceSession* Fleet::find(const std::string& device_id) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = sessions_.find(device_id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

DeviceSession& Fleet::at(const std::string& device_id) {
  DeviceSession* session = find(device_id);
  if (session == nullptr) {
    throw FleetError("fleet: unknown device id '" + device_id + "'");
  }
  return *session;
}

size_t Fleet::size() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return sessions_.size();
}

std::vector<DeviceSession*> Fleet::sessions() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return order_;
}

void Fleet::decommission(const std::string& device_id) {
  std::unique_ptr<DeviceSession> doomed;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto it = sessions_.find(device_id);
    if (it == sessions_.end()) {
      throw FleetError("fleet: unknown device id '" + device_id + "'");
    }
    doomed = std::move(it->second);
    sessions_.erase(it);
    order_.erase(std::find(order_.begin(), order_.end(), doomed.get()));
  }
  verifier_.withdraw(device_id);
  // `doomed` is destroyed last, after every index has forgotten it.
}

}  // namespace eilid
