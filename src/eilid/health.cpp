#include "eilid/health.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/rng.h"

namespace eilid {

// --- HeartbeatScheduler ---------------------------------------------

HeartbeatScheduler::HeartbeatScheduler(Fleet& fleet, HeartbeatOptions options)
    : fleet_(&fleet), options_(options) {
  if (options_.period == 0) {
    throw FleetError("heartbeat scheduler: period must be nonzero");
  }
}

Tick HeartbeatScheduler::phase_for(const std::string& device_id) const {
  if (options_.jitter == 0) return 0;
  // Keyed stream: the phase is a pure function of (seed, id), identical
  // on every platform and every run -- jitter spreads the fleet across
  // ticks without making any schedule non-reproducible.
  auto rng = common::SeededRng::keyed(options_.jitter_seed, device_id);
  return static_cast<Tick>(rng.below(options_.jitter + 1));
}

HeartbeatReport HeartbeatScheduler::run_until(Tick deadline,
                                              common::ThreadPool& pool) {
  FleetClock& clock = fleet_->clock();
  HeartbeatReport report;
  report.from = clock.now();

  // Merge the records with the verifier's roster (both in id order):
  // devices enrolled since the last run join with enrollment == now,
  // withdrawn ids drop out, and the i-th record is roster[i]'s.
  const std::vector<DeviceSession*> roster = fleet_->verifier().roster();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = records_.begin();
    for (DeviceSession* session : roster) {
      while (it != records_.end() && it->first < session->id()) {
        it = records_.erase(it);
      }
      if (it == records_.end() || it->first != session->id()) {
        FreshnessRecord record;
        record.device_id = session->id();
        record.enrolled_tick = report.from;
        record.next_due =
            report.from + options_.period + phase_for(record.device_id);
        it = records_.emplace_hint(it, session->id(), std::move(record));
      }
      ++it;
    }
    records_.erase(it, records_.end());
  }

  // Fire beats in (tick, device-id) order: repeatedly find the earliest
  // due tick <= deadline, advance the clock to it, and sweep every
  // device due on exactly that tick (record order is id order). A due
  // tick the clock has already passed catches up onto its cadence first.
  for (;;) {
    const Tick now = clock.now();
    Tick due = 0;
    std::vector<std::pair<DeviceSession*, FreshnessRecord*>> due_at;
    {
      std::lock_guard<std::mutex> lock(mu_);
      size_t i = 0;
      for (auto& [id, record] : records_) {
        DeviceSession* session = roster[i++];
        record.next_due = catch_up(record.next_due, options_.period, now);
        if (record.next_due > deadline) continue;
        if (due_at.empty() || record.next_due < due) {
          due = record.next_due;
          due_at.clear();
        }
        if (record.next_due == due) due_at.emplace_back(session, &record);
      }
      if (due_at.empty()) break;
    }

    clock.advance_to(due);
    HeartbeatBeat beat;
    beat.tick = due;

    std::vector<DeviceSession*> online;
    for (const auto& [session, record] : due_at) {
      if (session->online()) {
        online.push_back(session);
      } else {
        beat.missed.push_back(session->id());
      }
    }
    if (!online.empty()) {
      beat.verdicts = fleet_->verifier().verify_all(online, pool);
    }

    // Verdicts come back in id order, so one cursor pairs each due
    // record with its verdict; a due record without one missed.
    std::lock_guard<std::mutex> lock(mu_);
    size_t next_verdict = 0;
    for (const auto& [session, entry] : due_at) {
      FreshnessRecord& record = *entry;
      if (next_verdict == beat.verdicts.size() ||
          beat.verdicts[next_verdict].device_id != record.device_id) {
        ++record.misses;
        ++record.consecutive_misses;
        // Exponential backoff (see HeartbeatOptions): the k-th
        // consecutive miss waits period << min(k, cap). Shift clamped
        // well below the Tick width so a pathological cap cannot
        // overflow the schedule.
        const uint32_t exponent = std::min(
            {record.consecutive_misses, options_.max_backoff_exponent,
             uint32_t{48}});
        record.next_due += options_.period << exponent;
        continue;
      }
      ++record.heartbeats;
      record.consecutive_misses = 0;  // evidence arrived: cadence snaps back
      record.last_attested_tick = due;
      record.ever_attested = true;
      if (beat.verdicts[next_verdict++].ok()) {
        record.last_ok_tick = due;
        record.ever_ok = true;
        record.convicted = false;
      } else {
        record.convicted = true;
      }
      record.next_due += options_.period;
    }
    report.beats.push_back(std::move(beat));
  }

  clock.advance_to(deadline);
  report.until = clock.now();
  return report;
}

std::vector<FreshnessRecord> HeartbeatScheduler::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FreshnessRecord> out;
  out.reserve(records_.size());
  for (const auto& [id, record] : records_) out.push_back(record);
  return out;
}

FreshnessRecord HeartbeatScheduler::record(const std::string& device_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(device_id);
  return it == records_.end() ? FreshnessRecord{} : it->second;
}

void HeartbeatScheduler::note_remediated(const std::string& device_id,
                                         Tick tick) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(device_id);
  if (it == records_.end()) return;
  FreshnessRecord& record = it->second;
  record.consecutive_misses = 0;
  record.last_attested_tick = tick;
  record.last_ok_tick = tick;
  record.ever_attested = true;
  record.ever_ok = true;
  record.convicted = false;
}

// --- quarantine decision --------------------------------------------

std::string_view quarantine_reason_name(QuarantineReason reason) {
  switch (reason) {
    case QuarantineReason::kNone: return "none";
    case QuarantineReason::kStale: return "stale";
    case QuarantineReason::kConvicted: return "convicted";
    case QuarantineReason::kEscalated: return "escalated";
  }
  return "?";
}

QuarantineReason assess(const FreshnessRecord& record, Tick now,
                        const HealthPolicy& policy) {
  if (record.convicted) return QuarantineReason::kConvicted;
  // Staleness is measured from the last *clean* verdict -- evidence
  // that keeps arriving but never verifies is exactly as stale as
  // silence. A device that has never verified clean ages from its
  // enrollment instead.
  const Tick anchor =
      record.ever_ok ? record.last_ok_tick : record.enrolled_tick;
  const Tick age = now >= anchor ? now - anchor : 0;
  if (age > policy.staleness_threshold) return QuarantineReason::kStale;
  return QuarantineReason::kNone;
}

// --- HealthMonitor --------------------------------------------------

HealthMonitor::HealthMonitor(Fleet& fleet, HealthOptions options)
    : fleet_(&fleet), options_(options), scheduler_(fleet, options.heartbeat) {}

void HealthMonitor::stage_remediation(UpdateCampaign campaign) {
  std::lock_guard<std::mutex> lock(mu_);
  remediation_.emplace(std::move(campaign));
}

std::vector<QuarantineEntry> HealthMonitor::quarantined() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QuarantineEntry> out;
  out.reserve(quarantine_.size());
  for (const auto& [id, entry] : quarantine_) out.push_back(entry);
  return out;
}

RemediationOutcome HealthMonitor::remediate_one(const QuarantineEntry& entry,
                                                Tick now) {
  RemediationOutcome out;
  out.device_id = entry.device_id;
  out.reason = entry.reason;
  out.tick = now;
  DeviceSession* session = fleet_->find(entry.device_id);
  if (session == nullptr || !session->online()) {
    // Unreachable: a decommissioned or offline device cannot be reset
    // or re-updated. It stays quarantined for the next pass.
    return out;
  }
  out.reachable = true;
  // Reset half: factory-restore the recorded image under the device's
  // lock (a concurrent sweep of this device must not observe a
  // half-reflashed machine), so even a diverged device is updatable.
  {
    std::lock_guard<std::mutex> lock(session->mutex());
    session->reflash();
  }
  // Re-update half: the ordinary campaign lifecycle (fresh epoch
  // marker, replay-CFG swap, per-device lock inside). kAlreadyCurrent
  // is a success -- a stale-but-current device just needed the reset.
  out.update = remediation_->apply_to(*session);
  // Prove the heal: an immediate attestation. The reset marker logged
  // by reflash() clears the verifier's replay stacks, so pre-reset
  // evidence (including what convicted the device) cannot taint this
  // verdict.
  out.verdict = fleet_->verifier().attest(*session);
  out.healed = out.update.ok() && out.verdict.ok();
  return out;
}

HealthReport HealthMonitor::run_until(Tick deadline,
                                      common::ThreadPool& pool) {
  HealthReport report;
  report.heartbeats = scheduler_.run_until(deadline, pool);
  const Tick now = fleet_->clock().now();

  // Assess every watched device against the policy; latch new
  // quarantines. Records come back sorted by id, so the report is too.
  const std::vector<FreshnessRecord> records = scheduler_.records();
  std::vector<QuarantineEntry> to_remediate;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Forget ids that left the roster (decommissioned). Quarantining
    // reads heal_attempts_[id] into being, so one pass prunes both.
    VerifierService& verifier = fleet_->verifier();
    for (auto it = heal_attempts_.begin(); it != heal_attempts_.end();) {
      if (verifier.enrolled(it->first)) {
        ++it;
        continue;
      }
      quarantine_.erase(it->first);
      it = heal_attempts_.erase(it);
    }
    const uint32_t max_attempts = options_.policy.max_heal_attempts;
    for (const FreshnessRecord& record : records) {
      const QuarantineReason reason = assess(record, now, options_.policy);
      if (reason == QuarantineReason::kNone) continue;
      if (quarantine_.count(record.device_id) != 0) continue;
      QuarantineEntry entry;
      entry.device_id = record.device_id;
      entry.reason = reason;
      entry.since = now;
      entry.remediation_attempts = heal_attempts_[record.device_id];
      // A device re-entering quarantine with its lifetime attempt
      // budget already spent escalates immediately: the previous heals
      // did not stick, so another automated pass would too.
      if (max_attempts != 0 && entry.remediation_attempts >= max_attempts) {
        entry.reason = QuarantineReason::kEscalated;
        report.escalated.push_back(entry);
      }
      quarantine_.emplace(record.device_id, entry);
      report.newly_quarantined.push_back(std::move(entry));
    }
    if (remediation_.has_value()) {
      to_remediate.reserve(quarantine_.size());
      for (const auto& [id, entry] : quarantine_) {
        // Terminal: escalated devices wait for the operator.
        if (entry.reason == QuarantineReason::kEscalated) continue;
        to_remediate.push_back(entry);
      }
    }
  }

  // Remediate (campaign staged only): one attempt per quarantined
  // device, outcomes indexed by sorted id so the pass does not depend
  // on the pool (each device's outcome depends on its own state alone;
  // the clock does not advance mid-pass).
  if (!to_remediate.empty()) {
    std::vector<RemediationOutcome> outcomes(to_remediate.size());
    pool.parallel_for(to_remediate.size(), [&](size_t i) {
      outcomes[i] = remediate_one(to_remediate[i], now);
    });
    std::lock_guard<std::mutex> lock(mu_);
    const uint32_t max_attempts = options_.policy.max_heal_attempts;
    for (const RemediationOutcome& outcome : outcomes) {
      if (outcome.healed) {
        quarantine_.erase(outcome.device_id);
        scheduler_.note_remediated(outcome.device_id, now);
        continue;
      }
      const uint32_t attempts = ++heal_attempts_[outcome.device_id];
      auto it = quarantine_.find(outcome.device_id);
      if (it == quarantine_.end()) continue;
      it->second.remediation_attempts = attempts;
      if (max_attempts != 0 && attempts >= max_attempts) {
        it->second.reason = QuarantineReason::kEscalated;
        report.escalated.push_back(it->second);
      }
    }
    report.remediations = std::move(outcomes);
  }

  // Escalations accrete from two places (budget-exhausted re-entry and
  // the just-failed attempt); keep the report's sorted-by-id contract.
  std::sort(report.escalated.begin(), report.escalated.end(),
            [](const QuarantineEntry& a, const QuarantineEntry& b) {
              return a.device_id < b.device_id;
            });
  {
    std::lock_guard<std::mutex> lock(mu_);
    report.quarantined_after = quarantine_.size();
  }
  return report;
}

}  // namespace eilid
