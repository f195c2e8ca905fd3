#include "eilid/rollout.h"

#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "common/error.h"

namespace eilid {

namespace {

// The one definition of a wave's display name -- validation errors,
// report entries and halt reasons all agree on it.
std::string wave_label(const WaveSpec& spec, size_t index) {
  return spec.name.empty() ? "wave-" + std::to_string(index + 1) : spec.name;
}

}  // namespace

CampaignScheduler::CampaignScheduler(Fleet& fleet, UpdateCampaign campaign,
                                     RolloutPlan plan)
    : fleet_(&fleet), campaign_(std::move(campaign)), plan_(std::move(plan)) {
  if (plan_.waves.empty()) {
    throw FleetError("rollout plan: no waves");
  }
}

CampaignScheduler::Resolved CampaignScheduler::resolve() const {
  // One registry snapshot (deployment order) anchors the whole
  // resolution, so membership is a pure function of the plan and that
  // snapshot -- serial and pooled runs can never disagree on it.
  const std::vector<DeviceSession*> snapshot = fleet_->sessions();
  std::map<std::string, DeviceSession*> by_id;
  for (DeviceSession* session : snapshot) by_id.emplace(session->id(), session);

  std::set<std::string> held;
  for (const HoldSpec& hold : plan_.holds) {
    for (const std::string& id : hold.device_ids) {
      if (by_id.count(id) == 0) {
        throw FleetError("rollout plan: hold '" + hold.name +
                         "' names unknown device id '" + id + "'");
      }
      held.insert(id);
    }
  }

  Resolved resolved;
  resolved.held.assign(held.begin(), held.end());

  std::set<std::string> claimed;
  for (size_t w = 0; w < plan_.waves.size(); ++w) {
    const WaveSpec& spec = plan_.waves[w];
    const std::string label = wave_label(spec, w);
    const bool explicit_ids = !spec.device_ids.empty();
    // != 0.0, not > 0.0: a negative fraction must classify as a
    // (malformed) fractional wave so the range error below names the
    // actual mistake, and an explicit wave carrying a stray fraction
    // gets the exactly-one error either way.
    const bool fractional = spec.fraction != 0.0;
    if (explicit_ids == fractional) {
      throw FleetError("rollout plan: wave '" + label +
                       "' must set exactly one of device_ids or fraction");
    }
    if (spec.fraction < 0.0 || spec.fraction > 1.0) {
      throw FleetError("rollout plan: wave '" + label +
                       "' fraction must be in [0, 1]");
    }
    std::vector<DeviceSession*> members;
    if (explicit_ids) {
      for (const std::string& id : spec.device_ids) {
        auto it = by_id.find(id);
        if (it == by_id.end()) {
          throw FleetError("rollout plan: wave '" + label +
                           "' names unknown device id '" + id + "'");
        }
        if (held.count(id) != 0) continue;  // pinned cohorts are skipped
        if (!claimed.insert(id).second) {
          throw FleetError("rollout plan: device id '" + id +
                           "' is claimed by two waves");
        }
        members.push_back(it->second);
      }
    } else {
      // The eligible remainder, in deployment order.
      std::vector<DeviceSession*> eligible;
      for (DeviceSession* session : snapshot) {
        if (held.count(session->id()) == 0 &&
            claimed.count(session->id()) == 0) {
          eligible.push_back(session);
        }
      }
      size_t take =
          spec.fraction >= 1.0
              ? eligible.size()
              : static_cast<size_t>(std::ceil(
                    spec.fraction * static_cast<double>(eligible.size())));
      take = std::min(take, eligible.size());
      for (size_t i = 0; i < take; ++i) {
        claimed.insert(eligible[i]->id());
        members.push_back(eligible[i]);
      }
    }
    resolved.waves.push_back(std::move(members));
  }
  return resolved;
}

std::vector<UpdateOutcome> CampaignScheduler::apply_chunked(
    const std::vector<DeviceSession*>& members, common::ThreadPool& pool,
    const std::function<UpdateOutcome(DeviceSession&)>& update) const {
  std::vector<UpdateOutcome> out(members.size());
  // Rate limit: at most max_in_flight devices mid-update at once --
  // the members are fed to the pool in chunks. Chunking only changes
  // scheduling, never outcomes (each device's result depends on its
  // own state alone).
  const size_t limit = plan_.max_in_flight == 0 ? members.size()
                                                : plan_.max_in_flight;
  for (size_t base = 0; base < members.size(); base += limit) {
    const size_t chunk = std::min(limit, members.size() - base);
    pool.parallel_for(chunk, [&](size_t i) {
      out[base + i] = update(*members[base + i]);
    });
  }
  return out;
}

RolloutReport CampaignScheduler::run(common::ThreadPool& pool) {
  const Resolved resolved = resolve();
  FleetClock& clock = fleet_->clock();
  RolloutReport report;
  report.held = resolved.held;

  // rollback_on_halt needs each touched device's *prior* build -- the
  // session re-points at the target on a successful apply, so capture
  // the mapping before each wave runs.
  std::map<DeviceSession*, std::shared_ptr<const core::BuildResult>>
      prior_builds;

  for (size_t w = 0; w < plan_.waves.size(); ++w) {
    const std::vector<DeviceSession*>& members = resolved.waves[w];
    WaveOutcome wave;
    wave.name = wave_label(plan_.waves[w], w);
    wave.device_ids.reserve(members.size());
    for (DeviceSession* session : members) {
      wave.device_ids.push_back(session->id());
    }
    wave.allowance = plan_.budget.allowance(members.size());

    if (report.halted) {
      // Halted plans still report later waves (membership, allowance)
      // so operators can see what was *not* touched.
      report.waves.push_back(std::move(wave));
      continue;
    }

    if (plan_.rollback_on_halt) {
      for (DeviceSession* session : members) {
        prior_builds.emplace(session, session->shared_build());
      }
    }

    wave.updates = apply_chunked(members, pool, [this](DeviceSession& s) {
      return campaign_.apply_to(s);
    });
    wave.applied_tick = clock.now();
    if (plan_.soak_ticks > 0) {
      // Immediate post-apply sweep: the update itself must already
      // attest clean before the wave earns its soak window.
      wave.soak_gate = fleet_->verifier().verify_all(members, pool);
    }
    if (plan_.probe) plan_.probe(members, &pool);
    if (plan_.soak_ticks > 0) {
      // Soak: let the probed (new) firmware age for soak_ticks of
      // fleet time, then re-sweep. Evidence produced *since* the first
      // sweep -- the probe's -- is what this gate judges, so a
      // compromise that only fires once the new build runs is caught
      // here rather than after promotion.
      clock.advance(plan_.soak_ticks);
      wave.soaked_until = clock.now();
    }
    wave.gate = fleet_->verifier().verify_all(members, pool);
    wave.gated_tick = clock.now();

    // A device fails its wave on a rejected/refused update or a
    // conviction at either gate; a device failing several ways counts
    // once.
    std::set<std::string> failed;
    for (const UpdateOutcome& update : wave.updates) {
      if (!update.ok()) failed.insert(update.device_id);
    }
    for (const VerifierService::AttestResult& verdict : wave.soak_gate) {
      if (verdict.attested && !verdict.ok()) failed.insert(verdict.device_id);
    }
    for (const VerifierService::AttestResult& verdict : wave.gate) {
      if (verdict.attested && !verdict.ok()) failed.insert(verdict.device_id);
    }
    wave.failures = failed.size();
    wave.applied = true;
    wave.within_budget = wave.failures <= wave.allowance;
    ++report.waves_applied;
    if (!wave.within_budget) {
      report.halted = true;
      report.halt_reason =
          "wave '" + wave.name + "' breached failure budget: " +
          std::to_string(wave.failures) + " failed > " +
          std::to_string(wave.allowance) + " allowed";
    }
    report.waves.push_back(std::move(wave));
  }

  if (report.halted && plan_.rollback_on_halt) {
    roll_back(report, resolved.waves, prior_builds, pool);
  }
  return report;
}

void CampaignScheduler::roll_back(
    RolloutReport& report,
    const std::vector<std::vector<DeviceSession*>>& waves,
    const std::map<DeviceSession*,
                   std::shared_ptr<const core::BuildResult>>& prior_builds,
    common::ThreadPool& pool) {
  report.rolled_back = true;
  report.rollback_tick = fleet_->clock().now();

  // One reverse campaign per distinct prior build (a mixed-version
  // fleet rolled forward from several builds rolls back to several),
  // built with the forward campaign's own options so the transport --
  // tamper hook included -- is the same in both directions. Campaigns
  // are symmetric (eilid/update.h): the reverse package carries each
  // device's *next* anti-rollback version and a fresh epoch marker, so
  // this is an ordinary authenticated update that happens to restore
  // old bytes.
  std::map<const core::BuildResult*, UpdateCampaign> reverse;
  // Stage every reverse campaign before any fan-out: workers only look
  // campaigns up, so the map never changes under them.
  for (const auto& entry : prior_builds) {
    const auto& prior = entry.second;
    if (reverse.count(prior.get()) == 0) {
      reverse.emplace(prior.get(),
                      fleet_->stage_update(prior, campaign_.options()));
    }
  }
  for (size_t w = 0; w < report.waves.size(); ++w) {
    WaveOutcome& wave = report.waves[w];
    if (!wave.applied) continue;
    wave.rollbacks =
        apply_chunked(waves[w], pool, [&](DeviceSession& session) {
          return reverse.at(prior_builds.at(&session).get())
              .apply_to(session);
        });
  }
}

}  // namespace eilid
