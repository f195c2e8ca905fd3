#include "eilid/update.h"

#include "common/error.h"
#include "common/hex.h"
#include "eilid/fleet.h"

namespace eilid {

std::string_view update_result_name(UpdateResult result) {
  switch (result) {
    case UpdateResult::kApplied: return "applied";
    case UpdateResult::kAlreadyCurrent: return "already-current";
    case UpdateResult::kBadMac: return "bad-mac";
    case UpdateResult::kRollback: return "rollback";
    case UpdateResult::kBadRegion: return "bad-region";
    case UpdateResult::kIncompatible: return "incompatible";
    case UpdateResult::kImageMismatch: return "image-mismatch";
    case UpdateResult::kInterrupted: return "interrupted";
  }
  return "?";
}

UpdateCampaign::UpdateCampaign(Fleet& fleet,
                               std::shared_ptr<const core::BuildResult> target,
                               CampaignOptions options)
    : fleet_(&fleet),
      target_(std::move(target)),
      options_(options),
      diffs_(std::make_shared<DiffCache>()) {
  if (!target_ || !target_->has_tables()) {
    throw FleetError(
        "update campaign: null target build or one without its per-build "
        "tables (see core::attach_tables)");
  }
}

UpdateCampaign::FromState UpdateCampaign::diff_from(
    const std::shared_ptr<const core::BuildResult>& from) {
  // Diffing is a page-wise memcmp of the two builds' cached images --
  // cheap enough to run under the cache lock; the common case (every
  // device on one from-build) computes it once and the rest of a
  // pooled rollout hits the cache.
  std::lock_guard<std::mutex> lock(diffs_->mu);
  auto it = diffs_->diffs.find(from.get());
  if (it != diffs_->diffs.end()) return it->second;
  FromState state;
  state.from = from;
  state.diff = std::make_shared<const core::ImageDiff>(
      core::diff_builds(*from, *target_));
  diffs_->diffs.emplace(from.get(), state);
  return state;
}

casu::UpdatePackage UpdateCampaign::package_locked(
    DeviceSession& session, const core::ImageDiff& diff) const {
  const crypto::Digest key = fleet_->update_key(session.id());
  casu::UpdateAuthority authority(
      std::span<const uint8_t>(key.data(), key.size()));
  return authority.make_package(session.firmware_version() + 1, diff.regions);
}

casu::UpdatePackage UpdateCampaign::package_for(DeviceSession& session) {
  std::lock_guard<std::mutex> lock(session.mutex());
  FromState state = diff_from(session.shared_build());
  if (!state.diff->compatible) {
    throw FleetError("update campaign: transition for device '" + session.id() +
                     "' is not expressible as a CASU update (non-PMEM bytes "
                     "differ at " +
                     hex16(state.diff->first_incompatible) + ")");
  }
  return package_locked(session, *state.diff);
}

UpdateOutcome UpdateCampaign::apply_locked(DeviceSession& session) {
  UpdateOutcome out;
  out.device_id = session.id();
  out.version_before = session.firmware_version();
  out.version_after = out.version_before;

  if (session.shared_build().get() == target_.get()) {
    out.result = UpdateResult::kAlreadyCurrent;
    return out;
  }
  if (session.policy() == EnforcementPolicy::kEilidHw &&
      target_->rom.unit.image.size_bytes() == 0) {
    out.result = UpdateResult::kIncompatible;
    return out;
  }
  FromState state = diff_from(session.shared_build());
  if (!state.diff->compatible) {
    out.result = UpdateResult::kIncompatible;
    return out;
  }
  // The diff maps cached image A to cached image B, so it is only
  // applicable while the device's flashed code still *is* image A. A
  // device patched out of band (a validly-MAC'd rogue package, kNone
  // self-modification) has diverged: applying the diff would leave
  // memory matching neither build while adopt_build would hand the CPU
  // B's predecoded table -- silent table/memory skew. Refuse instead,
  // before anything is applied. The scan covers both predecoded ranges
  // (secure ROM and PMEM): ROM is load-time image content for every
  // legitimate device, but a kNone device could have scribbled there.
  // The compare is page-granular against the from-build's flat_image,
  // the very object the device's never-written pages view: those pass
  // on a pointer compare, and only pages the device owns are memcmp'd.
  const sim::Bus& bus = session.machine().bus();
  const std::vector<uint8_t>& from_image = *state.from->flat_image;
  if (!bus.raw_range_equals(sim::kRomStart, sim::kRomEnd, from_image) ||
      !bus.raw_range_equals(sim::kPmemStart, 0xFFFF, from_image)) {
    out.result = UpdateResult::kImageMismatch;
    return out;
  }

  casu::UpdatePackage package = package_locked(session, *state.diff);
  // The transport between authority and device is where an adversary
  // lives; the hook mutates what the device actually receives. It runs
  // before chunking, so on the lossy path a tampered package is what
  // gets chunked -- and what fails the MAC after reassembly.
  if (options_.tamper) options_.tamper(session, package);
  out.regions = package.regions.size();
  out.payload_bytes = state.diff->payload_bytes;
  casu::UpdateStatus status;
  if (options_.transport.has_value()) {
    DeliveryResult delivery =
        deliver_update(session, package, *options_.transport);
    status = delivery.status;
    out.attempts = delivery.attempts;
    out.resumed = delivery.resumed;
    out.bytes_retransmitted = delivery.bytes_retransmitted;
  } else {
    status = session.apply_update(package);
  }
  switch (status) {
    case casu::UpdateStatus::kApplied:
      out.result = UpdateResult::kApplied;
      break;
    case casu::UpdateStatus::kBadMac:
      out.result = UpdateResult::kBadMac;
      return out;
    case casu::UpdateStatus::kRollback:
      out.result = UpdateResult::kRollback;
      return out;
    case casu::UpdateStatus::kBadRegion:
      out.result = UpdateResult::kBadRegion;
      return out;
    case casu::UpdateStatus::kInterrupted:
      out.result = UpdateResult::kInterrupted;
      return out;
  }
  out.version_after = session.firmware_version();

  // The device's PMEM is now byte-identical to the target image: swap
  // the session onto the target build (its per-build tables, symbols),
  // then stage the verifier's CFG swap *while still holding
  // the session mutex* -- a concurrent attestation sweep can therefore
  // never drain the epoch marker before the new CFG is staged for it.
  session.adopt_build(target_);
  out.build_swapped = true;
  out.cfg_staged = fleet_->verifier().stage_cfg_swap(session);
  if (options_.power_cycle) session.power_cycle();
  return out;
}

UpdateOutcome UpdateCampaign::apply_to(DeviceSession& session) {
  std::lock_guard<std::mutex> lock(session.mutex());
  return apply_locked(session);
}

std::vector<UpdateOutcome> UpdateCampaign::roll_out(common::ThreadPool& pool) {
  return roll_out(fleet_->sessions(), pool);
}

std::vector<UpdateOutcome> UpdateCampaign::roll_out(
    const std::vector<DeviceSession*>& sessions, common::ThreadPool& pool) {
  // Workers fill outcomes by input index: interleaved execution,
  // deterministic output -- each device's package, version and verdict
  // depend only on that device's own state.
  std::vector<UpdateOutcome> out(sessions.size());
  pool.parallel_for(sessions.size(),
                    [&](size_t i) { out[i] = apply_to(*sessions[i]); });
  return out;
}

}  // namespace eilid
