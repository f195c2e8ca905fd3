#include "eilid/session.h"

#include <span>
#include <utility>
#include <vector>

#include "common/error.h"
#include "sim/memory_map.h"

namespace eilid {

std::string_view enforcement_policy_name(EnforcementPolicy policy) {
  switch (policy) {
    case EnforcementPolicy::kNone: return "none";
    case EnforcementPolicy::kCasu: return "casu";
    case EnforcementPolicy::kCfaBaseline: return "cfa-baseline";
    case EnforcementPolicy::kEilidHw: return "eilid-hw";
  }
  return "?";
}

std::string_view execution_engine_name(ExecutionEngine engine) {
  switch (engine) {
    case ExecutionEngine::kInterpretive: return "interpretive";
    case ExecutionEngine::kSuperblock: return "superblock";
  }
  return "?";
}

namespace {

core::EilidHwConfig hw_config_for(const core::BuildResult& build) {
  core::EilidHwConfig cfg;
  if (build.rom.unit.image.size_bytes() == 0) {
    cfg.casu.rom_present = false;
  } else {
    cfg.casu.rom_present = true;
    cfg.casu.entry_start = build.rom.entry_start;
    cfg.casu.entry_end = build.rom.entry_end;
    cfg.casu.leave_start = build.rom.leave_start;
    cfg.casu.leave_end = build.rom.leave_end;
  }
  return cfg;
}

// A session flashes from its build's flat image, dispatches from its
// code table and is attested against its CFG: a build missing any of
// the three (a hand-assembled one that skipped core::attach_tables) is
// refused rather than completed here.
void require_tables(const std::string& id, const core::BuildResult* build) {
  if (build == nullptr) throw FleetError("session '" + id + "': null build");
  if (!build->has_tables()) {
    throw FleetError("session '" + id +
                     "': build lacks its per-build tables (flat image, "
                     "code table, CFG); complete it with "
                     "core::attach_tables");
  }
}

}  // namespace

DeviceSession::DeviceSession(std::string device_id,
                             std::shared_ptr<const core::BuildResult> build,
                             EnforcementPolicy policy, SessionOptions options)
    : id_(std::move(device_id)),
      build_(std::move(build)),
      policy_(policy),
      options_(options),
      machine_(options.clock_hz) {
  require_tables(id_, build_.get());
  const bool rom_in_build = build_->rom.unit.image.size_bytes() != 0;
  if (policy_ == EnforcementPolicy::kEilidHw && !rom_in_build) {
    throw FleetError("session '" + id_ +
                     "': kEilidHw needs an instrumented build (EILIDsw "
                     "missing; build with BuildOptions.eilid = true)");
  }

  switch (policy_) {
    case EnforcementPolicy::kNone:
      break;
    case EnforcementPolicy::kCasu:
    case EnforcementPolicy::kCfaBaseline:
    case EnforcementPolicy::kEilidHw: {
      hw_monitor_ =
          std::make_unique<core::EilidHwMonitor>(hw_config_for(*build_));
      machine_.add_monitor(hw_monitor_.get());
      break;
    }
  }
  if (policy_ == EnforcementPolicy::kCfaBaseline) {
    cfa_monitor_ =
        std::make_unique<cfa::CfaMonitor>(options_.attest_key, options_.cfa);
    machine_.add_monitor(cfa_monitor_.get());
  }
  // The update engine is bound to this session's machine and monitor
  // for the session's whole life: an update aimed at this device can
  // never land anywhere else.
  update_engine_ = std::make_unique<casu::UpdateEngine>(
      std::span<const uint8_t>(options_.update_key.data(),
                               options_.update_key.size()),
      machine_, hw_monitor_.get());
  machine_.set_halt_on_reset(options_.halt_on_reset);

  // Flash by attaching the build's shared flat image as the machine's
  // copy-on-write base (sim::PagedMemory) instead of copying 64 KiB
  // per device: the bytes are identical to chunk-wise loads over
  // zeroed memory -- the flat image is those chunks over zeros -- but
  // N sessions of one build now share one image and privately own only
  // the pages they dirty.
  machine_.bus().attach_base_image(build_->flat_image);
  // Attach the build's shared code table *after* the flash (the
  // attachment snapshots the bus's code generation, so it must see the
  // flashed state). Every session of this build shares the same table.
  attach_code_table();
  machine_.power_on();
}

void DeviceSession::attach_code_table() {
  if (options_.engine != ExecutionEngine::kInterpretive) {
    machine_.attach_decoded_image(build_->decoded_image);
  }
}

uint16_t DeviceSession::symbol(const std::string& name) const {
  auto it = build_->app.symbols.find(name);
  if (it == build_->app.symbols.end()) {
    throw FleetError("session '" + id_ + "': unknown app symbol: " + name);
  }
  return it->second;
}

sim::RunResult DeviceSession::run_to_symbol(const std::string& name,
                                            uint64_t max_cycles) {
  return machine_.run_until(symbol(name), max_cycles);
}

casu::UpdateStatus DeviceSession::apply_update(
    const casu::UpdatePackage& package) {
  casu::UpdateStatus status = update_engine_->apply(package);
  if (status == casu::UpdateStatus::kApplied && cfa_monitor_ != nullptr) {
    cfa_monitor_->on_update_applied();
  }
  return status;
}

casu::ChunkAck DeviceSession::receive_update_chunk(
    const casu::TransferChunk& chunk) {
  return update_engine_->receive_chunk(chunk);
}

std::vector<bool> DeviceSession::staged_update_chunks(
    const crypto::Digest& transfer_id) const {
  return update_engine_->staged_chunk_map(transfer_id);
}

casu::UpdateStatus DeviceSession::finalize_update(
    std::optional<size_t> power_cut_after_regions) {
  casu::UpdateStatus status =
      update_engine_->finalize_transfer(power_cut_after_regions);
  if (status == casu::UpdateStatus::kApplied && cfa_monitor_ != nullptr) {
    cfa_monitor_->on_update_applied();
  }
  return status;
}

void DeviceSession::adopt_build(std::shared_ptr<const core::BuildResult> next) {
  require_tables(id_, next.get());
  if (policy_ == EnforcementPolicy::kEilidHw &&
      next->rom.unit.image.size_bytes() == 0) {
    throw FleetError("session '" + id_ +
                     "': kEilidHw cannot adopt an uninstrumented build");
  }
  build_ = std::move(next);
  // Swap the machine's copy-on-write base onto the adopted build's
  // shared image. Content-preserving under this function's contract:
  // pages the update materialized hold exactly the target image's
  // bytes and shadow the base; un-owned pages held the old base, which
  // a compatible transition only differs from inside PMEM -- where the
  // update wrote (and so owns) every differing page. Reclaiming then
  // drops the update-written pages whose bytes the new base already
  // supplies, so a device's resident memory returns to near-zero after
  // a campaign instead of accreting one dirtied PMEM copy per update.
  // reflash() also restores against the adopted image from here on.
  sim::Bus& bus = machine_.bus();
  bus.attach_base_image(build_->flat_image);
  bus.reclaim_identical_pages(sim::kRomStart, sim::kRomEnd);
  bus.reclaim_identical_pages(sim::kPmemStart, 0xFFFF);
  // The update's stores bumped the bus code generation (as does the
  // base swap), so the CPU is running interpretively right now;
  // attaching the new build's shared table re-snapshots the
  // generation and restores the session's configured engine -- against
  // a table that matches the new bytes.
  attach_code_table();
}

std::string DeviceSession::last_reset_reason() const {
  if (machine_.violation_count() == 0) return "";
  return sim::reset_reason_name(machine_.resets().back().reason);
}

void DeviceSession::reflash() {
  // Restore the *entire* code ranges to the recorded build's flat
  // snapshot -- the copy-on-write base the session was flashed from,
  // the same bytes the update engine's kImageMismatch scan compares
  // against -- not just the image's chunks: a rogue patch may have
  // landed in PMEM the build never occupied, and those bytes must go
  // back to the flash default too or the device stays diverged. A
  // page-map reset, not a 64 KiB copy: every dirtied code page is
  // recycled and the range reads the shared image again. The reset
  // counts as a code store (generation bump); re-attaching the build's
  // shared table afterwards re-snapshots the generation, so the
  // restored device decodes from the build-time table again instead of
  // falling back to interpretive decode.
  machine_.bus().reset_range_to_base(sim::kRomStart, sim::kRomEnd);
  machine_.bus().reset_range_to_base(sim::kPmemStart, 0xFFFF);
  attach_code_table();
  power_cycle();
}

size_t DeviceSession::resident_memory_bytes() const {
  size_t bytes = machine_.bus().resident_memory_bytes();
  if (cfa_monitor_ != nullptr) bytes += cfa_monitor_->total_log_bytes();
  return bytes;
}

void DeviceSession::power_cycle() {
  // Mirrors Machine::do_reset minus the ResetEvent record: recording
  // one would count a host-driven power cycle as an enforcement
  // violation in violation_count().
  machine_.bus().wipe_volatile();
  machine_.bus().reset_peripherals();
  machine_.bus().clear_access_denied();
  if (hw_monitor_ != nullptr) {
    hw_monitor_->clear_violation();
    hw_monitor_->on_device_reset();
  }
  if (cfa_monitor_ != nullptr) {
    cfa_monitor_->clear_violation();
    cfa_monitor_->on_device_reset();
  }
  // The bootloader half of a power-loss-safe update runs before
  // application code: a commit journal left pending by a supply
  // failure mid-swap is idempotently replayed to completion now, and
  // the finished swap is logged as an update marker (after the reset
  // marker this reboot just logged -- the verifier's replay handles
  // the markers in log order either way).
  if (update_engine_->recover_after_reset() && cfa_monitor_ != nullptr) {
    cfa_monitor_->on_update_applied();
  }
  machine_.cpu().power_on_reset();
}

}  // namespace eilid
