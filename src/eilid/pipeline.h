// The EILID build pipeline: the paper's three-iteration instrumented
// compile flow (Fig. 2).
//
//   build 1: assemble the original source            -> app_1.lst
//   build 2: instrument(original, app_1.lst)         -> app_2.lst
//   build 3: instrument(original, app_2.lst)         -> final image
//
// Iteration 3's addresses are final because instrumentation size is
// independent of the numeric values it embeds; a convergence check
// verifies this. Label mode (ablation) needs a single build.
#ifndef EILID_EILID_PIPELINE_H
#define EILID_EILID_PIPELINE_H

#include <memory>
#include <string>
#include <vector>

#include "casu/update.h"
#include "cfa/cfg.h"
#include "eilid/instrumenter.h"
#include "eilid/rom_builder.h"
#include "isa/decoded_image.h"
#include "masm/assembler.h"

namespace eilid::core {

struct BuildOptions {
  bool eilid = true;  // false: plain (original) build, single pass
  InstrumentConfig instrument;
  RomConfig rom;
  bool verify_convergence = true;  // assert iteration-3 fixpoint
  // EILIDsw is device firmware, built once per deployment, not per app
  // compile; benches pass a prebuilt ROM to keep compile-time honest.
  const RomInfo* prebuilt_rom = nullptr;
};

struct IterationStats {
  size_t source_lines = 0;
  size_t image_bytes = 0;
};

struct BuildResult {
  masm::AssembledUnit app;   // final application unit
  RomInfo rom;               // EILIDsw (empty unit when !eilid)
  InstrumentResult report;   // last instrumentation pass
  std::vector<IterationStats> iterations;  // Fig. 2 growth data
  bool converged = true;
  // The build's three per-build tables, built once by attach_tables()
  // and shared read-only by every device flashed with this build (the
  // fleet's build cache therefore derives each exactly once, however
  // many sessions run it). A DeviceSession refuses a build missing any
  // of them.
  //
  // The full 64 KiB flashed snapshot: the app and ROM over zero-filled
  // backing store, exactly what a freshly loaded device's memory
  // holds. It is every session's copy-on-write base image
  // (sim::PagedMemory) -- N devices of one build share these bytes and
  // privately own only the pages they dirty -- and the image update
  // campaigns diff and check devices against.
  std::shared_ptr<const std::vector<uint8_t>> flat_image;
  // The code table, predecoded from flat_image over the flashed code
  // regions (secure ROM + PMEM): per-PC decoded instructions plus the
  // straight-line run starting at each. See isa::DecodedImage /
  // Machine::attach_decoded_image for the invalidation rule.
  std::shared_ptr<const isa::DecodedImage> decoded_image;
  // The app's static CFG (cfa::extract_cfg(app)): what the verifier
  // replays a kCfaBaseline device's evidence against, and what a
  // campaign swaps replay onto at the update marker.
  std::shared_ptr<const cfa::Cfg> cfg;

  bool has_tables() const { return flat_image && decoded_image && cfg; }
  size_t binary_size() const { return app.image.size_bytes(); }
};

// Build an application from source text. Throws on assembly or
// instrumentation errors.
BuildResult build_app(const std::string& source, const std::string& name,
                      const BuildOptions& options = {});

// Build the three per-build tables (flat_image, decoded_image, cfg)
// from `build`'s app and ROM units, replacing any already attached.
// build_app ends with this step; a build assembled by hand (a test's
// stub app, a micro-benchmark) must call it before a DeviceSession
// will flash it.
void attach_tables(BuildResult& build);

// Byte diff between two builds' flashed images, expressed as the
// coalesced PMEM write regions an authenticated update must apply to
// move a device from `from` to `to`. A difference outside PMEM (a
// different EILIDsw ROM, bytes below the flash floor) cannot be
// expressed as a CASU update at all: the transition is marked
// incompatible and carries no regions.
struct ImageDiff {
  bool compatible = true;
  uint16_t first_incompatible = 0;  // lowest differing non-PMEM address
  std::vector<casu::UpdateRegion> regions;
  size_t payload_bytes = 0;
};

// Reads both builds' flat_image, which must be attached.
ImageDiff diff_builds(const BuildResult& from, const BuildResult& to);

}  // namespace eilid::core

#endif  // EILID_EILID_PIPELINE_H
