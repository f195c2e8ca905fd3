#include "eilid/pipeline.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "sim/memory_map.h"
#include "sim/paged_memory.h"

namespace eilid::core {

ImageDiff diff_builds(const BuildResult& from, const BuildResult& to) {
  ImageDiff diff;
  const std::vector<uint8_t>& a = *from.flat_image;
  const std::vector<uint8_t>& b = *to.flat_image;
  // Equal pages are skipped with one memcmp; only pages that differ
  // are walked byte by byte, in address order, so regions,
  // payload_bytes and first_incompatible come out as a full byte walk
  // would produce them.
  constexpr size_t kPage = sim::PagedMemory::kPageBytes;
  for (size_t page = 0; page < a.size(); page += kPage) {
    if (std::memcmp(a.data() + page, b.data() + page, kPage) == 0) continue;
    for (size_t i = page; i < page + kPage; ++i) {
      if (a[i] == b[i]) continue;
      const uint16_t addr = static_cast<uint16_t>(i);
      if (!sim::is_pmem(addr)) {
        diff.compatible = false;
        diff.first_incompatible = addr;
        diff.regions.clear();
        diff.payload_bytes = 0;
        return diff;
      }
      if (!diff.regions.empty() &&
          diff.regions.back().target_addr +
                  diff.regions.back().payload.size() ==
              i) {
        diff.regions.back().payload.push_back(b[i]);
      } else {
        diff.regions.push_back({addr, {b[i]}});
      }
      ++diff.payload_bytes;
    }
  }
  return diff;
}

namespace {

// The app and ROM blitted over zero-filled backing store: exactly what
// a freshly loaded device's memory holds.
std::vector<uint8_t> flat_memory(const BuildResult& build) {
  std::vector<uint8_t> flat(0x10000, 0);
  auto blit = [&flat](const masm::MemoryImage& image) {
    for (const auto& chunk : image.chunks()) {
      std::copy(chunk.data.begin(), chunk.data.end(),
                flat.begin() + chunk.base);
    }
  };
  blit(build.app.image);
  if (build.rom.unit.image.size_bytes() != 0) blit(build.rom.unit.image);
  return flat;
}

// Predecode the build's code regions once, from exactly the bytes a
// freshly flashed device holds.
std::shared_ptr<const isa::DecodedImage> predecode(
    const std::vector<uint8_t>& flat) {
  const isa::DecodedImage::Range ranges[] = {
      {sim::kRomStart, sim::kRomEnd},
      {sim::kPmemStart, 0xFFFE},
  };
  return std::make_shared<const isa::DecodedImage>(
      std::span<const uint8_t>(flat.data(), flat.size()),
      std::span<const isa::DecodedImage::Range>(ranges, 2));
}

}  // namespace

void attach_tables(BuildResult& build) {
  build.flat_image =
      std::make_shared<const std::vector<uint8_t>>(flat_memory(build));
  build.decoded_image = predecode(*build.flat_image);
  build.cfg = std::make_shared<const cfa::Cfg>(cfa::extract_cfg(build.app));
}

BuildResult build_app(const std::string& source, const std::string& name,
                      const BuildOptions& options) {
  BuildResult result;
  std::vector<std::string> original = masm::split_lines(source);

  if (!options.eilid) {
    result.app = masm::assemble(original, name);
    result.iterations.push_back({original.size(), result.app.image.size_bytes()});
    attach_tables(result);
    return result;
  }

  result.rom = options.prebuilt_rom != nullptr ? *options.prebuilt_rom
                                              : build_rom(options.rom);
  Instrumenter inst(options.instrument, result.rom);

  if (options.instrument.label_mode) {
    // Single-pass ablation: return addresses are assembler labels.
    InstrumentResult ir = inst.instrument(original, nullptr);
    result.app = masm::assemble(ir.lines, name);
    result.report = std::move(ir);
    result.iterations.push_back({original.size(), result.app.image.size_bytes()});
    attach_tables(result);
    return result;
  }

  // --- Iteration 1: plain build of the original source. ---
  masm::AssembledUnit build1 = masm::assemble(original, name + "_1");
  result.iterations.push_back({original.size(), build1.image.size_bytes()});

  // --- Iteration 2: instrument with iteration-1 addresses (stale). ---
  InstrumentResult inst2 = inst.instrument(original, &build1.listing);
  masm::AssembledUnit build2 = masm::assemble(inst2.lines, name + "_2");
  result.iterations.push_back({inst2.lines.size(), build2.image.size_bytes()});

  // --- Iteration 3: instrument with iteration-2 addresses (final). ---
  InstrumentResult inst3 = inst.instrument(original, &build2.listing);
  masm::AssembledUnit build3 = masm::assemble(inst3.lines, name);
  result.iterations.push_back({inst3.lines.size(), build3.image.size_bytes()});

  if (options.verify_convergence) {
    // A fourth instrumentation must reproduce iteration 3 exactly:
    // the layout of build2 and build3 agree, so the addresses read
    // from either listing are identical.
    InstrumentResult inst4 = inst.instrument(original, &build3.listing);
    result.converged = (inst4.lines == inst3.lines);
    if (!result.converged) {
      throw InstrumentError(
          "instrumented build did not converge after three iterations");
    }
  }

  result.app = std::move(build3);
  result.report = std::move(inst3);
  attach_tables(result);
  return result;
}

}  // namespace eilid::core
