#include "sim/paged_memory.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace eilid::sim {

namespace {

// The one all-zero page every blank or wiped page reads through; a
// 10k-device fleet's un-written RAM is this single array.
const std::array<uint8_t, PagedMemory::kPageBytes> kZeroPage{};

}  // namespace

PagedMemory::PagedMemory() { read_.fill(kZeroPage.data()); }

const uint8_t* PagedMemory::base_page(size_t page) const {
  return base_ != nullptr ? base_->data() + page * kPageBytes
                          : kZeroPage.data();
}

uint8_t* PagedMemory::materialize(size_t page) {
  uint8_t* fresh;
  if (!free_.empty()) {
    fresh = free_.back();
    free_.pop_back();
  } else {
    pages_.push_back(std::make_unique<std::array<uint8_t, kPageBytes>>());
    fresh = pages_.back()->data();
  }
  std::memcpy(fresh, read_[page], kPageBytes);
  read_[page] = fresh;
  write_[page] = fresh;
  return fresh;
}

void PagedMemory::release(size_t page, const uint8_t* view) {
  if (write_[page] != nullptr) {
    free_.push_back(write_[page]);
    write_[page] = nullptr;
  }
  read_[page] = view;
}

void PagedMemory::attach_base(
    std::shared_ptr<const std::vector<uint8_t>> base) {
  const auto previous = std::exchange(base_, std::move(base));
  for (size_t page = 0; page < kPageCount; ++page) {
    // Only pages still viewing the previous base follow the swap; a
    // wiped page keeps reading zero.
    const uint8_t* old_view = previous != nullptr
                                  ? previous->data() + page * kPageBytes
                                  : kZeroPage.data();
    if (write_[page] == nullptr && read_[page] == old_view) {
      read_[page] = base_page(page);
    }
  }
}

void PagedMemory::reset_range_to_base(uint16_t first, uint16_t last) {
  size_t addr = first;
  const size_t end = static_cast<size_t>(last) + 1;
  while (addr < end) {
    const size_t page = addr >> 8;
    const size_t page_start = page * kPageBytes;
    const size_t page_end = page_start + kPageBytes;
    if (addr == page_start && end >= page_end) {
      release(page, base_page(page));
      addr = page_end;
    } else {
      // Partial page: restore only the covered bytes, keep the rest.
      const size_t stop = end < page_end ? end : page_end;
      uint8_t* dst = write_[page];
      if (dst == nullptr) dst = materialize(page);
      std::memcpy(dst + (addr - page_start), base_page(page) + (addr - page_start),
                  stop - addr);
      addr = stop;
    }
  }
}

void PagedMemory::zero_range(uint16_t first, uint16_t last) {
  size_t addr = first;
  const size_t end = static_cast<size_t>(last) + 1;
  while (addr < end) {
    const size_t page = addr >> 8;
    const size_t page_start = page * kPageBytes;
    const size_t page_end = page_start + kPageBytes;
    if (addr == page_start && end >= page_end) {
      release(page, kZeroPage.data());
      addr = page_end;
    } else {
      const size_t stop = end < page_end ? end : page_end;
      uint8_t* dst = write_[page];
      if (dst == nullptr) dst = materialize(page);
      std::memset(dst + (addr - page_start), 0, stop - addr);
      addr = stop;
    }
  }
}

void PagedMemory::reclaim_identical(uint16_t first, uint16_t last) {
  const size_t first_page = first >> 8;
  const size_t last_page = last >> 8;
  for (size_t page = first_page; page <= last_page; ++page) {
    if (write_[page] == nullptr) continue;
    const uint8_t* shared = base_page(page);
    if (std::memcmp(write_[page], shared, kPageBytes) == 0) {
      release(page, shared);
    }
  }
}

bool PagedMemory::range_equals(uint16_t first, uint16_t last,
                               const std::vector<uint8_t>& image) const {
  size_t addr = first;
  const size_t end = static_cast<size_t>(last) + 1;
  while (addr < end) {
    const size_t page = addr >> 8;
    const size_t page_start = page * kPageBytes;
    const size_t stop = std::min(end, page_start + kPageBytes);
    const uint8_t* want = image.data() + page_start;
    if (read_[page] != want &&
        std::memcmp(read_[page] + (addr - page_start),
                    want + (addr - page_start), stop - addr) != 0) {
      return false;
    }
    addr = stop;
  }
  return true;
}

void PagedMemory::store_bytes(uint16_t addr, const uint8_t* bytes,
                              size_t len) {
  while (len != 0) {
    const size_t page = addr >> 8;
    const size_t off = addr & 0xFF;
    const size_t chunk = len < kPageBytes - off ? len : kPageBytes - off;
    uint8_t* dst = write_[page];
    if (dst == nullptr) {
      if (off == 0 && chunk == kPageBytes) {
        // Whole-page overwrite: the materialize copy would be clobbered
        // immediately; grab a page without priming it.
        if (!free_.empty()) {
          dst = free_.back();
          free_.pop_back();
        } else {
          pages_.push_back(
              std::make_unique<std::array<uint8_t, kPageBytes>>());
          dst = pages_.back()->data();
        }
        read_[page] = dst;
        write_[page] = dst;
      } else {
        dst = materialize(page);
      }
    }
    std::memcpy(dst + off, bytes, chunk);
    bytes += chunk;
    len -= chunk;
    addr = static_cast<uint16_t>(addr + chunk);  // wraps through 0
  }
}

}  // namespace eilid::sim
