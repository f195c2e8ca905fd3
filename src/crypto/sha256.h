// SHA-256 (FIPS 180-4). Implemented from scratch: CASU's authenticated
// software update and the CFA baselines both need a MAC, and low-end RoT
// papers (VRASED/CASU lineage) standardise on HMAC-SHA256.
//
// Compression has two bodies behind one entry point
// (crypto/sha256_compress.h):
//   - a portable C++ body, which runs everywhere and is the oracle the
//     tests compare against;
//   - on x86-64, a SHA-NI body (SHA256RNDS2 / SHA256MSG1 / SHA256MSG2).
// One CPUID check, made the first time anything is hashed, picks the
// SHA-NI body when the CPU has the SHA extensions plus SSSE3 and
// SSE4.1, and the portable body otherwise. There is no switch to
// override it: both bodies produce identical digests, so the choice
// changes speed only.
#ifndef EILID_CRYPTO_SHA256_H
#define EILID_CRYPTO_SHA256_H

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace eilid::crypto {

using Digest = std::array<uint8_t, 32>;

// Incremental SHA-256. Typical use:
//   Sha256 h; h.update(a); h.update(b); Digest d = h.finish();
// finish() resets the object so it can be reused. update() hashes whole
// 64-byte blocks straight from the caller's span and buffers only a
// ragged head and tail, so large updates cost no copy.
class Sha256 {
 public:
  static constexpr size_t kBlockSize = 64;
  using State = std::array<uint32_t, 8>;

  Sha256();

  void reset();
  void update(std::span<const uint8_t> data);
  void update(std::string_view text);
  Digest finish();

 private:
  friend class HmacSha256;

  // Continue from the chaining value left after hashing exactly one
  // block (an HMAC key pad): the keyed-midstate re-arm.
  void resume_after_block(const State& midstate);

  State state_;
  // Two blocks, so finish() can lay out the padding and length in one
  // pass even when they spill into a second block.
  std::array<uint8_t, 2 * kBlockSize> buffer_;
  size_t buffer_len_ = 0;
  uint64_t total_bytes_ = 0;
};

// One-shot helpers.
Digest sha256(std::span<const uint8_t> data);
Digest sha256(std::string_view text);

// Lowercase hex rendering of a digest.
std::string digest_hex(const Digest& d);

}  // namespace eilid::crypto

#endif  // EILID_CRYPTO_SHA256_H
