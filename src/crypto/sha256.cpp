#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#include "crypto/sha256_compress.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace eilid::crypto {
namespace {

constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr uint32_t rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

void store_be64(uint8_t* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(v >> (56 - 8 * i));
}

}  // namespace

namespace detail {

void compress_blocks_portable(uint32_t* state, const uint8_t* p,
                              size_t nblocks) {
  for (; nblocks != 0; --nblocks, p += Sha256::kBlockSize) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(p[4 * i]) << 24) |
             (static_cast<uint32_t>(p[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(p[4 * i + 2]) << 8) |
             static_cast<uint32_t>(p[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

// The SHA-NI instructions keep the working variables as two vectors,
// ABEF and CDGH, and run two rounds per SHA256RNDS2. Each 4-round group
// g adds K[4g..4g+3] to message vector g % 4; groups 1-12 start the
// schedule for group g + 3 (SHA256MSG1) and groups 3-14 finish it for
// group g + 1 (add W[t-7], SHA256MSG2).
__attribute__((target("sha,sse4.1"))) void compress_blocks_shani(
    uint32_t* state, const uint8_t* p, size_t nblocks) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  // state[0..7] = A..H  ->  ABEF, CDGH.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);         // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);       // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);  // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);    // CDGH

  for (; nblocks != 0; --nblocks, p += Sha256::kBlockSize) {
    const __m128i abef_save = abef;
    const __m128i cdgh_save = cdgh;
    __m128i msg[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = msg[g % 4];
      if (g < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * g)),
            kByteSwap);
      }
      __m128i wk = _mm_add_epi32(
          cur, _mm_loadu_si128(
                   reinterpret_cast<const __m128i*>(&kRoundConstants[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (g >= 3 && g <= 14) {
        __m128i& next = msg[(g + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, msg[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (g >= 1 && g <= 12) {
        __m128i& prev = msg[(g + 3) % 4];
        prev = _mm_sha256msg1_epu32(prev, cur);
      }
    }
    abef = _mm_add_epi32(abef, abef_save);
    cdgh = _mm_add_epi32(cdgh, cdgh_save);
  }

  // ABEF, CDGH  ->  state[0..7] = A..H.
  tmp = _mm_shuffle_epi32(abef, 0x1B);        // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);       // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);    // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);       // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), cdgh);
}

bool cpu_has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return sha && ssse3 && sse41;
}

CompressFn selected_compress() {
  static const CompressFn body =
      cpu_has_sha_ni() ? compress_blocks_shani : compress_blocks_portable;
  return body;
}

#else

bool cpu_has_sha_ni() { return false; }

CompressFn selected_compress() { return compress_blocks_portable; }

#endif

}  // namespace detail

Sha256::Sha256() { reset(); }

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffer_len_ = 0;
  total_bytes_ = 0;
}

void Sha256::resume_after_block(const State& midstate) {
  state_ = midstate;
  buffer_len_ = 0;
  total_bytes_ = kBlockSize;
}

void Sha256::update(std::span<const uint8_t> data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  if (n == 0) return;
  total_bytes_ += n;
  if (buffer_len_ != 0) {
    const size_t take = std::min(n, kBlockSize - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ < kBlockSize) return;
    detail::compress_blocks(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  const size_t whole = n / kBlockSize;
  if (whole != 0) {
    detail::compress_blocks(state_.data(), p, whole);
    p += whole * kBlockSize;
    n -= whole * kBlockSize;
  }
  if (n != 0) {
    std::memcpy(buffer_.data(), p, n);
    buffer_len_ = n;
  }
}

void Sha256::update(std::string_view text) {
  update(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(text.data()),
                                  text.size()));
}

Digest Sha256::finish() {
  // Padding: 0x80, zeros, 64-bit big-endian bit length. The length
  // needs the last 8 bytes of a block; when the tail leaves no room
  // for them the padding spills into a second block.
  const size_t blocks = buffer_len_ < kBlockSize - 8 ? 1 : 2;
  const size_t end = blocks * kBlockSize;
  buffer_[buffer_len_] = 0x80;
  std::memset(buffer_.data() + buffer_len_ + 1, 0, end - 8 - buffer_len_ - 1);
  store_be64(buffer_.data() + end - 8, total_bytes_ * 8);
  detail::compress_blocks(state_.data(), buffer_.data(), blocks);

  Digest out{};
  for (int i = 0; i < 8; ++i) {
    out[4 * i + 0] = static_cast<uint8_t>(state_[static_cast<size_t>(i)] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state_[static_cast<size_t>(i)] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state_[static_cast<size_t>(i)] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state_[static_cast<size_t>(i)]);
  }
  reset();
  return out;
}

Digest sha256(std::span<const uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Digest sha256(std::string_view text) {
  Sha256 h;
  h.update(text);
  return h.finish();
}

std::string digest_hex(const Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (uint8_t byte : d) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

}  // namespace eilid::crypto
