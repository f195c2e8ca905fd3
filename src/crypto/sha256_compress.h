// Internal to the crypto layer: the SHA-256 compression bodies and the
// dispatcher that picks one of them. Only sha256.cpp and the crypto
// tests include this header; everything else hashes through Sha256.
#ifndef EILID_CRYPTO_SHA256_COMPRESS_H
#define EILID_CRYPTO_SHA256_COMPRESS_H

#include <cstddef>
#include <cstdint>

namespace eilid::crypto::detail {

// Absorb `nblocks` consecutive 64-byte blocks at `p` into the eight
// chaining words at `state`.
using CompressFn = void (*)(uint32_t* state, const uint8_t* p,
                            size_t nblocks);

// Portable FIPS 180-4 body: the fallback and the test oracle.
void compress_blocks_portable(uint32_t* state, const uint8_t* p,
                              size_t nblocks);

#if defined(__x86_64__)
// SHA-NI body. Call only when cpu_has_sha_ni() is true.
void compress_blocks_shani(uint32_t* state, const uint8_t* p, size_t nblocks);
#endif

// CPUID: SHA extensions (leaf 7 EBX bit 29) plus SSSE3 and SSE4.1.
// Always false off x86-64.
bool cpu_has_sha_ni();

// The body chosen once, on first use, from cpu_has_sha_ni().
CompressFn selected_compress();

inline void compress_blocks(uint32_t* state, const uint8_t* p,
                            size_t nblocks) {
  selected_compress()(state, p, nblocks);
}

}  // namespace eilid::crypto::detail

#endif  // EILID_CRYPTO_SHA256_COMPRESS_H
