// Crypto substrate tests: SHA-256 against FIPS/NIST vectors,
// HMAC-SHA256 against RFC 4231, and structural properties. The
// compression bodies are tested directly too: the portable body is the
// oracle for the dispatched (SHA-NI where the CPU has it) one.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sha256_compress.h"

namespace eilid::crypto {
namespace {

std::span<const uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

std::vector<uint8_t> random_bytes(common::SeededRng& rng, size_t n) {
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.next());
  return out;
}

// SHA-256 of `msg` with its own FIPS 180-4 padding, absorbing every
// block through `body` -- independent of Sha256's buffering.
Digest hash_with(detail::CompressFn body, std::span<const uint8_t> msg) {
  std::vector<uint8_t> padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % Sha256::kBlockSize != Sha256::kBlockSize - 8) {
    padded.push_back(0);
  }
  const uint64_t bits = static_cast<uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) padded.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  body(state, padded.data(), padded.size() / Sha256::kBlockSize);
  Digest out{};
  for (size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(digest_hex(sha256(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes: padding spills into a second block.
  std::string m(64, 'a');
  EXPECT_EQ(digest_hex(sha256(m)),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(digest_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, FinishResetsForReuse) {
  Sha256 h;
  h.update("abc");
  Digest first = h.finish();
  h.update("abc");
  Digest second = h.finish();
  EXPECT_EQ(first, second);
}

class Sha256Incremental : public ::testing::TestWithParam<int> {};

TEST_P(Sha256Incremental, SplitEqualsOneShot) {
  std::string msg;
  for (int i = 0; i < 200; ++i) msg.push_back(static_cast<char>('A' + i % 23));
  int split = GetParam();
  Sha256 h;
  h.update(msg.substr(0, static_cast<size_t>(split)));
  h.update(msg.substr(static_cast<size_t>(split)));
  EXPECT_EQ(h.finish(), sha256(msg)) << "split at " << split;
}

INSTANTIATE_TEST_SUITE_P(Splits, Sha256Incremental,
                         ::testing::Values(0, 1, 31, 32, 55, 56, 63, 64, 65,
                                           127, 128, 199, 200));

// FIPS 180-4 example vectors, hashed through each compression body.
TEST(Sha256Compress, FipsVectorsThroughBothBodies) {
  const std::string million(1000000, 'a');
  const std::pair<std::string_view, const char*> kVectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
       "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {million,
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const auto& [msg, hex] : kVectors) {
    EXPECT_EQ(digest_hex(hash_with(detail::compress_blocks_portable,
                                   bytes_of(msg))),
              hex)
        << "portable, " << msg.size() << " bytes";
    EXPECT_EQ(digest_hex(hash_with(detail::compress_blocks, bytes_of(msg))),
              hex)
        << "dispatched, " << msg.size() << " bytes";
  }
}

// The dispatcher runs the SHA-NI body only where CPUID reports it, and
// the portable body everywhere else.
TEST(Sha256Compress, DispatcherPicksTheBodyTheCpuSupports) {
#if defined(__x86_64__)
  const detail::CompressFn expected = detail::cpu_has_sha_ni()
                                          ? detail::compress_blocks_shani
                                          : detail::compress_blocks_portable;
#else
  EXPECT_FALSE(detail::cpu_has_sha_ni());
  const detail::CompressFn expected = detail::compress_blocks_portable;
#endif
  EXPECT_EQ(detail::selected_compress(), expected);
}

TEST(Sha256Compress, BodiesAgreeOnRandomBlocks) {
  auto rng = common::SeededRng::keyed(13, "compress-blocks");
  for (int trial = 0; trial < 200; ++trial) {
    const size_t nblocks = 1 + rng.below(8);
    const std::vector<uint8_t> data =
        random_bytes(rng, nblocks * Sha256::kBlockSize);
    uint32_t portable[8];
    for (auto& w : portable) w = static_cast<uint32_t>(rng.next());
    uint32_t dispatched[8];
    std::copy(std::begin(portable), std::end(portable), dispatched);
    detail::compress_blocks_portable(portable, data.data(), nblocks);
    detail::compress_blocks(dispatched, data.data(), nblocks);
    EXPECT_TRUE(std::equal(std::begin(portable), std::end(portable),
                           dispatched))
        << "trial " << trial << ", " << nblocks << " blocks";
  }
}

// Random messages of 0-4 KiB, every length residue mod 64 included,
// streamed through Sha256 in random splits: the block-wise update
// must agree with a one-shot portable hash.
TEST(Sha256Compress, RandomSplitsMatchPortableOracle) {
  auto rng = common::SeededRng::keyed(13, "compress-splits");
  for (size_t residue = 0; residue < Sha256::kBlockSize; ++residue) {
    for (int trial = 0; trial < 4; ++trial) {
      const size_t len = Sha256::kBlockSize * rng.below(64) + residue;
      const std::vector<uint8_t> msg = random_bytes(rng, len);
      Sha256 h;
      size_t pos = 0;
      while (pos < len) {
        const size_t piece = std::min<size_t>(len - pos, rng.below(200));
        h.update(std::span<const uint8_t>(msg.data() + pos, piece));
        pos += piece;
      }
      EXPECT_EQ(h.finish(), hash_with(detail::compress_blocks_portable, msg))
          << "length " << len;
    }
  }
}

TEST(Hmac, Rfc4231Case1) {
  std::vector<uint8_t> key(20, 0x0b);
  auto mac = hmac_sha256(
      std::span<const uint8_t>(key.data(), key.size()),
      std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>("Hi There"), 8));
  EXPECT_EQ(digest_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  auto mac = hmac_sha256("Jefe", "what do ya want for nothing?");
  EXPECT_EQ(digest_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  std::vector<uint8_t> key(20, 0xaa);
  std::vector<uint8_t> msg(50, 0xdd);
  auto mac = hmac_sha256(std::span<const uint8_t>(key.data(), key.size()),
                         std::span<const uint8_t>(msg.data(), msg.size()));
  EXPECT_EQ(digest_hex(mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  std::vector<uint8_t> key(131, 0xaa);
  auto mac = hmac_sha256(
      std::span<const uint8_t>(key.data(), key.size()),
      std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(
              "Test Using Larger Than Block-Size Key - Hash Key First"),
          54));
  EXPECT_EQ(digest_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// RFC 4231 cases 1-7 (case 5 is truncated to 128 bits), each MACed
// twice through one re-armed instance and once each through copies of
// a keyed instance -- the midstate path every report MAC takes.
TEST(Hmac, Rfc4231ThroughReArmedAndCopiedMidstates) {
  struct Case {
    std::vector<uint8_t> key;
    std::string data;
    const char* hex;
  };
  std::vector<uint8_t> key4;
  for (uint8_t b = 1; b <= 25; ++b) key4.push_back(b);
  const std::vector<Case> cases = {
      {std::vector<uint8_t>(20, 0x0b), "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {{'J', 'e', 'f', 'e'}, "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {std::vector<uint8_t>(20, 0xaa), std::string(50, '\xdd'),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {key4, std::string(50, '\xcd'),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {std::vector<uint8_t>(20, 0x0c), "Test With Truncation",
       "a3b6167473100ee06e0c796c2955552b"},
      {std::vector<uint8_t>(131, 0xaa),
       "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {std::vector<uint8_t>(131, 0xaa),
       "This is a test using a larger than block-size key and a larger "
       "than block-size data. The key needs to be hashed before being "
       "used by the HMAC algorithm.",
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const std::string expected = c.hex;
    auto mac_hex = [&](HmacSha256& mac) {
      mac.update(bytes_of(c.data));
      return digest_hex(mac.finish()).substr(0, expected.size());
    };
    const HmacSha256 keyed(c.key);
    HmacSha256 rearmed = keyed;
    EXPECT_EQ(mac_hex(rearmed), expected) << "case " << i + 1;
    EXPECT_EQ(mac_hex(rearmed), expected) << "case " << i + 1 << " re-armed";
    for (int copy = 0; copy < 2; ++copy) {
      HmacSha256 fresh = keyed;
      EXPECT_EQ(mac_hex(fresh), expected) << "case " << i + 1 << " copy";
    }
  }
}

TEST(Hmac, DigestEqualDetectsDifference) {
  Digest a = sha256("x");
  Digest b = a;
  EXPECT_TRUE(digest_equal(a, b));
  b[31] ^= 1;
  EXPECT_FALSE(digest_equal(a, b));
}

TEST(Hmac, DerivedKeysAreDomainSeparated) {
  std::vector<uint8_t> master(32, 0x11);
  auto k1 = derive_key(std::span<const uint8_t>(master.data(), master.size()),
                       "casu-update");
  auto k2 = derive_key(std::span<const uint8_t>(master.data(), master.size()),
                       "cfa-attest");
  EXPECT_FALSE(digest_equal(k1, k2));
}

}  // namespace
}  // namespace eilid::crypto
