// Known-answer and property tests for the crypto substrate: SHA-1, SHA-256
// (FIPS 180-4 vectors), HMAC-SHA256 (RFC 4231), ChaCha20 (RFC 8439) and
// Shamir secret sharing.

#include <gtest/gtest.h>

#include <string>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/hmac.h"
#include "src/crypto/secret_sharing.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha256.h"

namespace scfs {
namespace {

// Runs `check` on the dispatched SHA-1 kernel (SHA-NI where the host has
// it) and on the portable one.
template <typename Check>
void OnBothSha1Kernels(Check check) {
  for (bool portable : {false, true}) {
    SCOPED_TRACE(portable ? "portable" : "dispatched");
    Sha1::ForcePortableForTesting(portable);
    check();
  }
  Sha1::ForcePortableForTesting(false);
}

TEST(Sha1Test, EmptyString) {
  OnBothSha1Kernels([] {
    EXPECT_EQ(HexEncode(Sha1::Hash("")),
              "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  });
}

TEST(Sha1Test, Abc) {
  OnBothSha1Kernels([] {
    EXPECT_EQ(HexEncode(Sha1::Hash("abc")),
              "a9993e364706816aba3e25717850c26c9cd0d89d");
  });
}

TEST(Sha1Test, TwoBlockMessage) {
  OnBothSha1Kernels([] {
    EXPECT_EQ(HexEncode(Sha1::Hash(
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
              "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  });
}

TEST(Sha1Test, MillionAs) {
  OnBothSha1Kernels([] {
    Sha1 h;
    Bytes chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) {
      h.Update(chunk);
    }
    auto digest = h.Finish();
    EXPECT_EQ(HexEncode(digest.data(), digest.size()),
              "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
  });
}

// Padding edges: 55 bytes is the longest message whose length still fits
// in its last block, 56 the shortest that needs one more.
TEST(Sha1Test, PaddingBoundaries) {
  OnBothSha1Kernels([] {
    EXPECT_EQ(HexEncode(Sha1::Hash(std::string(55, 'a'))),
              "c1c8bbdc22796e28c0e15163d20899b65621d65a");
    EXPECT_EQ(HexEncode(Sha1::Hash(std::string(56, 'a'))),
              "c2db330f6083854c99d4b5bfb6e8f29f201be699");
    EXPECT_EQ(HexEncode(Sha1::Hash(std::string(63, 'a'))),
              "03f09f5b158a7a8cdad920bddc29b81c18a551f5");
    EXPECT_EQ(HexEncode(Sha1::Hash(std::string(64, 'a'))),
              "0098ba824b5c16427bd7a1122a5a442a25ec644d");
  });
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  Rng rng(11);
  Bytes data = rng.RandomBytes(10000);
  Sha1 h;
  size_t off = 0;
  size_t step = 1;
  while (off < data.size()) {
    size_t n = std::min(step, data.size() - off);
    h.Update(data.data() + off, n);
    off += n;
    step = step * 3 + 1;
  }
  auto incremental = h.Finish();
  EXPECT_EQ(Bytes(incremental.begin(), incremental.end()), Sha1::Hash(data));
}

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HexEncode(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HexEncode(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      HexEncode(Sha256::Hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, PaddingBoundaries) {
  EXPECT_EQ(
      HexEncode(Sha256::Hash(std::string(55, 'a'))),
      "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
  EXPECT_EQ(
      HexEncode(Sha256::Hash(std::string(56, 'a'))),
      "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
  EXPECT_EQ(
      HexEncode(Sha256::Hash(std::string(63, 'a'))),
      "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34");
  EXPECT_EQ(
      HexEncode(Sha256::Hash(std::string(64, 'a'))),
      "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  auto digest = h.Finish();
  EXPECT_EQ(HexEncode(digest.data(), digest.size()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, DifferentInputsDifferentDigests) {
  EXPECT_NE(Sha256::Hash("a"), Sha256::Hash("b"));
}

TEST(HmacTest, Rfc4231TestCase1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(
      HexEncode(HmacSha256(key, ToBytes("Hi There"))),
      "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231TestCase2) {
  EXPECT_EQ(
      HexEncode(HmacSha256(ToBytes("Jefe"),
                           ToBytes("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  // RFC 4231 test case 6: 131-byte key of 0xaa.
  Bytes key(131, 0xaa);
  EXPECT_EQ(
      HexEncode(HmacSha256(
          key, ToBytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, VerifyAcceptsAndRejects) {
  Bytes key = ToBytes("secret");
  Bytes msg = ToBytes("message");
  Bytes mac = HmacSha256(key, msg);
  EXPECT_TRUE(HmacSha256Verify(key, msg, mac));
  Bytes bad_mac = mac;
  bad_mac[0] ^= 1;
  EXPECT_FALSE(HmacSha256Verify(key, msg, bad_mac));
  EXPECT_FALSE(HmacSha256Verify(ToBytes("wrong"), msg, mac));
}

TEST(ChaCha20Test, Rfc8439Encryption) {
  Bytes key(32);
  for (int i = 0; i < 32; ++i) {
    key[i] = static_cast<uint8_t>(i);
  }
  Bytes nonce = HexDecode("000000000000004a00000000");
  Bytes plaintext = ToBytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.");
  Bytes ciphertext = ChaCha20::Crypt(key, nonce, 1, plaintext);
  // First 32 bytes of the RFC 8439 section 2.4.2 ciphertext.
  EXPECT_EQ(HexEncode(Bytes(ciphertext.begin(), ciphertext.begin() + 32)),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b");
  // Decryption restores the plaintext.
  EXPECT_EQ(ChaCha20::Crypt(key, nonce, 1, ciphertext), plaintext);
}

TEST(ChaCha20Test, Rfc8439BlockFunction) {
  Bytes key(32);
  for (int i = 0; i < 32; ++i) {
    key[i] = static_cast<uint8_t>(i);
  }
  Bytes nonce = HexDecode("000000090000004a00000000");
  auto block = ChaCha20::Block(key, nonce, 1);
  EXPECT_EQ(HexEncode(block.data(), 16), "10f1e7e4d13b5915500fdd1fa32071c4");
}

TEST(ChaCha20Test, RoundTripArbitrarySizes) {
  Rng rng(3);
  Bytes key = rng.RandomBytes(32);
  Bytes nonce = rng.RandomBytes(12);
  for (size_t size : {0u, 1u, 63u, 64u, 65u, 1000u, 4096u}) {
    Bytes plaintext = rng.RandomBytes(size);
    Bytes ciphertext = ChaCha20::Crypt(key, nonce, 0, plaintext);
    EXPECT_EQ(ChaCha20::Crypt(key, nonce, 0, ciphertext), plaintext);
    if (size > 8) {
      EXPECT_NE(ciphertext, plaintext);
    }
  }
}

TEST(ChaCha20Test, DifferentKeysDifferentStreams) {
  Rng rng(4);
  Bytes nonce = rng.RandomBytes(12);
  Bytes plaintext(128, 0);
  Bytes c1 = ChaCha20::Crypt(rng.RandomBytes(32), nonce, 0, plaintext);
  Bytes c2 = ChaCha20::Crypt(rng.RandomBytes(32), nonce, 0, plaintext);
  EXPECT_NE(c1, c2);
}

// The multi-block bulk kernels (4-block portable, 8-block AVX2) must produce
// the identical stream to the single-block Block() reference at every size
// around their group boundaries, and at non-zero initial counters.
TEST(ChaCha20Test, MultiBlockMatchesBlockReference) {
  Rng rng(5);
  Bytes key = rng.RandomBytes(32);
  Bytes nonce = rng.RandomBytes(12);
  for (uint32_t counter : {0u, 1u, 12345u}) {
    for (size_t size : {255u, 256u, 257u, 511u, 512u, 513u, 520u, 1023u,
                        2048u, 4096u + 37u}) {
      Bytes plaintext = rng.RandomBytes(size);
      Bytes got = ChaCha20::Crypt(key, nonce, counter, plaintext);
      Bytes want = plaintext;
      for (size_t off = 0; off < size; off += 64) {
        auto block = ChaCha20::Block(
            key, nonce, counter + static_cast<uint32_t>(off / 64));
        const size_t n = std::min<size_t>(64, size - off);
        for (size_t i = 0; i < n; ++i) {
          want[off + i] ^= block[i];
        }
      }
      ASSERT_EQ(got, want) << "size=" << size << " counter=" << counter;
    }
  }
}

// Encrypting in chunks with counter offsets (how striped units address the
// file-wide keystream) equals encrypting the whole buffer in one call.
TEST(ChaCha20Test, ChunkedCounterOffsetsMatchWholeStream) {
  Rng rng(6);
  Bytes key = rng.RandomBytes(32);
  Bytes nonce = rng.RandomBytes(12);
  const size_t kChunk = 1024;  // 16 blocks; a multiple of 64
  Bytes plaintext = rng.RandomBytes(kChunk * 3 + 100);
  Bytes whole = ChaCha20::Crypt(key, nonce, 7, plaintext);
  Bytes chunked = plaintext;
  for (size_t off = 0; off < chunked.size(); off += kChunk) {
    const size_t n = std::min(kChunk, chunked.size() - off);
    ChaCha20::CryptInPlace(key, nonce,
                           7 + static_cast<uint32_t>(off / 64),
                           ByteSpan(chunked.data() + off, n));
  }
  EXPECT_EQ(chunked, whole);
}

struct ShamirParam {
  unsigned shares;
  unsigned threshold;
};

class SecretSharingParamTest : public ::testing::TestWithParam<ShamirParam> {};

TEST_P(SecretSharingParamTest, SplitCombineRoundTrip) {
  Rng rng(42);
  const auto param = GetParam();
  Bytes secret = rng.RandomBytes(32);
  auto shares = SecretSharing::Split(secret, param.shares, param.threshold, rng);
  ASSERT_TRUE(shares.ok());
  ASSERT_EQ(shares->size(), param.shares);

  // Exactly threshold shares suffice (take the last `threshold`).
  std::vector<SecretShare> subset(shares->end() - param.threshold,
                                  shares->end());
  auto recovered = SecretSharing::Combine(subset, param.threshold);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*recovered, secret);
}

TEST_P(SecretSharingParamTest, RecoverShareIsByteIdentical) {
  Rng rng(42);
  const auto param = GetParam();
  Bytes secret = rng.RandomBytes(32);
  auto shares = SecretSharing::Split(secret, param.shares, param.threshold,
                                     rng);
  ASSERT_TRUE(shares.ok());
  // Any `threshold` shares re-derive every original share exactly — this is
  // what lets scrub repair rebuild a lost cloud's object byte-identically.
  std::vector<SecretShare> subset(shares->begin(),
                                  shares->begin() + param.threshold);
  for (unsigned target = 0; target < param.shares; ++target) {
    auto recovered = SecretSharing::RecoverShare(subset, param.threshold,
                                                 (*shares)[target].index);
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(recovered->index, (*shares)[target].index);
    EXPECT_EQ(recovered->data, (*shares)[target].data);
  }
  // A recovered share composes with survivors to rebuild the secret.
  std::vector<SecretShare> mixed(shares->begin() + 1,
                                 shares->begin() + param.threshold);
  auto share0 = SecretSharing::RecoverShare(subset, param.threshold,
                                            (*shares)[0].index);
  ASSERT_TRUE(share0.ok());
  mixed.push_back(*share0);
  auto combined = SecretSharing::Combine(mixed, param.threshold);
  ASSERT_TRUE(combined.ok());
  EXPECT_EQ(*combined, secret);
}

TEST(SecretSharingTest, RecoverShareRejectsBadInput) {
  Rng rng(1);
  auto shares = SecretSharing::Split(rng.RandomBytes(16), 4, 2, rng);
  ASSERT_TRUE(shares.ok());
  std::vector<SecretShare> subset(shares->begin(), shares->begin() + 2);
  EXPECT_FALSE(SecretSharing::RecoverShare(subset, 2, 0).ok());
  std::vector<SecretShare> too_few(shares->begin(), shares->begin() + 1);
  EXPECT_FALSE(SecretSharing::RecoverShare(too_few, 2, 3).ok());
}

TEST_P(SecretSharingParamTest, BelowThresholdFails) {
  Rng rng(42);
  const auto param = GetParam();
  if (param.threshold < 2) {
    GTEST_SKIP() << "threshold 1 has no below-threshold case";
  }
  Bytes secret = rng.RandomBytes(16);
  auto shares = SecretSharing::Split(secret, param.shares, param.threshold, rng);
  ASSERT_TRUE(shares.ok());
  std::vector<SecretShare> subset(shares->begin(),
                                  shares->begin() + param.threshold - 1);
  EXPECT_FALSE(SecretSharing::Combine(subset, param.threshold).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, SecretSharingParamTest,
    ::testing::Values(ShamirParam{4, 2}, ShamirParam{4, 3}, ShamirParam{7, 3},
                      ShamirParam{10, 5}, ShamirParam{3, 1}, ShamirParam{5, 5}),
    [](const ::testing::TestParamInfo<ShamirParam>& info) {
      return "n" + std::to_string(info.param.shares) + "t" +
             std::to_string(info.param.threshold);
    });

TEST(SecretSharingTest, SingleShareRevealsNothing) {
  // With threshold 2, one share must be statistically unrelated to the
  // secret: check that the share differs from the secret (overwhelming
  // probability) and that two splits of the same secret give different shares.
  Rng rng(5);
  Bytes secret = rng.RandomBytes(32);
  auto shares1 = SecretSharing::Split(secret, 4, 2, rng);
  auto shares2 = SecretSharing::Split(secret, 4, 2, rng);
  ASSERT_TRUE(shares1.ok());
  ASSERT_TRUE(shares2.ok());
  EXPECT_NE((*shares1)[0].data, secret);
  EXPECT_NE((*shares1)[0].data, (*shares2)[0].data);
}

TEST(SecretSharingTest, DuplicateSharesRejected) {
  Rng rng(6);
  Bytes secret = rng.RandomBytes(8);
  auto shares = SecretSharing::Split(secret, 4, 2, rng);
  ASSERT_TRUE(shares.ok());
  std::vector<SecretShare> dup = {(*shares)[0], (*shares)[0]};
  EXPECT_FALSE(SecretSharing::Combine(dup, 2).ok());
}

TEST(SecretSharingTest, InvalidParameters) {
  Rng rng(7);
  Bytes secret = rng.RandomBytes(8);
  EXPECT_FALSE(SecretSharing::Split(secret, 2, 3, rng).ok());  // t > n
  EXPECT_FALSE(SecretSharing::Split(secret, 4, 0, rng).ok());  // t == 0
}

TEST(SecretSharingTest, AnySubsetOfThresholdWorks) {
  Rng rng(8);
  Bytes secret = rng.RandomBytes(16);
  auto shares = SecretSharing::Split(secret, 4, 2, rng);
  ASSERT_TRUE(shares.ok());
  for (unsigned i = 0; i < 4; ++i) {
    for (unsigned j = i + 1; j < 4; ++j) {
      std::vector<SecretShare> subset = {(*shares)[i], (*shares)[j]};
      auto recovered = SecretSharing::Combine(subset, 2);
      ASSERT_TRUE(recovered.ok());
      EXPECT_EQ(*recovered, secret) << "shares " << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace scfs
