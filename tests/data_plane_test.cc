// Tests for the zero-copy data plane: span vocabulary, table-driven GF(2^8)
// row kernels, the ShardArena encode/decode paths, and the span/in-place
// crypto variants. The core property throughout: the accelerated paths
// produce byte-identical output to the seed implementation (reproduced here
// with Gf256::MulAddRowReference and per-block ChaCha20::Block calls).

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "src/codec/reed_solomon.h"
#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/md_hash.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha256.h"
#include "src/math/gf256.h"
#include "src/math/matrix.h"

namespace scfs {
namespace {

// ---------------------------------------------------------------------------
// Span vocabulary.
// ---------------------------------------------------------------------------

TEST(ByteSpanTest, ViewsAndSubspans) {
  Bytes buffer = {1, 2, 3, 4, 5, 6, 7, 8};
  ConstByteSpan span(buffer);
  EXPECT_EQ(span.size(), 8u);
  EXPECT_EQ(span.data(), buffer.data());
  EXPECT_EQ(span[3], 4);

  ConstByteSpan middle = span.subspan(2, 3);
  EXPECT_EQ(middle.size(), 3u);
  EXPECT_EQ(middle[0], 3);

  // Clamped, not UB.
  EXPECT_EQ(span.subspan(6, 100).size(), 2u);
  EXPECT_EQ(span.subspan(100).size(), 0u);
  EXPECT_EQ(span.first(3).size(), 3u);
  EXPECT_EQ(span.first(100).size(), 8u);

  ByteSpan mut(buffer);
  mut[0] = 99;
  EXPECT_EQ(buffer[0], 99);
  ConstByteSpan from_mut = mut;  // implicit widening
  EXPECT_EQ(from_mut[0], 99);

  EXPECT_EQ(CopyToBytes(middle), (Bytes{3, 4, 5}));
}

TEST(ByteSpanTest, ReaderOverSpanMatchesReaderOverBytes) {
  Bytes encoded;
  AppendU32(&encoded, 7);
  AppendBytes(&encoded, Bytes{9, 8, 7});
  ByteReader reader{ConstByteSpan(encoded)};
  uint32_t v = 0;
  ConstByteSpan payload;
  ASSERT_TRUE(reader.ReadU32(&v));
  ASSERT_TRUE(reader.ReadBytesSpan(&payload));
  EXPECT_EQ(v, 7u);
  EXPECT_EQ(payload.size(), 3u);
  EXPECT_EQ(payload.data(), encoded.data() + 8);  // zero-copy view
  EXPECT_TRUE(reader.AtEnd());
}

// ---------------------------------------------------------------------------
// GF(2^8) kernels.
// ---------------------------------------------------------------------------

TEST(Gf256KernelTest, PowLargeExponentRegression) {
  // log[a] * e overflowed 32-bit unsigned in the seed for large e; a^e must
  // equal a^(e mod 255) for every a (group order 255).
  for (unsigned a = 1; a < 256; ++a) {
    const uint8_t base = static_cast<uint8_t>(a);
    for (unsigned e : {255u, 256u, 1000u, 0x7fffffffu, 0xfffffffeu,
                       0xffffffffu}) {
      EXPECT_EQ(Gf256::Pow(base, e), Gf256::Pow(base, e % 255u))
          << "a=" << a << " e=" << e;
    }
  }
  // Spot-check against square-and-multiply.
  for (uint8_t a : {2, 3, 29, 255}) {
    for (unsigned e : {12345u, 0xfffffff0u}) {
      uint8_t expected = 1;
      for (unsigned i = 0; i < e % 255u; ++i) {
        expected = Gf256::Mul(expected, a);
      }
      EXPECT_EQ(Gf256::Pow(a, e), expected) << int(a) << "^" << e;
    }
  }
}

TEST(Gf256KernelTest, TableKernelMatchesReferenceAllScalars) {
  Rng rng(21);
  Bytes in = rng.RandomBytes(257);  // odd length exercises the tail loop
  for (unsigned scalar = 0; scalar < 256; ++scalar) {
    Bytes expected(in.size(), 0x5a);
    Bytes actual = expected;
    Gf256::MulAddRowReference(expected.data(), in.data(),
                              static_cast<uint8_t>(scalar), in.size());
    Gf256::MulAddRow(actual.data(), in.data(), static_cast<uint8_t>(scalar),
                     in.size());
    ASSERT_EQ(actual, expected) << "scalar=" << scalar;
  }
}

TEST(Gf256KernelTest, TableKernelMatchesReferenceAllLengthsAndOffsets) {
  Rng rng(22);
  Bytes in = rng.RandomBytes(200);
  const Gf256::MulTable table = Gf256::BuildMulTable(0xc3);
  for (size_t offset : {0u, 1u, 3u, 7u}) {
    for (size_t len = 0; len + offset <= in.size(); len += 11) {
      Bytes expected(len, 0);
      Bytes actual(len, 0);
      Gf256::MulAddRowReference(expected.data(), in.data() + offset, 0xc3,
                                len);
      Gf256::MulAddRow(actual.data(), in.data() + offset, table, len);
      ASSERT_EQ(actual, expected) << "offset=" << offset << " len=" << len;
    }
  }
}

TEST(Gf256KernelTest, AddRowIsXor) {
  Rng rng(23);
  Bytes a = rng.RandomBytes(100);
  Bytes b = rng.RandomBytes(100);
  Bytes expected = a;
  for (size_t i = 0; i < a.size(); ++i) {
    expected[i] ^= b[i];
  }
  Gf256::AddRow(a.data(), b.data(), a.size());
  EXPECT_EQ(a, expected);
}

// ---------------------------------------------------------------------------
// Seed replica of the erasure encode (frame + slice + byte-at-a-time parity),
// the byte-identical oracle for the arena path.
// ---------------------------------------------------------------------------

std::vector<Bytes> SeedEncode(unsigned n, unsigned k, const Bytes& data) {
  GfMatrix matrix = GfMatrix::SystematicVandermonde(n, k);
  Bytes framed;
  AppendU64(&framed, data.size());
  framed.insert(framed.end(), data.begin(), data.end());
  const size_t per_shard = (data.size() + 8 + k - 1) / k;
  framed.resize(per_shard * k, 0);
  std::vector<Bytes> shards(n);
  for (unsigned i = 0; i < k; ++i) {
    shards[i].assign(framed.begin() + i * per_shard,
                     framed.begin() + (i + 1) * per_shard);
  }
  for (unsigned row = k; row < n; ++row) {
    shards[row].assign(per_shard, 0);
    for (unsigned col = 0; col < k; ++col) {
      Gf256::MulAddRowReference(shards[row].data(), shards[col].data(),
                                matrix.At(row, col), per_shard);
    }
  }
  return shards;
}

TEST(ShardArenaTest, EncodeByteIdenticalToSeed) {
  Rng rng(31);
  for (auto [n, k] : std::vector<std::pair<unsigned, unsigned>>{
           {4, 2}, {7, 3}, {10, 4}, {6, 2}, {3, 1}, {5, 5}}) {
    for (size_t size : {0u, 1u, 63u, 64u, 1000u, 70000u}) {
      Bytes data = rng.RandomBytes(size);
      ErasureCodec codec(n, k);
      ShardArena arena = codec.EncodeToArena(data);
      std::vector<Bytes> seed = SeedEncode(n, k, data);
      ASSERT_EQ(arena.n(), n);
      ASSERT_EQ(arena.shard_size(), seed[0].size());
      for (unsigned i = 0; i < n; ++i) {
        ASSERT_EQ(CopyToBytes(arena.shard(i)), seed[i])
            << "n=" << n << " k=" << k << " size=" << size << " shard=" << i;
      }
    }
  }
}

TEST(ShardArenaTest, SystematicShardsAliasTheFrame) {
  ErasureCodec codec(4, 2);
  Bytes data(1000, 0xab);
  ShardArena arena = codec.EncodeToArena(data);
  // Shards are views into one contiguous buffer, in order, no copies.
  EXPECT_EQ(arena.shard(1).data(), arena.shard(0).data() + arena.shard_size());
  EXPECT_EQ(arena.data_region().data(), arena.shard(0).data());
  EXPECT_EQ(arena.payload().data(), arena.shard(0).data() + 8);
}

TEST(ShardArenaTest, PreparedArenaFusesProducerWrites) {
  // Writing through payload() then computing parity equals one-step encode.
  Rng rng(32);
  Bytes data = rng.RandomBytes(5000);
  ErasureCodec codec(4, 2);
  ShardArena fused = codec.PrepareArena(data.size());
  std::copy(data.begin(), data.end(), fused.payload().begin());
  codec.ComputeParity(&fused);
  ShardArena direct = codec.EncodeToArena(data);
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_EQ(CopyToBytes(fused.shard(i)), CopyToBytes(direct.shard(i)));
  }
}

// ---------------------------------------------------------------------------
// Round-trip property test: every paper-relevant (n, k), random payload
// sizes, and every erasure pattern of up to n-k lost shards.
// ---------------------------------------------------------------------------

TEST(ErasureCodecPropertyTest, RoundTripAllErasurePatterns) {
  Rng rng(33);
  // (4,2): f=1, the paper's deployment; (7,3): f=2; (10,4): f=3; plus
  // degenerate shapes (no parity, single data shard).
  for (auto [n, k] : std::vector<std::pair<unsigned, unsigned>>{
           {4, 2}, {7, 3}, {10, 4}, {3, 1}, {4, 4}}) {
    ErasureCodec codec(n, k);
    for (size_t size : {0u, 1u, 509u, 4096u, 10000u}) {
      Bytes data = rng.RandomBytes(size);
      ShardArena arena = codec.EncodeToArena(data);

      // Every subset of shards with at least k survivors, i.e. every erasure
      // pattern of up to n-k losses.
      for (uint32_t mask = 0; mask < (1u << n); ++mask) {
        if (static_cast<unsigned>(__builtin_popcount(mask)) < k) {
          continue;
        }
        std::vector<std::optional<Bytes>> have(n);
        for (unsigned i = 0; i < n; ++i) {
          if (mask & (1u << i)) {
            have[i] = CopyToBytes(arena.shard(i));
          }
        }
        auto decoded = codec.Decode(have);
        ASSERT_TRUE(decoded.ok())
            << "n=" << n << " k=" << k << " mask=" << mask;
        ASSERT_EQ(*decoded, data)
            << "n=" << n << " k=" << k << " mask=" << mask;
      }
    }
  }
}

TEST(ErasureCodecPropertyTest, TooFewShardsRejected) {
  ErasureCodec codec(4, 2);
  Bytes data(100, 1);
  ShardArena arena = codec.EncodeToArena(data);
  std::vector<std::optional<Bytes>> have(4);
  have[1] = CopyToBytes(arena.shard(1));
  EXPECT_FALSE(codec.Decode(have).ok());
}

TEST(ErasureCodecPropertyTest, CorruptedShardChangesOutputAndHashCatchesIt) {
  Rng rng(34);
  Bytes data = rng.RandomBytes(2048);
  ErasureCodec codec(4, 2);
  ShardArena arena = codec.EncodeToArena(data);
  Bytes shard_hash = Sha256::Hash(arena.shard(1));

  // Corrupt a byte of shard 1 beyond the header region and decode with it.
  Bytes corrupted = CopyToBytes(arena.shard(1));
  corrupted[corrupted.size() / 2] ^= 0x40;
  std::vector<std::optional<Bytes>> have(4);
  have[1] = corrupted;
  have[3] = CopyToBytes(arena.shard(3));
  auto decoded = codec.Decode(have);
  // RS itself cannot detect the corruption (it decodes garbage)...
  if (decoded.ok()) {
    EXPECT_NE(*decoded, data);
  }
  // ...which is why DepSky hash-checks every shard before decoding: the
  // recorded SHA-256 flags the corrupted shard so it is never used.
  EXPECT_NE(Sha256::Hash(corrupted), shard_hash);
  EXPECT_EQ(Sha256::Hash(arena.shard(1)), shard_hash);
}

TEST(ErasureCodecPropertyTest, DecodeShardsLegacyApiMatchesDecodeInto) {
  Rng rng(35);
  ReedSolomon rs(5, 3);
  std::vector<Bytes> data(3);
  for (auto& shard : data) {
    shard = rng.RandomBytes(777);
  }
  auto encoded = rs.EncodeShards(data);
  ASSERT_TRUE(encoded.ok());
  std::vector<std::optional<Bytes>> have(5);
  have[0] = (*encoded)[0];
  have[3] = (*encoded)[3];
  have[4] = (*encoded)[4];
  auto decoded = rs.DecodeShards(have);
  ASSERT_TRUE(decoded.ok());
  for (unsigned i = 0; i < 3; ++i) {
    EXPECT_EQ((*decoded)[i], data[i]);
  }
}

// ---------------------------------------------------------------------------
// Crypto span variants.
// ---------------------------------------------------------------------------

// Seed replica: per-block state setup through the public Block API.
Bytes SeedCrypt(const Bytes& key, const Bytes& nonce, uint32_t counter,
                const Bytes& input) {
  Bytes out(input.size());
  size_t offset = 0;
  while (offset < input.size()) {
    auto ks = ChaCha20::Block(key, nonce, counter++);
    size_t n = std::min<size_t>(64, input.size() - offset);
    for (size_t i = 0; i < n; ++i) {
      out[offset + i] = input[offset + i] ^ ks[i];
    }
    offset += n;
  }
  return out;
}

TEST(ChaCha20SpanTest, CryptIntoMatchesSeedBlockPath) {
  Rng rng(41);
  Bytes key = rng.RandomBytes(ChaCha20::kKeySize);
  Bytes nonce = rng.RandomBytes(ChaCha20::kNonceSize);
  for (size_t size : {0u, 1u, 63u, 64u, 65u, 128u, 1000u, 65536u}) {
    Bytes input = rng.RandomBytes(size);
    Bytes expected = SeedCrypt(key, nonce, 7, input);
    EXPECT_EQ(ChaCha20::Crypt(key, nonce, 7, input), expected) << size;

    Bytes out(size);
    ChaCha20::CryptInto(key, nonce, 7, input, ByteSpan(out));
    EXPECT_EQ(out, expected) << size;

    Bytes in_place = input;
    ChaCha20::CryptInPlace(key, nonce, 7, ByteSpan(in_place));
    EXPECT_EQ(in_place, expected) << size;

    // Decrypt restores the plaintext.
    ChaCha20::CryptInPlace(key, nonce, 7, ByteSpan(in_place));
    EXPECT_EQ(in_place, input) << size;
  }
}

TEST(Sha256DispatchTest, HardwarePathMatchesPortable) {
  Rng rng(42);
  for (size_t size : {0u, 1u, 55u, 56u, 63u, 64u, 65u, 127u, 128u, 1000u,
                      100000u}) {
    Bytes data = rng.RandomBytes(size);
    Sha256::ForcePortableForTesting(true);
    Bytes portable = Sha256::Hash(data);
    Sha256::ForcePortableForTesting(false);
    Bytes dispatched = Sha256::Hash(data);
    EXPECT_EQ(portable, dispatched) << size;
  }
}

TEST(Sha256DispatchTest, ChunkedUpdatesMatchOneShot) {
  Rng rng(43);
  Bytes data = rng.RandomBytes(10000);
  Sha256 chunked;
  size_t offset = 0;
  size_t step = 1;
  while (offset < data.size()) {
    size_t n = std::min(step, data.size() - offset);
    chunked.Update(ConstByteSpan(data.data() + offset, n));
    offset += n;
    step = step * 2 + 1;
  }
  auto digest = chunked.Finish();
  EXPECT_EQ(Bytes(digest.begin(), digest.end()), Sha256::Hash(data));
}

void FakePortableBlocks(uint32_t*, const uint8_t*, size_t) {}
void FakeShaNiBlocks(uint32_t*, const uint8_t*, size_t) {}

// The dispatch tests above and below compare two kernels only if pinning
// the portable one really switches kernels.
TEST(HashKernelTest, PinningSelectsThePortableKernel) {
  HashKernel kernel(FakePortableBlocks, FakeShaNiBlocks);
  EXPECT_EQ(kernel.Get(),
            CpuHasShaNi() ? &FakeShaNiBlocks : &FakePortableBlocks);
  kernel.ForcePortable(true);
  EXPECT_EQ(kernel.Get(), &FakePortableBlocks);
  kernel.ForcePortable(false);
  EXPECT_EQ(kernel.Get(),
            CpuHasShaNi() ? &FakeShaNiBlocks : &FakePortableBlocks);
  HashKernel portable_only(FakePortableBlocks, nullptr);
  EXPECT_EQ(portable_only.Get(), &FakePortableBlocks);
}

TEST(Sha1DispatchTest, HardwarePathMatchesPortable) {
  Rng rng(44);
  for (size_t size : {0u, 1u, 55u, 56u, 63u, 64u, 65u, 127u, 128u, 1000u,
                      100000u}) {
    Bytes data = rng.RandomBytes(size);
    Sha1::ForcePortableForTesting(true);
    Bytes portable = Sha1::Hash(data);
    Sha1::ForcePortableForTesting(false);
    Bytes dispatched = Sha1::Hash(data);
    EXPECT_EQ(portable, dispatched) << size;
  }
}

TEST(Sha1DispatchTest, ChunkedUpdatesMatchOneShot) {
  Rng rng(45);
  Bytes data = rng.RandomBytes(10000);
  for (bool portable : {false, true}) {
    SCOPED_TRACE(portable ? "portable" : "dispatched");
    Sha1::ForcePortableForTesting(portable);
    // Growing splits: the first chunks stay inside one block, later ones
    // top up the buffer and then compress whole blocks from the input.
    Sha1 chunked;
    size_t offset = 0;
    size_t step = 1;
    while (offset < data.size()) {
      size_t n = std::min(step, data.size() - offset);
      chunked.Update(ConstByteSpan(data.data() + offset, n));
      offset += n;
      step = step * 2 + 1;
    }
    auto digest = chunked.Finish();
    EXPECT_EQ(Bytes(digest.begin(), digest.end()), Sha1::Hash(data));
  }
  Sha1::ForcePortableForTesting(false);
}

TEST(Sha1SpanTest, SpanOverloadMatchesStringView) {
  Bytes data = ToBytes("consistency anchor hash input");
  EXPECT_EQ(Sha1::Hash(ConstByteSpan(data)),
            Sha1::Hash(std::string_view("consistency anchor hash input")));
}

}  // namespace
}  // namespace scfs
