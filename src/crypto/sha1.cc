#include "src/crypto/sha1.h"

#if defined(__x86_64__) || defined(__i386__)
#define SCFS_SHA1_X86 1
#include <immintrin.h>
#endif

namespace scfs {

namespace {
inline uint32_t Rotl32(uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

inline uint32_t LoadBe32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

// Portable compression. Round I's boolean function and constant are chosen
// at compile time, and the working variables rotate by argument position
// instead of by moves, so the 80 rounds unroll into straight-line code. The
// message schedule is a 16-word ring expanded in place.
template <int I>
inline uint32_t Schedule(uint32_t w[16]) {
  if constexpr (I < 16) {
    return w[I];
  } else {
    w[I & 15] = Rotl32(w[(I - 3) & 15] ^ w[(I - 8) & 15] ^
                           w[(I - 14) & 15] ^ w[I & 15],
                       1);
    return w[I & 15];
  }
}

template <int I>
inline void Round(uint32_t a, uint32_t& b, uint32_t c, uint32_t d,
                  uint32_t& e, uint32_t w[16]) {
  uint32_t f;
  uint32_t k;
  if constexpr (I < 20) {
    f = d ^ (b & (c ^ d));  // Ch
    k = 0x5a827999;
  } else if constexpr (I < 40) {
    f = b ^ c ^ d;  // Parity
    k = 0x6ed9eba1;
  } else if constexpr (I < 60) {
    f = (b & c) | (d & (b | c));  // Maj
    k = 0x8f1bbcdc;
  } else {
    f = b ^ c ^ d;
    k = 0xca62c1d6;
  }
  e += Rotl32(a, 5) + f + k + Schedule<I>(w);
  b = Rotl32(b, 30);
}

template <int I>
inline void FiveRounds(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d,
                       uint32_t& e, uint32_t w[16]) {
  Round<I>(a, b, c, d, e, w);
  Round<I + 1>(e, a, b, c, d, w);
  Round<I + 2>(d, e, a, b, c, w);
  Round<I + 3>(c, d, e, a, b, w);
  Round<I + 4>(b, c, d, e, a, w);
  if constexpr (I + 5 < 80) {
    FiveRounds<I + 5>(a, b, c, d, e, w);
  }
}

void ProcessBlocksPortable(uint32_t state[5], const uint8_t* data,
                           size_t count) {
  while (count-- > 0) {
    uint32_t w[16];
    for (int i = 0; i < 16; ++i) {
      w[i] = LoadBe32(data + i * 4);
    }
    uint32_t a = state[0];
    uint32_t b = state[1];
    uint32_t c = state[2];
    uint32_t d = state[3];
    uint32_t e = state[4];
    FiveRounds<0>(a, b, c, d, e, w);
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    data += Sha1::kBlockSize;
  }
}

#ifdef SCFS_SHA1_X86

#define SCFS_SHA1_NI __attribute__((target("sha,ssse3,sse4.1")))

// SHA-NI compression (see the Intel SHA extensions programming guide). ABCD
// sits in one register with A in the top lane; E rides in the top lane of a
// second one. Each of the 20 groups runs four rounds with one sha1rnds4 whose
// immediate selects the round function and constant (G / 5). The group's E
// comes from sha1nexte: rotl(A, 30) of the ABCD from before the previous
// group, plus the group's four message words.
//
// `msg` is the rolling window of the last four message groups;
// W[G] = sha1msg2(sha1msg1(W[G-4], W[G-3]) ^ W[G-2], W[G-1]).
template <int G>
SCFS_SHA1_NI __attribute__((always_inline)) inline void RoundGroup(
    const uint8_t* block, __m128i msg[4], __m128i& abcd, __m128i& e) {
  __m128i w;
  if constexpr (G < 4) {
    // Byte-reverse the whole 16 bytes: big-endian words, W[0] in the top
    // lane.
    const __m128i kReverse =
        _mm_set_epi64x(0x0001020304050607ULL, 0x08090a0b0c0d0e0fULL);
    w = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * G)),
        kReverse);
  } else {
    w = _mm_sha1msg2_epu32(
        _mm_xor_si128(_mm_sha1msg1_epu32(msg[G & 3], msg[(G + 1) & 3]),
                      msg[(G + 2) & 3]),
        msg[(G + 3) & 3]);
  }
  msg[G & 3] = w;
  __m128i e_in;
  if constexpr (G == 0) {
    e_in = _mm_add_epi32(e, w);  // E is the saved state, not rotated
  } else {
    e_in = _mm_sha1nexte_epu32(e, w);
  }
  e = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, e_in, G / 5);
  if constexpr (G + 1 < 20) {
    RoundGroup<G + 1>(block, msg, abcd, e);
  }
}

SCFS_SHA1_NI void ProcessBlocksShaNi(uint32_t state[5], const uint8_t* data,
                                     size_t count) {
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);

  while (count-- > 0) {
    const __m128i abcd_save = abcd;
    const __m128i e_save = e0;
    __m128i msg[4];
    __m128i e = e0;
    RoundGroup<0>(data, msg, abcd, e);
    // `e` now holds the ABCD from before the last group.
    e0 = _mm_sha1nexte_epu32(e, e_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
    data += Sha1::kBlockSize;
  }

  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<uint32_t>(_mm_extract_epi32(e0, 3));
}

#undef SCFS_SHA1_NI

#endif  // SCFS_SHA1_X86

#ifdef SCFS_SHA1_X86
HashKernel g_kernel(ProcessBlocksPortable, ProcessBlocksShaNi);
#else
HashKernel g_kernel(ProcessBlocksPortable, nullptr);
#endif

}  // namespace

void Sha1::ForcePortableForTesting(bool force) {
  g_kernel.ForcePortable(force);
}

Sha1::Sha1()
    : MdHash(g_kernel, {0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476,
                        0xc3d2e1f0}) {}

}  // namespace scfs
