#include "src/crypto/sha256.h"

#if defined(__x86_64__) || defined(__i386__)
#define SCFS_SHA256_X86 1
#include <immintrin.h>
#endif

namespace scfs {

namespace {
inline uint32_t Rotr32(uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

constexpr uint32_t kK[64] = {
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

void ProcessBlocksPortable(uint32_t state[8], const uint8_t* data,
                           size_t count) {
  while (count-- > 0) {
    const uint8_t* block = data;
    data += Sha256::kBlockSize;
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
             (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
             (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
             static_cast<uint32_t>(block[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 =
          Rotr32(w[i - 15], 7) ^ Rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 =
          Rotr32(w[i - 2], 17) ^ Rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0];
    uint32_t b = state[1];
    uint32_t c = state[2];
    uint32_t d = state[3];
    uint32_t e = state[4];
    uint32_t f = state[5];
    uint32_t g = state[6];
    uint32_t h = state[7];

    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr32(e, 6) ^ Rotr32(e, 11) ^ Rotr32(e, 25);
      uint32_t ch = (e & f) ^ ((~e) & g);
      uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = Rotr32(a, 2) ^ Rotr32(a, 13) ^ Rotr32(a, 22);
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

#ifdef SCFS_SHA256_X86

// SHA-NI block compression (the standard ABEF/CDGH lane packing; see the
// Intel SHA extensions programming guide). Requires SHA + SSSE3 + SSE4.1.
__attribute__((target("sha,ssse3,sse4.1"))) void ProcessBlocksShaNi(
    uint32_t state[8], const uint8_t* data, size_t count) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i abcd =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i efgh =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  __m128i tmp = _mm_shuffle_epi32(abcd, 0xB1);    // b,a,d,c
  efgh = _mm_shuffle_epi32(efgh, 0x1B);           // h,g,f,e
  __m128i abef = _mm_alignr_epi8(tmp, efgh, 8);   // f,e,b,a
  __m128i cdgh = _mm_blend_epi16(efgh, tmp, 0xF0);  // h,g,d,c

  while (count-- > 0) {
    const __m128i abef_save = abef;
    const __m128i cdgh_save = cdgh;

    __m128i w[4];  // rolling window of four 4-word message groups
    for (int g = 0; g < 16; ++g) {
      __m128i msg;
      if (g < 4) {
        msg = _mm_shuffle_epi8(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(data + 16 * g)),
            kByteSwap);
      } else {
        // W[g] = msg2(msg1(W[g-4], W[g-3]) + alignr(W[g-1], W[g-2], 4),
        //             W[g-1])
        msg = _mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]);
        msg = _mm_add_epi32(msg,
                            _mm_alignr_epi8(w[(g + 3) & 3], w[(g + 2) & 3], 4));
        msg = _mm_sha256msg2_epu32(msg, w[(g + 3) & 3]);
      }
      w[g & 3] = msg;
      __m128i wk = _mm_add_epi32(
          msg, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }

    abef = _mm_add_epi32(abef, abef_save);
    cdgh = _mm_add_epi32(cdgh, cdgh_save);
    data += Sha256::kBlockSize;
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);            // a,b,e,f
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);           // g,h,c,d
  abcd = _mm_blend_epi16(tmp, cdgh, 0xF0);        // a,b,c,d
  efgh = _mm_alignr_epi8(cdgh, tmp, 8);           // e,f,g,h
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), abcd);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), efgh);
}

#endif  // SCFS_SHA256_X86

#ifdef SCFS_SHA256_X86
HashKernel g_kernel(ProcessBlocksPortable, ProcessBlocksShaNi);
#else
HashKernel g_kernel(ProcessBlocksPortable, nullptr);
#endif

}  // namespace

void Sha256::ForcePortableForTesting(bool force) {
  g_kernel.ForcePortable(force);
}

Sha256::Sha256()
    : MdHash(g_kernel, {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19}) {}

}  // namespace scfs
