// AVX-512F register tiles for the avx2 GEMMs. This is the only TU
// compiled with -mavx512f; nothing here may run unless kern dispatch
// verified CPUID and XCR0 support (CpuSupportsAvx512F).
//
// Same scheme as the ymm tiles of gemm_avx2.cc, twice as wide: each tile
// holds ROWS x 32 outputs in zmm accumulators, runs one FMA per element
// and k step in order from zero, and adds the sums into C once. Every
// lane therefore performs the exact op sequence of the matching ymm lane,
// which is what makes the two widths bitwise interchangeable. Column
// remainders (< 32) go to the ymm tiles unchanged.

// GCC 12's AVX-512 intrinsics pass a deliberately undefined vector
// (_mm512_undefined_ps) as the unused merge source and then report it as
// maybe-uninitialized wherever they inline. The report points into the
// header, so it is silenced there only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#include <cstddef>
#include <cstring>

#include "kern/arena.h"
#include "kern/kern_internal.h"

namespace tpr::kern::avx2 {

namespace {

constexpr int kPanel = 16;  // PackPanels panel width in floats (one zmm)
constexpr int kBlock = 32;  // columns per zmm tile: two adjacent panels

// Packing pays once a panel is reused across several row tiles (the same
// threshold as the ymm path).
constexpr int kPackMinRows = 8;

// ROWS x 32 tiles: out[r, 0..32) += sum_kk A(r, kk) * B(kk, 0..32), with
// B(kk, 0..16) at blo + kk * bstride and B(kk, 16..32) at bhi + kk *
// bstride (two packed panels, or one row of B read in place). Fully
// unrolled over ROWS so the 2 * ROWS accumulators live in zmm registers.
template <int ROWS>
inline void Tile32(const float* abase, size_t a_row_stride, size_t a_k_stride,
                   int k, const float* blo, const float* bhi, size_t bstride,
                   float* out, int ldc) {
  __m512 c0[ROWS], c1[ROWS];
#pragma GCC unroll 12
  for (int r = 0; r < ROWS; ++r) c0[r] = c1[r] = _mm512_setzero_ps();
  for (int kk = 0; kk < k; ++kk) {
    const __m512 b0 = _mm512_loadu_ps(blo + static_cast<size_t>(kk) * bstride);
    const __m512 b1 = _mm512_loadu_ps(bhi + static_cast<size_t>(kk) * bstride);
    const float* ak = abase + static_cast<size_t>(kk) * a_k_stride;
#pragma GCC unroll 12
    for (int r = 0; r < ROWS; ++r) {
      const __m512 av = _mm512_set1_ps(ak[r * a_row_stride]);
      c0[r] = _mm512_fmadd_ps(av, b0, c0[r]);
      c1[r] = _mm512_fmadd_ps(av, b1, c1[r]);
    }
  }
#pragma GCC unroll 12
  for (int r = 0; r < ROWS; ++r) {
    float* o = out + static_cast<size_t>(r) * ldc;
    _mm512_storeu_ps(o, _mm512_add_ps(_mm512_loadu_ps(o), c0[r]));
    _mm512_storeu_ps(o + 16, _mm512_add_ps(_mm512_loadu_ps(o + 16), c1[r]));
  }
}

// One tile of `rows` (1..12) rows.
void TileRows(int rows, const float* abase, size_t a_row_stride,
              size_t a_k_stride, int k, const float* blo, const float* bhi,
              size_t bstride, float* out, int ldc) {
  using TileFn = void (*)(const float*, size_t, size_t, int, const float*,
                          const float*, size_t, float*, int);
  static constexpr TileFn kTiles[] = {
      nullptr,     &Tile32<1>, &Tile32<2>, &Tile32<3>,  &Tile32<4>,
      &Tile32<5>,  &Tile32<6>, &Tile32<7>, &Tile32<8>,  &Tile32<9>,
      &Tile32<10>, &Tile32<11>, &Tile32<12>};
  kTiles[rows](abase, a_row_stride, a_k_stride, k, blo, bhi, bstride, out,
               ldc);
}

}  // namespace

void GemmStridedA512(const float* a, size_t a_row_stride, size_t a_k_stride,
                     const float* b, const float* prepacked, float* out,
                     int m, int k, int n) {
  const int n_wide = n / kBlock * kBlock;
  FloatBuffer pack;
  const bool do_pack =
      prepacked == nullptr && m >= kPackMinRows && n_wide > 0;
  if (do_pack) pack = FloatBuffer(static_cast<size_t>(k) * kBlock);

  for (int j = 0; j < n_wide; j += kBlock) {
    const float* blo = b + j;
    const float* bhi = blo + kPanel;
    size_t bstride = static_cast<size_t>(n);
    if (prepacked != nullptr) {
      blo = prepacked + static_cast<size_t>(j) * k;
      bhi = blo + static_cast<size_t>(kPanel) * k;
      bstride = kPanel;
    } else if (do_pack) {
      // One B row's 32 columns per packed row: both halves share a line.
      for (int kk = 0; kk < k; ++kk) {
        std::memcpy(pack.data() + static_cast<size_t>(kk) * kBlock,
                    b + static_cast<size_t>(kk) * n + j,
                    kBlock * sizeof(float));
      }
      blo = pack.data();
      bhi = blo + kPanel;
      bstride = kBlock;
    }
    // 12-row tiles while at least 4 rows would remain, so no tile but an
    // m < 4 call's has under 4 rows: such a tile has too few accumulators
    // to cover the FMA latency. 13..15 rows go as 8 + (5..7).
    for (int i = 0; i < m;) {
      const int left = m - i;
      const int rows = left <= 12 ? left : left < 16 ? 8 : 12;
      TileRows(rows, a + static_cast<size_t>(i) * a_row_stride, a_row_stride,
               a_k_stride, k, blo, bhi, bstride,
               out + static_cast<size_t>(i) * n + j, n);
      i += rows;
    }
  }
  if (n_wide < n) {
    GemmStridedA256(a, a_row_stride, a_k_stride, b, prepacked, out, m, k, n,
                    n_wide);
  }
}

// ---------------------------------------------------------------------------
// LSTM cell rows, 16 lanes at a time. Exp16 / Sigmoid16 / Tanh16 and the
// loop body of LstmCellRow512 repeat Exp8 / Sigmoid8 / Tanh8 / LstmCell8
// of gemm_avx2.cc op for op, with the same constants, so each lane
// computes the same bits at either width. Edit the two sets together.
// ---------------------------------------------------------------------------

namespace {

inline __m512 Exp16(__m512 x) {
  const __m512 kHi = _mm512_set1_ps(88.3762626647950f);
  const __m512 kLo = _mm512_set1_ps(-88.3762626647949f);
  const __m512 kLog2e = _mm512_set1_ps(1.44269504088896341f);
  const __m512 kHalf = _mm512_set1_ps(0.5f);
  const __m512 kOne = _mm512_set1_ps(1.0f);
  const __m512 kC1 = _mm512_set1_ps(0.693359375f);
  const __m512 kC2 = _mm512_set1_ps(-2.12194440e-4f);

  x = _mm512_min_ps(_mm512_max_ps(x, kLo), kHi);
  __m512 fx = _mm512_fmadd_ps(x, kLog2e, kHalf);
  fx = _mm512_floor_ps(fx);
  x = _mm512_fnmadd_ps(fx, kC1, x);
  x = _mm512_fnmadd_ps(fx, kC2, x);

  const __m512 z = _mm512_mul_ps(x, x);
  __m512 y = _mm512_set1_ps(1.9875691500e-4f);
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(1.3981999507e-3f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(8.3334519073e-3f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(4.1665795894e-2f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(1.6666665459e-1f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(5.0000001201e-1f));
  y = _mm512_fmadd_ps(y, z, _mm512_add_ps(x, kOne));

  const __m512i imm =
      _mm512_slli_epi32(_mm512_add_epi32(_mm512_cvttps_epi32(fx),
                                         _mm512_set1_epi32(0x7f)),
                        23);
  return _mm512_mul_ps(y, _mm512_castsi512_ps(imm));
}

inline __m512 Sigmoid16(__m512 x) {
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 e = Exp16(_mm512_sub_ps(_mm512_setzero_ps(), x));
  return _mm512_div_ps(one, _mm512_add_ps(one, e));
}

inline __m512 Tanh16(__m512 x) {
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 two = _mm512_set1_ps(2.0f);
  const __m512 e = Exp16(_mm512_mul_ps(two, x));
  return _mm512_sub_ps(one, _mm512_div_ps(two, _mm512_add_ps(e, one)));
}

}  // namespace

void LstmCellRow512(const float* g, const float* c_prev, float* act,
                    float* out, int h) {
  int j = 0;
  for (; j + 16 <= h; j += 16) {
    const __m512 ig = Sigmoid16(_mm512_loadu_ps(g + j));
    const __m512 fg = Sigmoid16(_mm512_loadu_ps(g + h + j));
    const __m512 gg = Tanh16(_mm512_loadu_ps(g + 2 * h + j));
    const __m512 og = Sigmoid16(_mm512_loadu_ps(g + 3 * h + j));
    const __m512 c =
        _mm512_fmadd_ps(fg, _mm512_loadu_ps(c_prev + j), _mm512_mul_ps(ig, gg));
    const __m512 tc = Tanh16(c);
    _mm512_storeu_ps(act + j, ig);
    _mm512_storeu_ps(act + h + j, fg);
    _mm512_storeu_ps(act + 2 * h + j, gg);
    _mm512_storeu_ps(act + 3 * h + j, og);
    _mm512_storeu_ps(act + 4 * h + j, tc);
    _mm512_storeu_ps(out + j, _mm512_mul_ps(og, tc));
    _mm512_storeu_ps(out + h + j, c);
  }
  if (j < h) LstmCellRow256(g, c_prev, act, out, h, j);
}

}  // namespace tpr::kern::avx2
