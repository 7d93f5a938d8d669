#ifndef TPR_KERN_KERN_INTERNAL_H_
#define TPR_KERN_KERN_INTERNAL_H_

// Implementation split between kern.cc (dispatch + scalar),
// gemm_avx2.cc (compiled with -mavx2 -mfma) and gemm_avx512.cc (compiled
// with -mavx512f as well, and entered only when CpuSupportsAvx512F()).
// When the toolchain cannot target AVX2 both SIMD TUs are dropped and
// TPR_NO_AVX2 is defined; when it cannot target AVX-512F only the second
// is dropped and TPR_NO_AVX512 is defined. Dispatch then never calls the
// missing code; kern.cc defines fatal stubs of the four width functions
// below so that tests and benches calling them still link.

#include <cstddef>
#include <cstdint>

namespace tpr::kern::avx2 {

// The two widths of the one avx2 GEMM loop, out(m x n) += op(A) * B,
// behind GemmAcc, GemmAccPacked and GemmTransAAcc. op(A)(r, kk) sits at
// a[r * a_row_stride + kk * a_k_stride]; `prepacked` is null or holds
// PackPanels(b, k, n). Both compute every output element as one FMA chain
// over kk = 0..k-1 from zero, in order, added into `out` once, so the
// tile width, like the tile row count, never changes a bit: the two
// two are bitwise interchangeable and the dispatcher picks by shape.

// ymm tiles (6/2/1 rows x 16 columns) over the columns [j_begin, n).
void GemmStridedA256(const float* a, size_t a_row_stride, size_t a_k_stride,
                     const float* b, const float* prepacked, float* out,
                     int m, int k, int n, int j_begin);

// zmm tiles (1..12 rows x 32 columns) over every full 32-column block,
// then GemmStridedA256 for the remaining columns. A 32-column block reads
// two adjacent 16-column panels, so it uses the PackPanels layout as is.
// Requires AVX-512F.
void GemmStridedA512(const float* a, size_t a_row_stride, size_t a_k_stride,
                     const float* b, const float* prepacked, float* out,
                     int m, int k, int n);

// The two widths of the avx2 LstmCellRow. The cell is lane-uniform: each
// lane runs the same op sequence at either width, so they are bitwise
// interchangeable too.

// ymm chunks (8 columns, the ragged tail staged) over columns [j_begin, h).
void LstmCellRow256(const float* g, const float* c_prev, float* act,
                    float* out, int h, int j_begin);

// zmm chunks over every full 16 columns, then LstmCellRow256 for the rest.
// Requires AVX-512F.
void LstmCellRow512(const float* g, const float* c_prev, float* act,
                    float* out, int h);

void GemmAcc(const float* a, const float* b, float* out, int m, int k, int n);
void GemmAccPacked(const float* a, const float* b, const float* packed,
                   float* out, int m, int k, int n);
void GemmInt8(const int8_t* a, const int8_t* bt, int32_t* out, int m, int k,
              int n);
void GemmInt8Wide(const int8_t* a, const int16_t* btw, int32_t* out, int m,
                  int k, int n);
void DequantBias(const int32_t* acc, float a_scale, const float* b_scales,
                 const float* bias, float* y, int m, int n);
void DequantAcc(const int32_t* acc, float a_scale, const float* b_scales,
                float* y, int m, int n);
void QuantizeRow(const float* x, float inv_scale, int8_t* q, int n);
void GemmTransAAcc(const float* a, const float* b, float* out, int k, int m,
                   int n);
void GemmTransBAcc(const float* a, const float* b, float* out, int m, int k,
                   int n);
void HadamardAcc(const float* a, const float* b, float* out, int n);
void AxpyAcc(float alpha, const float* x, float* y, int n);
void AddAcc(const float* x, float* y, int n);
void LstmCellRow(const float* g, const float* c_prev, float* act, float* out,
                 int h);
void GruCellRow(const float* gi, const float* gh, const float* h_prev,
                float* act, float* out, int h);

}  // namespace tpr::kern::avx2

#endif  // TPR_KERN_KERN_INTERNAL_H_
