#pragma once
// Kernel library: the host kernels every framework in this repo calls into,
// standing in for the dense kernels Cortex generates (README, "Modeled
// device vs measured host"). Raw-pointer kernels operate on contiguous
// row-major buffers; Tensor-typed wrappers add shape checking.
//
// Every GEMM entry point (gemm, gemm_acc, gemm_packed) runs one
// register-blocked micro-kernel; gemm_naive is the triple-loop reference
// the tests compare against.

#include <cstdint>

#include "tensor/tensor.hpp"

namespace cortex::kernels {

// ---------------------------------------------------------------------------
// Raw-pointer kernels (hot paths).
// ---------------------------------------------------------------------------

/// C[m,n] = A[m,k] * B[k,n]. Naive triple loop; reference implementation.
void gemm_naive(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t k, std::int64_t n);

/// C[m,n] = A[m,k] * B[k,n] for row-major B. Each C element is gemv's
/// ascending-k chain of separately rounded multiplies and adds from +0.0f,
/// so row i of C is bit-identical to gemv(B^T, A row i).
void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n);

/// C[m,n] += A[m,k] * B[k,n]: the finished chain is added to C, as
/// gemv_acc adds to y.
void gemm_acc(const float* a, const float* b, float* c, std::int64_t m,
              std::int64_t k, std::int64_t n);

/// The GEMM micro-kernel's register tile: `rows` (MR) rows of A by `cols`
/// (NR) columns of B are held in vector registers for the whole k loop.
/// Fixed at compile time by the target's vector width (AVX-512, AVX, else
/// 16-byte vectors).
struct GemmTile {
  std::int64_t rows;
  std::int64_t cols;
};
GemmTile gemm_tile();

/// Floats pack_weight_panels writes for an [n, k] weight: ceil(n / NR)
/// panels of k x NR.
std::int64_t packed_weight_size(std::int64_t n, std::int64_t k);

/// Packs B = W^T, for row-major W[n, k], into the micro-kernel's NR-column
/// panels in one pass: packed[jp][p][j] = W[jp * NR + j][p]. Columns past n
/// in the last panel are zero. `packed` holds packed_weight_size(n, k)
/// floats.
void pack_weight_panels(const float* w, float* packed, std::int64_t n,
                        std::int64_t k);

/// C[m,n] = A[m,k] * W^T for W packed by pack_weight_panels: the panel GEMM
/// of a linear layer. Row i of C is bit-identical to gemv(W, A row i).
void gemm_packed(const float* a, const float* packed, float* c,
                 std::int64_t m, std::int64_t k, std::int64_t n);

/// y[m] = A[m,k] * x[k].
void gemv(const float* a, const float* x, float* y, std::int64_t m,
          std::int64_t k);

/// y[m] += A[m,k] * x[k].
void gemv_acc(const float* a, const float* x, float* y, std::int64_t m,
              std::int64_t k);

/// out[i] = a[i] + b[i].
void add(const float* a, const float* b, float* out, std::int64_t n);
/// out[i] = a[i] - b[i].
void sub(const float* a, const float* b, float* out, std::int64_t n);
/// out[i] = a[i] * b[i].
void mul(const float* a, const float* b, float* out, std::int64_t n);
/// out[i] += a[i] * b[i].
void mul_acc(const float* a, const float* b, float* out, std::int64_t n);
/// out[i] = a[i] + s.
void add_scalar(const float* a, float s, float* out, std::int64_t n);
/// out[i] = a[i] * s.
void scale(const float* a, float s, float* out, std::int64_t n);
/// out[i] = v.
void fill(float* out, float v, std::int64_t n);
/// out[i] = a[i].
void copy(const float* a, float* out, std::int64_t n);
/// acc[i] += a[i].
void acc(const float* a, float* accum, std::int64_t n);

/// Concatenate two length-n vectors into out[0:2n].
void concat2(const float* a, const float* b, float* out, std::int64_t n);

/// Gather rows: out[r,:] = table[idx[r],:] for r in [0,rows).
void gather_rows(const float* table, const std::int32_t* idx, float* out,
                 std::int64_t rows, std::int64_t width);

/// Strided gather: out[r,:] = table[idx[r]*stride : idx[r]*stride+width].
/// `stride` is the row stride of `table` in floats — gather_rows is the
/// stride == width case. The batched wavefront executor uses this to pull
/// a column slice (e.g. the h half of an [h; c] state) of many child
/// rows into one contiguous panel.
void gather_rows_strided(const float* table, std::int64_t stride,
                         const std::int32_t* idx, float* out,
                         std::int64_t rows, std::int64_t width);

/// Scatter rows: table[idx[r],:] = in[r,:] for r in [0,rows).
void scatter_rows(float* table, const std::int32_t* idx, const float* in,
                  std::int64_t rows, std::int64_t width);

// ---------------------------------------------------------------------------
// Tensor-typed wrappers (shape-checked; examples/tests/baselines).
// ---------------------------------------------------------------------------

/// C = A @ B for 2-D tensors.
Tensor matmul(const Tensor& a, const Tensor& b);
/// Row-wise A @ B^T convenience: out[r,:] = W @ in[r,:] for each row r.
/// in: (rows, k), w: (m, k) -> out: (rows, m).
Tensor linear(const Tensor& in, const Tensor& w);
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
/// Broadcasting add of a rank-1 bias over the last dimension.
Tensor add_bias(const Tensor& a, const Tensor& bias);
/// Concatenation along the last dimension of two equal-leading tensors.
Tensor concat_last(const Tensor& a, const Tensor& b);

/// Count of floating-point operations for a GEMM of these dimensions.
inline std::int64_t gemm_flops(std::int64_t m, std::int64_t k,
                               std::int64_t n) {
  return 2 * m * k * n;
}

}  // namespace cortex::kernels
