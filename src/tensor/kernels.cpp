#include "tensor/kernels.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

namespace cortex::kernels {

void gemm_naive(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      float s = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) s += a[i * k + p] * b[p * n + j];
      c[i * n + j] = s;
    }
}

namespace {

// One register-blocked micro-kernel serves every GEMM entry point. It holds
// an R x (P * NR) block of C in vector registers for the whole k loop
// (R <= MR rows of A, P adjacent NR-column panels of B), broadcasting one A
// element per row and loading NR contiguous B floats per panel per k step.
// B is addressed as panels: column j0 + q * NR + j of row p lives at
// b[q * panel_stride + p * ldb + j]. A pre-packed B ([n/NR][k][NR], see
// pack_weight_panels) has ldb = NR and panel_stride = k * NR; a row-major
// B[k, n] has ldb = n and panel_stride = NR.
//
// Numerics contract: every output element is one chain of separately
// rounded multiplies and adds in ascending p order, starting from +0.0f —
// exactly gemv's chain — so a GEMM over a [rows, k] panel is bit-identical
// to rows independent GEMVs (the tree builds with -ffp-contract=off, so
// no multiply-add is fused). gemm_acc adds the finished chain to C, as
// gemv_acc does. The batched wavefront executor relies on this.
//
// The vector width and tile are fixed at compile time by the target: MR
// rows x two vectors of columns, sized so the accumulators plus the B
// vectors fit the register file (32 zmm, 16 ymm, 16 xmm).
#if defined(__AVX512F__)
constexpr int kVecBytes = 64;
constexpr int kMR = 6;
#elif defined(__AVX__)
constexpr int kVecBytes = 32;
constexpr int kMR = 4;
#else
constexpr int kVecBytes = 16;
constexpr int kMR = 4;
#endif
typedef float VecF __attribute__((vector_size(kVecBytes)));
constexpr int kLanes = kVecBytes / static_cast<int>(sizeof(float));
constexpr int kVecsPerPanel = 2;
constexpr std::int64_t kNR = kLanes * kVecsPerPanel;

inline VecF load_vec(const float* p) {
  VecF v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store_vec(float* p, VecF v) { std::memcpy(p, &v, sizeof v); }

struct PanelB {
  const float* b;
  std::int64_t ldb;
  std::int64_t panel_stride;
};

// C[0:R, 0:P*NR] (= / +=) A[0:R, 0:k] * B panels [0, P). Only the last
// panel of a P == 1 call may be partial (cols < NR); the columns past
// `cols` are computed from B's zero padding and never stored.
template <int R, int P>
void micro_tile(const float* __restrict a, std::int64_t k,
                const float* __restrict b, std::int64_t ldb,
                std::int64_t panel_stride, float* __restrict c,
                std::int64_t ldc, std::int64_t cols, bool accumulate) {
  constexpr int kV = P * kVecsPerPanel;
  VecF acc[R][kV] = {};
  for (std::int64_t p = 0; p < k; ++p) {
    VecF bv[kV];
    for (int q = 0; q < P; ++q)
      for (int v = 0; v < kVecsPerPanel; ++v)
        bv[q * kVecsPerPanel + v] =
            load_vec(b + q * panel_stride + p * ldb + v * kLanes);
    for (int r = 0; r < R; ++r) {
      const float av = a[r * k + p];
      for (int v = 0; v < kV; ++v) acc[r][v] += bv[v] * av;
    }
  }
  for (int r = 0; r < R; ++r) {
    float* crow = c + r * ldc;
    if (cols == kNR) {
      for (int v = 0; v < kV; ++v) {
        VecF out = acc[r][v];
        if (accumulate) out = load_vec(crow + v * kLanes) + out;
        store_vec(crow + v * kLanes, out);
      }
    } else {
      float tile[kNR];
      std::memcpy(tile, acc[r], sizeof tile);
      for (std::int64_t j = 0; j < cols; ++j)
        crow[j] = accumulate ? crow[j] + tile[j] : tile[j];
    }
  }
}

// A block of `rows` <= R rows of C across all n columns, dispatched down
// to its compile-time row count. A block shorter than MR widens to P
// panels at a time so it still keeps about 2 * MR accumulators in flight
// (a single-row block over one panel would wait on add latency).
template <int R>
void row_block(std::int64_t rows, const float* a, std::int64_t k,
               const PanelB& pb, float* c, std::int64_t ldc, std::int64_t n,
               bool accumulate) {
  if constexpr (R > 1) {
    if (rows < R) {
      row_block<R - 1>(rows, a, k, pb, c, ldc, n, accumulate);
      return;
    }
  }
  constexpr int P = kMR / R;
  const std::int64_t full = n / kNR;
  std::int64_t jp = 0;
  if constexpr (P > 1) {
    for (; jp + P <= full; jp += P)
      micro_tile<R, P>(a, k, pb.b + jp * pb.panel_stride, pb.ldb,
                       pb.panel_stride, c + jp * kNR, ldc, kNR, accumulate);
  }
  for (; jp * kNR < n; ++jp)
    micro_tile<R, 1>(a, k, pb.b + jp * pb.panel_stride, pb.ldb,
                     pb.panel_stride, c + jp * kNR, ldc,
                     std::min(kNR, n - jp * kNR), accumulate);
}

// C[m, 0:n] over B's first ceil(n / NR) panels, one MR-row block at a time
// (the block's A rows stay in L1 while B streams past).
void gemm_panels(const float* a, const PanelB& pb, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, std::int64_t ldc,
                 bool accumulate) {
  for (std::int64_t i = 0; i < m; i += kMR)
    row_block<kMR>(std::min<std::int64_t>(kMR, m - i), a + i * k, k, pb,
                   c + i * ldc, ldc, n, accumulate);
}

void gemm_impl(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, bool accumulate) {
  // Full panels straight from row-major B; the n % NR tail columns are
  // copied into one zero-padded panel so the kernel never reads past a
  // row of B.
  const std::int64_t n_full = n - n % kNR;
  gemm_panels(a, PanelB{b, n, kNR}, c, m, k, n_full, n, accumulate);
  if (n_full == n) return;
  std::vector<float> tail(static_cast<std::size_t>(k * kNR), 0.0f);
  for (std::int64_t p = 0; p < k; ++p)
    std::memcpy(tail.data() + p * kNR, b + p * n + n_full,
                sizeof(float) * (n - n_full));
  gemm_panels(a, PanelB{tail.data(), kNR, k * kNR}, c + n_full, m, k,
              n - n_full, n, accumulate);
}

}  // namespace

GemmTile gemm_tile() { return GemmTile{kMR, kNR}; }

std::int64_t packed_weight_size(std::int64_t n, std::int64_t k) {
  return (n + kNR - 1) / kNR * k * kNR;
}

void pack_weight_panels(const float* w, float* packed, std::int64_t n,
                        std::int64_t k) {
  for (std::int64_t col = 0; col < n; ++col) {
    float* dst = packed + col / kNR * k * kNR + col % kNR;
    const float* src = w + col * k;
    for (std::int64_t p = 0; p < k; ++p) dst[p * kNR] = src[p];
  }
  // Zero the last panel's padding columns.
  const std::int64_t pad0 = n % kNR;
  if (pad0 == 0) return;
  float* last = packed + n / kNR * k * kNR;
  for (std::int64_t p = 0; p < k; ++p)
    std::fill(last + p * kNR + pad0, last + (p + 1) * kNR, 0.0f);
}

void gemm_packed(const float* a, const float* packed, float* c,
                 std::int64_t m, std::int64_t k, std::int64_t n) {
  gemm_panels(a, PanelB{packed, kNR, k * kNR}, c, m, k, n, n,
              /*accumulate=*/false);
}

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n) {
  gemm_impl(a, b, c, m, k, n, /*accumulate=*/false);
}

void gemm_acc(const float* a, const float* b, float* c, std::int64_t m,
              std::int64_t k, std::int64_t n) {
  gemm_impl(a, b, c, m, k, n, /*accumulate=*/true);
}

void gemv(const float* a, const float* x, float* y, std::int64_t m,
          std::int64_t k) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float s = 0.0f;
    for (std::int64_t p = 0; p < k; ++p) s += arow[p] * x[p];
    y[i] = s;
  }
}

void gemv_acc(const float* a, const float* x, float* y, std::int64_t m,
              std::int64_t k) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float s = 0.0f;
    for (std::int64_t p = 0; p < k; ++p) s += arow[p] * x[p];
    y[i] += s;
  }
}

void add(const float* a, const float* b, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void sub(const float* a, const float* b, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void mul(const float* a, const float* b, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void mul_acc(const float* a, const float* b, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] += a[i] * b[i];
}

void add_scalar(const float* a, float s, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = a[i] + s;
}

void scale(const float* a, float s, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = a[i] * s;
}

void fill(float* out, float v, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = v;
}

void copy(const float* a, float* out, std::int64_t n) {
  std::memcpy(out, a, sizeof(float) * n);
}

void acc(const float* a, float* accum, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) accum[i] += a[i];
}

void concat2(const float* a, const float* b, float* out, std::int64_t n) {
  std::memcpy(out, a, sizeof(float) * n);
  std::memcpy(out + n, b, sizeof(float) * n);
}

void gather_rows(const float* table, const std::int32_t* idx, float* out,
                 std::int64_t rows, std::int64_t width) {
  gather_rows_strided(table, width, idx, out, rows, width);
}

void gather_rows_strided(const float* table, std::int64_t stride,
                         const std::int32_t* idx, float* out,
                         std::int64_t rows, std::int64_t width) {
  for (std::int64_t r = 0; r < rows; ++r)
    std::memcpy(out + r * width, table + idx[r] * stride,
                sizeof(float) * width);
}

void scatter_rows(float* table, const std::int32_t* idx, const float* in,
                  std::int64_t rows, std::int64_t width) {
  for (std::int64_t r = 0; r < rows; ++r)
    std::memcpy(table + idx[r] * width, in + r * width,
                sizeof(float) * width);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  CORTEX_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2 &&
               a.shape().dim(1) == b.shape().dim(0))
      << "matmul shapes " << a.shape().str() << " x " << b.shape().str();
  Tensor c({a.shape().dim(0), b.shape().dim(1)});
  gemm(a.data(), b.data(), c.data(), a.shape().dim(0), a.shape().dim(1),
       b.shape().dim(1));
  return c;
}

Tensor linear(const Tensor& in, const Tensor& w) {
  CORTEX_CHECK(in.shape().rank() == 2 && w.shape().rank() == 2 &&
               in.shape().dim(1) == w.shape().dim(1))
      << "linear shapes " << in.shape().str() << " with W "
      << w.shape().str();
  const std::int64_t rows = in.shape().dim(0);
  const std::int64_t k = in.shape().dim(1);
  const std::int64_t m = w.shape().dim(0);
  Tensor out({rows, m});
  // out = in @ W^T; implemented row-by-row as GEMV to match how the
  // frameworks dispatch per-node work.
  for (std::int64_t r = 0; r < rows; ++r)
    gemv(w.data(), in.row(r), out.row(r), m, k);
  return out;
}

namespace {
Tensor binary_elementwise(const Tensor& a, const Tensor& b,
                          void (*f)(const float*, const float*, float*,
                                    std::int64_t)) {
  CORTEX_CHECK(a.shape() == b.shape())
      << "elementwise shapes " << a.shape().str() << " vs "
      << b.shape().str();
  Tensor out(a.shape());
  f(a.data(), b.data(), out.data(), a.numel());
  return out;
}
}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_elementwise(a, b, &add);
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_elementwise(a, b, &sub);
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_elementwise(a, b, &mul);
}

Tensor add_bias(const Tensor& a, const Tensor& bias) {
  CORTEX_CHECK(bias.shape().rank() == 1 && a.shape().rank() >= 1 &&
               a.shape().dim(a.shape().rank() - 1) == bias.shape().dim(0))
      << "add_bias shapes " << a.shape().str() << " + " << bias.shape().str();
  Tensor out(a.shape());
  const std::int64_t w = bias.shape().dim(0);
  const std::int64_t rows = a.numel() / w;
  for (std::int64_t r = 0; r < rows; ++r)
    add(a.data() + r * w, bias.data(), out.data() + r * w, w);
  return out;
}

Tensor concat_last(const Tensor& a, const Tensor& b) {
  CORTEX_CHECK(a.shape().rank() == b.shape().rank() && a.shape().rank() >= 1)
      << "concat_last ranks";
  const std::size_t rk = a.shape().rank();
  for (std::size_t i = 0; i + 1 < rk; ++i)
    CORTEX_CHECK(a.shape().dim(i) == b.shape().dim(i))
        << "concat_last leading dims " << a.shape().str() << " vs "
        << b.shape().str();
  std::vector<std::int64_t> dims = a.shape().dims();
  const std::int64_t wa = a.shape().dim(rk - 1);
  const std::int64_t wb = b.shape().dim(rk - 1);
  dims[rk - 1] = wa + wb;
  Tensor out{Shape(dims)};
  const std::int64_t rows = a.numel() / (wa == 0 ? 1 : wa);
  for (std::int64_t r = 0; r < rows; ++r) {
    std::memcpy(out.data() + r * (wa + wb), a.data() + r * wa,
                sizeof(float) * wa);
    std::memcpy(out.data() + r * (wa + wb) + wa, b.data() + r * wb,
                sizeof(float) * wb);
  }
  return out;
}

}  // namespace cortex::kernels
