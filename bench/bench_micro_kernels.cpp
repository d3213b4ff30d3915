// Microbenchmarks of the kernel substrate (the repo's "vendor BLAS"
// stand-in that every framework calls) using google-benchmark: GEMM
// (naive reference vs the register-blocked micro-kernel, square and at the
// served panel shapes), the eltwise panels around them, GEMV, activations,
// and the row gather the batched executor builds its panels with.

#include <benchmark/benchmark.h>

#include <vector>

#include "models/cell.hpp"
#include "ra/expr.hpp"
#include "support/rng.hpp"
#include "tensor/activations.hpp"
#include "tensor/kernels.hpp"

namespace {

using namespace cortex;

std::vector<float> random_vec(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  rng.fill_uniform(v.data(), v.size(), -1.0f, 1.0f);
  return v;
}

void BM_GemmNaive(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const auto a = random_vec(n * n, 1);
  const auto b = random_vec(n * n, 2);
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto _ : state) {
    kernels::gemm_naive(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          kernels::gemm_flops(n, n, n));
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmSquare(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const auto a = random_vec(n * n, 1);
  const auto b = random_vec(n * n, 2);
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto _ : state) {
    kernels::gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          kernels::gemm_flops(n, n, n));
}
BENCHMARK(BM_GemmSquare)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// The served panel GEMM: C[rows, 256] = In[rows, 256] @ W^T for a 256 x 256
// weight, at wavefront widths from batch-1 trees (1) through seqlstm
// shards (11, 19) to offline batches (1100). Arg 1 selects W packed once
// into column panels (the batched executor's kMatVec path) or W^T
// row-major (gemm, as kMatStack2 and matmul call it). Items are flops.
void BM_GemmPanel(benchmark::State& state) {
  const std::int64_t rows = state.range(0);
  const bool packed = state.range(1) != 0;
  const std::int64_t h = 256;
  const auto in = random_vec(rows * h, 1);
  const auto w = random_vec(h * h, 2);
  std::vector<float> b(static_cast<std::size_t>(
      packed ? kernels::packed_weight_size(h, h) : h * h));
  if (packed) {
    kernels::pack_weight_panels(w.data(), b.data(), h, h);
  } else {
    for (std::int64_t j = 0; j < h; ++j)
      for (std::int64_t p = 0; p < h; ++p)
        b[static_cast<std::size_t>(p * h + j)] =
            w[static_cast<std::size_t>(j * h + p)];
  }
  std::vector<float> c(static_cast<std::size_t>(rows * h));
  for (auto _ : state) {
    if (packed)
      kernels::gemm_packed(in.data(), b.data(), c.data(), rows, h, h);
    else
      kernels::gemm(in.data(), b.data(), c.data(), rows, h, h);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          kernels::gemm_flops(rows, h, h));
}
BENCHMARK(BM_GemmPanel)
    ->ArgNames({"rows", "packed"})
    ->ArgsProduct({{1, 11, 19, 64, 1100}, {0, 1}});

// The eltwise panels around those GEMMs, as CompiledEltwise::eval_panel
// runs them at hidden 256: arg 0 picks SeqLSTM's gate expression
// sigmoid((e0+e1)+b[i]) or its hh expression e0*tanh(e1); arg 1 the panel
// rows. Items are elements.
void BM_EltwisePanel(benchmark::State& state) {
  const bool gate = state.range(0) == 0;
  const std::int64_t rows = state.range(1);
  const std::int64_t h = 256;
  const ra::Expr e0 = ra::var("e0");
  const ra::Expr e1 = ra::var("e1");
  const models::CompiledEltwise ce(
      gate ? ra::call(ra::CallFn::kSigmoid,
                      ra::add(ra::add(e0, e1),
                              ra::load("b", {ra::var("i")})))
           : ra::mul(e0, ra::call(ra::CallFn::kTanh, e1)));
  const auto in0 = random_vec(rows * h, 1);
  const auto in1 = random_vec(rows * h, 2);
  const auto bias = random_vec(h, 3);
  const float* ins[2] = {in0.data(), in1.data()};
  const float* params[1] = {bias.data()};
  std::vector<float> out(static_cast<std::size_t>(rows * h));
  for (auto _ : state) {
    ce.eval_panel(rows, h, ins, params, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * rows * h);
}
BENCHMARK(BM_EltwisePanel)
    ->ArgNames({"hh", "rows"})
    ->ArgsProduct({{0, 1}, {1, 11, 64}});

void BM_Gemv(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const auto a = random_vec(n * n, 1);
  const auto x = random_vec(n, 2);
  std::vector<float> y(static_cast<std::size_t>(n));
  for (auto _ : state) {
    kernels::gemv(a.data(), x.data(), y.data(), n, n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n);
}
BENCHMARK(BM_Gemv)->Arg(256)->Arg(512);

void BM_TanhRational(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const auto a = random_vec(n, 3);
  std::vector<float> out(static_cast<std::size_t>(n));
  for (auto _ : state) {
    kernels::tanh_vec(a.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TanhRational)->Arg(4096);

void BM_GatherRows(benchmark::State& state) {
  const std::int64_t rows = state.range(0);
  const std::int64_t width = 256;
  const auto table = random_vec(rows * width, 4);
  std::vector<std::int32_t> idx(static_cast<std::size_t>(rows));
  Rng rng(5);
  for (auto& i : idx)
    i = static_cast<std::int32_t>(rng.next_below(
        static_cast<std::uint64_t>(rows)));
  std::vector<float> out(static_cast<std::size_t>(rows * width));
  for (auto _ : state) {
    kernels::gather_rows(table.data(), idx.data(), out.data(), rows, width);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * rows * width * 4);
}
BENCHMARK(BM_GatherRows)->Arg(256)->Arg(1024);

}  // namespace
