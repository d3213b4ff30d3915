// Batched wavefront executor: a per-node models::CellExecutor walk over
// the linearization's execution order is the regression oracle — every
// node state the engine computes must be bit-identical to it across the
// model zoo, schedules, batch sizes and thread counts. Plus the kernel-level
// contracts the executor is built on (panel GEMM == per-row GEMV bitwise,
// strided gather, weight packing, vectorized eltwise == scalar eltwise),
// the profiler's panel counters, and EnginePool parity with batching
// enabled.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "baselines/common.hpp"
#include "ds/generators.hpp"
#include "exec/engine.hpp"
#include "exec/engine_pool.hpp"
#include "models/model_zoo.hpp"
#include "tensor/kernels.hpp"

namespace cortex::exec {
namespace {

runtime::DeviceSpec gpu() { return runtime::DeviceSpec::v100_gpu(); }

/// `s` with dynamic batching off: the engine still runs panels; only its
/// modeled device accounting turns per node.
ra::Schedule per_node(ra::Schedule s) {
  s.dynamic_batching = false;
  return s;
}

/// Every node state from the per-node reference executor: the oracle the
/// engine must match.
std::vector<float> reference_states(const models::ModelDef& def,
                                    const models::ModelParams& params,
                                    const linearizer::Linearized& lin) {
  models::CellExecutor exec(def.cell, params);
  Tensor states = Tensor::zeros(Shape{lin.num_nodes, def.cell.state_width});
  baselines::node_states(exec, lin, states);
  return std::vector<float>(states.data(), states.data() + states.numel());
}

/// Bitwise equality (memcmp), so -0.0f vs +0.0f and NaN payloads count.
bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

linearizer::Linearized lin_for(const models::ModelDef& def,
                               std::int64_t batch, std::uint64_t seed) {
  Rng rng(seed);
  linearizer::LinearizerSpec spec;
  if (def.model) spec.kind = def.model->kind;
  if (spec.kind == linearizer::StructureKind::kDag) {
    std::vector<std::unique_ptr<ds::Dag>> dags;
    for (std::int64_t b = 0; b < batch; ++b)
      dags.push_back(ds::make_grid_dag(5, 5, rng));
    return linearizer::linearize_dags(baselines::raw(dags), spec);
  }
  std::vector<std::unique_ptr<ds::Tree>> trees;
  if (def.name == "SeqLSTM" || def.name == "SeqGRU") {
    // Sequence models run over chains (the Fig. 9 workload shape).
    for (std::int64_t b = 0; b < batch; ++b)
      trees.push_back(ds::make_chain_tree(9, rng));
  } else {
    trees = ds::make_sst_like_batch(batch, rng);
  }
  return linearizer::linearize_trees(baselines::raw(trees), spec);
}

std::vector<ra::Schedule> schedules() {
  return {ra::Schedule{}, ra::Schedule::unoptimized(),
          ra::Schedule::cavs_comparable(), per_node(ra::Schedule{})};
}

std::vector<float> all_states(const CortexEngine& engine,
                              const linearizer::Linearized& lin,
                              std::int64_t state_width) {
  return std::vector<float>(
      engine.last_states().data(),
      engine.last_states().data() + lin.num_nodes * state_width);
}

// -- differential battery: engine vs per-node reference across the zoo -------

/// Instance i covers zoo models i and i + 8, so eight instances span all
/// fourteen.
class BatchedZoo : public ::testing::TestWithParam<int> {
 protected:
  std::vector<models::ModelDef> defs() const {
    std::vector<models::ModelDef> out;
    for (const int m : {GetParam(), GetParam() + 8}) {
      switch (m) {
        case 0: out.push_back(models::make_treernn_fig1(16)); break;
        case 1: out.push_back(models::make_treefc_embed(16)); break;
        case 2: out.push_back(models::make_treegru_embed(16)); break;
        case 3: out.push_back(models::make_treelstm_embed(16)); break;
        case 4: out.push_back(models::make_mvrnn(8)); break;
        case 5: out.push_back(models::make_dagrnn(16)); break;
        case 6: out.push_back(models::make_seq_lstm(16)); break;
        case 7: out.push_back(models::make_treernn(16)); break;
        case 8: out.push_back(models::make_treefc(16)); break;
        case 9: out.push_back(models::make_treegru(16)); break;
        case 10: out.push_back(models::make_simple_treegru(16)); break;
        case 11: out.push_back(models::make_treelstm(16)); break;
        case 12: out.push_back(models::make_treernn_zeroleaf(16)); break;
        case 13: out.push_back(models::make_seq_gru(16)); break;
        default: break;
      }
    }
    return out;
  }
};

TEST_P(BatchedZoo, BatchedMatchesPerNodeBitwiseAcrossSchedulesAndThreads) {
  for (const models::ModelDef& def : defs()) {
    Rng rng(101);
    const models::ModelParams params = models::init_params(def, rng);
    for (const ra::Schedule& sched : schedules()) {
      CortexEngine engine(def, params, sched, gpu());
      for (const std::int64_t batch : {0, 1, 2, 5, 13}) {
        if (batch == 0) {
          // Empty mini-batch: an empty result.
          EXPECT_TRUE(engine.run_linearized(linearizer::Linearized{}, 0.0)
                          .root_states.empty());
          continue;
        }
        const linearizer::Linearized lin =
            lin_for(def, batch, 101 + static_cast<std::uint64_t>(batch));
        const std::vector<float> ref = reference_states(def, params, lin);
        for (const int threads : {1, 4}) {
          engine.set_num_threads(threads);
          const runtime::RunResult got = engine.run_linearized(lin, 0.0);
          // Every node state bit-identical, not only the roots.
          EXPECT_TRUE(same_bits(all_states(engine, lin, def.cell.state_width),
                                ref))
              << def.name << " " << ra::to_string(sched)
              << " batch=" << batch << " threads=" << threads;
          EXPECT_GT(got.profiler.batched_panels, 0);
          EXPECT_LE(got.profiler.max_panel_rows, lin.max_batch_length());
          if (engine.plan().host_panel_gemms_internal > 0 &&
              lin.num_batches() > 1) {
            EXPECT_GT(got.profiler.batched_gemm_calls, 0);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, BatchedZoo, ::testing::Range(0, 8));

// -- exact panel accounting at one thread -----------------------------------------

TEST(BatchedProfile, SingleThreadCountsMatchPlanMetadata) {
  // One thread, homogeneous wavefronts: exactly one panel per dynamic
  // batch, and the plan's per-batch matvec counts pin the GEMM total.
  for (const auto& make :
       {+[] { return models::make_treelstm_embed(16); },
        +[] { return models::make_dagrnn(16); }}) {
    const models::ModelDef def = make();
    Rng rng(7);
    const models::ModelParams params = models::init_params(def, rng);
    const linearizer::Linearized lin = lin_for(def, 5, 77);

    CortexEngine engine(def, params, ra::Schedule{}, gpu());
    engine.set_num_threads(1);
    const runtime::RunResult r = engine.run_linearized(lin, 0.0);
    const Plan& plan = engine.plan();

    EXPECT_EQ(r.profiler.batched_panels, lin.num_batches()) << def.name;
    EXPECT_EQ(r.profiler.max_panel_rows, lin.max_batch_length()) << def.name;
    EXPECT_EQ(r.profiler.batched_gemm_calls,
              plan.host_panel_gemms_leaf +
                  (lin.num_batches() - 1) * plan.host_panel_gemms_internal)
        << def.name;
  }
}

TEST(BatchedProfile, PanelStatsResetBetweenRuns) {
  const models::ModelDef def = models::make_treelstm_embed(16);
  Rng rng(9);
  const models::ModelParams params = models::init_params(def, rng);
  const linearizer::Linearized lin = lin_for(def, 3, 9);

  CortexEngine engine(def, params, ra::Schedule{}, gpu());
  engine.set_num_threads(1);
  const runtime::RunResult a = engine.run_linearized(lin, 0.0);
  const runtime::RunResult b = engine.run_linearized(lin, 0.0);
  EXPECT_EQ(a.profiler.batched_gemm_calls, b.profiler.batched_gemm_calls);
  EXPECT_EQ(a.profiler.batched_panels, b.profiler.batched_panels);
  EXPECT_EQ(a.root_states, b.root_states);
}

TEST(BatchedProfile, ThrowingRunDoesNotLeakStatsIntoNextRun) {
  // A run that throws mid-wavefront leaves partial per-worker counters;
  // the next run must start from zero, not drain the leftovers.
  const models::ModelDef def = models::make_treelstm_embed(16);
  Rng rng(15);
  const models::ModelParams params = models::init_params(def, rng);
  const linearizer::Linearized lin = lin_for(def, 3, 15);

  CortexEngine engine(def, params, ra::Schedule{}, gpu());
  engine.set_num_threads(1);
  const runtime::RunResult good = engine.run_linearized(lin, 0.0);

  linearizer::Linearized bad = lin;
  bad.word[static_cast<std::size_t>(bad.num_nodes) - 1] = 1 << 20;
  EXPECT_THROW(engine.run_linearized(bad, 0.0), Error);

  const runtime::RunResult after = engine.run_linearized(lin, 0.0);
  EXPECT_EQ(after.profiler.batched_panels, good.profiler.batched_panels);
  EXPECT_EQ(after.profiler.batched_gemm_calls,
            good.profiler.batched_gemm_calls);
  EXPECT_EQ(after.profiler.max_panel_rows, good.profiler.max_panel_rows);
  EXPECT_EQ(after.root_states, good.root_states);
}

// -- every schedule runs panels; the schedule flag is modeled-only -----------

TEST(BatchedDispatch, NoDynamicBatchingRunsPanelsAndAccountsPerNode) {
  const models::ModelDef def = models::make_treelstm_embed(16);
  Rng rng(11);
  const models::ModelParams params = models::init_params(def, rng);
  const linearizer::Linearized lin = lin_for(def, 4, 11);

  CortexEngine unbatched(def, params, per_node(ra::Schedule{}), gpu());
  const runtime::RunResult r = unbatched.run_linearized(lin, 0.0);
  EXPECT_GT(r.profiler.batched_panels, 0);
  EXPECT_GT(r.profiler.batched_gemm_calls, 0);
  EXPECT_TRUE(same_bits(all_states(unbatched, lin, def.cell.state_width),
                        reference_states(def, params, lin)));

  // Same numerics as the dynamic-batching engine, bit for bit.
  CortexEngine batched(def, params, ra::Schedule{}, gpu());
  const runtime::RunResult rb = batched.run_linearized(lin, 0.0);
  EXPECT_TRUE(same_bits(all_states(batched, lin, def.cell.state_width),
                        all_states(unbatched, lin, def.cell.state_width)));

  // The modeled device still launches per node: one launch per kernel
  // template of each node's step, in topological order.
  std::int64_t per_node_launches = 0;
  for (const std::int32_t id : lin.exec_order)
    per_node_launches += static_cast<std::int64_t>(
        (lin.is_leaf(id) ? unbatched.plan().leaf_step
                         : unbatched.plan().internal_step)
            .size());
  EXPECT_EQ(r.profiler.kernel_launches, per_node_launches);
  EXPECT_LT(rb.profiler.kernel_launches, r.profiler.kernel_launches);
}

// -- panel-incompatible cells are malformed cells -----------------------------

TEST(BatchedDispatch, PanelIncompatibleCellIsRejected) {
  // An eltwise op reading a register WIDER than its output has no panel
  // layout (element (r, i) of every input must sit at r*width + i), so
  // the cell fails validation and no engine is built for it.
  models::ModelDef def;
  def.name = "WideEltwiseCell";
  def.hidden = 8;
  def.cell.state_width = 8;
  def.cell.num_children = 2;
  models::CellOp full;
  full.kind = models::CellOpKind::kSliceChild;
  full.out = "a";
  full.width = 8;
  full.child = 0;
  models::CellOp half;
  half.kind = models::CellOpKind::kEltwise;
  half.out = "t";
  half.width = 4;  // narrower than its input "a" (8)
  half.ins = {"a"};
  half.expr = ra::call(ra::CallFn::kTanh, ra::var("e0"));
  models::CellOp st;
  st.kind = models::CellOpKind::kConcat2;
  st.out = "st";
  st.width = 8;
  st.ins = {"t", "t"};
  def.cell.internal_ops = {full, half, st};
  models::CellOp leaf;
  leaf.kind = models::CellOpKind::kLeafConst;
  leaf.out = "st";
  leaf.width = 8;
  leaf.constant = 0.25;
  def.cell.leaf_ops = {leaf};

  EXPECT_THROW(def.cell.validate(), Error);
  models::ModelParams params;  // the cell reads no params
  EXPECT_THROW(models::BatchedCellExecutor(def.cell, params), Error);
  EXPECT_THROW(CortexEngine(def, params, ra::Schedule{}, gpu()), Error);

  // More than eight eltwise inputs is the other panel-only bound.
  half.width = 8;
  half.ins.assign(9, "a");
  def.cell.internal_ops = {full, half};
  EXPECT_THROW(def.cell.validate(), Error);
  EXPECT_THROW(CortexEngine(def, params, ra::Schedule{}, gpu()), Error);
  half.ins.assign(8, "a");
  def.cell.internal_ops = {full, half};
  EXPECT_NO_THROW(def.cell.validate());
}

// -- engine pool parity with batching enabled -------------------------------------

TEST(BatchedEnginePool, PoolMatchesSingleEngineWithBatchingOn) {
  const models::ModelDef def = models::make_treelstm_embed(16);
  Rng rng(13);
  const models::ModelParams params = models::init_params(def, rng);
  auto trees = ds::make_sst_like_batch(13, rng);
  const std::vector<const ds::Tree*> raw = baselines::raw(trees);

  CortexEngine single(def, params, ra::Schedule{}, gpu());
  const runtime::RunResult expect = single.run(raw);
  ASSERT_GT(expect.profiler.batched_panels, 0);

  for (const int workers : {1, 4}) {
    EnginePoolOptions opts;
    opts.workers = workers;
    EnginePool pool(def, params, ra::Schedule{}, gpu(), opts);
    const runtime::RunResult got = pool.run(raw);
    EXPECT_EQ(got.root_states, expect.root_states) << workers << " workers";
    // The merged profiler aggregates every shard's panel counters.
    EXPECT_GT(got.profiler.batched_panels, 0) << workers << " workers";
  }
}

// -- kernel-level contracts the executor is built on ------------------------------

TEST(PanelKernels, PanelGemmBitIdenticalToPerRowGemv) {
  // The load-bearing numerics contract: C = In @ W^T computed by
  // kernels::gemm_packed (the executor's kMatVec path, W packed once) and
  // by kernels::gemm (W^T row-major) must equal per-row kernels::gemv bit
  // for bit, at the served panel widths and at every row/column tail of
  // the micro-kernel's register tile.
  const kernels::GemmTile tile = kernels::gemm_tile();
  Rng rng(17);
  for (const auto [rows, k, m] :
       {std::array<std::int64_t, 3>{1, 3, 2},
        std::array<std::int64_t, 3>{tile.rows - 1, 16, tile.cols + 1},
        std::array<std::int64_t, 3>{tile.rows + 1, 64, tile.cols - 1},
        std::array<std::int64_t, 3>{13, 100, 7},
        std::array<std::int64_t, 3>{11, 256, 256},
        std::array<std::int64_t, 3>{19, 256, 256},
        std::array<std::int64_t, 3>{64, 256, 256}}) {
    Tensor in = Tensor::uniform(Shape{rows, k}, rng, -1.0f, 1.0f);
    const Tensor w = Tensor::uniform(Shape{m, k}, rng, -1.0f, 1.0f);
    // A zero input row: the chains must start from +0.0f, as gemv's does.
    for (std::int64_t p = 0; p < k; ++p) in.row(0)[p] = -0.0f;
    Tensor wt(Shape{k, m});
    for (std::int64_t j = 0; j < m; ++j)
      for (std::int64_t p = 0; p < k; ++p) wt.row(p)[j] = w.row(j)[p];
    Tensor packed(Shape{kernels::packed_weight_size(m, k)});
    kernels::pack_weight_panels(w.data(), packed.data(), m, k);

    Tensor by_gemv(Shape{rows, m});
    for (std::int64_t r = 0; r < rows; ++r)
      kernels::gemv(w.data(), in.row(r), by_gemv.row(r), m, k);
    Tensor by_gemm(Shape{rows, m});
    kernels::gemm(in.data(), wt.data(), by_gemm.data(), rows, k, m);
    Tensor by_packed(Shape{rows, m});
    kernels::gemm_packed(in.data(), packed.data(), by_packed.data(), rows,
                         k, m);

    for (std::int64_t i = 0; i < rows * m; ++i) {
      ASSERT_EQ(std::memcmp(by_gemm.data() + i, by_gemv.data() + i,
                            sizeof(float)),
                0)
          << "gemm rows=" << rows << " k=" << k << " m=" << m << " elem "
          << i;
      ASSERT_EQ(std::memcmp(by_packed.data() + i, by_gemv.data() + i,
                            sizeof(float)),
                0)
          << "gemm_packed rows=" << rows << " k=" << k << " m=" << m
          << " elem " << i;
    }
  }
}

TEST(PanelKernels, TiledGemmMatchesNaiveReference) {
  Rng rng(19);
  for (const auto [mm, kk, nn] :
       {std::array<std::int64_t, 3>{5, 7, 3},
        std::array<std::int64_t, 3>{9, 65, 17}}) {
    const Tensor a = Tensor::uniform(Shape{mm, kk}, rng, -1.0f, 1.0f);
    const Tensor b = Tensor::uniform(Shape{kk, nn}, rng, -1.0f, 1.0f);
    Tensor c(Shape{mm, nn});
    Tensor c_ref(Shape{mm, nn});
    kernels::gemm(a.data(), b.data(), c.data(), mm, kk, nn);
    kernels::gemm_naive(a.data(), b.data(), c_ref.data(), mm, kk, nn);
    for (std::int64_t i = 0; i < mm * nn; ++i)
      ASSERT_NEAR(c.data()[i], c_ref.data()[i], 1e-4f);
  }
}

TEST(PanelKernels, GatherRowsStridedPullsColumnSlices) {
  // table rows of stride 4; gather the [1, 3) column slice of rows 2,0,2.
  const std::vector<float> table = {0, 1, 2, 3,  10, 11, 12, 13,
                                    20, 21, 22, 23};
  const std::vector<std::int32_t> idx = {2, 0, 2};
  std::vector<float> out(6, -1.0f);
  kernels::gather_rows_strided(table.data() + 1, 4, idx.data(), out.data(),
                               3, 2);
  EXPECT_EQ(out, (std::vector<float>{21, 22, 1, 2, 21, 22}));
}

TEST(PanelKernels, PackWeightPanelsLayout) {
  // packed[jp][p][j] = W[jp * NR + j][p], zero past W's last row.
  const std::int64_t nr = kernels::gemm_tile().cols;
  const std::int64_t n = nr + 3;
  const std::int64_t k = 5;
  Rng rng(23);
  const Tensor w = Tensor::uniform(Shape{n, k}, rng);
  ASSERT_EQ(kernels::packed_weight_size(n, k), 2 * k * nr);
  std::vector<float> packed(static_cast<std::size_t>(2 * k * nr), -1.0f);
  kernels::pack_weight_panels(w.data(), packed.data(), n, k);
  for (std::int64_t jp = 0; jp < 2; ++jp)
    for (std::int64_t p = 0; p < k; ++p)
      for (std::int64_t j = 0; j < nr; ++j) {
        const std::int64_t col = jp * nr + j;
        EXPECT_EQ(packed[static_cast<std::size_t>((jp * k + p) * nr + j)],
                  col < n ? w.row(col)[p] : 0.0f)
            << "panel " << jp << " p " << p << " j " << j;
      }
}

TEST(PanelEltwise, EvalPanelBitIdenticalToScalarEval) {
  // Each expression over a [rows, width] panel vs element by element —
  // the vectorized interpreter must agree bit for bit within a strip and
  // across its boundary (width 300 > 256). Inputs mix in-range values
  // with saturating ones (|x| > 5, where the rational tanh/sigmoid
  // clamp), +-inf and NaN, NaN payloads compared too. Each element gets
  // at most one special operand: where two NaNs meet (NaN + -NaN, or
  // inf*0 + NaN), IEEE 754 leaves the result's sign and payload
  // unspecified and x86 picks them by operand order, which the compiler
  // may swap between the scalar and vector loops.
  const auto e0 = ra::var("e0");
  const auto e1 = ra::var("e1");
  const auto b = ra::load("b", {ra::var("i")});
  const std::vector<ra::Expr> exprs{
      ra::call(ra::CallFn::kSigmoid, ra::add(ra::mul(e0, e1), b)),
      ra::call(ra::CallFn::kSigmoid, ra::add(ra::add(e0, e1), b)),
      ra::mul(e0, ra::call(ra::CallFn::kTanh, e1)),
      ra::call(ra::CallFn::kTanh, ra::sub(e0, ra::div(e1, b))),
      ra::call(ra::CallFn::kRelu, ra::add(e0, b)),
      ra::select(e0, ra::call(ra::CallFn::kTanh, e1), b),
      ra::binary(ra::BinOp::kMax, e0, ra::binary(ra::BinOp::kMin, e1, b)),
  };
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::array<float, 8> specials{inf, -inf, nan, -nan,
                                      0.0f, -0.0f, 5.0f, -5.0f};
  Rng rng(29);
  // Uniform over [-12, 12], so many activation inputs fall outside
  // [-5, 5]; the operand's special columns (i % 6 == phase) hold a random
  // special value instead. Phases 0, 2, 4 keep the operands' specials in
  // disjoint columns.
  auto operand = [&](std::int64_t rows, std::int64_t width, int phase) {
    Tensor t = Tensor::uniform(Shape{rows, width}, rng, -12.0f, 12.0f);
    for (std::int64_t r = 0; r < rows; ++r)
      for (std::int64_t i = phase; i < width; i += 6)
        t.data()[r * width + i] = specials[static_cast<std::size_t>(
            rng.next_below(specials.size()))];
    return t;
  };
  auto same_bits = [](float x, float y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };

  for (const std::int64_t width : {100, 256, 300}) {
    const std::int64_t rows = 5;
    const Tensor in0 = operand(rows, width, 0);
    const Tensor in1 = operand(rows, width, 2);
    const Tensor bias = operand(1, width, 4);
    const float* ins[2] = {in0.data(), in1.data()};
    const float* params[1] = {bias.data()};
    for (std::size_t x = 0; x < exprs.size(); ++x) {
      models::CompiledEltwise ce(exprs[x]);
      std::vector<float> panel(static_cast<std::size_t>(rows * width));
      ce.eval_panel(rows, width, ins, params, panel.data());
      for (std::int64_t r = 0; r < rows; ++r)
        for (std::int64_t i = 0; i < width; ++i) {
          const float* row_ins[2] = {in0.data() + r * width,
                                     in1.data() + r * width};
          const float got = panel[static_cast<std::size_t>(r * width + i)];
          ASSERT_TRUE(same_bits(got, ce.eval(i, row_ins, params)))
              << "expr " << ra::to_string(exprs[x]) << " width=" << width
              << " r=" << r << " i=" << i;
        }
    }
  }
}

}  // namespace
}  // namespace cortex::exec
