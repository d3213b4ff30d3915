#include "exec/ilir_runner.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "exec/jit.hpp"
#include "exec/memory_plan.hpp"
#include "ilir/codegen_c.hpp"
#include "runtime/profiler.hpp"

namespace cortex::exec {

const Tensor& IlirRun::at(const std::string& name) const {
  auto it = buffers.find(name);
  CORTEX_CHECK(it != buffers.end()) << "no buffer '" << name << "' in run";
  return it->second;
}

IlirRun run_ilir(const ilir::Program& program,
                 const linearizer::Linearized& lin,
                 const models::ModelParams& params,
                 const IlirRunOptions& opts) {
  std::map<std::string, std::int64_t> scalars;
  scalars["N"] = lin.num_nodes;
  scalars["num_leaves"] = lin.num_leaves;
  scalars["first_leaf_id"] = lin.first_leaf_id;
  scalars["num_batches"] = lin.num_batches();
  scalars["num_internal_batches"] = lin.num_batches() - 1;
  std::int64_t max_batch = 0;
  for (std::int32_t len : lin.batch_length)
    max_batch = std::max<std::int64_t>(max_batch, len);
  scalars["max_batch_size"] = max_batch;

  IlirRun run;
  ilir::Evaluator ev(program, lin);
  ev.bind_structure();

  // Storage: one zero-filled arena with planner-assigned slot offsets.
  MemoryPlan local_plan;
  if (opts.plan == nullptr) local_plan = plan_memory(program);
  const MemoryPlan& plan = opts.plan != nullptr ? *opts.plan : local_plan;
  const ResolvedArena layout = resolve_arena(plan, scalars);
  // Value-initialized: the single zero-fill every zero_init buffer relies
  // on. Per-call allocation keeps concurrent runs independent.
  const std::int64_t elems = layout.arena_bytes / 4;
  const std::shared_ptr<float[]> arena(
      new float[static_cast<std::size_t>(std::max<std::int64_t>(elems, 1))]());
  run.arena_bytes = layout.arena_bytes;
  run.sum_buffer_bytes = layout.sum_buffer_bytes;
  run.buffers_reused = plan.buffers_reused;

  for (const ilir::Buffer& b : program.buffers) {
    // Integer buffers are linearizer arrays (exec_order, batch_begin,
    // batch_length): bind_structure() already bound them from `lin`;
    // allocating a float tensor here would shadow that binding.
    if (b.dtype == ra::DType::kInt) continue;
    auto pit = params.tensors.find(b.name);
    if (pit != params.tensors.end()) {
      // Model parameter: bind the user's tensor (const in spirit; the
      // evaluator never stores to input buffers of a lowered model).
      ev.bind(b.name,
              ilir::Binding::tensor(const_cast<Tensor&>(pit->second)));
      continue;
    }
    std::vector<std::int64_t> dims;
    dims.reserve(b.shape.size());
    for (const ra::Expr& e : b.shape) dims.push_back(eval_extent(e, scalars));
    Shape shape(dims);
    const BufferPlanEntry* entry = plan.find(b.name);
    Tensor t;
    if (entry != nullptr) {
      const std::int64_t offset =
          layout.slot_offsets[static_cast<std::size_t>(entry->slot)];
      t = Tensor::view_into(std::move(shape), arena, offset / 4);
    } else {
      // No plan entry: an unplanned buffer (never written — an externally
      // shaped placeholder with no parameter bound), or every buffer when
      // the caller passes an empty plan (the per-buffer oracle).
      t = Tensor::zeros(std::move(shape));
      const std::int64_t bytes = t.numel() * 4;
      run.arena_bytes += bytes;  // dedicated storage counts toward the
      run.sum_buffer_bytes += bytes;  // footprint either way
    }
    auto [it, inserted] = run.buffers.emplace(b.name, std::move(t));
    CORTEX_CHECK(inserted) << "duplicate buffer " << b.name;
    ev.bind(b.name, ilir::Binding::tensor(it->second));
  }

  // Execution: the JIT'd kernel when the caller supplies one, over
  // exactly the storage bound above; the interpreter otherwise.
  if (opts.jit != nullptr) {
    const JitKernel& kernel = *opts.jit;
    std::vector<float*> param_table;
    param_table.reserve(kernel.params_order().size());
    for (const std::string& name : kernel.params_order()) {
      auto pit = params.tensors.find(name);
      if (pit != params.tensors.end()) {
        // Const in spirit, like the evaluator binding above: a lowered
        // model never stores to its input buffers.
        param_table.push_back(const_cast<Tensor&>(pit->second).data());
      } else {
        auto bit = run.buffers.find(name);
        CORTEX_CHECK(bit != run.buffers.end())
            << "JIT kernel param '" << name << "' has no storage";
        param_table.push_back(bit->second.data());
      }
    }
    const std::int32_t* lin_table[ilir::kNumStructureArrays] = {
        lin.left.data(),          lin.right.data(),
        lin.word.data(),          lin.batch_begin.data(),
        lin.batch_length.data(),  lin.child_offsets.data(),
        lin.child_ids.data(),     lin.exec_order.data()};
    std::int64_t scalar_table[ilir::kNumScalars];
    for (std::size_t i = 0; i < ilir::kNumScalars; ++i)
      scalar_table[i] = scalars.at(ilir::kScalarNames[i]);
    std::int64_t counters[1] = {0};
    kernel.fn()(arena.get(), layout.slot_offsets.data(), param_table.data(),
                lin_table, scalar_table, counters);
    run.barriers = counters[0];
    if (opts.profiler != nullptr) ++opts.profiler->jit_runs;
  } else {
    ev.run();
    run.barriers = ev.barriers_executed();
  }

  if (opts.profiler != nullptr) {
    opts.profiler->ilir_arena_bytes =
        std::max(opts.profiler->ilir_arena_bytes, run.arena_bytes);
    opts.profiler->ilir_buffers_reused += run.buffers_reused;
  }
  return run;
}

IlirRun run_ilir(const ilir::Program& program,
                 const linearizer::Linearized& lin,
                 const models::ModelParams& params) {
  return run_ilir(program, lin, params, IlirRunOptions{});
}

}  // namespace cortex::exec
