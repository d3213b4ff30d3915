#pragma once
// C code generator: renders an optimized ILIR Program as a genuinely
// compilable, self-contained C11 translation unit (the "generated target
// code" of Fig. 2, stage 4). The emitted kernel is what the JIT execution
// path (exec/jit.hpp) hands to the system toolchain and dlopen()s; the
// same source doubles as the human-readable listing the golden tests and
// examples inspect.
//
// Emission mirrors the reference evaluator's semantics exactly so a
// compiled kernel is bit-identical to interpretation (ilir/eval.cpp):
//   - integer values are int64_t; float values are computed in double and
//     stores cast to float (the evaluator's Value model),
//   - comparisons compare as double, max/min follow std::max/std::min
//     operand order, float literals are emitted as exact hexfloats,
//   - tanh/sigmoid use the same rational approximations as
//     tensor/activations.hpp, inlined into the source so the kernel has
//     no link-time dependencies beyond libm,
//   - Sum reductions anywhere in an expression are hoisted into uniquely
//     named double accumulator loops; a Sum inside an untaken select
//     branch stays lazy (the hoisted loop is guarded by the select
//     condition, matching the evaluator's short-circuit evaluation).
//
// ABI (cortex-jit-abi 1) — every kernel has the same signature:
//   void <symbol>(float* arena, const int64_t* slot_offsets,
//                 float* const* params, const int32_t* const* lin,
//                 const int64_t* scalars, int64_t* counters);
//   - arena + slot_offsets: the memory planner's single allocation; each
//     planned buffer's slot index is baked into the source, its byte
//     offset read from slot_offsets (exec::resolve_arena output, so the
//     kernel and the host can never disagree about the layout),
//   - params: float buffers the program does not plan (model parameters
//     and unwritten placeholders), in CKernelSource::params_order,
//   - lin: the linearizer arrays in kStructureArrayNames order,
//   - scalars: runtime scalars in kScalarNames order,
//   - counters: counters[0] accumulates executed barriers.

#include <cstdint>
#include <string>
#include <vector>

#include "ilir/ilir.hpp"

namespace cortex::ilir {

/// Linearizer arrays in `lin[]` argument order (shared with the host
/// binding code in exec/ilir_runner.cpp). "words" is Linearized::word.
inline constexpr const char* kStructureArrayNames[] = {
    "left",          "right",     "words",     "batch_begin",
    "batch_length",  "child_offsets", "child_ids", "exec_order"};
inline constexpr std::size_t kNumStructureArrays = 8;

/// Runtime scalars in `scalars[]` argument order (the same set the
/// evaluator binds in bind_structure()).
inline constexpr const char* kScalarNames[] = {
    "N",           "num_leaves",           "first_leaf_id",
    "num_batches", "num_internal_batches", "max_batch_size"};
inline constexpr std::size_t kNumScalars = 6;

/// One baked arena placement: this buffer lives at slot_offsets[slot].
struct CodegenArenaEntry {
  std::string buffer;
  std::int64_t slot = -1;
};

struct CodegenOptions {
  /// Exported function name; empty = sanitized program name.
  std::string symbol;
  /// Buffers bound into the planner's arena (exec::MemoryPlan entries).
  /// Float buffers not listed here (and not linearizer int arrays) are
  /// taken from the params[] table instead.
  std::vector<CodegenArenaEntry> arena;
};

/// A complete generated kernel: the C source plus everything the host
/// needs to invoke it.
struct CKernelSource {
  std::string code;
  std::string symbol;
  /// Float buffers the kernel reads through params[], in table order:
  /// every program float buffer without an arena entry, in declaration
  /// order (stable across host and kernel regardless of which are used).
  std::vector<std::string> params_order;
};

/// Renders `program` as a self-contained C11 kernel. Throws cortex::Error
/// on constructs that cannot be emitted (an undeclared buffer, a free
/// variable that is not a known runtime scalar).
CKernelSource codegen_c_kernel(const Program& program,
                               const CodegenOptions& options = {});

/// Readable listing used by golden tests and examples: the same emission
/// with no arena plan (every buffer through params[]).
std::string codegen_c(const Program& program);

}  // namespace cortex::ilir
