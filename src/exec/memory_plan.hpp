#pragma once
// Static memory planning for ILIR programs (the TVM-style arena planner,
// Chen et al. OSDI 2018): compile-time liveness (ilir/analysis.hpp)
// drives a greedy best-fit assignment of every program-allocated buffer
// into slots of a single arena, where buffers with disjoint live ranges
// share bytes. The plan is computed once per compiled program by
// exec::compile_artifacts and stored in exec::Plan; at run time
// exec::run_ilir makes ONE zero-filled arena allocation per run (so
// every EnginePool worker / thread gets its own arena) and binds each
// buffer at its precomputed slot offset — the shape a dlopen'd JIT
// kernel needs, since it cannot call an allocator per run.
//
// Rules the planner obeys (and verify_memory_plan re-proves):
//   - scope classes are respected: kGlobal buffers plan arena-wide;
//     kShared/kRegister buffers only share bytes with buffers of the
//     same scope AND the same dependence-loop home nest (§5.1 gives
//     them one-iteration lifetimes inside that nest),
//   - two buffers share a slot only if their live ranges are disjoint
//     in statement order (cross-iteration carries widen ranges to whole
//     loop spans first — see ilir/analysis.hpp),
//   - a buffer whose first read precedes any dominating write relies on
//     the arena's zero-fill: it opens its own slot, and no earlier-live
//     buffer may ever dirty those bytes.
//
// Slot sizes are symbolic (max-trees over member byte expressions), so
// one plan serves every runtime structure; resolve_arena() evaluates
// offsets against the run's scalars (N, max_batch_size, ...).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ilir/analysis.hpp"
#include "ilir/ilir.hpp"
#include "support/diagnostic.hpp"
#include "support/fingerprint.hpp"

namespace cortex::exec {

struct MemoryPlanOptions {
  /// Buffers read by the caller after the run (the recursion output):
  /// kept live to the end of the program so no later buffer reuses them.
  std::vector<std::string> live_out;
  /// Buffers bound externally (beyond the automatic exclusions: int
  /// linearizer arrays and never-written parameter buffers).
  std::vector<std::string> external;
};

/// One byte range of the arena, shared by members with disjoint lives.
struct MemorySlot {
  /// Symbolic byte size: max over the member buffers' byte expressions.
  ra::Expr bytes;
  ilir::MemScope scope = ilir::MemScope::kGlobal;
  /// Dependence-nest identity for on-chip slots (empty for kGlobal).
  std::string home_nest;
  /// Member buffer names in placement order.
  std::vector<std::string> members;
};

/// Placement of one buffer.
struct BufferPlanEntry {
  std::string buffer;
  ilir::MemScope scope = ilir::MemScope::kGlobal;
  std::int64_t slot = -1;
  /// Symbolic byte size of this buffer (product of shape extents * 4).
  ra::Expr bytes;
  /// Live range in statement positions (see ilir::analyze_liveness).
  std::int64_t live_begin = 0;
  std::int64_t live_end = 0;
  /// Shares its slot with at least one other buffer.
  bool reused_slot = false;
  /// Relies on the arena zero-fill (some read precedes every dominating
  /// write): its bytes must be virgin when the program starts.
  bool zero_init = false;
};

struct MemoryPlan {
  std::vector<BufferPlanEntry> entries;  ///< program buffer order
  std::vector<MemorySlot> slots;         ///< creation order
  std::int64_t num_positions = 0;        ///< liveness position count
  /// Entries placed into a slot that already had a member.
  std::int64_t buffers_reused = 0;

  const BufferPlanEntry* find(const std::string& buffer) const;
  std::string describe() const;
};

/// Plans every float buffer the program itself allocates: written
/// buffers not listed in `options.external`. Never-written float buffers
/// (model parameters, constant-propagated placeholders) and kInt
/// linearizer arrays are bound externally by the runtime and excluded.
MemoryPlan plan_memory(const ilir::Program& program,
                       const MemoryPlanOptions& options = {});

/// Diagnostic pass closing the loop with the static verifier: recomputes
/// liveness and proves the plan sound against the CURRENT program, so a
/// pass that extends a live range after planning is caught. Codes:
///   memplan-missing   plannable buffer without an entry, duplicate or
///                     unknown/external entry
///   memplan-slot      bad slot id, or scope/home-nest mismatch
///   memplan-liveness  recorded range no longer covers the recomputed one
///   memplan-overlap   two simultaneously-live members share a slot
///   memplan-size      stale entry bytes, or slot bytes not covering a
///                     member's bytes (an access would escape its slot)
///   memplan-zero      zero-relying buffer not flagged, or preceded in
///                     its slot by an earlier-live member (dirty bytes)
std::vector<support::Diagnostic> verify_memory_plan(
    const ilir::Program& program, const MemoryPlan& plan,
    const MemoryPlanOptions& options = {});

/// Throws cortex::Error listing every error when the plan is unsound
/// (phase names the pipeline stage, as ilir::verify_or_throw does).
void verify_memory_plan_or_throw(const ilir::Program& program,
                                 const MemoryPlan& plan,
                                 const std::string& phase,
                                 const MemoryPlanOptions& options = {});

/// Concrete arena layout for one run's scalars: 64-byte-aligned slot
/// offsets, total arena bytes, and the sum of individual buffer bytes
/// (the footprint the arena is measured against).
struct ResolvedArena {
  std::vector<std::int64_t> slot_offsets;  ///< bytes from arena base
  std::int64_t arena_bytes = 0;
  std::int64_t sum_buffer_bytes = 0;
};
ResolvedArena resolve_arena(const MemoryPlan& plan,
                            const std::map<std::string, std::int64_t>& scalars);

/// Constant-evaluates a shape/size extent against the runtime scalars
/// the linearizer defines (N, num_leaves, max_batch_size, ...). Shared
/// by the arena resolver and run_ilir's shape evaluation.
std::int64_t eval_extent(const ra::Expr& e,
                         const std::map<std::string, std::int64_t>& scalars);

/// Canonical structural encoding (cache identity of the derived plan).
void fingerprint(const MemoryPlan& plan, support::FingerprintBuilder& fb);
support::Fingerprint fingerprint(const MemoryPlan& plan);

}  // namespace cortex::exec
