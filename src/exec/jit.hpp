#pragma once
// JIT execution of optimized ILIR programs: render the program as C
// (ilir/codegen_c.hpp), compile it with the system toolchain, dlopen the
// shared object, and hand run_ilir a function pointer — the TVM-style
// "specialized kernel per (model, schedule, device)" loop closed (see
// ROADMAP, and popart's graph-build/device-binary split for the disk
// half). Three layers of caching:
//   1. in-process registry keyed by the canonical fingerprint of
//      (abi, compiler command, program, memory plan) — warm engines
//      share one dlopen'd handle,
//   2. on-disk artifacts (<cache_dir>/cx_<digest>.c + .so): a second
//      process with the same fingerprint dlopens the persisted .so with
//      ZERO compiler invocations (JitStats::compiles stays 0, disk_hits
//      counts the reuse). Staleness is decided by source comparison: the
//      cache regenerates the C and only reuses the .so when the on-disk
//      source matches byte-for-byte, so a codegen change (or fingerprint
//      collision) can never resurrect a stale kernel,
//   3. exec::CompiledArtifacts carries the kernel next to the Plan, so
//      the PlanCache's LRU + single-flight discipline extends to JIT'd
//      kernels for free.
//
// Safety posture (first release): the ILIR static verifier and the
// memory-plan verifier run on EVERY kernel build or disk reuse regardless
// of CORTEX_ILIR_VERIFY — a dlopen'd kernel executes whatever the pass
// pipeline emitted with no interpreter bounds checks, so it never runs
// unverified IR. The interpreter stays the differential oracle: the JIT
// differential battery (tests/test_jit.cpp) requires bit-identical
// buffers and barrier counts from both paths.
//
// Integrity: every published .so carries a sidecar (<lib>.sig) holding a
// digest of the shared object's bytes. The disk-reuse path recomputes the
// digest before dlopening; a truncated or corrupted artifact (or a
// missing sidecar — a crash between publish and sign) is *quarantined* —
// renamed aside for forensics, never deleted, never loaded — and the
// kernel is recompiled. A wrong answer can never come off disk: the
// source must match byte-for-byte AND the object must match its digest.
//
// Degradation: get_or_build throws on failure (strict, for callers that
// require the kernel); try_get_or_build absorbs it — a failed build is
// recorded per key with an exponential-backoff recompile budget
// (JitRetryPolicy), the caller gets a null kernel and serves through the
// interpreter (bit-identical by the oracle contract above), and later
// tolerant calls retry the build only when the backoff window has
// elapsed, up to max_attempts consecutive failures. A success clears the
// key's record. Stats split the outcomes: failures / retries /
// backoff_suppressed / quarantined.
//
// Fault-injection sites (support/fault_injection.hpp): jit.cc (toolchain
// exit), jit.dlopen, jit.disk.write, jit.disk.rename, cache.read
// (corrupt disk-reuse read). Each forces the exact production failure
// branch, so the quarantine/backoff paths above are testable on demand.
//
// Knobs (read per call, so tests can flip them):
//   CORTEX_JIT            non-empty and != "0": run_ilir dispatches to
//                         the kernel and exec::compile_artifacts builds
//                         kernels eagerly
//   CORTEX_JIT_CACHE_DIR  artifact directory (default /tmp/cortex-jit-<uid>)
//   CORTEX_JIT_CC         compiler command (default "cc")

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/memory_plan.hpp"
#include "ilir/ilir.hpp"
#include "support/fingerprint.hpp"

namespace cortex::runtime {
struct Profiler;
}

namespace cortex::exec {

/// Cumulative build accounting (process-wide; see JitCache::stats).
struct JitStats {
  std::int64_t compiles = 0;     ///< toolchain invocations (cold builds)
  std::int64_t disk_hits = 0;    ///< persisted .so reused without compiling
  std::int64_t memory_hits = 0;  ///< in-process registry hits
  std::int64_t failures = 0;     ///< compile/load failures (recorded)
  /// Build attempts for a key that already had a recorded failure (the
  /// backoff window had elapsed and the budget allowed another try).
  std::int64_t retries = 0;
  /// Tolerant acquisitions answered "interpreter-only" without touching
  /// the toolchain because the key's backoff window was still open (or
  /// its retry budget exhausted).
  std::int64_t backoff_suppressed = 0;
  /// On-disk artifacts renamed aside: integrity-digest mismatch, missing
  /// sidecar, stale source next to a published object, or a dlopen
  /// failure on reuse. Each quarantine is followed by a recompile.
  std::int64_t quarantined = 0;
  double compile_ns = 0.0;  ///< wall time inside the toolchain
};

/// Recompile budget for degraded (interpreter-only) plans: after a build
/// failure, tolerant acquisition waits base_backoff_ms, doubling per
/// consecutive failure, and gives up for good (until clear_backoff or a
/// success) after max_attempts failures in a row.
struct JitRetryPolicy {
  std::int64_t base_backoff_ms = 100;
  int max_attempts = 8;
};

class JitKernel;

/// What a tolerant acquisition resolved to. A null kernel means the
/// caller serves interpreter-only this time.
struct JitTryResult {
  std::shared_ptr<const JitKernel> kernel;
  /// No build was attempted: the key's backoff window was still open or
  /// its retry budget exhausted. `error` carries the recorded failure.
  bool suppressed = false;
  /// Failure detail when kernel is null.
  std::string error;
};

/// One dlopen'd kernel; immutable once built, closed on destruction.
class JitKernel {
 public:
  /// The cortex-jit-abi 1 signature (ilir/codegen_c.hpp documents the
  /// argument tables).
  using Fn = void (*)(float* arena, const std::int64_t* slot_offsets,
                      float* const* params, const std::int32_t* const* lin,
                      const std::int64_t* scalars, std::int64_t* counters);

  ~JitKernel();
  JitKernel(const JitKernel&) = delete;
  JitKernel& operator=(const JitKernel&) = delete;

  Fn fn() const { return fn_; }
  /// Float buffers the kernel expects in params[], in table order.
  const std::vector<std::string>& params_order() const {
    return params_order_;
  }
  const std::string& symbol() const { return symbol_; }
  const std::string& library_path() const { return library_path_; }
  /// Built against a memory plan: run_ilir must supply the arena +
  /// resolved slot offsets of that plan.
  bool has_arena() const { return has_arena_; }
  /// Reused from a persisted artifact (no toolchain invocation).
  bool from_disk() const { return from_disk_; }

 private:
  friend class JitCache;
  JitKernel() = default;
  /// dlopens `lib` and resolves `symbol`; throws cortex::Error on either
  /// failure.
  void open(const std::string& lib, const std::string& symbol);

  void* handle_ = nullptr;
  Fn fn_ = nullptr;
  std::vector<std::string> params_order_;
  std::string symbol_;
  std::string library_path_;
  bool has_arena_ = false;
  bool from_disk_ = false;
};

using JitKernelPtr = std::shared_ptr<const JitKernel>;

/// Process-wide kernel registry + on-disk artifact store.
class JitCache {
 public:
  static JitCache& instance();

  /// Returns the kernel for (program, plan), building and persisting it
  /// if needed. Verification is forced (see header comment); throws
  /// cortex::Error on verification or toolchain failure. `plan_opts`
  /// carries the live-out set the plan was computed with so the plan
  /// verifier re-proves the exact plan. `profiler`, when set, receives
  /// jit_compiles / jit_disk_hits increments.
  JitKernelPtr get_or_build(const ilir::Program& program,
                            const MemoryPlan* plan,
                            const MemoryPlanOptions& plan_opts = {},
                            runtime::Profiler* profiler = nullptr);

  /// The tolerant sibling: same lookup and build as get_or_build, but a
  /// failure is absorbed instead of thrown — recorded against the key
  /// with the exponential-backoff budget (retry_policy), and answered
  /// with a null kernel so the caller degrades to the interpreter. While
  /// a key's backoff window is open (or its budget exhausted) no build is
  /// attempted at all (suppressed = true). A successful build clears the
  /// key's failure record.
  JitTryResult try_get_or_build(const ilir::Program& program,
                                const MemoryPlan* plan,
                                const MemoryPlanOptions& plan_opts = {},
                                runtime::Profiler* profiler = nullptr);

  JitStats stats() const;
  void reset_stats();
  /// Drops the in-process registry (disk artifacts stay): the next
  /// get_or_build must take the disk path, which is how tests prove a
  /// "second process" reuses persisted artifacts with zero compiles.
  void clear_memory();
  /// Drops every recorded failure, so the next tolerant acquisition
  /// builds immediately (tests; operator "the toolchain is fixed now").
  void clear_backoff();
  JitRetryPolicy retry_policy() const;
  void set_retry_policy(JitRetryPolicy policy);
  /// Artifact directory currently in effect (created lazily on build).
  static std::string cache_dir();

 private:
  JitCache() = default;

  /// Consecutive-failure record keyed like the kernel registry.
  struct FailState {
    int attempts = 0;
    std::int64_t not_before_ns = 0;  ///< monotonic; next attempt allowed
    std::string last_error;
  };

  JitKernelPtr lookup_memory(const support::Fingerprint& key);
  /// Verify + build + insert; throws on failure after recording it in
  /// failed_ (so tolerant and strict callers share one backoff ledger).
  JitKernelPtr build_and_insert(const support::Fingerprint& key,
                                const ilir::Program& program,
                                const MemoryPlan* plan,
                                const MemoryPlanOptions& plan_opts,
                                runtime::Profiler* profiler);
  JitKernelPtr build_locked_out(const support::Fingerprint& key,
                                const ilir::Program& program,
                                const MemoryPlan* plan);

  mutable std::mutex mu_;
  std::unordered_map<support::Fingerprint, JitKernelPtr,
                     support::FingerprintHash>
      map_;
  std::unordered_map<support::Fingerprint, FailState, support::FingerprintHash>
      failed_;
  JitRetryPolicy retry_policy_;
  JitStats stats_;
};

/// CORTEX_JIT set, non-empty and != "0" (read per call).
bool jit_enabled();
/// Compiler command: CORTEX_JIT_CC or "cc".
std::string jit_compiler();

}  // namespace cortex::exec
