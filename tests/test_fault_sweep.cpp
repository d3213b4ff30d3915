// Fault-sweep battery: every production injection site is forced to fire
// and the stack must absorb it. Serve-path sites (pool.worker,
// server.dispatch) fire during a mini-zoo x BatchServer differential run:
// no crash, no hang, no broken promise, and every request that is
// supposed to succeed returns root states bit-identical to a fault-free
// run; transient faults are retried, a persistent one fails requests
// cleanly (kError) and the server keeps serving after it clears. The JIT
// sites (jit.*, cache.read) sit only under JitCache::get_or_build, which
// no engine, pool or server calls, so they are fired against the cache
// directly: the armed build throws cleanly (or, for cache.read,
// quarantines and recompiles) and the next build runs bit-identical to
// the interpreter. ServingNeverInvokesTheToolchain pins that serving
// stays off the toolchain.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "baselines/common.hpp"
#include "ds/generators.hpp"
#include "exec/artifacts.hpp"
#include "exec/batch_server.hpp"
#include "exec/ilir_runner.hpp"
#include "exec/jit.hpp"
#include "exec/plan_cache.hpp"
#include "models/model_zoo.hpp"
#include "runtime/profiler.hpp"
#include "support/fault_injection.hpp"
#include "temp_dir.hpp"

namespace cortex::exec {
namespace {

using testing_support::TempDir;

using support::FaultInjector;

runtime::DeviceSpec gpu() { return runtime::DeviceSpec::v100_gpu(); }

class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) {
    const char* v = std::getenv(name);
    had_ = v != nullptr;
    if (had_) saved_ = v;
  }
  ~EnvGuard() {
    if (had_)
      setenv(name_.c_str(), saved_.c_str(), 1);
    else
      unsetenv(name_.c_str());
  }
  void set(const std::string& v) { setenv(name_.c_str(), v.c_str(), 1); }
  void unset() { unsetenv(name_.c_str()); }

 private:
  std::string name_;
  bool had_ = false;
  std::string saved_;
};

/// A fresh, private artifact directory: the sweep recompiles per site, so
/// stale artifacts from a previous iteration must never satisfy a build.
/// Removed when the returned object goes out of scope.
TempDir fresh_cache_dir() { return TempDir("cortex-fault-sweep"); }

bool is_dag(const models::ModelDef& def) {
  return def.model && def.model->kind == linearizer::StructureKind::kDag;
}

struct Batch {
  std::vector<std::unique_ptr<ds::Tree>> trees;
  std::vector<std::unique_ptr<ds::Dag>> dags;
  std::int64_t size() const {
    return static_cast<std::int64_t>(trees.size() + dags.size());
  }
};

Batch make_batch(const models::ModelDef& def, std::int64_t n,
                 std::uint64_t seed) {
  Rng rng(seed);
  Batch b;
  if (is_dag(def)) {
    for (std::int64_t i = 0; i < n; ++i)
      b.dags.push_back(ds::make_grid_dag(2 + rng.next_below(3),
                                         2 + rng.next_below(3), rng));
  } else {
    for (std::int64_t i = 0; i < n; ++i)
      b.trees.push_back(ds::make_random_parse_tree(1 + rng.next_below(8), rng));
  }
  return b;
}

std::int64_t sink_count(const ds::Dag& dag) {
  std::int64_t sinks = 0;
  for (std::int64_t v = 0; v < dag.num_nodes(); ++v)
    if (dag.succs(v).empty()) ++sinks;
  return sinks;
}

/// Fault-free per-request reference slices from a direct pool run.
std::vector<std::vector<std::vector<float>>> reference_slices(
    EnginePool& pool, const models::ModelDef& def, const Batch& b) {
  runtime::RunResult ref = is_dag(def) ? pool.run(baselines::raw(b.dags))
                                       : pool.run(baselines::raw(b.trees));
  std::vector<std::int64_t> counts;
  if (is_dag(def))
    for (const auto& d : b.dags) counts.push_back(sink_count(*d));
  else
    counts.assign(b.trees.size(), 1);
  return runtime::split_by_request(std::move(ref), counts);
}

/// Submits the whole batch and joins every future with a hang guard: a
/// promise that never resolves fails the test here instead of wedging
/// the binary until the ctest timeout.
std::vector<ServedResult> serve_batch(BatchServer& server, const Batch& b) {
  std::vector<std::future<ServedResult>> futs;
  for (const auto& t : b.trees) futs.push_back(server.submit(t.get()));
  for (const auto& d : b.dags) futs.push_back(server.submit(d.get()));
  std::vector<ServedResult> out;
  for (auto& f : futs) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(120)),
              std::future_status::ready)
        << "broken/stuck promise";
    out.push_back(f.get());
  }
  return out;
}

std::vector<models::ModelDef> mini_zoo() {
  std::vector<models::ModelDef> defs;
  defs.push_back(models::make_treernn_fig1(16));
  defs.push_back(models::make_treelstm_embed(16));
  defs.push_back(models::make_dagrnn(16));
  return defs;
}

constexpr std::int64_t kRequests = 6;

BatchServerOptions server_opts() {
  BatchServerOptions o;
  o.max_batch = 4;
  o.max_wait_us = 0;  // greedy: no added latency, deterministic-ish batches
  return o;
}

/// One sweep iteration: fault-free reference, then the armed serving run.
void sweep_site_over_zoo(
    const std::string& arm_spec, bool expect_all_ok,
    const std::function<void(const models::ModelDef&, BatchServer&)>&
        extra_checks = {}) {
  Rng prng(29);
  for (const models::ModelDef& def : mini_zoo()) {
    SCOPED_TRACE(arm_spec + " / " + def.name);
    const models::ModelParams params = models::init_params(def, prng);
    const Batch batch = make_batch(def, kRequests, 97);

    std::vector<std::vector<std::vector<float>>> ref;
    {
      EnginePool ref_pool(def, params, ra::Schedule{}, gpu(),
                          EnginePoolOptions{2});
      ref = reference_slices(ref_pool, def, batch);
    }

    FaultInjector::instance().configure(arm_spec);
    std::vector<ServedResult> results;
    {
      EnginePool pool(def, params, ra::Schedule{}, gpu(),
                      EnginePoolOptions{2});
      BatchServer server(pool, server_opts());
      results = serve_batch(server, batch);
      if (extra_checks) extra_checks(def, server);

      // The armed site must actually have fired — a sweep that never
      // reaches its site proves nothing.
      const std::string site = arm_spec.substr(0, arm_spec.find('='));
      EXPECT_GE(FaultInjector::instance().stats(site).fired, 1)
          << site << " never fired";

      // Whatever the fault did, the server must still serve cleanly
      // after it clears.
      FaultInjector::instance().reset();
      const Batch after = make_batch(def, 2, 131);
      for (const ServedResult& r : serve_batch(server, after))
        EXPECT_EQ(r.status, RequestStatus::kOk) << "post-fault serving";
    }
    FaultInjector::instance().reset();

    ASSERT_EQ(static_cast<std::int64_t>(results.size()), batch.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (expect_all_ok) {
        ASSERT_EQ(results[i].status, RequestStatus::kOk)
            << "request " << i << ": " << results[i].error;
      }
      // Bit-identity for every request that succeeded — a fault must
      // never produce a *wrong* answer, only a clean failure.
      if (results[i].status == RequestStatus::kOk) {
        EXPECT_EQ(results[i].root_states, ref[i]) << "request " << i;
      }
    }
  }
}

// -- transient serve-path faults: retried when bounded, clean when not --

TEST(FaultSweep, SingleWorkerFaultIsRetriedInvisibly) {
  // pool.worker=1 fires once; the pool's bounded retry absorbs it and
  // every request still succeeds bit-identically.
  sweep_site_over_zoo("pool.worker=1", /*expect_all_ok=*/true,
                      [](const models::ModelDef&, BatchServer& server) {
                        EXPECT_GE(server.health().pool_transient_retries, 1);
                        EXPECT_FALSE(server.health().degraded);
                      });
}

TEST(FaultSweep, SingleDispatchFaultIsRetriedInvisibly) {
  sweep_site_over_zoo("server.dispatch=1", /*expect_all_ok=*/true,
                      [](const models::ModelDef&, BatchServer& server) {
                        EXPECT_GE(server.health().dispatch_retries, 1);
                      });
}

TEST(FaultSweep, PersistentWorkerFaultFailsCleanlyAndRecovers) {
  // pool.worker=* exhausts every retry: requests resolve kError (never a
  // wrong answer, never a stuck promise), and serving recovers as soon
  // as the fault clears (checked inside the sweep helper).
  sweep_site_over_zoo(
      "pool.worker=*", /*expect_all_ok=*/false,
      [](const models::ModelDef&, BatchServer& server) {
        const ServerHealth h = server.health();
        EXPECT_GE(h.pool_batches_failed, 1);
        EXPECT_GE(h.consecutive_failures, 4);
        EXPECT_TRUE(h.degraded);
      });
}

TEST(FaultSweep, PersistentDispatchFaultFailsCleanlyAndRecovers) {
  sweep_site_over_zoo("server.dispatch=*", /*expect_all_ok=*/false,
                      [](const models::ModelDef&, BatchServer& server) {
                        EXPECT_GE(server.health().dispatch_retries, 1);
                        EXPECT_GE(server.health().bisect_reruns, 1);
                      });
}

// -- JIT compile/artifact faults, fired at the cache that owns them -------

/// Everything one kernel build for `def` needs: the compiled artifacts
/// (optimized program + memory plan) and a small linearized batch with
/// parameters to run it on.
struct KernelCase {
  CompiledArtifacts a;
  MemoryPlanOptions plan_opts;
  models::ModelParams params;
  std::vector<std::unique_ptr<ds::Tree>> trees;
  std::vector<std::unique_ptr<ds::Dag>> dags;
  linearizer::Linearized lin;
};

KernelCase make_kernel_case(const models::ModelDef& def, std::uint64_t seed) {
  KernelCase c;
  c.a = compile_artifacts(def, ra::Schedule{}, gpu());
  c.plan_opts.live_out = {c.a.lowered->output};
  Rng rng(seed);
  c.params = models::init_params(def, rng);
  Batch b = make_batch(def, 3, seed);
  c.trees = std::move(b.trees);
  c.dags = std::move(b.dags);
  c.lin = is_dag(def) ? linearizer::linearize_dags(baselines::raw(c.dags),
                                                   c.a.lowered->lin_spec)
                      : linearizer::linearize_trees(baselines::raw(c.trees),
                                                    c.a.lowered->lin_spec);
  return c;
}

JitKernelPtr build_kernel(const KernelCase& c) {
  return JitCache::instance().get_or_build(
      *c.a.optimized, c.a.plan.ilir_memory.get(), c.plan_opts);
}

/// Runs `kernel` and the interpreter over the case's batch and requires
/// bit-identical buffers and barrier counts, and that the kernel ran.
void expect_kernel_matches_interpreter(const KernelCase& c,
                                       const JitKernelPtr& kernel) {
  ASSERT_TRUE(kernel != nullptr);
  runtime::Profiler prof;
  IlirRunOptions jit_opts;
  jit_opts.plan = c.a.plan.ilir_memory.get();
  jit_opts.jit = kernel.get();
  jit_opts.profiler = &prof;
  const IlirRun jit_run = run_ilir(*c.a.optimized, c.lin, c.params, jit_opts);
  EXPECT_EQ(prof.jit_runs, 1);
  IlirRunOptions interp_opts;
  interp_opts.plan = c.a.plan.ilir_memory.get();
  const IlirRun oracle = run_ilir(*c.a.optimized, c.lin, c.params, interp_opts);
  ASSERT_EQ(jit_run.barriers, oracle.barriers);
  for (const auto& [name, tensor] : jit_run.buffers) {
    const Tensor& ref = oracle.at(name);
    ASSERT_EQ(tensor.numel(), ref.numel()) << name;
    EXPECT_EQ(std::memcmp(tensor.data(), ref.data(),
                          static_cast<std::size_t>(tensor.numel()) *
                              sizeof(float)),
              0)
        << "kernel diverged from the interpreter in " << name;
  }
}

/// Temp files, logs and half-built objects a failed build must not leave
/// behind (published .c/.so/.sig artifacts are not stranded: they are
/// what a later build reuses after verifying them).
std::vector<std::string> stranded_files(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.find(".tmp.") != std::string::npos ||
        name.find(".log.") != std::string::npos)
      out.push_back(name);
  }
  return out;
}

/// Arms `site=*` around one cold build per mini-zoo model in a fresh
/// cache directory: the build must throw cortex::Error with the site
/// fired, count one failure and strand no files. Once the site is reset
/// the next build must yield a kernel bit-identical to the interpreter.
void sweep_jit_site(const std::string& site) {
  EnvGuard dir_env("CORTEX_JIT_CACHE_DIR");
  const TempDir tmp = fresh_cache_dir();
  const std::string& dir = tmp.path();
  dir_env.set(dir);
  for (const models::ModelDef& def : mini_zoo()) {
    SCOPED_TRACE(site + " / " + def.name);
    const KernelCase c = make_kernel_case(def, 43);
    JitCache::instance().clear_memory();  // no registry hit skips the site
    const JitStats before = JitCache::instance().stats();
    FaultInjector::instance().configure(site + "=*");
    EXPECT_THROW(build_kernel(c), cortex::Error);
    EXPECT_GE(FaultInjector::instance().stats(site).fired, 1)
        << site << " never fired";
    FaultInjector::instance().reset();
    EXPECT_EQ(JitCache::instance().stats().failures, before.failures + 1);
    EXPECT_EQ(stranded_files(dir), std::vector<std::string>{});
    expect_kernel_matches_interpreter(c, build_kernel(c));
  }
}

// These four keep the names they had when the sites were reached through
// a serving run; the kernel build is now the only path to them.
TEST(FaultSweep, ToolchainFailureDegradesAndServesBitIdentical) {
  sweep_jit_site("jit.cc");
}

TEST(FaultSweep, DlopenFailureDegradesAndServesBitIdentical) {
  sweep_jit_site("jit.dlopen");
}

TEST(FaultSweep, DiskWriteFailureDegradesAndServesBitIdentical) {
  sweep_jit_site("jit.disk.write");
}

TEST(FaultSweep, DiskRenameFailureDegradesAndServesBitIdentical) {
  sweep_jit_site("jit.disk.rename");
}

TEST(FaultSweep, CorruptArtifactReadQuarantinesRecompilesAndServes) {
  // cache.read only sits on the disk-reuse path, so an artifact must
  // exist first: prebuild with faults off, drop the in-memory registry,
  // then arm. The corrupt read fails the integrity check, the artifact is
  // quarantined, and the recompile produces a working kernel.
  EnvGuard dir_env("CORTEX_JIT_CACHE_DIR");
  const TempDir tmp = fresh_cache_dir();
  const std::string& dir = tmp.path();
  dir_env.set(dir);
  for (const models::ModelDef& def : mini_zoo()) {
    SCOPED_TRACE(def.name);
    const KernelCase c = make_kernel_case(def, 47);
    JitCache::instance().clear_memory();
    ASSERT_TRUE(build_kernel(c) != nullptr);  // publishes cx_<digest>.*
    JitCache::instance().clear_memory();      // next build takes the disk

    const JitStats before = JitCache::instance().stats();
    FaultInjector::instance().configure("cache.read=*");
    const JitKernelPtr recompiled = build_kernel(c);
    EXPECT_GE(FaultInjector::instance().stats("cache.read").fired, 1);
    FaultInjector::instance().reset();
    const JitStats after = JitCache::instance().stats();
    ASSERT_TRUE(recompiled != nullptr);
    EXPECT_FALSE(recompiled->from_disk());
    EXPECT_EQ(after.quarantined, before.quarantined + 1);
    EXPECT_EQ(after.compiles, before.compiles + 1);
    EXPECT_EQ(stranded_files(dir), std::vector<std::string>{});
    expect_kernel_matches_interpreter(c, recompiled);

    // Faults off: the recompiled artifact is reused from disk.
    JitCache::instance().clear_memory();
    expect_kernel_matches_interpreter(c, build_kernel(c));
  }
}

TEST(FaultSweep, ServingNeverInvokesTheToolchain) {
  // Every way to reach the toolchain is broken: jit.cc fires on each
  // evaluation and the compiler is /bin/false. CORTEX_JIT is set as
  // perfbench sets it, and must stay unread. Compiling, pooling and
  // serving must never get near the toolchain.
  EnvGuard dir_env("CORTEX_JIT_CACHE_DIR");
  EnvGuard cc_env("CORTEX_JIT_CC");
  EnvGuard jit_env("CORTEX_JIT");
  const TempDir tmp = fresh_cache_dir();
  dir_env.set(tmp.path());
  cc_env.set("/bin/false");
  jit_env.set("1");
  Rng prng(53);
  for (const models::ModelDef& def : mini_zoo()) {
    SCOPED_TRACE(def.name);
    const models::ModelParams params = models::init_params(def, prng);
    const Batch batch = make_batch(def, kRequests, 97);
    std::vector<std::vector<std::vector<float>>> ref;
    {
      EnginePool ref_pool(def, params, ra::Schedule{}, gpu(),
                          EnginePoolOptions{2});
      ref = reference_slices(ref_pool, def, batch);
    }

    PlanCache::instance().clear();  // the armed pool compiles cold
    const JitStats before = JitCache::instance().stats();
    FaultInjector::instance().configure("jit.cc=*");
    std::vector<ServedResult> results;
    {
      EnginePool pool(def, params, ra::Schedule{}, gpu(),
                      EnginePoolOptions{2});
      BatchServer server(pool, server_opts());
      results = serve_batch(server, batch);
      EXPECT_FALSE(server.health().degraded);
    }
    EXPECT_EQ(FaultInjector::instance().stats("jit.cc").hits, 0);
    FaultInjector::instance().reset();
    const JitStats after = JitCache::instance().stats();
    EXPECT_EQ(after.compiles, before.compiles);
    EXPECT_EQ(after.disk_hits, before.disk_hits);
    EXPECT_EQ(after.memory_hits, before.memory_hits);
    EXPECT_EQ(after.failures, before.failures);
    EXPECT_EQ(after.quarantined, before.quarantined);
    EXPECT_EQ(after.compile_ns, before.compile_ns);

    ASSERT_EQ(static_cast<std::int64_t>(results.size()), batch.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(results[i].status, RequestStatus::kOk) << results[i].error;
      EXPECT_EQ(results[i].root_states, ref[i]) << "request " << i;
    }
  }
}

}  // namespace
}  // namespace cortex::exec
