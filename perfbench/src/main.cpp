// Served wall-time benchmark of the cortex serving stack.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <dir> [--commit <id>] [--source-digest <hex>]
//   perfbench --selftest --out <dir>
//
// --trace 0 runs the workload untraced and prints the end-to-end metrics;
// --trace 1 runs it untraced and then traced (half the time each), prints
// the per-layer metrics and writes the spans to
// <out>/trace-<workload>-<seed>.json.
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics (name -> {value, unit}). perfbench/run.py builds and runs this.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "layers.hpp"
#include "trace.hpp"
#include "workload.hpp"

extern char** environ;

namespace perfbench {
namespace {

constexpr int kSetupReps = 21;
constexpr double kWarmupSeconds = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string out = ".bench_build/perfbench-out";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out <dir> [--commit <id>] "
               "[--source-digest <hex>]\n       perfbench --selftest --out "
               "<dir>\nworkloads:",
               why.c_str());
  for (const WorkloadSpec& w : workloads())
    std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--out") a.out = v;
      else if (k == "--commit") a.commit = v;
      else if (k == "--source-digest") a.source_digest = v;
      else usage("unknown argument " + k);
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (!a.selftest && find_workload(a.workload) == nullptr)
    usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

/// Every CORTEX_* variable changes the measured program (batched GEMM,
/// faults, server wait, thread and pool sizes, ...): refuse to measure.
void refuse_cortex_env() {
  std::vector<std::string> set;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "CORTEX_", 7) == 0)
      set.emplace_back(*e, std::strcspn(*e, "="));
  if (set.empty()) return;
  std::fprintf(stderr, "perfbench: refusing to measure with");
  for (const std::string& s : set) std::fprintf(stderr, " %s", s.c_str());
  std::fprintf(stderr, " set: each one changes the measured program\n");
  std::exit(2);
}

const char* simd_level() {
#if defined(__AVX512F__)
  return "avx512f";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#elif defined(__SSE2__)
  return "sse2";
#else
  return "none";
#endif
}

std::vector<std::pair<std::string, std::string>> stamp(const Args& a) {
  return {{"build_type", PERFBENCH_BUILD_TYPE},
          {"simd", simd_level()},
          {"compiler", __VERSION__},
          {"nproc", std::to_string(std::thread::hardware_concurrency())},
          {"commit", a.commit},
          {"source_digest", a.source_digest}};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s%s: {\"value\": %.17g, \"unit\": %s}", i ? ", " : "",
                json_quote(metrics[i].name).c_str(), metrics[i].value,
                json_quote(metrics[i].unit).c_str());
  std::printf("}}\n");
}

/// Matched structures completed per second: the mean of the middle half
/// of the per-second counts over the window, so a burst of host stalls
/// moves one second's count, not the figure, while batches completing
/// whole do not round the figure to a multiple of the batch size.
double structs_per_s(const LoadResult& r) {
  const auto seconds = std::max<std::int64_t>(
      1, (r.end_ns - r.start_ns) / 1'000'000'000);
  std::vector<double> per_second(static_cast<std::size_t>(seconds), 0.0);
  for (const Request& q : r.requests) {
    const std::int64_t k = (q.done_ns - r.start_ns) / 1'000'000'000;
    if (q.ok && q.matched && k >= 0 && k < seconds)
      per_second[static_cast<std::size_t>(k)] += static_cast<double>(q.structs);
  }
  std::sort(per_second.begin(), per_second.end());
  const std::size_t quarter = per_second.size() / 4;
  double sum = 0.0;
  for (std::size_t i = quarter; i < per_second.size() - quarter; ++i)
    sum += per_second[i];
  return sum / static_cast<double>(per_second.size() - 2 * quarter);
}

std::int64_t count_failed(const LoadResult& r) {
  std::int64_t n = 0;
  for (const Request& q : r.requests) n += (q.ok && q.matched) ? 0 : 1;
  return n;
}

int run(const Args& a, const std::string& jit_dir) {
  const WorkloadSpec& w = *find_workload(a.workload);
  const auto stamps = stamp(a);
  std::printf("stamp:");
  for (const auto& [k, v] : stamps) std::printf(" %s=%s", k.c_str(), v.c_str());
  std::printf("\n");

  const Inputs inputs = make_inputs(w, a.seed, a.seconds);
  std::printf("workload %s seed %llu: %lld distinct structures, digest "
              "%016llx\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              static_cast<long long>(inputs.num_structures()),
              static_cast<unsigned long long>(inputs.digest));
  Tracer tracer(a.trace);
  Tracer off(false);

  std::vector<double> setup_s;
  ColdStart cs;
  for (int i = 0; i < kSetupReps; ++i) {
    cs = ColdStart{};  // tear the previous stack down before timing anew
    cs = cold_start(w, inputs, jit_dir, i + 1 == kSetupReps ? tracer : off);
    setup_s.push_back(cs.seconds);
  }
  Stack& stack = cs.stack;
  const Oracle oracle(*stack.model, inputs);
  std::printf("oracle: EagerEngine over %lld structures in %.2f s\n",
              static_cast<long long>(inputs.num_structures()),
              oracle.seconds());

  // A traced invocation splits its time between an untraced and a traced
  // pass over the same load, so both kinds of run take equally long.
  const double pass_s = a.trace ? a.seconds / 2 : a.seconds;
  (void)run_load(w, inputs, oracle, stack, kWarmupSeconds, off);
  const LoadResult r = run_load(w, inputs, oracle, stack, pass_s, off);

  // -- end-to-end metrics --------------------------------------------------
  std::vector<double> latency, lag;
  std::int64_t ok = 0, in_slo = 0;
  for (const Request& q : r.requests) {
    lag.push_back(q.lag_ns);
    if (!q.ok) continue;
    ++ok;
    latency.push_back(q.latency_ns);
    if (q.matched && q.latency_ns <= w.limit_ms * 1e6) ++in_slo;
  }
  const auto sent = static_cast<std::int64_t>(r.requests.size());
  const std::int64_t failed = count_failed(r);
  const double lag_p99_ms = percentile(lag, 99) * 1e-6;
  const auto beyond = static_cast<std::int64_t>(latency.size()) -
                      static_cast<std::int64_t>(latency.size() * 99 / 100);
  std::printf("sent %lld succeeded %lld failed %lld (not kOk %lld, oracle "
              "mismatches %lld) over %.3f s\n",
              static_cast<long long>(sent),
              static_cast<long long>(sent - failed),
              static_cast<long long>(failed), static_cast<long long>(sent - ok),
              static_cast<long long>(ok - (sent - failed)), r.window_s());
  std::printf("latency samples %zu (%lld beyond p99), limit %.1f ms\n",
              latency.size(), static_cast<long long>(beyond), w.limit_ms);
  if (w.loop == Loop::kOpen)
    std::printf("loadgen: %.1f req/s open loop, lag p99 %.3f ms (bound %.1f "
                "ms)\n",
                w.rate_rps, lag_p99_ms, w.max_lag_ms);
  const std::vector<Metric> e2e = {
      {"latency_p50_ms", percentile(latency, 50) * 1e-6, "ms"},
      {"structs_per_s", structs_per_s(r), "1/s"},
      {"slo_attainment", static_cast<double>(in_slo) / static_cast<double>(sent),
       "share"},
      {"setup_s", percentile(setup_s, 50), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  // Printed with every run but not part of the result: p99 is set by
  // millisecond host stalls too rare and uneven to repeat run to run, and
  // fail_fraction is 0 on a correct run (the result's attempted/failed
  // counts carry it).
  const std::vector<Metric> printed = {
      e2e[0],
      {"latency_p99_ms", percentile(latency, 99) * 1e-6, "ms"},
      e2e[1],
      e2e[2],
      {"fail_fraction", static_cast<double>(failed) / static_cast<double>(sent),
       "share"},
      e2e[3],
      e2e[4],
  };
  for (const Metric& m : printed)
    std::printf("%-26s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());

  bool correct = failed == 0;
  int status = 0;
  if (r.first_mismatch >= 0) {
    std::fprintf(stderr, "perfbench: oracle mismatch, seed %llu structure %lld\n",
                 static_cast<unsigned long long>(a.seed),
                 static_cast<long long>(r.first_mismatch));
    status = 1;
  } else if (failed > 0) {
    std::fprintf(stderr, "perfbench: %lld requests not answered kOk\n",
                 static_cast<long long>(sent - ok));
    status = 1;
  }
  if (w.loop == Loop::kOpen && lag_p99_ms > w.max_lag_ms) {
    std::fprintf(stderr,
                 "perfbench: run invalid: generator lag p99 %.3f ms exceeds "
                 "%.1f ms\n",
                 lag_p99_ms, w.max_lag_ms);
    return 3;
  }

  if (!a.trace) {
    print_result(correct, sent, failed, e2e);
    return status;
  }

  // -- traced run ----------------------------------------------------------
  const LoadResult traced = run_load(w, inputs, oracle, stack, pass_s, tracer);
  const std::int64_t traced_failed = count_failed(traced);
  correct = correct && traced_failed == 0;
  if (traced.first_mismatch >= 0) {
    std::fprintf(stderr, "perfbench: oracle mismatch (traced), seed %llu "
                 "structure %lld\n",
                 static_cast<unsigned long long>(a.seed),
                 static_cast<long long>(traced.first_mismatch));
    status = 1;
  }
  std::map<std::string, double> layers =
      measure_layers(w, inputs, stack, r, traced, jit_dir, tracer);
  layers["compile.plan_cache_misses"] = static_cast<double>(cs.plan_cache_misses);
  std::vector<Metric> per_layer;
  std::printf("per-layer (traced run; kernels.*_per_struct computed from "
              "tensor shapes, runtime.* modeled):\n");
  for (const LayerMetric& lm : layer_metrics()) {
    per_layer.push_back({lm.name, layers.at(lm.name), lm.unit});
    std::printf("  %-28s %14.6g %s\n", lm.name, layers.at(lm.name), lm.unit);
  }
  const std::string trace_path = a.out + "/trace-" + w.name + "-" +
                                 std::to_string(a.seed) + ".json";
  tracer.write_chrome_json(trace_path, stamps);
  std::printf("trace: %zu spans -> %s\n", tracer.spans().size(),
              trace_path.c_str());
  print_result(correct, sent + static_cast<std::int64_t>(traced.requests.size()),
               failed + traced_failed, per_layer);
  return status;
}

/// The benchmark's own checks: one seed gives one workload, and the layer
/// spans of a replayed batch add up to its pool.run time.
int selftest(const std::string& jit_dir) {
  int failures = 0;
  for (const WorkloadSpec& w : workloads()) {
    const Inputs x = make_inputs(w, 7, 2.0);
    const Inputs y = make_inputs(w, 7, 2.0);
    const Inputs z = make_inputs(w, 8, 2.0);
    const bool same = x.digest == y.digest && x.digest != z.digest;
    std::printf("%s: seed 7 twice %016llx/%016llx, seed 8 %016llx: %s\n",
                w.name.c_str(), static_cast<unsigned long long>(x.digest),
                static_cast<unsigned long long>(y.digest),
                static_cast<unsigned long long>(z.digest),
                same ? "ok" : "FAIL");
    failures += same ? 0 : 1;

    Tracer off(false);
    ColdStart cs = cold_start(w, x, jit_dir, off);
    Replayer rp(w, x, cs.stack, off);
    const std::int64_t size = w.loop == Loop::kOpen     ? 1
                              : w.loop == Loop::kClosed ? 32
                                                        : w.batch;
    ReplayBatch warm = rp.run_pool(size, 0);
    rp.run_layers(warm, false);
    // linearize + run_linearized + pool overhead must sum to pool.run
    // within 30% + 0.5 ms: the slowest shard ran next to the others, the
    // replay runs alone.
    int bad = 0;
    for (int i = 1; i <= 5; ++i) {
      ReplayBatch b = rp.run_pool(size, i);
      rp.run_layers(b, false);
      const double sum = b.linearize_ns + b.run_linearized_ns + b.overhead_ns();
      const double slack = 0.3 * b.pool_run_ns + 0.5e6;
      const bool fine = std::abs(sum - b.pool_run_ns) <= slack;
      bad += fine ? 0 : 1;
      std::printf("  batch %lld: linearize %.3f + run_linearized %.3f + "
                  "overhead %.3f = %.3f ms vs pool.run %.3f ms: %s\n",
                  static_cast<long long>(size), b.linearize_ns * 1e-6,
                  b.run_linearized_ns * 1e-6, b.overhead_ns() * 1e-6,
                  sum * 1e-6, b.pool_run_ns * 1e-6, fine ? "ok" : "FAIL");
    }
    // One replay may land on a descheduled core; more is a broken sum.
    failures += bad > 1 ? 1 : 0;
  }
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse(argc, argv);
  refuse_cortex_env();
  // The JIT cache directory is the benchmark's own and starts empty, so a
  // kernel build on the serving path would show up in setup_s. Set before
  // any thread starts; removed on the way out.
  const std::string jit_dir =
      a.out + "/jit-" + std::to_string(static_cast<long>(getpid()));
  setenv("CORTEX_JIT_CACHE_DIR", jit_dir.c_str(), 1);
  int status = 1;
  try {
    std::filesystem::create_directories(a.out);
    status = a.selftest ? selftest(jit_dir) : run(a, jit_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  std::error_code ec;
  std::filesystem::remove_all(jit_dir, ec);
  return status;
}
