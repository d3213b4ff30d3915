#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <thread>

#include "baselines/eager.hpp"
#include "ds/generators.hpp"
#include "exec/jit.hpp"
#include "exec/plan_cache.hpp"
#include "runtime/device.hpp"
#include "support/clock.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace ex = cortex::exec;
using cortex::support::monotonic_ns;

namespace {

constexpr std::uint64_t kWeightSeed = 20210301;
constexpr std::int64_t kSeqLength = 100;
constexpr std::int64_t kGridSide = 10;
constexpr int kOfflineBatches = 256;

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

void digest_tree(const cortex::ds::Tree& t, Fnv& f) {
  std::vector<const cortex::ds::TreeNode*> stack{t.root()};
  while (!stack.empty()) {
    const cortex::ds::TreeNode* n = stack.back();
    stack.pop_back();
    if (n->is_leaf()) {
      f.add(static_cast<std::uint64_t>(n->word));
    } else {
      f.add(~0ull);
      stack.push_back(n->right);
      stack.push_back(n->left);
    }
  }
}

void digest_dag(const cortex::ds::Dag& d, Fnv& f) {
  f.add(static_cast<std::uint64_t>(d.num_nodes()));
  for (std::int64_t v = 0; v < d.num_nodes(); ++v) {
    f.add(static_cast<std::uint64_t>(d.word(v)));
    for (const std::int64_t p : d.preds(v)) f.add(static_cast<std::uint64_t>(p));
    f.add(~0ull);
  }
}

std::uint64_t name_hash(const std::string& s) {
  Fnv f;
  for (const char c : s) f.add(static_cast<unsigned char>(c));
  return f.h;
}

/// Submits one tree or DAG request, whichever the workload serves.
std::future<ex::ServedResult> submit(ex::BatchServer& server,
                                     const Inputs& in, std::int64_t s) {
  const auto i = static_cast<std::size_t>(s);
  return in.trees.empty() ? server.submit(in.dags[i].get())
                          : server.submit(in.trees[i].get());
}

/// Fills everything but `matched` from a served result.
Request served_request(std::int64_t id, std::int64_t sent_ns,
                       const ex::ServedResult& r) {
  Request rec;
  rec.id = id;
  rec.ok = r.status == ex::RequestStatus::kOk;
  rec.queue_ns = r.queue_ns;
  rec.e2e_ns = r.e2e_ns;
  rec.latency_ns = r.e2e_ns;
  rec.batch_size = r.batch_size;
  rec.done_ns = sent_ns + static_cast<std::int64_t>(r.e2e_ns);
  return rec;
}

/// Request span with its submit / queue / batch children, all derived
/// from timestamps the generator and the ServedResult carry.
void trace_served(Tracer& tracer, const Request& rec, std::int64_t begin_ns,
                  std::int64_t sent_ns, std::int64_t submit_end_ns) {
  if (!tracer.enabled()) return;
  const std::int64_t id =
      tracer.record("request", begin_ns, rec.done_ns, 0, rec.id);
  tracer.record("loadgen.submit", sent_ns, submit_end_ns, id, rec.id);
  const std::int64_t admit = sent_ns + static_cast<std::int64_t>(rec.queue_ns);
  tracer.record("server.queue", sent_ns, admit, id, rec.id);
  tracer.record("server.batch", admit, rec.done_ns, id, rec.id);
}

void check_mismatch(LoadResult& out, std::int64_t m) {
  if (m >= 0 && out.first_mismatch < 0) out.first_mismatch = m;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v(3);
    v[0].name = "treelstm-sst-light";
    v[0].loop = Loop::kOpen;
    v[0].rate_rps = 100.0;
    v[0].limit_ms = 10.0;
    v[0].max_lag_ms = 10.0;
    v[0].distinct = 256;
    v[1].name = "seqlstm-window64";
    v[1].loop = Loop::kClosed;
    v[1].window = 64;
    v[1].limit_ms = 300.0;
    v[1].distinct = 128;
    v[2].name = "dagrnn-grid-offline";
    v[2].loop = Loop::kOffline;
    v[2].batch = 10;
    v[2].limit_ms = 10.0;
    v[2].distinct = 64;
    return v;
  }();
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::unique_ptr<Model> make_model(const WorkloadSpec& w) {
  auto m = std::make_unique<Model>();
  if (w.name == "treelstm-sst-light")
    m->def = cortex::models::make_treelstm_embed(kHidden);
  else if (w.name == "seqlstm-window64")
    m->def = cortex::models::make_seq_lstm(kHidden);
  else
    m->def = cortex::models::make_dagrnn(kHidden);
  cortex::Rng rng(kWeightSeed);
  m->params = cortex::models::init_params(m->def, rng);
  return m;
}

Inputs make_inputs(const WorkloadSpec& w, std::uint64_t seed,
                   double seconds) {
  Inputs in;
  cortex::Rng rng(seed ^ name_hash(w.name));
  Fnv f;
  for (int i = 0; i < w.distinct; ++i) {
    if (w.loop == Loop::kOffline) {
      in.dags.push_back(cortex::ds::make_grid_dag(kGridSide, kGridSide, rng));
      digest_dag(*in.dags.back(), f);
    } else {
      in.trees.push_back(w.loop == Loop::kOpen
                             ? cortex::ds::make_sst_like_tree(rng)
                             : cortex::ds::make_chain_tree(kSeqLength, rng));
      digest_tree(*in.trees.back(), f);
    }
  }
  if (w.loop == Loop::kOpen) {
    // Exactly rate x seconds Poisson arrivals: the sample count, and so
    // how many samples lie beyond p99, is fixed by the run length.
    const auto n = std::max<std::int64_t>(
        1, std::llround(w.rate_rps * seconds));
    double t_ns = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      const double u = static_cast<double>(rng.next_float());
      t_ns += -std::log(1.0 - u) / w.rate_rps * 1e9;
      in.arrivals_ns.push_back(static_cast<std::int64_t>(t_ns));
      f.add(static_cast<std::uint64_t>(in.arrivals_ns.back()));
    }
  }
  if (w.loop == Loop::kOffline) {
    std::vector<std::int32_t> perm(static_cast<std::size_t>(w.distinct));
    for (int i = 0; i < w.distinct; ++i) perm[static_cast<std::size_t>(i)] = i;
    for (int b = 0; b < kOfflineBatches; ++b) {
      // Partial Fisher-Yates: w.batch distinct structures per call.
      for (int i = 0; i < w.batch; ++i) {
        const auto j = static_cast<std::size_t>(
            rng.next_in(i, w.distinct - 1));
        std::swap(perm[static_cast<std::size_t>(i)], perm[j]);
        f.add(static_cast<std::uint64_t>(perm[static_cast<std::size_t>(i)]));
      }
      in.batches.emplace_back(perm.begin(), perm.begin() + w.batch);
    }
  }
  in.digest = f.h;
  return in;
}

Oracle::Oracle(const Model& model, const Inputs& inputs) {
  const std::int64_t t0 = monotonic_ns();
  const std::int64_t n = inputs.num_structures();
  expected_.resize(static_cast<std::size_t>(n));
  // Structures are independent: one EagerEngine per thread, strided.
  std::vector<std::exception_ptr> errors(kPoolWorkers);
  std::vector<std::thread> threads;
  for (int t = 0; t < kPoolWorkers; ++t) {
    threads.emplace_back([&, t] {
      try {
        cortex::baselines::EagerEngine eager(
            model.def, model.params, cortex::runtime::DeviceSpec::v100_gpu());
        for (std::int64_t s = t; s < n; s += kPoolWorkers) {
          const auto i = static_cast<std::size_t>(s);
          expected_[i] = inputs.trees.empty()
                             ? eager.run(std::vector<const cortex::ds::Dag*>{
                                             inputs.dags[i].get()})
                                   .root_states
                             : eager.run(std::vector<const cortex::ds::Tree*>{
                                             inputs.trees[i].get()})
                                   .root_states;
        }
      } catch (...) {
        errors[static_cast<std::size_t>(t)] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  seconds_ = static_cast<double>(monotonic_ns() - t0) * 1e-9;
}

std::int64_t Oracle::first_mismatch(
    const std::vector<std::int32_t>& structures,
    const std::vector<std::vector<float>>& roots) const {
  std::size_t at = 0;
  for (const std::int32_t s : structures) {
    for (const std::vector<float>& want :
         expected_[static_cast<std::size_t>(s)]) {
      // Bit for bit: memcmp, so -0.0 vs 0.0 or differing NaNs count.
      if (at >= roots.size() || roots[at].size() != want.size() ||
          std::memcmp(roots[at].data(), want.data(),
                      want.size() * sizeof(float)) != 0)
        return s;
      ++at;
    }
  }
  return at == roots.size() ? -1 : structures.back();
}

ColdStart cold_start(const WorkloadSpec& w, const Inputs& inputs,
                     const std::string& jit_dir, Tracer& tracer) {
  ex::PlanCache::instance().clear();
  ex::JitCache::instance().clear_memory();
  std::filesystem::remove_all(jit_dir);
  std::filesystem::create_directories(jit_dir);

  ColdStart cs;
  Tracer::Scope setup(tracer, "setup");
  const std::int64_t t0 = monotonic_ns();
  {
    Tracer::Scope s(tracer, "setup.model", setup.id());
    cs.stack.model = make_model(w);
  }
  {
    Tracer::Scope s(tracer, "setup.pool", setup.id());
    ex::EnginePoolOptions po;
    po.workers = kPoolWorkers;
    cs.stack.pool = std::make_unique<ex::EnginePool>(
        cs.stack.model->def, cs.stack.model->params, cortex::ra::Schedule{},
        cortex::runtime::DeviceSpec::v100_gpu(), po);
  }
  bool ok = false;
  if (w.loop == Loop::kOffline) {
    Tracer::Scope s(tracer, "setup.first_request", setup.id());
    std::vector<const cortex::ds::Dag*> dags;
    for (const std::int32_t i : inputs.batches.front())
      dags.push_back(inputs.dags[static_cast<std::size_t>(i)].get());
    ok = !cs.stack.pool->run(dags).root_states.empty();
  } else {
    {
      Tracer::Scope s(tracer, "setup.server", setup.id());
      cs.stack.server = std::make_unique<ex::BatchServer>(*cs.stack.pool);
    }
    Tracer::Scope s(tracer, "setup.first_request", setup.id());
    ok = submit(*cs.stack.server, inputs, 0).get().status ==
         ex::RequestStatus::kOk;
  }
  cs.seconds = static_cast<double>(monotonic_ns() - t0) * 1e-9;
  cs.plan_cache_misses = ex::PlanCache::instance().stats().misses;
  if (!ok) throw std::runtime_error("cold start: first request failed");
  return cs;
}

namespace {

LoadResult run_open(const WorkloadSpec& w, const Inputs& in,
                    const Oracle& oracle, ex::BatchServer& server,
                    double seconds, Tracer& tracer) {
  const auto n = std::min(in.arrivals_ns.size(),
                          static_cast<std::size_t>(std::max<long long>(
                              1, std::llround(w.rate_rps * seconds))));
  const std::int64_t distinct = in.num_structures();
  std::vector<std::future<ex::ServedResult>> futs(n);
  std::vector<std::int64_t> due(n), sent(n), submitted(n);

  LoadResult out;
  out.start_ns = monotonic_ns() + 2'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    // A structure instance must not be in flight twice; normally its
    // previous use finished seconds ago and this wait returns at once.
    if (i >= static_cast<std::size_t>(distinct))
      futs[i - static_cast<std::size_t>(distinct)].wait();
    due[i] = out.start_ns + in.arrivals_ns[i];
    std::this_thread::sleep_until(cortex::support::to_time_point(due[i]));
    sent[i] = monotonic_ns();
    futs[i] = submit(server, in, static_cast<std::int64_t>(i) % distinct);
    submitted[i] = monotonic_ns();
  }
  out.end_ns = out.start_ns;
  for (std::size_t i = 0; i < n; ++i) {
    const ex::ServedResult r = futs[i].get();
    Request rec = served_request(static_cast<std::int64_t>(i), sent[i], r);
    const auto s = static_cast<std::int32_t>(static_cast<std::int64_t>(i) %
                                             distinct);
    // Open loop: latency counts from when the request was due.
    rec.lag_ns = static_cast<double>(sent[i] - due[i]);
    rec.latency_ns = rec.lag_ns + r.e2e_ns;
    if (rec.ok) {
      const std::int64_t m = oracle.first_mismatch({s}, r.root_states);
      rec.matched = m < 0;
      check_mismatch(out, m);
    }
    trace_served(tracer, rec, due[i], sent[i], submitted[i]);
    out.end_ns = std::max(out.end_ns, rec.done_ns);
    out.requests.push_back(rec);
  }
  return out;
}

LoadResult run_closed(const WorkloadSpec& w, const Inputs& in,
                      const Oracle& oracle, ex::BatchServer& server,
                      double seconds, Tracer& tracer) {
  // Slot k always uses structures k, k + window, k + 2 window, ...: a
  // slot resubmits only after its previous request resolved, so no
  // structure instance is ever in flight twice.
  const int window = w.window;
  const std::int64_t per_slot = in.num_structures() / window;
  struct Slot {
    std::future<ex::ServedResult> fut;
    std::int64_t id = 0;
    std::int32_t structure = 0;
    std::int64_t sent_ns = 0;
    std::int64_t submitted_ns = 0;
    std::int64_t uses = 0;
    bool active = false;
  };
  std::vector<Slot> slots(static_cast<std::size_t>(window));
  std::int64_t next_id = 0;
  auto send = [&](Slot& sl, int k) {
    sl.structure = static_cast<std::int32_t>(k + window * (sl.uses++ % per_slot));
    sl.id = next_id++;
    sl.sent_ns = monotonic_ns();
    sl.fut = submit(server, in, sl.structure);
    sl.submitted_ns = monotonic_ns();
    sl.active = true;
  };

  LoadResult out;
  out.start_ns = monotonic_ns();
  const std::int64_t stop_ns =
      out.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  for (int k = 0; k < window; ++k) send(slots[static_cast<std::size_t>(k)], k);
  int active = window;
  out.end_ns = out.start_ns;
  for (int k = 0; active > 0; k = (k + 1) % window) {
    Slot& sl = slots[static_cast<std::size_t>(k)];
    if (!sl.active) continue;
    const ex::ServedResult r = sl.fut.get();
    sl.active = false;
    Request rec = served_request(sl.id, sl.sent_ns, r);
    if (rec.ok) {
      const std::int64_t m = oracle.first_mismatch({sl.structure}, r.root_states);
      rec.matched = m < 0;
      check_mismatch(out, m);
    }
    trace_served(tracer, rec, sl.sent_ns, sl.sent_ns, sl.submitted_ns);
    out.end_ns = std::max(out.end_ns, rec.done_ns);
    out.requests.push_back(rec);
    if (monotonic_ns() < stop_ns)
      send(sl, k);
    else
      --active;
  }
  return out;
}

LoadResult run_offline(const Inputs& in, const Oracle& oracle,
                       ex::EnginePool& pool, double seconds, Tracer& tracer) {
  LoadResult out;
  out.start_ns = monotonic_ns();
  const std::int64_t stop_ns =
      out.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<const cortex::ds::Dag*> dags;
  for (std::int64_t b = 0; monotonic_ns() < stop_ns; ++b) {
    const std::vector<std::int32_t>& idx =
        in.batches[static_cast<std::size_t>(b) % in.batches.size()];
    dags.clear();
    for (const std::int32_t i : idx)
      dags.push_back(in.dags[static_cast<std::size_t>(i)].get());
    Request rec;
    rec.id = b;
    rec.structs = static_cast<std::int64_t>(idx.size());
    rec.batch_size = rec.structs;
    cortex::runtime::RunResult r;
    const std::int64_t t0 = monotonic_ns();
    try {
      r = pool.run(dags);
      rec.ok = true;
    } catch (const std::exception&) {
      rec.ok = false;
    }
    rec.done_ns = monotonic_ns();
    rec.latency_ns = rec.e2e_ns = static_cast<double>(rec.done_ns - t0);
    tracer.record("pool.run", t0, rec.done_ns, 0, b);
    if (rec.ok) {
      const std::int64_t m = oracle.first_mismatch(idx, r.root_states);
      rec.matched = m < 0;
      check_mismatch(out, m);
    }
    out.requests.push_back(rec);
  }
  out.end_ns = out.requests.empty() ? out.start_ns : out.requests.back().done_ns;
  return out;
}

}  // namespace

LoadResult run_load(const WorkloadSpec& w, const Inputs& inputs,
                    const Oracle& oracle, Stack& stack, double seconds,
                    Tracer& tracer) {
  LoadResult out;
  switch (w.loop) {
    case Loop::kOpen:
      out = run_open(w, inputs, oracle, *stack.server, seconds, tracer);
      break;
    case Loop::kClosed:
      out = run_closed(w, inputs, oracle, *stack.server, seconds, tracer);
      break;
    case Loop::kOffline:
      out = run_offline(inputs, oracle, *stack.pool, seconds, tracer);
      break;
  }
  if (stack.server) out.health = stack.server->health();
  out.pool = stack.pool->stats();
  return out;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

}  // namespace perfbench
