#include "baselines/eager.hpp"

#include "exec/plan.hpp"
#include "tensor/workspace.hpp"

namespace cortex::baselines {

namespace {
constexpr std::int64_t kF = sizeof(float);
}

EagerEngine::EagerEngine(const models::ModelDef& def,
                         const models::ModelParams& params,
                         runtime::DeviceSpec spec, EagerConfig config)
    : def_(def), params_(params), spec_(std::move(spec)), config_(config) {
  def_.cell.validate();
}

runtime::RunResult EagerEngine::run(
    const std::vector<const ds::Tree*>& trees) {
  // Numerics are shared across frameworks; this run models PyTorch's
  // execution behaviour on top of them.
  SharedStates ss = compute_states(def_, params_, trees);

  runtime::Device device(spec_);
  Workspace ws;
  const auto widths = def_.cell.register_widths();
  const auto pbytes = exec::model_param_bytes(def_);
  const std::int64_t nc = def_.cell.num_children;
  const std::int64_t sw = def_.cell.state_width;

  std::int64_t tmp_width = 0;
  for (const auto& [reg, w] : widths) tmp_width += w;

  // Eager evaluation: one kernel per operator per node, in post-order;
  // child states are released once the parent has consumed them
  // (refcounting), so only the recursion frontier stays allocated.
  // `tickets` holds the state tickets of finished subtrees: a parent's
  // two children are its top two entries, left below right.
  std::vector<std::int64_t> tickets;
  for (const ds::Tree* tree : trees) {
    ds::for_each_post_order(tree->root(), [&](const ds::TreeNode* node) {
      const auto& ops = (node->is_leaf() && !def_.cell.leaf_ops.empty())
                            ? def_.cell.leaf_ops
                            : def_.cell.internal_ops;
      const std::int64_t tmp = ws.allocate(tmp_width * kF);
      for (const models::CellOp& op : ops) {
        const exec::KernelTemplate t =
            exec::op_template(op, widths, pbytes, nc, "eager/");
        runtime::KernelDesc k;
        k.flops = t.flops_per_node;
        k.bytes_read = t.bytes_read_per_node;
        k.bytes_weights = t.weight_bytes;
        k.bytes_written = t.bytes_written_per_node;
        k.parallelism = t.width;
        device.launch(k);
        device.profiler().host_other_ns += config_.dispatch_ns;
      }
      ws.release(tmp);
      const std::int64_t state_ticket = ws.allocate(sw * kF);
      if (!node->is_leaf()) {
        ws.release(tickets[tickets.size() - 2]);
        ws.release(tickets.back());
        tickets.resize(tickets.size() - 2);
      }
      tickets.push_back(state_ticket);
    });
  }
  // One root ticket per tree is left, in tree order.
  for (const std::int64_t rt : tickets) ws.release(rt);

  runtime::RunResult rr;
  rr.root_states = std::move(ss.root_states);
  rr.profiler = device.profiler();
  rr.peak_memory_bytes = ws.peak_bytes();
  return rr;
}

runtime::RunResult EagerEngine::run(const std::vector<const ds::Dag*>& dags) {
  SharedStates ss = compute_states(def_, params_, dags);

  runtime::Device device(spec_);
  Workspace ws;
  const auto widths = def_.cell.register_widths();
  const auto pbytes = exec::model_param_bytes(def_);
  const std::int64_t sw = def_.cell.state_width;
  std::int64_t tmp_width = 0;
  for (const auto& [reg, w] : widths) tmp_width += w;

  // Eager DAG execution keeps every node state live (the user's own dict
  // of node -> tensor), processing nodes in topological order.
  for (const ds::Dag* dag : dags) {
    for (std::int64_t v = 0; v < dag->num_nodes(); ++v) {
      const std::int64_t fanin =
          static_cast<std::int64_t>(dag->preds(v).size());
      const std::int64_t tmp = ws.allocate(tmp_width * kF);
      for (const models::CellOp& op : def_.cell.internal_ops) {
        const exec::KernelTemplate t =
            exec::op_template(op, widths, pbytes, std::max<std::int64_t>(
                                                      fanin, 1),
                              "eager/");
        runtime::KernelDesc k;
        k.flops = t.flops_per_node;
        k.bytes_read = t.bytes_read_per_node;
        k.bytes_weights = t.weight_bytes;
        k.bytes_written = t.bytes_written_per_node;
        k.parallelism = t.width;
        device.launch(k);
        device.profiler().host_other_ns += config_.dispatch_ns;
      }
      ws.release(tmp);
      ws.allocate(sw * kF);  // node state, live until the run ends
    }
  }

  runtime::RunResult rr;
  rr.root_states = std::move(ss.root_states);
  rr.profiler = device.profiler();
  rr.peak_memory_bytes = ws.peak_bytes();
  return rr;
}

}  // namespace cortex::baselines
