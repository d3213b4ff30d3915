#include "baselines/common.hpp"

namespace cortex::baselines {

namespace {

SharedStates states_from_lin(const models::ModelDef& def,
                             const models::ModelParams& params,
                             linearizer::Linearized lin) {
  SharedStates ss;
  ss.lin = std::move(lin);
  const std::int64_t sw = def.cell.state_width;
  ss.states = Tensor::zeros(Shape{ss.lin.num_nodes, sw});
  models::CellExecutor exec(def.cell, params);
  node_states(exec, ss.lin, ss.states);

  ss.root_states.reserve(ss.lin.roots.size());
  for (const std::int32_t r : ss.lin.roots) {
    const float* row = ss.states.row(r);
    ss.root_states.emplace_back(row, row + sw);
  }
  return ss;
}

}  // namespace

void node_states(models::CellExecutor& exec,
                 const linearizer::Linearized& lin, Tensor& states) {
  std::vector<const float*> kids;
  for (const std::int32_t id : lin.exec_order) {
    const auto i = static_cast<std::size_t>(id);
    const std::int32_t off0 = lin.child_offsets[i];
    const std::int32_t off1 = lin.child_offsets[i + 1];
    kids.clear();
    for (std::int32_t c = off0; c < off1; ++c)
      kids.push_back(states.row(lin.child_ids[static_cast<std::size_t>(c)]));
    exec.run_node(off0 == off1, kids, lin.word[i], states.row(id));
  }
}

SharedStates compute_states(const models::ModelDef& def,
                            const models::ModelParams& params,
                            const std::vector<const ds::Tree*>& trees) {
  linearizer::LinearizerSpec spec;
  spec.kind = linearizer::StructureKind::kTree;
  return states_from_lin(def, params, linearizer::linearize_trees(trees, spec));
}

SharedStates compute_states(const models::ModelDef& def,
                            const models::ModelParams& params,
                            const std::vector<const ds::Dag*>& dags) {
  linearizer::LinearizerSpec spec;
  spec.kind = linearizer::StructureKind::kDag;
  return states_from_lin(def, params, linearizer::linearize_dags(dags, spec));
}

std::vector<const ds::Tree*> raw(
    const std::vector<std::unique_ptr<ds::Tree>>& trees) {
  std::vector<const ds::Tree*> out;
  out.reserve(trees.size());
  for (const auto& t : trees) out.push_back(t.get());
  return out;
}

std::vector<const ds::Dag*> raw(
    const std::vector<std::unique_ptr<ds::Dag>>& dags) {
  std::vector<const ds::Dag*> out;
  out.reserve(dags.size());
  for (const auto& d : dags) out.push_back(d.get());
  return out;
}

}  // namespace cortex::baselines
