#include "datalog/pipeline_plan.hpp"

#include <algorithm>

#include "graph/digraph_builder.hpp"

namespace dsched::datalog {

PipelinePlan BuildPipelinePlan(const Program& program,
                               const Stratification& strat) {
  PipelinePlan plan;
  const std::size_t num_comps = strat.NumComponents();
  const std::size_t num_preds = program.NumPredicates();
  plan.component_level.assign(num_comps, 0);

  // Longest path over the condensation, in topological order.  Negated
  // literals are dependencies like any other — the fence must cover them.
  for (const std::uint32_t c : strat.component_order) {
    std::uint32_t level = 0;
    for (const std::size_t r : strat.component_rules[c]) {
      for (const BodyElement& element : program.rules[r].body) {
        const auto* literal = std::get_if<Literal>(&element);
        if (literal == nullptr) {
          continue;
        }
        const std::uint32_t dep = strat.component_of[literal->atom.predicate];
        if (dep != c) {
          level = std::max(level, plan.component_level[dep] + 1);
        }
      }
    }
    plan.component_level[c] = level;
    plan.num_levels = std::max(plan.num_levels, level + 1);
  }

  plan.predicate_last_reader.assign(num_preds, 0);
  for (std::size_t p = 0; p < num_preds; ++p) {
    plan.predicate_last_reader[p] = plan.component_level[strat.component_of[p]];
  }
  for (std::uint32_t c = 0; c < num_comps; ++c) {
    for (const std::size_t r : strat.component_rules[c]) {
      for (const BodyElement& element : program.rules[r].body) {
        if (const auto* literal = std::get_if<Literal>(&element)) {
          std::uint32_t& reader =
              plan.predicate_last_reader[literal->atom.predicate];
          reader = std::max(reader, plan.component_level[c]);
        }
      }
    }
  }

  plan.component_fence.assign(num_comps, 0);
  for (std::uint32_t c = 0; c < num_comps; ++c) {
    std::uint32_t deepest = plan.component_level[c];
    for (const std::uint32_t m : strat.component_members[c]) {
      deepest = std::max(deepest, plan.predicate_last_reader[m]);
    }
    plan.component_fence[c] = deepest + 1;
  }
  return plan;
}

ActivationGraph BuildActivationGraph(const Program& program,
                                     const Stratification& strat,
                                     const PipelinePlan& plan) {
  ActivationGraph out;
  const std::size_t num_preds = program.NumPredicates();
  const std::size_t num_comps = strat.NumComponents();

  // Collectors first (node id = predicate id), then one task per component
  // that owns rules.
  out.component_node.assign(num_comps, util::kInvalidTask);
  out.node_component.assign(strat.component_of.begin(),
                            strat.component_of.end());
  for (std::uint32_t c = 0; c < num_comps; ++c) {
    if (!strat.component_rules[c].empty()) {
      out.component_node[c] =
          static_cast<util::TaskId>(out.node_component.size());
      out.node_component.push_back(c);
    }
  }
  const std::size_t num_nodes = out.NumNodes();

  graph::DigraphBuilder builder(num_nodes);
  for (std::uint32_t c = 0; c < num_comps; ++c) {
    const util::TaskId task = out.component_node[c];
    if (task == util::kInvalidTask) {
      continue;
    }
    for (const std::uint32_t p : strat.component_members[c]) {
      builder.AddEdge(task, static_cast<util::TaskId>(p));
    }
    for (const std::size_t r : strat.component_rules[c]) {
      for (const BodyElement& element : program.rules[r].body) {
        if (const auto* literal = std::get_if<Literal>(&element)) {
          const std::uint32_t p = literal->atom.predicate;
          if (strat.component_of[p] != c) {
            builder.AddEdge(static_cast<util::TaskId>(p), task);
          }
        }
      }
    }
  }
  out.dag = std::make_shared<const graph::Dag>(std::move(builder).Build());

  out.node_info.resize(num_nodes);
  for (std::size_t p = 0; p < num_preds; ++p) {
    out.node_info[p].kind = trace::NodeKind::kCollector;
    out.node_info[p].work = 0.0;
    out.node_info[p].span = 0.0;
  }
  out.node_level.resize(num_nodes);
  out.node_fence.resize(num_nodes);
  for (std::size_t node = 0; node < num_nodes; ++node) {
    const std::uint32_t c = out.node_component[node];
    const bool runs_phase = node >= num_preds ||
                            out.component_node[c] == util::kInvalidTask;
    out.node_level[node] = plan.component_level[c];
    out.node_fence[node] = runs_phase ? plan.component_fence[c] : 0;
  }
  out.num_levels = plan.num_levels;
  return out;
}

}  // namespace dsched::datalog
