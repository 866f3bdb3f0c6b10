// Static pipelining plan for a stratified program: dependency levels and
// per-component fences, computed once per (re)stratification and shared by
// every epoch of a session (DESIGN.md §12).
//
// Why not component_stratum?  Strata only grow across NEGATIVE edges, so
// two components on the same stratum may depend on each other — overlapping
// epochs by stratum would let epoch e+1 write a predicate epoch e is still
// deriving from.  The pipeline instead uses the longest-path depth of the
// component condensation ("level"): level(c) = 1 + max level over the
// components c's rule bodies read, 0 for components with no external
// inputs.  "Epoch e finalized all levels < L" then implies every transitive
// producer of a level-L component has finished AND flushed (the write
// buffers wait on the per-shard version counters before a task completes).
//
// The fence covers the other race direction too.  A component phase reads
// exactly its member predicates plus its rules' body predicates
// (OldStateView's `relevant` set), so epoch e+1 mutating component c's
// members races only with epoch-e readers of those members — components at
// levels up to last_reader_level.  Hence:
//
//   fence(c) = 1 + max(level(c), max over members m of last_reader(m))
//
// expressed as "levels epoch e must have finalized" — level(c) itself for
// the write/write exclusion against e's own instance of c, the reader term
// for write/read.  A component nobody reads still fences on its own level.
//
// The same compile builds the activation graph: the cascade DAG every
// update of the program version runs over (parallel_update.hpp), with the
// plan's levels and fences spread onto its nodes.  The rule text fixes the
// graph; only the activation depends on the update.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "datalog/ast.hpp"
#include "datalog/stratify.hpp"
#include "graph/dag.hpp"
#include "trace/job_trace.hpp"
#include "util/types.hpp"

namespace dsched::datalog {

/// Per-component levels and fences; indexes parallel Stratification's.
struct PipelinePlan {
  /// Longest-path depth in the component condensation (0-based).
  std::vector<std::uint32_t> component_level;
  /// Finalized-level count epoch e-1 must reach before epoch e may start
  /// this component's phase (see file comment).
  std::vector<std::uint32_t> component_fence;
  /// Deepest component level whose rules read each predicate (>= the
  /// owner's level; equal when nobody reads it).
  std::vector<std::uint32_t> predicate_last_reader;
  /// 1 + the deepest level — the frontier's "all levels" count.
  std::uint32_t num_levels = 0;
};

/// Builds the plan; `strat.component_order` must be topological (it is —
/// Kahn order over the condensation).
[[nodiscard]] PipelinePlan BuildPipelinePlan(const Program& program,
                                             const Stratification& strat);

/// The activation DAG of one program version, mirroring Figure 1's
/// anatomy: one zero-work collector node per predicate (node id =
/// predicate id), then one task node per component that owns rules.
/// Edges run from a component's task to its member predicates and from
/// every external body predicate to the task.  A rule-less component is a
/// base predicate; its collector doubles as the node that runs its phase.
struct ActivationGraph {
  /// Shared with every JobTrace recorded over this version.
  std::shared_ptr<const graph::Dag> dag;
  /// component id -> task node (kInvalidTask for rule-less components).
  std::vector<util::TaskId> component_node;
  /// node -> the component whose phase it runs or whose member it collects.
  std::vector<std::uint32_t> node_component;
  /// Per-node trace info every update starts from: collectors zero-work,
  /// tasks at the TaskInfo defaults.  An update copies it and fills in
  /// resource utilities.
  std::vector<trace::TaskInfo> node_info;
  /// Per-node epoch-pipeline gate inputs (runtime::PipelineGate): the
  /// component's level, and its fence on the phase-running node.  Derived
  /// predicates' collectors only forward a flag their own epoch computed,
  /// so their fence is 0 (never wait).
  std::vector<std::uint32_t> node_level;
  std::vector<std::uint32_t> node_fence;
  /// PipelinePlan::num_levels.
  std::uint32_t num_levels = 0;

  [[nodiscard]] std::size_t NumNodes() const { return node_component.size(); }
};

/// Builds the graph for `strat` with `plan`'s levels and fences.  Linear in
/// the program size.
[[nodiscard]] ActivationGraph BuildActivationGraph(const Program& program,
                                                   const Stratification& strat,
                                                   const PipelinePlan& plan);

}  // namespace dsched::datalog
