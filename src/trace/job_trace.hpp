// The job-trace model: a computation DAG plus everything the paper's traces
// carry (Section VI-A): per-task processing time, which tasks the database
// update initially dirties, and — revealed only when a task is re-executed —
// whether its output actually changes.
//
// Table I distinguishes *tasks that can be activated* from *predicate nodes
// used to collect inputs and outputs*; we keep both as DAG nodes and tag the
// kind.  Collector nodes carry zero work and always forward changes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/dag.hpp"
#include "util/types.hpp"

namespace dsched::trace {

using util::TaskId;
using util::Work;

/// Node kind: a schedulable task or a zero-work collector predicate node.
enum class NodeKind : std::uint8_t { kTask = 0, kCollector = 1 };

/// Static per-node metadata carried by a trace.
struct TaskInfo {
  NodeKind kind = NodeKind::kTask;
  /// Total work in processor-seconds.
  Work work = 1.0;
  /// Critical path inside the task (paper's "task span" S^T); span <= work.
  /// span == work means the task is purely sequential; the ratio work/span
  /// bounds its useful parallelism.
  Work span = 1.0;
  /// Revealed at execution: does re-running this task change its output?
  /// Drives the dynamic activation cascade (the active graph H).
  bool output_changes = true;
  /// Estimated bytes of live state the task holds while running (paper
  /// Section V's memory parameter; for Datalog components this is
  /// predicate arity x estimated delta cardinality x sizeof(Value)).
  /// The executor's accounting plane acquires this on dispatch and
  /// releases it on completion; 0 = unaccounted (collectors, untraced
  /// workloads).
  std::uint64_t resource_utility = 0;
};

/// One workload: the DAG, per-node info, and the initially dirtied tasks.
/// The DAG is held by shared pointer, so traces over one graph (every
/// update of a Datalog program version) share it instead of copying it.
class JobTrace {
 public:
  JobTrace();
  JobTrace(std::string name, graph::Dag dag, std::vector<TaskInfo> tasks,
           std::vector<TaskId> initial_dirty);
  JobTrace(std::string name, std::shared_ptr<const graph::Dag> dag,
           std::vector<TaskInfo> tasks, std::vector<TaskId> initial_dirty);

  [[nodiscard]] const std::string& Name() const { return name_; }
  [[nodiscard]] const graph::Dag& Graph() const { return *dag_; }
  [[nodiscard]] std::size_t NumNodes() const { return dag_->NumNodes(); }
  [[nodiscard]] std::size_t NumEdges() const { return dag_->NumEdges(); }
  [[nodiscard]] const TaskInfo& Info(TaskId id) const;
  [[nodiscard]] const std::vector<TaskInfo>& Tasks() const { return tasks_; }

  /// The tasks whose inputs the database update dirtied; active at time 0.
  [[nodiscard]] const std::vector<TaskId>& InitialDirty() const {
    return initial_dirty_;
  }

  /// Number of nodes with kind == kTask.
  [[nodiscard]] std::size_t NumTaskNodes() const { return num_task_nodes_; }

  /// Sum of work over a set of nodes.
  [[nodiscard]] Work TotalWork(const std::vector<TaskId>& nodes) const;

  /// Records what a live run measured for node `id`: its work (= span,
  /// the node runs sequentially) and whether its output changed.
  void RecordOutcome(TaskId id, Work work, bool output_changes);

 private:
  std::string name_;
  std::shared_ptr<const graph::Dag> dag_;
  std::vector<TaskInfo> tasks_;
  std::vector<TaskId> initial_dirty_;
  std::size_t num_task_nodes_ = 0;
};

}  // namespace dsched::trace
