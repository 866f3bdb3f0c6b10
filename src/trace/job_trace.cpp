#include "trace/job_trace.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace dsched::trace {

namespace {

/// One shared empty graph for default-constructed traces.
const std::shared_ptr<const graph::Dag>& EmptyDag() {
  static const std::shared_ptr<const graph::Dag> empty =
      std::make_shared<const graph::Dag>();
  return empty;
}

}  // namespace

JobTrace::JobTrace() : dag_(EmptyDag()) {}

JobTrace::JobTrace(std::string name, graph::Dag dag,
                   std::vector<TaskInfo> tasks,
                   std::vector<TaskId> initial_dirty)
    : JobTrace(std::move(name),
               std::make_shared<const graph::Dag>(std::move(dag)),
               std::move(tasks), std::move(initial_dirty)) {}

JobTrace::JobTrace(std::string name, std::shared_ptr<const graph::Dag> dag,
                   std::vector<TaskInfo> tasks,
                   std::vector<TaskId> initial_dirty)
    : name_(std::move(name)),
      dag_(std::move(dag)),
      tasks_(std::move(tasks)),
      initial_dirty_(std::move(initial_dirty)) {
  DSCHED_CHECK_MSG(dag_ != nullptr, "a trace needs a DAG");
  DSCHED_CHECK_MSG(tasks_.size() == dag_->NumNodes(),
                   "one TaskInfo per DAG node required");
  std::sort(initial_dirty_.begin(), initial_dirty_.end());
  initial_dirty_.erase(
      std::unique(initial_dirty_.begin(), initial_dirty_.end()),
      initial_dirty_.end());
  for (const TaskId id : initial_dirty_) {
    DSCHED_CHECK_MSG(id < dag_->NumNodes(), "dirty task id out of range");
  }
  for (const TaskInfo& info : tasks_) {
    DSCHED_CHECK_MSG(info.work >= 0.0, "task work must be non-negative");
    DSCHED_CHECK_MSG(info.span >= 0.0 && info.span <= info.work + 1e-12,
                     "task span must lie in [0, work]");
    if (info.kind == NodeKind::kTask) {
      ++num_task_nodes_;
    }
  }
}

const TaskInfo& JobTrace::Info(TaskId id) const {
  DSCHED_CHECK_MSG(id < tasks_.size(), "task id out of range");
  return tasks_[id];
}

void JobTrace::RecordOutcome(TaskId id, Work work, bool output_changes) {
  DSCHED_CHECK_MSG(id < tasks_.size(), "task id out of range");
  DSCHED_CHECK_MSG(work >= 0.0, "task work must be non-negative");
  TaskInfo& info = tasks_[id];
  info.work = work;
  info.span = work;
  info.output_changes = output_changes;
}

Work JobTrace::TotalWork(const std::vector<TaskId>& nodes) const {
  Work total = 0.0;
  for (const TaskId id : nodes) {
    total += Info(id).work;
  }
  return total;
}

}  // namespace dsched::trace
