#include "taskrt/task_graph.hpp"

#include <algorithm>
#include <queue>

#include "util/check.hpp"

namespace bpar::taskrt {

const char* task_kind_name(TaskKind kind) {
  switch (kind) {
    case TaskKind::kGeneric:
      return "generic";
    case TaskKind::kCellForward:
      return "cell_fwd";
    case TaskKind::kCellBackward:
      return "cell_bwd";
    case TaskKind::kMerge:
      return "merge";
    case TaskKind::kMergeBackward:
      return "merge_bwd";
    case TaskKind::kLoss:
      return "loss";
    case TaskKind::kGradReduce:
      return "grad_reduce";
    case TaskKind::kWeightUpdate:
      return "weight_update";
    case TaskKind::kWeightGrad:
      return "weight_grad";
    case TaskKind::kGemmChunk:
      return "gemm_chunk";
    case TaskKind::kBarrier:
      return "barrier";
  }
  return "unknown";
}

TaskId TaskGraph::add(std::function<void()> fn,
                      std::span<const Access> accesses, TaskSpec spec) {
  const TaskId id = static_cast<TaskId>(tasks_.size());
  BPAR_CHECK(id != kInvalidTask, "task graph overflow");
  tasks_.emplace_back();
  Task& t = tasks_.back();
  t.fn = std::move(fn);
  t.spec = std::move(spec);

  scratch_preds_.clear();
  bool affinity_set = false;
  for (const Access& acc : accesses) {
    BPAR_CHECK(acc.addr != nullptr, "null dependency address in task ",
               t.spec.name);
    AddressState& state = address_table_[acc.addr];
    const bool reads =
        acc.mode == AccessMode::kIn || acc.mode == AccessMode::kInOut;
    const bool writes =
        acc.mode == AccessMode::kOut || acc.mode == AccessMode::kInOut;
    // A task may legally list the same address several times (or overlap
    // in/out on it); accesses to its own earlier effects never create
    // self-dependencies.
    if (reads) {
      if (state.last_writer != kInvalidTask && state.last_writer != id) {
        scratch_preds_.push_back(state.last_writer);
        if (!affinity_set) {
          t.affinity_pred = state.last_writer;
          affinity_set = true;
        }
      }
    }
    if (writes) {
      if (state.last_writer != kInvalidTask && state.last_writer != id) {
        scratch_preds_.push_back(state.last_writer);  // WAW
      }
      for (const TaskId reader : state.readers_since_write) {
        if (reader != id) scratch_preds_.push_back(reader);  // WAR
      }
      state.readers_since_write.clear();
      state.last_writer = id;
    } else if (reads) {
      state.readers_since_write.push_back(id);
    }
  }

  std::sort(scratch_preds_.begin(), scratch_preds_.end());
  scratch_preds_.erase(
      std::unique(scratch_preds_.begin(), scratch_preds_.end()),
      scratch_preds_.end());
  for (const TaskId pred : scratch_preds_) {
    tasks_[pred].successors.push_back(id);
  }
  t.num_deps = static_cast<std::uint32_t>(scratch_preds_.size());
  edge_count_ += scratch_preds_.size();
  return id;
}

std::size_t TaskGraph::critical_path_length() const {
  // Tasks are created in topological order, so a single forward pass works.
  std::vector<std::size_t> depth(tasks_.size(), 1);
  std::size_t best = tasks_.empty() ? 0 : 1;
  for (TaskId id = 0; id < tasks_.size(); ++id) {
    for (const TaskId succ : tasks_[id].successors) {
      depth[succ] = std::max(depth[succ], depth[id] + 1);
      best = std::max(best, depth[succ]);
    }
  }
  return best;
}

std::uint64_t TaskGraph::critical_path_cost(
    std::span<const std::uint64_t> cost_ns) const {
  BPAR_CHECK(cost_ns.size() == tasks_.size(), "cost vector size mismatch");
  std::vector<std::uint64_t> finish(tasks_.size());
  std::uint64_t best = 0;
  for (TaskId id = 0; id < tasks_.size(); ++id) {
    finish[id] += cost_ns[id];
    best = std::max(best, finish[id]);
    for (const TaskId succ : tasks_[id].successors) {
      finish[succ] = std::max(finish[succ], finish[id]);
    }
  }
  return best;
}

bool TaskGraph::reaches(TaskId pred, TaskId succ) const {
  if (pred >= succ) return pred == succ;
  std::vector<bool> seen(tasks_.size(), false);
  std::queue<TaskId> frontier;
  frontier.push(pred);
  seen[pred] = true;
  while (!frontier.empty()) {
    const TaskId cur = frontier.front();
    frontier.pop();
    for (const TaskId next : tasks_[cur].successors) {
      if (next == succ) return true;
      if (next <= succ && !seen[next]) {
        seen[next] = true;
        frontier.push(next);
      }
    }
  }
  return false;
}

void TaskGraph::seal() {
  address_table_.clear();
  address_table_.rehash(0);
  scratch_preds_.shrink_to_fit();
}

}  // namespace bpar::taskrt
