// Task graph with OmpSs/OpenMP-style address-based dependencies.
//
// This is the data structure behind B-Par's `#pragma omp task in(...)
// out(...)` annotations (paper Algorithms 1-3). Client code submits tasks
// together with the memory regions they read (`kIn`) and write (`kOut` /
// `kInOut`); the graph derives RAW, WAR, and WAW edges exactly like an
// OpenMP `depend` clause would:
//
//   * a reader depends on the last writer of each of its input addresses;
//   * a writer depends on the last writer AND on every reader that appeared
//     since that write (WAR), and then becomes the new last writer.
//
// Construction is sequential (matching the paper: the main thread walks
// Algorithms 2/3 creating tasks in topological order) and finishes before
// execution starts; execution is handled by `Runtime` (threaded) or
// `sim::Simulator` (discrete-event, for core counts this machine does not
// have).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace bpar::taskrt {

using TaskId = std::uint32_t;
inline constexpr TaskId kInvalidTask = std::numeric_limits<TaskId>::max();

enum class AccessMode { kIn, kOut, kInOut };

struct Access {
  const void* addr = nullptr;
  AccessMode mode = AccessMode::kIn;
};

inline Access in(const void* addr) { return {addr, AccessMode::kIn}; }
inline Access out(const void* addr) { return {addr, AccessMode::kOut}; }
inline Access inout(const void* addr) { return {addr, AccessMode::kInOut}; }

/// Task classification, used for statistics, tracing, and the simulator's
/// cost/cache models.
enum class TaskKind : std::uint8_t {
  kGeneric,
  kCellForward,   // one RNN cell update, forward propagation
  kCellBackward,  // one RNN cell update, backward propagation (BPTT)
  kMerge,         // Eq. 11 merge of forward/reverse outputs
  kMergeBackward,
  kLoss,
  kGradReduce,    // cross-mini-batch gradient reduction
  kWeightUpdate,
  kWeightGrad,    // BackwardWeights: one chain's (or the dense layer's) dW
  kGemmChunk,     // intra-op row chunk (baseline emulation)
  kBarrier,       // explicit per-layer barrier (baseline emulation)
};

inline constexpr std::size_t kNumTaskKinds =
    static_cast<std::size_t>(TaskKind::kBarrier) + 1;

[[nodiscard]] const char* task_kind_name(TaskKind kind);

struct TaskSpec {
  std::string name;                    // diagnostic label
  TaskKind kind = TaskKind::kGeneric;
  std::uint64_t cost_hint_ns = 0;      // simulator cost when not measured
  double flops = 0.0;                  // arithmetic work (simulator cost model)
  std::size_t working_set_bytes = 0;   // data the task touches (cache model)
  std::int32_t layer = -1;             // network layer, -1 if n/a
  std::int32_t step = -1;              // timestep, -1 if n/a
  std::int32_t replica = 0;            // mini-batch replica id
};

struct Task {
  std::function<void()> fn;
  TaskSpec spec;
  std::vector<TaskId> successors;
  std::uint32_t num_deps = 0;      // direct predecessors
  TaskId affinity_pred = kInvalidTask;  // producer of first input (locality)
};

class TaskGraph {
 public:
  TaskGraph() = default;
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;
  TaskGraph(TaskGraph&&) noexcept = default;
  TaskGraph& operator=(TaskGraph&&) noexcept = default;

  /// Adds a task; dependencies are resolved immediately against all
  /// previously added tasks. Returns the task's id (creation order). An
  /// empty access list makes an independent task that never touches the
  /// address table.
  TaskId add(std::function<void()> fn, std::span<const Access> accesses,
             TaskSpec spec = {});

  /// Convenience overload for initializer lists.
  TaskId add(std::function<void()> fn, std::initializer_list<Access> accesses,
             TaskSpec spec = {}) {
    return add(std::move(fn),
               std::span<const Access>(accesses.begin(), accesses.size()),
               std::move(spec));
  }

  [[nodiscard]] std::size_t size() const { return tasks_.size(); }
  [[nodiscard]] bool empty() const { return tasks_.empty(); }
  [[nodiscard]] const Task& task(TaskId id) const { return tasks_[id]; }
  [[nodiscard]] Task& task(TaskId id) { return tasks_[id]; }

  /// Total directed edges (for stats / tests).
  [[nodiscard]] std::size_t edge_count() const { return edge_count_; }

  /// Longest path length in tasks (unit weights). O(V+E).
  [[nodiscard]] std::size_t critical_path_length() const;

  /// Longest path using per-task weights (e.g. measured ns).
  [[nodiscard]] std::uint64_t critical_path_cost(
      std::span<const std::uint64_t> cost_ns) const;

  /// True if `pred` precedes `succ` transitively. O(V+E); test helper.
  [[nodiscard]] bool reaches(TaskId pred, TaskId succ) const;

  /// Releases the address bookkeeping used during construction (the graph
  /// stays executable). Call after the last add() on large graphs.
  void seal();

 private:
  struct AddressState {
    TaskId last_writer = kInvalidTask;
    std::vector<TaskId> readers_since_write;
  };

  // Deque: growing never moves a task, so large graphs build without
  // copying the tasks already added.
  std::deque<Task> tasks_;
  std::unordered_map<const void*, AddressState> address_table_;
  std::size_t edge_count_ = 0;
  // Scratch used in add() to dedup predecessor ids (cleared each call).
  std::vector<TaskId> scratch_preds_;
};

}  // namespace bpar::taskrt
