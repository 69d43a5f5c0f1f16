// Threaded execution of a TaskGraph — the run-time system software of the
// paper's §III-B: a worker pool consuming ready tasks whose dependencies
// are fulfilled.
//
// run(graph) is the only way to execute tasks, and the graph it runs is
// sealed: nothing adds a task or an edge while workers execute it. The
// paper's run-time graph adjustment for variable sequence lengths (§III-B)
// happens above the runtime — BParExecutor builds and caches one graph per
// (length, rows) shape and runs the one that matches each call.
//
// Two scheduling policies (paper §IV-A):
//  * kFifo — a single global FIFO ready queue ("breadth-first"), no
//    locality: any idle worker takes the oldest ready task.
//  * kLocalityAware — when a task completes, ready successors whose primary
//    input was produced by that task are pushed onto the producing worker's
//    own deque, so consumers run where their data is cache-hot; idle
//    workers fall back to the global queue, then steal from the *cold* top
//    end of sibling deques (never a deque's last entry — that one stays
//    reserved for its cache-hot owner).
//
// The dispatch hot path is lock-free (see DESIGN.md §task-runtime):
// per-worker Chase-Lev deques (owner pushes/pops bottom, thieves steal
// top), a lock-free segmented MPMC FIFO for the global queue, atomic
// per-task dependency counters, and an atomic executed counter that run()
// waits on. Idle workers park on a condition variable only after repeated
// failed steal sweeps; producers wake them only when sleepers are
// registered. The mutex `mu_` is taken only for session setup, error
// capture, and run()'s blocking wait.
//
// Workers are persistent across runs. Tasks may throw: the first exception
// is captured and rethrown from run() after the graph drains.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "perf/perf_events.hpp"
#include "taskrt/fault.hpp"
#include "taskrt/ready_fifo.hpp"
#include "taskrt/task_graph.hpp"
#include "taskrt/work_steal_deque.hpp"

namespace bpar::taskrt {

enum class SchedulerPolicy { kFifo, kLocalityAware };

[[nodiscard]] const char* scheduler_policy_name(SchedulerPolicy policy);

struct RuntimeOptions {
  int num_workers = 0;  // 0 → hardware_concurrency()
  SchedulerPolicy policy = SchedulerPolicy::kLocalityAware;
  bool record_trace = false;  // keep per-task (start, end, worker) tuples
  /// Watchdog deadline: if no task completes for this long while the graph
  /// is undrained, run() throws WatchdogError carrying a scheduler-state
  /// dump instead of hanging. 0 disables. Must exceed the longest
  /// individual task.
  std::uint32_t watchdog_ms = 0;
  /// Deterministic fault injection (see fault.hpp). Disabled by default;
  /// when disabled here, the BPAR_FAULTS environment variable is consulted.
  FaultSpec faults{};
  /// Per-task-class hardware counters: every worker opens thread-scope
  /// perf events and slices one running session into per-task deltas
  /// (RunStats::kind_counters). No-op when perf_event_open is denied —
  /// kind_counters stays empty and execution proceeds normally.
  bool sample_counters = false;
};

struct TaskTrace {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t worker = -1;
};

struct RunStats {
  std::uint64_t wall_ns = 0;
  std::size_t tasks_executed = 0;
  std::size_t tasks_with_affinity = 0;
  std::size_t locality_hits = 0;  // ran on the preferred (producer's) worker
  // Scheduler pressure counters (also published to the obs metrics
  // registry under the "taskrt." prefix at the end of each run()).
  std::size_t steals = 0;          // successful steals from sibling deques
  std::size_t steal_failures = 0;  // full sweeps that found nothing
  std::size_t parks = 0;           // times a worker went to sleep
  std::size_t fifo_pushes = 0;     // ready tasks routed to the global FIFO
  std::size_t deque_pushes = 0;    // ready tasks routed to a local deque
  /// Session start in absolute steady-clock ns — the offset that aligns
  /// `trace` (session-relative) with obs span timestamps (absolute).
  std::uint64_t session_start_ns = 0;
  std::vector<std::uint64_t> task_duration_ns;   // indexed by TaskId
  std::vector<std::uint64_t> worker_busy_ns;     // indexed by worker
  std::vector<TaskTrace> trace;                  // empty unless record_trace

  /// Hardware counters attributed to one task kind (summed over every
  /// sampled task body of that kind, multiplex-scaled per interval).
  struct KindCounters {
    std::size_t tasks = 0;         // task bodies sampled
    std::uint64_t busy_ns = 0;     // their summed duration
    perf::CounterSample counters;
  };
  /// Indexed by TaskKind; empty unless RuntimeOptions::sample_counters was
  /// set AND at least one worker's perf events opened.
  std::vector<KindCounters> kind_counters;

  [[nodiscard]] double wall_ms() const {
    return static_cast<double>(wall_ns) / 1e6;
  }
  /// Sum of task durations / (workers * wall) — parallel efficiency.
  [[nodiscard]] double parallel_efficiency() const;
  [[nodiscard]] std::uint64_t total_busy_ns() const;
};

class Runtime {
 public:
  explicit Runtime(RuntimeOptions options = {});
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Executes every task in `graph`, respecting dependencies. Blocking.
  /// The graph must not change during the call; it can be re-run
  /// (execution state is external to the graph). Rethrows the first task
  /// exception once the graph has drained.
  RunStats run(TaskGraph& graph);

  [[nodiscard]] int num_workers() const { return num_workers_; }

  /// The active fault injector, or nullptr when injection is disabled.
  [[nodiscard]] FaultInjector* fault_injector() {
    return fault_injector_.get();
  }

  /// True once a watchdog failure left the graph undrained (workers may be
  /// wedged): the next run() will BPAR_CHECK-fail. Owners that want to
  /// keep serving must discard this runtime and build a fresh one — the
  /// serving engine's rebuild_executor() path. Call between runs only.
  [[nodiscard]] bool poisoned() const { return poisoned_; }

  /// Human-readable scheduler state (deque depths, FIFO cursors, pending
  /// histogram, oldest unfinished task) — what WatchdogError::what()
  /// carries. Callable any time; outside run() it reports that.
  [[nodiscard]] std::string scheduler_state_dump();

 private:
  // Per-task execution state, separate from the graph so a graph can be
  // re-run. Cache-line sized: adjacent tasks' counters never false-share.
  struct alignas(64) TaskState {
    std::atomic<std::uint32_t> pending{0};    // unmet dependencies
    std::atomic<std::int32_t> preferred{-1};  // locality hint (worker id)
    std::atomic<bool> done{false};  // relaxed; read by the watchdog dump only
    const Task* task = nullptr;      // stable (deque storage in TaskGraph)
    TaskId affinity = kInvalidTask;  // copy of task->affinity_pred
    std::uint64_t duration_ns = 0;   // written by the executing worker only
    TaskTrace trace;
  };

  // Everything one worker touches every task, padded apart from siblings.
  struct alignas(64) Worker {
    WorkStealingDeque deque;
    std::uint64_t busy_ns = 0;
    std::uint32_t trace_tick = 0;  // queue-depth counter sampling phase
    // Thread-scope PMU, created (and only ever touched) by the owning
    // worker thread at loop entry when sample_counters is on.
    std::unique_ptr<perf::PerfCounters> pmu;
    std::vector<RunStats::KindCounters> kind_counters;  // by TaskKind
  };

  void worker_loop(int worker_id);
  /// Finds the next task for `worker_id`: own deque, global FIFO, then a
  /// steal sweep; parks after repeated failures. kInvalidTask ⇒ shutdown.
  TaskId next_task(int worker_id);
  void execute_task(TaskId id, int worker_id);
  /// Routes a ready task: producer's own deque when the locality hint says
  /// so (`from_worker` is the enqueuing worker, -1 for the main thread),
  /// else the global FIFO. Wakes a parked worker if any.
  void enqueue_ready(TaskId id, int from_worker);
  /// Resets the session counters and every task's state for `graph`, then
  /// enqueues its roots. Caller holds mu_; every worker is idle.
  void start_session(TaskGraph& graph);
  void notify_workers();
  [[nodiscard]] bool has_visible_work(int worker_id) const;
  std::uint64_t now_ns() const;
  /// Blocks until executed == the session's task count. With a watchdog
  /// configured, fires on no-progress deadlines: captures diagnostics,
  /// releases injected stalls, and throws WatchdogError (closing the
  /// session; the runtime is poisoned if the graph still does not drain).
  /// Caller holds `lock`.
  void wait_drained(std::unique_lock<std::mutex>& lock);
  /// Diagnostic text; caller holds mu_ and a session is active.
  [[nodiscard]] std::string dump_locked(const std::string& headline);

  RuntimeOptions options_;
  int num_workers_;
  int steal_min_keep_;  // 1 under kLocalityAware (reserve the hot entry)
  std::unique_ptr<FaultInjector> fault_injector_;  // null when disabled

  // Pre-interned obs trace name ids (resolved once at construction so the
  // hot path never touches the intern table): task rows are labeled by
  // TaskKind, counter tracks sample queue depths per completion.
  std::uint16_t obs_kind_ids_[kNumTaskKinds] = {};
  std::uint16_t obs_fifo_depth_id_ = 0;
  std::uint16_t obs_steal_id_ = 0;
  std::uint16_t obs_park_id_ = 0;
  std::uint16_t obs_fault_id_ = 0;
  std::uint16_t obs_taskwait_id_ = 0;
  std::vector<std::uint16_t> obs_deque_depth_ids_;

  // --- cold path: session setup, blocking waits, error capture ---
  std::mutex mu_;
  std::condition_variable done_cv_;
  bool session_active_ = false;  // guarded by mu_
  bool poisoned_ = false;  // watchdog fired and the graph never drained
  TaskGraph* graph_ = nullptr;   // guarded by mu_
  std::exception_ptr first_error_;  // guarded by mu_
  std::size_t tasks_with_affinity_ = 0;  // main thread only
  std::chrono::steady_clock::time_point session_start_;
  // One state per task, grown (never shrunk) to the largest graph run so
  // far. Reallocated only at the quiescent start of run(), under mu_.
  std::unique_ptr<TaskState[]> states_;
  std::size_t state_capacity_ = 0;

  // --- parking lot ---
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::atomic<std::uint64_t> park_epoch_{0};
  std::atomic<std::int32_t> sleepers_{0};
  std::atomic<bool> shutdown_{false};

  // --- lock-free steady state ---
  alignas(64) std::atomic<std::size_t> executed_{0};
  alignas(64) std::atomic<std::size_t> total_{0};  // tasks in the session
  alignas(64) std::atomic<std::size_t> locality_hits_{0};
  std::atomic<std::size_t> steals_{0};
  std::atomic<std::size_t> steal_failures_{0};
  std::atomic<std::size_t> parks_{0};
  std::atomic<std::size_t> fifo_pushes_{0};
  std::atomic<std::size_t> deque_pushes_{0};
  std::atomic<std::int32_t> pmu_workers_{0};  // workers whose PMU opened
  std::uint64_t session_start_steady_ns_ = 0;  // main thread only
  ReadyFifo ready_fifo_;
  std::unique_ptr<Worker[]> workers_;
  std::vector<std::thread> threads_;
};

}  // namespace bpar::taskrt
