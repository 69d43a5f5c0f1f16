// Discrete-event simulator: executes a TaskGraph on P virtual cores.
//
// This is the hardware substitution documented in DESIGN.md §4 — the
// harness machine has a single physical core, so multi-core scalability
// numbers are produced by replaying the *exact* task DAG (same dependency
// edges; taskrt::Runtime's locality-aware policy or the paper's FIFO
// baseline) on a modeled dual-socket Xeon (sim::MachineModel), with
// per-task costs either measured from real single-core execution of the
// same task bodies or derived from the roofline cost model.
//
// The simulator also produces the cache-behaviour proxies of the Fig. 7
// study: per-socket L3 residency decides whether a consumer task finds its
// producer's output cache-hot (discounted cost, high IPC, low MPKI) or has
// to stream from DRAM / the remote socket (NUMA penalty).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "obs/histogram.hpp"
#include "sim/machine.hpp"
#include "taskrt/runtime.hpp"
#include "taskrt/task_graph.hpp"

namespace bpar::sim {

/// The two schedules of the paper's Fig. 7. kLocalityAware models
/// taskrt::Runtime's one policy (see simulator.cpp for where the model
/// differs); kFifo is the paper's breadth-first baseline: one global queue,
/// no locality.
enum class SchedulerPolicy { kFifo, kLocalityAware };

[[nodiscard]] const char* scheduler_policy_name(SchedulerPolicy policy);

struct SimOptions {
  MachineModel machine{};
  SchedulerPolicy policy = SchedulerPolicy::kFifo;
  int cores = 0;  // 0 → machine.cores
  /// Record per-task (start, end, core) tuples — taskrt::make_trace_model
  /// turns them into an analysis model, which
  /// obs::analysis::write_model_events renders as a trace.
  bool record_trace = false;
};

struct KindBreakdown {
  std::size_t count = 0;
  double total_ms = 0.0;
};

struct SimResult {
  double makespan_ms = 0.0;
  double total_busy_ms = 0.0;
  double parallel_efficiency = 0.0;  // busy / (cores * makespan)
  int cores = 0;

  int max_concurrency = 0;
  double avg_concurrency = 0.0;  // time-weighted mean of running tasks

  std::size_t tasks = 0;
  std::size_t tasks_with_affinity = 0;
  std::size_t locality_hits = 0;       // ran on their producer's core
  std::size_t cache_hot_tasks = 0;     // primary input L3-resident at start
  std::size_t numa_remote_tasks = 0;   // primary input on the other socket

  double avg_ipc = 0.0;   // time-weighted
  double avg_mpki = 0.0;  // time-weighted
  obs::Histogram ipc_hist{{0.5, 1.0, 1.5, 2.0}};
  obs::Histogram mpki_hist{{10.0, 20.0, 30.0}};

  double peak_working_set_bytes = 0.0;  // max over time of sum of running WS
  double avg_working_set_bytes = 0.0;   // time-weighted

  std::vector<KindBreakdown> by_kind;  // indexed by TaskKind value

  /// Simulated schedule (empty unless SimOptions::record_trace).
  std::vector<taskrt::TaskTrace> trace;

  [[nodiscard]] double locality_hit_rate() const {
    return tasks_with_affinity == 0
               ? 0.0
               : static_cast<double>(locality_hits) /
                     static_cast<double>(tasks_with_affinity);
  }
};

class Simulator {
 public:
  explicit Simulator(SimOptions options);

  /// Simulates `graph` with the given per-task costs (ns, one per task).
  [[nodiscard]] SimResult run(const taskrt::TaskGraph& graph,
                              std::span<const std::uint64_t> cost_ns) const;

 private:
  SimOptions options_;
};

}  // namespace bpar::sim
