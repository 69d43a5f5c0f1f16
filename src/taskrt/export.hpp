// Diagnostics exports for task graphs and executions:
//  * Graphviz DOT of a TaskGraph (colored by task kind, grouped by layer),
//    like the paper's Fig. 2 dependency diagrams;
//  * Chrome-tracing JSON ("chrome://tracing" / Perfetto) of a recorded
//    RunStats trace, one row per worker, merged with the obs spans.
#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "obs/analysis.hpp"
#include "taskrt/runtime.hpp"
#include "taskrt/task_graph.hpp"

namespace bpar::taskrt {

struct DotOptions {
  /// Cap on emitted tasks (large graphs become unreadable); 0 = no cap.
  std::size_t max_tasks = 2000;
  bool include_names = true;
};

/// Writes the graph in Graphviz DOT format.
void write_dot(const TaskGraph& graph, std::ostream& os,
               const DotOptions& options = {});
void write_dot_file(const TaskGraph& graph, const std::string& path,
                    const DotOptions& options = {});

/// One merged chrome-trace document: fully named task slices from a
/// recorded RunStats trace (one row per worker) plus every obs span,
/// counter, and instant collected so far (one row per recording thread) on
/// a single shared timeline; `bpar_prof analyze` reads it back. Requires
/// record_trace; spans require tracing to have been enabled during the run.
/// The serving engine's request-stage markers are keyed instants in those
/// rings, so they land on the rows of the threads that recorded them.
void write_unified_trace(const TaskGraph& graph, const RunStats& stats,
                         std::ostream& os);
void write_unified_trace_file(const TaskGraph& graph, const RunStats& stats,
                              const std::string& path);

/// Direct predecessor lists, reconstructed by inverting the graph's
/// successor edges. Index = TaskId.
[[nodiscard]] std::vector<std::vector<TaskId>> predecessor_lists(
    const TaskGraph& graph);

/// Builds an analysis TraceModel from a recorded run: tasks with measured
/// timing + declared deps + worker placement, park/fault spans harvested
/// from the obs rings ("worker N" threads), and the runtime's scheduler
/// counters for cross-checking. Requires record_trace.
[[nodiscard]] obs::analysis::TraceModel make_trace_model(
    const TaskGraph& graph, const RunStats& stats);

/// Same, from a bare (start, end, worker) tuple span — how simulated
/// B-Par schedules (sim::SimResult::trace) become analyzable. No spans or
/// counters; `num_workers` sizes the worker set (0 → max worker id + 1).
[[nodiscard]] obs::analysis::TraceModel make_trace_model(
    const TaskGraph& graph, std::span<const TaskTrace> trace,
    int num_workers);

/// RunStats::kind_counters rendered as analysis rows (one per sampled
/// kind); empty when counters were not sampled or perf was unavailable.
[[nodiscard]] std::vector<obs::analysis::ClassHwRow> hw_class_rows(
    const RunStats& stats);

}  // namespace bpar::taskrt
