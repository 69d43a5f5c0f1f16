// Trace/report analysis engine (`bpar_prof` backend).
//
// PR 3 produced raw telemetry — Perfetto traces, metrics, RunReports —
// but nothing that answers questions with it. This module consumes a
// TraceModel (executed tasks with their start/finish samples, declared
// dependencies, and worker placement, plus park/fault spans) and computes:
//
//  * measured critical path — the longest duration-weighted chain through
//    *actually executed* tasks, with a per-(class, layer, direction)
//    breakdown of time on the chain. Comparing this against
//    TaskGraph::critical_path_cost (model weights) and the makespan shows
//    where reality diverges from the DAG's theoretical span (Naumov's
//    achieved-vs-theoretical parallelism framing);
//
//  * per-worker idle attribution — every gap in a worker's timeline is
//    classified as parked, fault (injected delay/stall), dependency-stall
//    (nothing was ready anywhere), or steal-failure (work was ready but
//    this worker could not obtain it). Precedence: parked > fault >
//    dependency-stall/steal-failure;
//
//  * a scheduler scorecard — achieved parallelism (Σwork / makespan), the
//    DAG bound (Σwork / critical path), utilization, load imbalance, steal
//    hit rate, and idle-class fractions — emitted as the "analysis"
//    section of a RunReport and as `bpar_prof analyze` output.
//
// TraceModels come from three sources: in-process RunStats
// (taskrt::make_trace_model), a simulated schedule (same function, sim
// trace), or a unified trace JSON re-parsed from disk
// (model_from_trace_json — task slices carry {task, deps, worker} args).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace bpar::obs {
class JsonValue;
class ChromeTraceWriter;
}  // namespace bpar::obs

namespace bpar::obs::analysis {

/// One executed task: timing samples, placement, and declared deps.
struct TaskRecord {
  std::uint32_t id = 0;
  std::string name;   // diagnostic label ("f0.3", "m2.17", ...)
  std::string klass;  // task-kind label ("cell_fwd", "merge", ...)
  int layer = -1;
  int step = -1;
  int worker = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::vector<std::uint32_t> preds;  // direct dependencies (task ids)

  [[nodiscard]] std::uint64_t duration_ns() const {
    return end_ns > start_ns ? end_ns - start_ns : 0;
  }
  /// 'f' / 'r' from the graph-builder name convention ("f0.3", "bf1.2",
  /// "r0.5", "br2.9"), '-' when the name does not encode a direction.
  [[nodiscard]] char direction() const;
};

/// A park or fault-injection interval on one worker's timeline.
struct WorkerSpan {
  int worker = -1;
  bool fault = false;  // false = parked, true = injected fault delay/stall
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Everything the analyses consume. Timestamps share one timebase; only
/// differences matter, so session-relative and shifted-absolute both work.
struct TraceModel {
  int num_workers = 0;
  std::vector<TaskRecord> tasks;
  std::vector<WorkerSpan> worker_spans;
  /// Optional scheduler counters ("steals", "steal_failures", "parks",
  /// "busy_ns", "idle_ns") for cross-checking against the runtime's own
  /// accounting. Empty when the source is a bare trace file.
  std::map<std::string, double> counters;

  /// [min task start, max task end] — the analysis window.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> window() const;
};

// ---- measured critical path ----

struct ClassBreakdownRow {
  std::string klass;
  int layer = -1;
  char direction = '-';
  std::uint64_t total_ns = 0;
  std::size_t tasks = 0;
};

struct CriticalPath {
  std::uint64_t measured_ns = 0;  // Σ durations along the longest dep chain
  std::uint64_t makespan_ns = 0;  // analysis-window length
  std::size_t length = 0;         // tasks on the chain
  std::vector<std::uint32_t> chain;             // source → sink task ids
  std::vector<ClassBreakdownRow> by_class;      // chain time per class
  /// makespan / measured critical path: 1.0 = the schedule was span-bound;
  /// larger = time lost to resources, scheduling, or imbalance.
  [[nodiscard]] double stretch() const {
    return measured_ns == 0
               ? 0.0
               : static_cast<double>(makespan_ns) /
                     static_cast<double>(measured_ns);
  }
};

/// Longest duration-weighted dependency chain. Throws util::Error on a
/// dangling pred id or a dependency cycle.
[[nodiscard]] CriticalPath critical_path(const TraceModel& model);

// ---- idle attribution ----

struct IdleBreakdown {
  std::uint64_t busy_ns = 0;
  std::uint64_t dep_stall_ns = 0;   // nothing was ready anywhere
  std::uint64_t steal_fail_ns = 0;  // work was ready, not obtained
  std::uint64_t parked_ns = 0;      // inside a recorded park span
  std::uint64_t fault_ns = 0;       // inside an injected-fault span

  [[nodiscard]] std::uint64_t idle_ns() const {
    return dep_stall_ns + steal_fail_ns + parked_ns + fault_ns;
  }
  IdleBreakdown& operator+=(const IdleBreakdown& other);
};

struct IdleAttribution {
  IdleBreakdown total;
  std::vector<IdleBreakdown> per_worker;  // indexed by worker id
};

/// Reconstructs each worker's timeline over the analysis window and
/// classifies every gap (see file comment for the taxonomy).
[[nodiscard]] IdleAttribution attribute_idle(const TraceModel& model);

// ---- scheduler scorecard ----

struct Scorecard {
  int workers = 0;
  std::size_t tasks = 0;
  std::uint64_t makespan_ns = 0;
  std::uint64_t total_work_ns = 0;       // Σ task durations
  std::uint64_t critical_path_ns = 0;    // measured (this trace)
  std::uint64_t model_critical_path_ns = 0;  // TaskGraph cost model, 0 = n/a
  double achieved_parallelism = 0.0;  // Σwork / makespan
  double max_parallelism = 0.0;       // Σwork / critical path (DAG bound)
  double utilization = 0.0;           // Σwork / (workers × makespan)
  double load_imbalance = 0.0;        // max worker busy / mean worker busy
  double steal_hit_rate = -1.0;       // steals/(steals+failures); -1 = n/a
  // Idle-class share of total capacity (workers × makespan).
  double dep_stall_frac = 0.0;
  double steal_fail_frac = 0.0;
  double parked_frac = 0.0;
  double fault_frac = 0.0;
  /// Runtime's own busy/(busy+idle) from counters; -1 when absent. The
  /// acceptance check: |utilization - runtime_efficiency| small.
  double runtime_efficiency = -1.0;
};

/// Per-task-class hardware-counter attribution (RuntimeOptions::
/// sample_counters). Plain doubles so the obs layer stays perf-free.
struct ClassHwRow {
  std::string klass;
  std::size_t tasks = 0;
  std::uint64_t busy_ns = 0;
  double ipc = 0.0;
  double mpki = 0.0;
  double branch_mpki = 0.0;
  double llc_miss_rate = 0.0;
  double scale = 1.0;  // multiplexing factor (see perf::CounterSample)
};

struct Analysis {
  CriticalPath cp;
  IdleAttribution idle;
  Scorecard card;
  std::vector<ClassHwRow> hw;  // empty unless counters were sampled
};

[[nodiscard]] Scorecard make_scorecard(const TraceModel& model,
                                       const CriticalPath& cp,
                                       const IdleAttribution& idle);

/// critical_path + attribute_idle + make_scorecard in one call.
/// `model_critical_path_ns` (e.g. TaskGraph::critical_path_cost over the
/// measured durations or modeled costs) lands in the scorecard when given.
[[nodiscard]] Analysis analyze(const TraceModel& model,
                               std::uint64_t model_critical_path_ns = 0);

// ---- I/O (analysis_io.cpp) ----

/// Parses a unified/chrome trace JSON document (as emitted by
/// taskrt::write_unified_trace or write_model_trace) into a TraceModel.
/// Only task slices carrying an "args.task" id participate; park/fault
/// spans are matched from worker-labeled rows. Throws util::Error when the
/// document is not a chrome-trace array or contains no task slices.
[[nodiscard]] TraceModel model_from_trace_json(const JsonValue& doc);

/// Renders the analysis as one JSON object:
/// {"schema_version":1,"type":"bpar_prof_analysis","scorecard":{...},
///  "critical_path":{...},"idle":{...},"hw_classes":[...]}.
[[nodiscard]] std::string to_json(const Analysis& analysis);

/// Human-readable scorecard/critical-path/idle tables (the CLI output).
void print_human(const Analysis& analysis, std::ostream& os);

/// Emits the model's task slices (with {task, deps, worker, layer, step}
/// args) and park/fault spans through `writer` — the analysis-consumable
/// half of a unified trace document.
void write_model_events(ChromeTraceWriter& writer, const TraceModel& model,
                        int pid);

}  // namespace bpar::obs::analysis
