// bpar_bench internals shared by the orchestrating parent (bpar_bench.cpp),
// the four workloads (workloads.cpp) and the traced per-layer derivation
// (layers.cpp). See README.md for the workloads, metrics and protocol.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/json.hpp"
#include "taskrt/task_graph.hpp"

namespace bench_e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> samples);

/// The raw measurements behind the end-to-end metrics of one untraced
/// child. The parent pools them over all children of a run, so a run's p50
/// is the p50 of every operation it measured, not a vote among children.
struct EndToEnd {
  std::vector<double> latency_ms;  // one per measured operation
  std::vector<double> setup_s;     // one per timed set-up
  double units = 0.0;    // what throughput_per_s counts: sequences, calls
  double seconds = 0.0;  // or kOk answers, and the time they took
  double rss_peak_mb = 0.0;
};

/// What one child process measured for one workload.
struct ChildResult {
  EndToEnd e2e;  // untraced children
  /// Traced children: metric name → value, exactly the BENCHMARK.json
  /// per_layer names.
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;   // operations issued in the measured phase
  std::uint64_t failed = 0;      // errors + reference mismatches
  std::uint64_t mismatches = 0;  // outputs that disagree with the reference
  /// Workload-specific detail (one JSON object): configuration, pass
  /// signatures, serving staircase, per-(layer, direction, class) table.
  std::string detail_json = "{}";
};

struct ChildOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured phase of this child
  bool traced = false;
  bool smoke = false;
  std::string out_dir;    // traced artifacts (unified trace per workload)
};

/// Timed set-ups of a child; setup_s is their median. A traced or smoke
/// child reports no setup_s and sets up once.
[[nodiscard]] inline int timed_setups(const ChildOptions& options) {
  return options.traced || options.smoke ? 1 : 3;
}

struct WorkloadInfo {
  std::string name;
  /// Child processes per run. On a shared host, per-process effects
  /// (thread placement, physical page layout) move a child's latency by up
  /// to ±30%, so workloads made of short operations run many short
  /// children. train-blstm (0.26 s steps, costly set-up, children within
  /// 1% of each other) runs three; serve-mixed (children ±10% apart) runs
  /// six, which leaves its nominal and top steps over a second each at
  /// --seconds 20.
  int children = 3;
};

/// The workloads, in the order `--workload all` runs them.
[[nodiscard]] const std::vector<WorkloadInfo>& workloads();

/// Runs `workload` in this process. Throws util::Error on misuse.
[[nodiscard]] ChildResult run_workload(const std::string& workload,
                                       const ChildOptions& options);

/// Accumulates the per-layer view of traced executor calls: per-class
/// kernel rates, scheduler scorecards and critical-path attribution from
/// obs::analysis, plus the per-(layer, direction, class) busy table.
class LayerStats {
 public:
  /// One executed graph. `model` comes from taskrt::make_trace_model (or a
  /// re-parsed unified trace); task ids index `graph`.
  void add(const bpar::taskrt::TaskGraph& graph,
           const bpar::obs::analysis::TraceModel& model);

  /// kernels.*, taskrt scorecard fractions and cp.* into `out`.
  void emit(double host_gemm_gflops, std::map<std::string, double>& out) const;
  /// {"calls", "layers": [{class, layer, dir, tasks_per_call,
  /// busy_ms_per_call, gflops}], "critical_path": [{class, layer, dir,
  /// ms_per_call}]} — the full table behind the named metrics.
  [[nodiscard]] std::string table_json() const;

 private:
  struct Cell {
    std::uint64_t tasks = 0;
    std::uint64_t busy_ns = 0;
    double flops = 0.0;
  };
  using Key = std::tuple<std::string, int, char>;  // class, layer, direction

  std::size_t calls_ = 0;
  std::map<Key, Cell> busy_;
  std::map<Key, std::uint64_t> cp_ns_;
  double achieved_ = 0.0;
  double dag_ = 0.0;
  double stretch_ = 0.0;
  double dep_stall_ = 0.0;
  double parked_ = 0.0;
  double steal_fail_ns_ = 0.0;
  double cp_total_ns_ = 0.0;
  std::uint64_t tasks_ = 0;
};

/// Scheduler counters read from the process-wide obs registry; the runtime
/// adds to them at the end of every session, so a difference of two
/// snapshots covers every executor call in between.
struct RuntimeCounters {
  double sessions = 0, tasks = 0, steals = 0, locality_hits = 0,
         busy_ns = 0, idle_ns = 0;
  [[nodiscard]] static RuntimeCounters read();
  [[nodiscard]] RuntimeCounters operator-(const RuntimeCounters& o) const;
  /// taskrt.utilization, taskrt.steals_per_call, taskrt.locality_hit_frac.
  void emit(std::map<std::string, double>& out) const;
};

/// Reads and parses a JSON file; throws util::Error when it cannot.
[[nodiscard]] bpar::obs::JsonValue read_json_file(const std::string& path);

/// Parses a unified trace the way `bpar_prof analyze` does; throws on a
/// trace that tool would reject.
[[nodiscard]] bpar::obs::analysis::TraceModel load_trace_model(
    const std::string& path);

}  // namespace bench_e2e
