// Noise-aware performance diffing for bpar_prof.
//
// Any supported JSON document (RunReport, google-benchmark output,
// bpar_prof analysis, or a saved baseline) flattens to a metric map
// (key -> number); two maps diff with direction-aware thresholds. A change
// only counts as a regression when it clears BOTH a relative threshold and
// an absolute floor — re-running an unchanged build on a noisy machine
// must come back clean (the ±noise acceptance test).
//
// Flattened key shapes:
//   table/<table>/<row-key>/<column>   RunReport table cells (numeric)
//   analysis/<field>                   scorecard fields
//   gbench/<benchmark>/<real|cpu>_time google-benchmark, normalized to ns
//
// Baselines (bench_results/baseline.json) store min-of-N per key: merging
// a fresh run keeps the best value seen (min for lower-is-better metrics,
// max for higher-is-better), so the baseline converges to the machine's
// noise floor instead of chasing one lucky or unlucky run.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace bpar::obs {
class JsonValue;
}

namespace bpar::obs::diff {

using MetricMap = std::map<std::string, double>;

/// True for metrics where larger is better (speedup, parallelism,
/// utilization, request rates marked "(rps)", a table's `ok` column, ...);
/// false for times and counts, where smaller is better.
[[nodiscard]] bool is_higher_better(std::string_view key);

/// Flattens a supported document into a metric map. Throws util::Error on
/// an unrecognized document shape (the structural, exit-2 failure).
[[nodiscard]] MetricMap flatten(const JsonValue& doc);

struct DiffOptions {
  /// Fractional change that matters (0.15 = 15%).
  double rel_threshold = 0.15;
  /// Absolute floor for lower-is-better metrics (ms-scale numbers): a
  /// 20% jump on a 0.1 ms row is noise, not a regression.
  double abs_threshold = 0.5;
  /// Absolute floor for higher-is-better metrics (ratio-scale numbers).
  double abs_threshold_hb = 0.05;
};

struct Delta {
  std::string key;
  double old_value = 0.0;
  double new_value = 0.0;
  double rel_change = 0.0;  // (new-old)/old, sign as stored
  bool regression = false;
  bool improvement = false;
};

struct DiffResult {
  std::vector<Delta> deltas;          // keys present on both sides
  std::vector<std::string> only_old;  // dropped metrics
  std::vector<std::string> only_new;  // added metrics
  bool structural = false;  // documents not comparable at all
  std::string structural_reason;

  [[nodiscard]] std::size_t regressions() const;
  [[nodiscard]] std::size_t improvements() const;
  /// 0 = clean, 1 = performance regressions, 2 = structural mismatch.
  [[nodiscard]] int exit_code() const;
};

[[nodiscard]] DiffResult diff_maps(const MetricMap& old_map,
                                   const MetricMap& new_map,
                                   const DiffOptions& options = {});

/// flatten() both sides (structural errors become exit-2 results rather
/// than exceptions) and diff.
[[nodiscard]] DiffResult diff_docs(const JsonValue& old_doc,
                                   const JsonValue& new_doc,
                                   const DiffOptions& options = {});

/// Renders regressions/improvements/changed-key-set tables.
void print_diff(const DiffResult& result, std::ostream& os);

// ---- baselines ----

struct BaselineEntry {
  double value = 0.0;
  int runs = 0;  // how many runs were merged into this entry
};

using Baseline = std::map<std::string, BaselineEntry>;

/// Parses a {"type":"bpar_prof_baseline"} document. Throws util::Error on
/// anything else.
[[nodiscard]] Baseline load_baseline(const JsonValue& doc);

/// Min-of-N merge: keeps the best value per key (min for lower-is-better,
/// max for higher-is-better) and bumps the run count. New keys enter with
/// the run's value.
void merge_baseline(Baseline& baseline, const MetricMap& run);

/// Baseline as a MetricMap (for diffing a run against it).
[[nodiscard]] MetricMap baseline_metrics(const Baseline& baseline);

/// Serializes as a bpar_prof_baseline JSON document.
[[nodiscard]] std::string baseline_json(const Baseline& baseline);

}  // namespace bpar::obs::diff
