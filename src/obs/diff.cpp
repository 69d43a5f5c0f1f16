#include "obs/diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"
#include "util/error.hpp"

namespace bpar::obs::diff {
namespace {

/// Parses a table cell like "1,770.76", "2.34x", "87.5%", "12 ms". Returns
/// false for non-numeric cells (labels, "n/a").
bool parse_cell(const std::string& cell, double* out) {
  std::string cleaned;
  cleaned.reserve(cell.size());
  for (const char c : cell) {
    if (c != ',') cleaned.push_back(c);
  }
  const char* begin = cleaned.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin || !std::isfinite(v)) return false;
  // Accept only unit-ish suffixes; reject "3rd column" style text.
  for (const char* p = end; *p != '\0'; ++p) {
    if (*p != ' ' && *p != 'x' && *p != '%' && *p != 'm' && *p != 's' &&
        *p != 'n' && *p != 'u' && *p != 'M' && *p != 'G' && *p != 'K') {
      return false;
    }
  }
  *out = v;
  return true;
}

double gbench_to_ns(double value, const std::string& unit) {
  if (unit == "s") return value * 1e9;
  if (unit == "ms") return value * 1e6;
  if (unit == "us") return value * 1e3;
  return value;  // "ns" and the gbench default
}

void flatten_tables(const JsonValue& tables, MetricMap& out) {
  for (const auto& [tname, table] : tables.object) {
    const JsonValue* header = table.find("header");
    const JsonValue* rows = table.find("rows");
    if (header == nullptr || !header->is_array() || rows == nullptr ||
        !rows->is_array()) {
      continue;
    }
    std::map<std::string, int> seen_keys;
    for (const JsonValue& row : rows->array) {
      if (!row.is_array() || row.array.empty() ||
          !row.array[0].is_string()) {
        continue;
      }
      std::string row_key = row.array[0].str;
      const int dup = seen_keys[row_key]++;
      if (dup > 0) row_key += "#" + std::to_string(dup);
      for (std::size_t c = 1;
           c < row.array.size() && c < header->array.size(); ++c) {
        if (!row.array[c].is_string()) continue;
        double value = 0.0;
        if (!parse_cell(row.array[c].str, &value)) continue;
        out["table/" + tname + "/" + row_key + "/" + header->array[c].str] =
            value;
      }
    }
  }
}

void flatten_scorecard(const JsonValue& scorecard, MetricMap& out) {
  for (const auto& [key, value] : scorecard.object) {
    if (!value.is_number()) continue;
    // Skip n/a sentinels and shape-style fields that are not performance.
    if (key == "workers" || key == "tasks") continue;
    if (value.number < 0) continue;
    out["analysis/" + key] = value.number;
  }
}

}  // namespace

bool is_higher_better(std::string_view key) {
  static constexpr std::string_view kHigherBetter[] = {
      "speedup",     "parallelism", "utilization", "hit_rate",
      "efficiency",  "gflops",      "throughput",  "ipc",
      "(rps)",
  };
  for (const std::string_view marker : kHigherBetter) {
    if (key.find(marker) != std::string_view::npos) return true;
  }
  // A table's `ok` column counts served requests; "ok" elsewhere in a key
  // (a benchmark name, say) marks nothing.
  const std::size_t slash = key.rfind('/');
  return key.substr(slash == std::string_view::npos ? 0 : slash + 1) == "ok";
}

MetricMap flatten(const JsonValue& doc) {
  MetricMap out;
  if (!doc.is_object()) {
    BPAR_RAISE(util::Error, "document is not a JSON object");
  }
  const JsonValue* type = doc.find("type");
  const std::string type_str =
      type != nullptr && type->is_string() ? type->str : "";
  if (type_str == "run_report") {
    if (const JsonValue* tables = doc.find("tables");
        tables != nullptr && tables->is_object()) {
      flatten_tables(*tables, out);
    }
    if (const JsonValue* analysis = doc.find("analysis");
        analysis != nullptr && analysis->is_object()) {
      if (const JsonValue* card = analysis->find("scorecard");
          card != nullptr && card->is_object()) {
        flatten_scorecard(*card, out);
      }
    }
    return out;
  }
  if (type_str == "bpar_prof_analysis") {
    if (const JsonValue* card = doc.find("scorecard");
        card != nullptr && card->is_object()) {
      flatten_scorecard(*card, out);
    }
    return out;
  }
  if (type_str == "bpar_prof_baseline") {
    return baseline_metrics(load_baseline(doc));
  }
  if (const JsonValue* benchmarks = doc.find("benchmarks");
      benchmarks != nullptr && benchmarks->is_array()) {
    for (const JsonValue& b : benchmarks->array) {
      const JsonValue* name = b.find("name");
      if (name == nullptr || !name->is_string()) continue;
      const JsonValue* unit = b.find("time_unit");
      const std::string u =
          unit != nullptr && unit->is_string() ? unit->str : "ns";
      for (const char* field : {"real_time", "cpu_time"}) {
        if (const JsonValue* v = b.find(field);
            v != nullptr && v->is_number()) {
          out["gbench/" + name->str + "/" + field] =
              gbench_to_ns(v->number, u);
        }
      }
    }
    return out;
  }
  BPAR_RAISE(util::Error, "unsupported document (type=",
             type_str.empty() ? "<missing>" : type_str,
             "); expected run_report, bpar_prof_analysis, "
             "bpar_prof_baseline, or google-benchmark JSON");
}

std::size_t DiffResult::regressions() const {
  std::size_t n = 0;
  for (const Delta& d : deltas) n += d.regression ? 1 : 0;
  return n;
}

std::size_t DiffResult::improvements() const {
  std::size_t n = 0;
  for (const Delta& d : deltas) n += d.improvement ? 1 : 0;
  return n;
}

int DiffResult::exit_code() const {
  if (structural) return 2;
  return regressions() > 0 ? 1 : 0;
}

DiffResult diff_maps(const MetricMap& old_map, const MetricMap& new_map,
                     const DiffOptions& options) {
  DiffResult result;
  for (const auto& [key, old_value] : old_map) {
    const auto it = new_map.find(key);
    if (it == new_map.end()) {
      result.only_old.push_back(key);
      continue;
    }
    Delta d;
    d.key = key;
    d.old_value = old_value;
    d.new_value = it->second;
    d.rel_change =
        old_value == 0.0 ? 0.0 : (d.new_value - old_value) / old_value;
    const bool higher_better = is_higher_better(key);
    const double abs_change = std::abs(d.new_value - old_value);
    const double abs_floor =
        higher_better ? options.abs_threshold_hb : options.abs_threshold;
    const bool significant =
        std::abs(d.rel_change) > options.rel_threshold &&
        abs_change > abs_floor;
    if (significant) {
      const bool got_worse = higher_better ? d.rel_change < 0
                                           : d.rel_change > 0;
      d.regression = got_worse;
      d.improvement = !got_worse;
    }
    result.deltas.push_back(d);
  }
  for (const auto& [key, value] : new_map) {
    if (old_map.find(key) == old_map.end()) result.only_new.push_back(key);
  }
  if (result.deltas.empty()) {
    result.structural = true;
    result.structural_reason =
        "no overlapping metrics between the two documents";
  }
  return result;
}

DiffResult diff_docs(const JsonValue& old_doc, const JsonValue& new_doc,
                     const DiffOptions& options) {
  MetricMap old_map;
  MetricMap new_map;
  try {
    old_map = flatten(old_doc);
    new_map = flatten(new_doc);
  } catch (const util::Error& e) {
    DiffResult result;
    result.structural = true;
    result.structural_reason = e.what();
    return result;
  }
  return diff_maps(old_map, new_map, options);
}

void print_diff(const DiffResult& result, std::ostream& os) {
  if (result.structural) {
    os << "STRUCTURAL MISMATCH: " << result.structural_reason << "\n";
    return;
  }
  const auto print_delta = [&os](const Delta& d, const char* tag) {
    os << "  " << tag << " " << d.key << ": " << d.old_value << " -> "
       << d.new_value << " (" << std::showpos << std::fixed
       << std::setprecision(1) << d.rel_change * 100.0 << "%"
       << std::noshowpos << std::defaultfloat << ")\n";
  };
  const std::size_t regressions = result.regressions();
  if (regressions > 0) {
    os << regressions << " regression(s):\n";
    for (const Delta& d : result.deltas) {
      if (d.regression) print_delta(d, "REGRESSION");
    }
  }
  if (result.improvements() > 0) {
    os << result.improvements() << " improvement(s):\n";
    for (const Delta& d : result.deltas) {
      if (d.improvement) print_delta(d, "improved  ");
    }
  }
  if (!result.only_old.empty()) {
    os << result.only_old.size() << " metric(s) only in old:\n";
    for (const std::string& k : result.only_old) os << "  - " << k << "\n";
  }
  if (!result.only_new.empty()) {
    os << result.only_new.size() << " metric(s) only in new:\n";
    for (const std::string& k : result.only_new) os << "  + " << k << "\n";
  }
  if (regressions == 0) {
    os << "OK: " << result.deltas.size() << " metric(s) compared, "
       << "no regressions\n";
  }
}

Baseline load_baseline(const JsonValue& doc) {
  const JsonValue* type = doc.find("type");
  if (type == nullptr || !type->is_string() ||
      type->str != "bpar_prof_baseline") {
    BPAR_RAISE(util::Error, "not a bpar_prof_baseline document");
  }
  Baseline baseline;
  if (const JsonValue* entries = doc.find("entries");
      entries != nullptr && entries->is_object()) {
    for (const auto& [key, entry] : entries->object) {
      if (!entry.is_object()) continue;
      const JsonValue* value = entry.find("value");
      if (value == nullptr || !value->is_number()) continue;
      BaselineEntry e;
      e.value = value->number;
      const JsonValue* runs = entry.find("runs");
      e.runs = runs != nullptr && runs->is_number()
                   ? static_cast<int>(runs->number)
                   : 1;
      baseline[key] = e;
    }
  }
  return baseline;
}

void merge_baseline(Baseline& baseline, const MetricMap& run) {
  for (const auto& [key, value] : run) {
    const auto it = baseline.find(key);
    if (it == baseline.end()) {
      baseline[key] = {value, 1};
      continue;
    }
    it->second.value = is_higher_better(key)
                           ? std::max(it->second.value, value)
                           : std::min(it->second.value, value);
    ++it->second.runs;
  }
}

MetricMap baseline_metrics(const Baseline& baseline) {
  MetricMap out;
  for (const auto& [key, entry] : baseline) out[key] = entry.value;
  return out;
}

std::string baseline_json(const Baseline& baseline) {
  std::string out =
      "{\"schema_version\": 1, \"type\": \"bpar_prof_baseline\",\n "
      "\"entries\": {";
  bool first = true;
  for (const auto& [key, entry] : baseline) {
    if (!first) out += ",";
    first = false;
    out += "\n  " + json_quote(key) + ": {\"value\": " +
           json_number(entry.value) +
           ", \"runs\": " + std::to_string(entry.runs) + "}";
  }
  out += baseline.empty() ? "}}\n" : "\n }}\n";
  return out;
}

}  // namespace bpar::obs::diff
