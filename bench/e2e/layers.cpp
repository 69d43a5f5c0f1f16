// Per-layer derivation for the traced run: everything here reads RunStats-
// derived trace models and the obs registry; nothing is instrumented inside
// the library.
#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#include "bench.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace bench_e2e {

namespace analysis = bpar::obs::analysis;

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

namespace {

// Task classes behind the named kernels.<group>.* metrics. Forward cells and
// the layer-0 input GEMMs exist in every workload; "other" (backward cells,
// merges, losses, reductions, coarsened chains) is the rest. The full
// per-class split is in the per-(layer, direction, class) table.
struct KernelGroup {
  const char* metric;
  std::set<std::string> classes;  // empty: every class not listed before
};

const std::vector<KernelGroup>& kernel_groups() {
  static const std::vector<KernelGroup> groups = {
      {"cell_fwd", {"cell_fwd", "cell_fwd_fused"}},
      {"input_precompute", {"input_precompute"}},
      {"other", {}},
  };
  return groups;
}

bool in_group(const KernelGroup& group, const std::string& klass) {
  if (!group.classes.empty()) return group.classes.count(klass) > 0;
  for (const KernelGroup& g : kernel_groups()) {
    if (g.classes.count(klass) > 0) return false;
  }
  return true;
}

}  // namespace

void LayerStats::add(const bpar::taskrt::TaskGraph& graph,
                     const analysis::TraceModel& model) {
  ++calls_;
  for (const analysis::TaskRecord& rec : model.tasks) {
    Cell& cell = busy_[Key{rec.klass, rec.layer, rec.direction()}];
    cell.tasks += 1;
    cell.busy_ns += rec.duration_ns();
    if (rec.id < graph.size()) cell.flops += graph.task(rec.id).spec.flops;
  }
  tasks_ += model.tasks.size();

  const analysis::Analysis a = analysis::analyze(model);
  achieved_ += a.card.achieved_parallelism;
  dag_ += a.card.max_parallelism;
  stretch_ += a.cp.stretch();
  dep_stall_ += a.card.dep_stall_frac;
  parked_ += a.card.parked_frac;
  steal_fail_ns_ += static_cast<double>(a.idle.total.steal_fail_ns);
  cp_total_ns_ += static_cast<double>(a.cp.measured_ns);
  for (const analysis::ClassBreakdownRow& row : a.cp.by_class) {
    cp_ns_[Key{row.klass, row.layer, row.direction}] += row.total_ns;
  }
}

void LayerStats::emit(double host_gemm_gflops,
                      std::map<std::string, double>& out) const {
  const double calls = std::max<double>(1.0, static_cast<double>(calls_));
  double busy = 0.0;
  double flops = 0.0;
  for (const auto& [key, cell] : busy_) {
    busy += static_cast<double>(cell.busy_ns);
    flops += cell.flops;
  }
  const double gflops = busy > 0.0 ? flops / busy : 0.0;  // flop/ns
  out["kernels.gflops"] = gflops;
  out["kernels.gemm_frac_of_peak"] =
      host_gemm_gflops > 0.0 ? gflops / host_gemm_gflops : 0.0;
  for (const KernelGroup& group : kernel_groups()) {
    double gbusy = 0.0;
    double gflop = 0.0;
    for (const auto& [key, cell] : busy_) {
      if (!in_group(group, std::get<0>(key))) continue;
      gbusy += static_cast<double>(cell.busy_ns);
      gflop += cell.flops;
    }
    const std::string prefix = std::string("kernels.") + group.metric;
    out[prefix + ".busy_frac"] = busy > 0.0 ? gbusy / busy : 0.0;
    out[prefix + ".gflops"] = gbusy > 0.0 ? gflop / gbusy : 0.0;
  }

  out["taskrt.achieved_parallelism"] = achieved_ / calls;
  out["taskrt.dag_parallelism"] = dag_ / calls;
  out["taskrt.cp_stretch"] = stretch_ / calls;
  out["taskrt.dep_stall_frac"] = dep_stall_ / calls;
  out["taskrt.parked_frac"] = parked_ / calls;
  out["taskrt.ready_gap_ns_per_task"] =
      tasks_ > 0 ? steal_fail_ns_ / static_cast<double>(tasks_) : 0.0;

  // Critical path per call, split by layer 0 / upper layers and direction.
  double l0 = 0.0;
  double upper = 0.0;
  double fwd = 0.0;
  double rev = 0.0;
  double other = 0.0;
  for (const auto& [key, ns] : cp_ns_) {
    const auto v = static_cast<double>(ns);
    const char dir = std::get<2>(key);
    if (dir == '-') {
      other += v;
      continue;
    }
    (std::get<1>(key) <= 0 ? l0 : upper) += v;
    (dir == 'f' ? fwd : rev) += v;
  }
  out["cp.ms"] = cp_total_ns_ / calls / 1e6;
  out["cp.layer0.ms"] = l0 / calls / 1e6;
  out["cp.upper.ms"] = upper / calls / 1e6;
  out["cp.fwd_dir.ms"] = fwd / calls / 1e6;
  out["cp.rev_dir.ms"] = rev / calls / 1e6;
  out["cp.other.ms"] = other / calls / 1e6;
}

std::string LayerStats::table_json() const {
  const double calls = std::max<double>(1.0, static_cast<double>(calls_));
  const auto row = [](const Key& key) {
    return "{\"class\": " + bpar::obs::json_quote(std::get<0>(key)) +
           ", \"layer\": " + std::to_string(std::get<1>(key)) +
           ", \"dir\": \"" + std::string(1, std::get<2>(key)) + "\"";
  };
  std::ostringstream os;
  os << "{\"calls\": " << calls_ << ", \"layers\": [";
  bool first = true;
  for (const auto& [key, cell] : busy_) {
    os << (first ? "" : ", ") << row(key) << ", \"tasks_per_call\": "
       << bpar::obs::json_number(static_cast<double>(cell.tasks) / calls)
       << ", \"busy_ms_per_call\": "
       << bpar::obs::json_number(static_cast<double>(cell.busy_ns) / calls /
                                 1e6)
       << ", \"gflops\": "
       << bpar::obs::json_number(
              cell.busy_ns > 0
                  ? cell.flops / static_cast<double>(cell.busy_ns)
                  : 0.0)
       << "}";
    first = false;
  }
  os << "], \"critical_path\": [";
  first = true;
  for (const auto& [key, ns] : cp_ns_) {
    os << (first ? "" : ", ") << row(key) << ", \"ms_per_call\": "
       << bpar::obs::json_number(static_cast<double>(ns) / calls / 1e6)
       << "}";
    first = false;
  }
  os << "]}";
  return os.str();
}

RuntimeCounters RuntimeCounters::read() {
  auto& reg = bpar::obs::Registry::instance();
  const auto get = [&](const char* name) {
    return static_cast<double>(reg.counter(name).value());
  };
  RuntimeCounters c;
  c.sessions = get("taskrt.sessions");
  c.tasks = get("taskrt.tasks_executed");
  c.steals = get("taskrt.steals");
  c.locality_hits = get("taskrt.locality_hits");
  c.busy_ns = get("taskrt.busy_ns");
  c.idle_ns = get("taskrt.idle_ns");
  return c;
}

RuntimeCounters RuntimeCounters::operator-(const RuntimeCounters& o) const {
  RuntimeCounters d;
  d.sessions = sessions - o.sessions;
  d.tasks = tasks - o.tasks;
  d.steals = steals - o.steals;
  d.locality_hits = locality_hits - o.locality_hits;
  d.busy_ns = busy_ns - o.busy_ns;
  d.idle_ns = idle_ns - o.idle_ns;
  return d;
}

void RuntimeCounters::emit(std::map<std::string, double>& out) const {
  const double capacity = busy_ns + idle_ns;
  out["taskrt.utilization"] = capacity > 0.0 ? busy_ns / capacity : 0.0;
  out["taskrt.steals_per_call"] = sessions > 0.0 ? steals / sessions : 0.0;
  out["taskrt.locality_hit_frac"] = tasks > 0.0 ? locality_hits / tasks : 0.0;
}

bpar::obs::JsonValue read_json_file(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) BPAR_RAISE(bpar::util::Error, "cannot open ", path);
  std::ostringstream text;
  text << is.rdbuf();
  return bpar::obs::json_parse(text.str());
}

analysis::TraceModel load_trace_model(const std::string& path) {
  return analysis::model_from_trace_json(read_json_file(path));
}

}  // namespace bench_e2e
