// TraceModel <-> JSON and human-readable rendering for the analysis
// engine. The trace side round-trips the unified chrome-trace documents
// emitted by taskrt::write_unified_trace / write_model_events: task slices
// carry {task, deps, worker, layer, step} args, park/fault spans live on
// "worker N (spans)" rows.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "obs/analysis.hpp"
#include "obs/json.hpp"
#include "obs/trace_export.hpp"
#include "util/error.hpp"

namespace bpar::obs::analysis {
namespace {

std::uint64_t us_to_ns(double us) {
  return us <= 0 ? 0 : static_cast<std::uint64_t>(std::llround(us * 1e3));
}

/// "tasks w3" -> 3, "worker 2 (spans)" -> 2; -1 when `label` does not
/// start with `prefix` followed by a digit.
int parse_indexed_label(const std::string& label, std::string_view prefix) {
  if (label.size() <= prefix.size() || label.compare(0, prefix.size(), prefix) != 0) {
    return -1;
  }
  const char* digits = label.c_str() + prefix.size();
  if (*digits < '0' || *digits > '9') return -1;
  return std::atoi(digits);
}

int int_field(const JsonValue& obj, std::string_view key, int fallback) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->is_number() ? static_cast<int>(v->number)
                                        : fallback;
}

std::string direction_str(char d) { return std::string(1, d); }

void append_idle(std::string& out, const IdleBreakdown& b) {
  out += "{\"busy_ns\": " + std::to_string(b.busy_ns);
  out += ", \"dep_stall_ns\": " + std::to_string(b.dep_stall_ns);
  out += ", \"steal_fail_ns\": " + std::to_string(b.steal_fail_ns);
  out += ", \"parked_ns\": " + std::to_string(b.parked_ns);
  out += ", \"fault_ns\": " + std::to_string(b.fault_ns) + "}";
}

std::string fmt_ms(std::uint64_t ns) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << static_cast<double>(ns) / 1e6;
  return os.str();
}

std::string fmt2(double v) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << v;
  return os.str();
}

std::string fmt_pct(double frac) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << frac * 100.0 << "%";
  return os.str();
}

}  // namespace

TraceModel model_from_trace_json(const JsonValue& doc) {
  if (!doc.is_array()) {
    BPAR_RAISE(util::Error,
               "not a chrome-trace document (expected a JSON array)");
  }
  TraceModel model;
  std::map<int, int> span_row_worker;  // tid of a "worker N (spans)" row

  for (const JsonValue& ev : doc.array) {
    if (!ev.is_object()) continue;
    const JsonValue* ph = ev.find("ph");
    const JsonValue* name = ev.find("name");
    if (ph == nullptr || !ph->is_string() || name == nullptr) continue;
    if (ph->str == "M" && name->str == "thread_name") {
      const JsonValue* args = ev.find("args");
      if (args == nullptr) continue;
      const JsonValue* label = args->find("name");
      if (label == nullptr || !label->is_string()) continue;
      const int tid = int_field(ev, "tid", -1);
      const int task_row = parse_indexed_label(label->str, "tasks w");
      if (task_row >= 0) {
        model.num_workers = std::max(model.num_workers, task_row + 1);
        continue;
      }
      const int span_row = parse_indexed_label(label->str, "worker ");
      if (span_row >= 0 &&
          label->str.find("(spans)") != std::string::npos && tid >= 0) {
        span_row_worker[tid] = span_row;
      }
    }
  }

  for (const JsonValue& ev : doc.array) {
    if (!ev.is_object()) continue;
    const JsonValue* ph = ev.find("ph");
    if (ph == nullptr || !ph->is_string() || ph->str != "X") continue;
    const JsonValue* ts = ev.find("ts");
    const JsonValue* dur = ev.find("dur");
    if (ts == nullptr || !ts->is_number() || dur == nullptr ||
        !dur->is_number()) {
      continue;
    }
    const JsonValue* args = ev.find("args");
    const JsonValue* task = args != nullptr ? args->find("task") : nullptr;
    if (task != nullptr && task->is_number()) {
      TaskRecord rec;
      rec.id = static_cast<std::uint32_t>(task->number);
      const JsonValue* name = ev.find("name");
      if (name != nullptr && name->is_string()) rec.name = name->str;
      const JsonValue* cat = ev.find("cat");
      if (cat != nullptr && cat->is_string()) rec.klass = cat->str;
      rec.layer = int_field(*args, "layer", -1);
      rec.step = int_field(*args, "step", -1);
      rec.worker = int_field(*args, "worker", int_field(ev, "tid", -1));
      rec.start_ns = us_to_ns(ts->number);
      rec.end_ns = us_to_ns(ts->number + dur->number);
      if (const JsonValue* deps = args->find("deps");
          deps != nullptr && deps->is_array()) {
        for (const JsonValue& d : deps->array) {
          if (d.is_number()) {
            rec.preds.push_back(static_cast<std::uint32_t>(d.number));
          }
        }
      }
      if (rec.worker >= 0) {
        model.num_workers = std::max(model.num_workers, rec.worker + 1);
      }
      model.tasks.push_back(std::move(rec));
      continue;
    }
    const JsonValue* name = ev.find("name");
    if (name == nullptr || !name->is_string()) continue;
    if (name->str != "park" && name->str != "fault") continue;
    const auto row = span_row_worker.find(int_field(ev, "tid", -1));
    if (row == span_row_worker.end()) continue;
    WorkerSpan span;
    span.worker = row->second;
    span.fault = name->str == "fault";
    span.start_ns = us_to_ns(ts->number);
    span.end_ns = us_to_ns(ts->number + dur->number);
    model.worker_spans.push_back(span);
    model.num_workers = std::max(model.num_workers, span.worker + 1);
  }

  if (model.tasks.empty()) {
    BPAR_RAISE(util::Error,
               "trace contains no analyzable task slices (need \"args\" "
               "with a task id — re-capture with --trace)");
  }
  return model;
}

std::string to_json(const Analysis& analysis) {
  const Scorecard& c = analysis.card;
  std::string out = "{\"schema_version\": 1, \"type\": \"bpar_prof_analysis\"";
  out += ",\n \"scorecard\": {";
  out += "\"workers\": " + std::to_string(c.workers);
  out += ", \"tasks\": " + std::to_string(c.tasks);
  out += ", \"makespan_ns\": " + std::to_string(c.makespan_ns);
  out += ", \"total_work_ns\": " + std::to_string(c.total_work_ns);
  out += ", \"critical_path_ns\": " + std::to_string(c.critical_path_ns);
  out += ", \"model_critical_path_ns\": " +
         std::to_string(c.model_critical_path_ns);
  out += ", \"achieved_parallelism\": " + json_number(c.achieved_parallelism);
  out += ", \"max_parallelism\": " + json_number(c.max_parallelism);
  out += ", \"utilization\": " + json_number(c.utilization);
  out += ", \"load_imbalance\": " + json_number(c.load_imbalance);
  out += ", \"steal_hit_rate\": " + json_number(c.steal_hit_rate);
  out += ", \"dep_stall_frac\": " + json_number(c.dep_stall_frac);
  out += ", \"steal_fail_frac\": " + json_number(c.steal_fail_frac);
  out += ", \"parked_frac\": " + json_number(c.parked_frac);
  out += ", \"fault_frac\": " + json_number(c.fault_frac);
  out += ", \"runtime_efficiency\": " + json_number(c.runtime_efficiency);
  out += "},\n \"critical_path\": {";
  out += "\"measured_ns\": " + std::to_string(analysis.cp.measured_ns);
  out += ", \"makespan_ns\": " + std::to_string(analysis.cp.makespan_ns);
  out += ", \"length\": " + std::to_string(analysis.cp.length);
  out += ", \"stretch\": " + json_number(analysis.cp.stretch());
  out += ", \"chain\": [";
  for (std::size_t i = 0; i < analysis.cp.chain.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(analysis.cp.chain[i]);
  }
  out += "], \"by_class\": [";
  for (std::size_t i = 0; i < analysis.cp.by_class.size(); ++i) {
    const ClassBreakdownRow& row = analysis.cp.by_class[i];
    if (i > 0) out += ", ";
    out += "{\"class\": " + json_quote(row.klass);
    out += ", \"layer\": " + std::to_string(row.layer);
    out += ", \"direction\": " + json_quote(direction_str(row.direction));
    out += ", \"total_ns\": " + std::to_string(row.total_ns);
    out += ", \"tasks\": " + std::to_string(row.tasks) + "}";
  }
  out += "]},\n \"idle\": {\"total\": ";
  append_idle(out, analysis.idle.total);
  out += ", \"per_worker\": [";
  for (std::size_t i = 0; i < analysis.idle.per_worker.size(); ++i) {
    if (i > 0) out += ", ";
    append_idle(out, analysis.idle.per_worker[i]);
  }
  out += "]},\n \"hw_classes\": [";
  for (std::size_t i = 0; i < analysis.hw.size(); ++i) {
    const ClassHwRow& row = analysis.hw[i];
    if (i > 0) out += ", ";
    out += "{\"class\": " + json_quote(row.klass);
    out += ", \"tasks\": " + std::to_string(row.tasks);
    out += ", \"busy_ns\": " + std::to_string(row.busy_ns);
    out += ", \"ipc\": " + json_number(row.ipc);
    out += ", \"mpki\": " + json_number(row.mpki);
    out += ", \"branch_mpki\": " + json_number(row.branch_mpki);
    out += ", \"llc_miss_rate\": " + json_number(row.llc_miss_rate);
    out += ", \"scale\": " + json_number(row.scale) + "}";
  }
  out += "]}\n";
  return out;
}

void print_human(const Analysis& analysis, std::ostream& os) {
  const Scorecard& c = analysis.card;
  os << "scheduler scorecard\n";
  os << "  workers               " << c.workers << "\n";
  os << "  tasks                 " << c.tasks << "\n";
  os << "  makespan              " << fmt_ms(c.makespan_ns) << " ms\n";
  os << "  total work            " << fmt_ms(c.total_work_ns) << " ms\n";
  os << "  critical path (meas)  " << fmt_ms(c.critical_path_ns) << " ms\n";
  if (c.model_critical_path_ns > 0) {
    os << "  critical path (model) " << fmt_ms(c.model_critical_path_ns)
       << " ms\n";
  }
  os << "  achieved parallelism  " << fmt2(c.achieved_parallelism) << "\n";
  os << "  max parallelism (DAG) " << fmt2(c.max_parallelism) << "\n";
  os << "  utilization           " << fmt_pct(c.utilization) << "\n";
  os << "  load imbalance        " << fmt2(c.load_imbalance) << "\n";
  if (c.steal_hit_rate >= 0) {
    os << "  steal hit rate        " << fmt_pct(c.steal_hit_rate) << "\n";
  }
  if (c.runtime_efficiency >= 0) {
    os << "  runtime busy frac     " << fmt_pct(c.runtime_efficiency)
       << "  (runtime's own accounting)\n";
  }
  os << "  stretch               " << fmt2(analysis.cp.stretch())
     << "  (makespan / critical path)\n";
  os << "\nidle attribution (share of workers x makespan)\n";
  os << "  dependency stall      " << fmt_pct(c.dep_stall_frac) << "\n";
  os << "  steal failure         " << fmt_pct(c.steal_fail_frac) << "\n";
  os << "  parked                " << fmt_pct(c.parked_frac) << "\n";
  os << "  fault                 " << fmt_pct(c.fault_frac) << "\n";

  os << "\nper-worker idle breakdown (ms)\n";
  os << "  worker       busy  dep-stall steal-fail     parked      fault\n";
  for (std::size_t w = 0; w < analysis.idle.per_worker.size(); ++w) {
    const IdleBreakdown& b = analysis.idle.per_worker[w];
    os << "  " << std::left << std::setw(6) << w << std::right
       << std::setw(11) << fmt_ms(b.busy_ns) << std::setw(11)
       << fmt_ms(b.dep_stall_ns) << std::setw(11) << fmt_ms(b.steal_fail_ns)
       << std::setw(11) << fmt_ms(b.parked_ns) << std::setw(11)
       << fmt_ms(b.fault_ns) << "\n";
  }

  os << "\ncritical path: " << analysis.cp.length << " tasks, "
     << fmt_ms(analysis.cp.measured_ns) << " ms\n";
  os << "  class          layer dir   chain-ms  tasks\n";
  for (const ClassBreakdownRow& row : analysis.cp.by_class) {
    os << "  " << std::left << std::setw(15) << row.klass << std::right
       << std::setw(5) << row.layer << std::setw(4) << row.direction
       << std::setw(11) << fmt_ms(row.total_ns) << std::setw(7) << row.tasks
       << "\n";
  }

  if (!analysis.hw.empty()) {
    os << "\nper-class hardware counters\n";
    os << "  class          tasks    busy-ms    ipc   mpki  br-mpki  "
          "llc-miss%  mux\n";
    for (const ClassHwRow& row : analysis.hw) {
      os << "  " << std::left << std::setw(15) << row.klass << std::right
         << std::setw(5) << row.tasks << std::setw(11) << fmt_ms(row.busy_ns)
         << std::setw(7) << fmt2(row.ipc) << std::setw(7) << fmt2(row.mpki)
         << std::setw(9) << fmt2(row.branch_mpki) << std::setw(10)
         << fmt_pct(row.llc_miss_rate) << std::setw(6) << fmt2(row.scale)
         << "\n";
    }
  }
}

void write_model_events(ChromeTraceWriter& writer, const TraceModel& model,
                        int pid) {
  for (int w = 0; w < model.num_workers; ++w) {
    writer.thread_name(pid, w, "tasks w" + std::to_string(w));
  }
  constexpr int kSpanTidBase = 100;
  if (!model.worker_spans.empty()) {
    for (int w = 0; w < model.num_workers; ++w) {
      writer.thread_name(pid, kSpanTidBase + w,
                         "worker " + std::to_string(w) + " (spans)");
    }
  }
  for (const TaskRecord& t : model.tasks) {
    std::string args = "{\"task\": " + std::to_string(t.id) + ", \"deps\": [";
    for (std::size_t i = 0; i < t.preds.size(); ++i) {
      if (i > 0) args += ", ";
      args += std::to_string(t.preds[i]);
    }
    args += "], \"worker\": " + std::to_string(t.worker);
    if (t.layer >= 0) args += ", \"layer\": " + std::to_string(t.layer);
    if (t.step >= 0) args += ", \"step\": " + std::to_string(t.step);
    args += "}";
    writer.slice_args(t.name.empty() ? t.klass : t.name, t.klass, t.start_ns,
                      static_cast<double>(t.duration_ns()), pid,
                      std::max(t.worker, 0), args);
  }
  for (const WorkerSpan& s : model.worker_spans) {
    if (s.worker < 0) continue;
    writer.slice(s.fault ? "fault" : "park", "span", s.start_ns,
                 static_cast<double>(s.end_ns - s.start_ns), pid,
                 kSpanTidBase + s.worker);
  }
}

}  // namespace bpar::obs::analysis
