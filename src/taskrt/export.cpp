#include "taskrt/export.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "obs/json.hpp"
#include "obs/trace_export.hpp"
#include "util/check.hpp"

namespace bpar::taskrt {
namespace {

const char* kind_color(TaskKind kind) {
  switch (kind) {
    case TaskKind::kCellForward:
      return "#7aa6c2";
    case TaskKind::kCellBackward:
      return "#c27a7a";
    case TaskKind::kMerge:
      return "#8fc27a";
    case TaskKind::kMergeBackward:
      return "#c2a57a";
    case TaskKind::kLoss:
      return "#b07ac2";
    case TaskKind::kGradReduce:
      return "#c2c07a";
    case TaskKind::kWeightUpdate:
      return "#7ac2b9";
    case TaskKind::kGemmChunk:
      return "#9a9a9a";
    case TaskKind::kBarrier:
      return "#4d4d4d";
    case TaskKind::kGeneric:
      return "#cccccc";
  }
  return "#cccccc";
}

// Graphviz label escape: quotes and backslashes get a backslash; literal
// newlines become the DOT "\n" line-break sequence (a raw newline inside a
// quoted label malforms the file). Other control characters are dropped.
std::string dot_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
    }
  }
  return out;
}

// Renders the {task, deps, worker, layer, step} args object that makes a
// task slice analysis-consumable (obs::analysis::model_from_trace_json).
std::string task_args_json(TaskId id, const std::vector<TaskId>& preds,
                           std::int32_t worker, const TaskSpec& spec) {
  std::string args = "{\"task\": " + std::to_string(id) + ", \"deps\": [";
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (i > 0) args += ", ";
    args += std::to_string(preds[i]);
  }
  args += "], \"worker\": " + std::to_string(worker);
  if (spec.layer >= 0) args += ", \"layer\": " + std::to_string(spec.layer);
  if (spec.step >= 0) args += ", \"step\": " + std::to_string(spec.step);
  args += "}";
  return args;
}

}  // namespace

std::vector<std::vector<TaskId>> predecessor_lists(const TaskGraph& graph) {
  std::vector<std::vector<TaskId>> preds(graph.size());
  for (TaskId id = 0; id < graph.size(); ++id) {
    for (const TaskId succ : graph.task(id).successors) {
      preds[succ].push_back(id);
    }
  }
  return preds;
}

void write_dot(const TaskGraph& graph, std::ostream& os,
               const DotOptions& options) {
  const std::size_t limit =
      options.max_tasks == 0 ? graph.size()
                             : std::min(options.max_tasks, graph.size());
  os << "digraph bpar {\n  rankdir=TB;\n  node [style=filled, "
        "shape=box, fontsize=10];\n";
  for (TaskId id = 0; id < limit; ++id) {
    const Task& t = graph.task(id);
    os << "  t" << id << " [fillcolor=\"" << kind_color(t.spec.kind)
       << "\", label=\"";
    if (options.include_names && !t.spec.name.empty()) {
      os << dot_escape(t.spec.name);
    } else {
      os << task_kind_name(t.spec.kind) << ' ' << id;
    }
    os << "\"];\n";
  }
  for (TaskId id = 0; id < limit; ++id) {
    for (const TaskId succ : graph.task(id).successors) {
      if (succ < limit) os << "  t" << id << " -> t" << succ << ";\n";
    }
  }
  if (limit < graph.size()) {
    os << "  truncated [shape=plaintext, label=\"... "
       << graph.size() - limit << " more tasks\"];\n";
  }
  os << "}\n";
}

void write_dot_file(const TaskGraph& graph, const std::string& path,
                    const DotOptions& options) {
  std::ofstream os(path);
  BPAR_CHECK(os.good(), "cannot open ", path);
  write_dot(graph, os, options);
}

void write_chrome_trace(const TaskGraph& graph,
                        std::span<const TaskTrace> trace, std::ostream& os) {
  BPAR_CHECK(trace.size() == graph.size(),
             "stats have no trace — run with record_trace = true");
  os << "[";
  bool first = true;
  for (TaskId id = 0; id < graph.size(); ++id) {
    const TaskTrace& tr = trace[id];
    const Task& t = graph.task(id);
    if (!first) os << ",";
    first = false;
    const std::string name =
        t.spec.name.empty() ? task_kind_name(t.spec.kind) : t.spec.name;
    os << "\n  {\"name\": " << obs::json_quote(name) << ", \"cat\": \""
       << task_kind_name(t.spec.kind) << "\", \"ph\": \"X\", \"ts\": "
       << static_cast<double>(tr.start_ns) / 1e3
       << ", \"dur\": " << static_cast<double>(tr.end_ns - tr.start_ns) / 1e3
       << ", \"pid\": 1, \"tid\": " << tr.worker << "}";
  }
  os << "\n]\n";
}

void write_chrome_trace(const TaskGraph& graph, const RunStats& stats,
                        std::ostream& os) {
  write_chrome_trace(graph, std::span<const TaskTrace>(stats.trace), os);
}

void write_chrome_trace_file(const TaskGraph& graph, const RunStats& stats,
                             const std::string& path) {
  std::ofstream os(path);
  BPAR_CHECK(os.good(), "cannot open ", path);
  write_chrome_trace(graph, stats, os);
}

void write_unified_trace(const TaskGraph& graph, const RunStats& stats,
                         std::ostream& os) {
  write_unified_trace(graph, stats, os, ExtraTraceEmitter{});
}

void write_unified_trace(const TaskGraph& graph, const RunStats& stats,
                         std::ostream& os, const ExtraTraceEmitter& extra) {
  BPAR_CHECK(stats.trace.size() == graph.size(),
             "stats have no trace — run with record_trace = true");
  // The RunStats trace is session-relative; obs events are absolute
  // steady-clock ns. session_start_ns is the bridge. The export base is
  // the earliest timestamp across both sources, so the timeline starts
  // near zero however the run was captured.
  const std::vector<obs::ThreadTrace> threads = obs::collect();
  std::uint64_t base = obs::earliest_ts(threads);
  for (const TaskTrace& tr : stats.trace) {
    const std::uint64_t abs_start = stats.session_start_ns + tr.start_ns;
    if (base == 0 || abs_start < base) base = abs_start;
  }

  obs::ChromeTraceWriter writer(os);
  constexpr int kPid = 1;
  // Worker rows (tid = worker id) carry the fully named task slices from
  // the RunStats trace; obs ring rows (tid = 100 + ring id) carry spans,
  // counters, and instants, with their kind-level task rows skipped so
  // tasks appear exactly once.
  const int num_workers = static_cast<int>(stats.worker_busy_ns.size());
  for (int w = 0; w < num_workers; ++w) {
    writer.thread_name(kPid, w, "tasks w" + std::to_string(w));
  }
  constexpr int kRingTidBase = 100;
  for (const obs::ThreadTrace& t : threads) {
    std::string label =
        t.name.empty() ? "thread " + std::to_string(t.ring_id) : t.name;
    label += " (spans)";
    if (t.dropped > 0) {
      label += " (dropped " + std::to_string(t.dropped) + ")";
    }
    writer.thread_name(kPid, kRingTidBase + t.ring_id, label);
  }
  const std::vector<std::vector<TaskId>> preds = predecessor_lists(graph);
  for (TaskId id = 0; id < graph.size(); ++id) {
    const TaskTrace& tr = stats.trace[id];
    const Task& t = graph.task(id);
    const std::string name =
        t.spec.name.empty() ? task_kind_name(t.spec.kind) : t.spec.name;
    writer.slice_args(name, task_kind_name(t.spec.kind),
                      stats.session_start_ns + tr.start_ns - base,
                      static_cast<double>(tr.end_ns - tr.start_ns), kPid,
                      tr.worker,
                      task_args_json(id, preds[id], tr.worker, t.spec));
  }
  for (const obs::ThreadTrace& t : threads) {
    obs::write_thread_events(writer, t, kPid, kRingTidBase + t.ring_id, base,
                             /*skip_tasks=*/true);
  }
  if (extra) extra(writer, base);
}

void write_unified_trace_file(const TaskGraph& graph, const RunStats& stats,
                              const std::string& path) {
  write_unified_trace_file(graph, stats, path, ExtraTraceEmitter{});
}

void write_unified_trace_file(const TaskGraph& graph, const RunStats& stats,
                              const std::string& path,
                              const ExtraTraceEmitter& extra) {
  std::ofstream os(path);
  BPAR_CHECK(os.good(), "cannot open ", path);
  write_unified_trace(graph, stats, os, extra);
}

namespace {

obs::analysis::TaskRecord make_task_record(
    TaskId id, const Task& t, const TaskTrace& tr,
    const std::vector<TaskId>& preds) {
  obs::analysis::TaskRecord rec;
  rec.id = id;
  rec.name = t.spec.name.empty() ? task_kind_name(t.spec.kind) : t.spec.name;
  rec.klass = task_kind_name(t.spec.kind);
  rec.layer = t.spec.layer;
  rec.step = t.spec.step;
  rec.worker = tr.worker;
  rec.start_ns = tr.start_ns;
  rec.end_ns = tr.end_ns;
  rec.preds.assign(preds.begin(), preds.end());
  return rec;
}

}  // namespace

obs::analysis::TraceModel make_trace_model(const TaskGraph& graph,
                                           const RunStats& stats) {
  BPAR_CHECK(stats.trace.size() == graph.size(),
             "stats have no trace — run with record_trace = true");
  obs::analysis::TraceModel model;
  model.num_workers = static_cast<int>(stats.worker_busy_ns.size());
  const std::vector<std::vector<TaskId>> preds = predecessor_lists(graph);
  model.tasks.reserve(graph.size());
  for (TaskId id = 0; id < graph.size(); ++id) {
    model.tasks.push_back(
        make_task_record(id, graph.task(id), stats.trace[id], preds[id]));
  }

  // Park/fault spans from the obs rings: worker threads are named
  // "worker N"; spans from before this session are dropped, timestamps
  // shift to the session-relative timebase the task records use.
  const std::uint16_t park_id = obs::intern_name("park");
  const std::uint16_t fault_id = obs::intern_name("fault");
  for (const obs::ThreadTrace& thread : obs::collect()) {
    int worker = -1;
    if (thread.name.rfind("worker ", 0) == 0) {
      worker = std::atoi(thread.name.c_str() + 7);
    }
    if (worker < 0 || worker >= model.num_workers) continue;
    for (const obs::TraceEvent& ev : thread.events) {
      if (ev.kind != obs::EventKind::kSpan ||
          (ev.name != park_id && ev.name != fault_id)) {
        continue;
      }
      if (ev.ts_ns < stats.session_start_ns) continue;  // earlier session
      obs::analysis::WorkerSpan span;
      span.worker = worker;
      span.fault = ev.name == fault_id;
      span.start_ns = ev.ts_ns - stats.session_start_ns;
      span.end_ns =
          span.start_ns + static_cast<std::uint64_t>(ev.duration_ns());
      model.worker_spans.push_back(span);
    }
  }

  model.counters["steals"] = static_cast<double>(stats.steals);
  model.counters["steal_failures"] =
      static_cast<double>(stats.steal_failures);
  model.counters["parks"] = static_cast<double>(stats.parks);
  const std::uint64_t busy = stats.total_busy_ns();
  const std::uint64_t capacity =
      stats.wall_ns * stats.worker_busy_ns.size();
  model.counters["busy_ns"] = static_cast<double>(busy);
  model.counters["idle_ns"] =
      static_cast<double>(capacity > busy ? capacity - busy : 0);
  return model;
}

obs::analysis::TraceModel make_trace_model(const TaskGraph& graph,
                                           std::span<const TaskTrace> trace,
                                           int num_workers) {
  BPAR_CHECK(trace.size() == graph.size(),
             "trace size does not match the graph");
  obs::analysis::TraceModel model;
  const std::vector<std::vector<TaskId>> preds = predecessor_lists(graph);
  model.tasks.reserve(graph.size());
  for (TaskId id = 0; id < graph.size(); ++id) {
    model.tasks.push_back(
        make_task_record(id, graph.task(id), trace[id], preds[id]));
    model.num_workers =
        std::max(model.num_workers, static_cast<int>(trace[id].worker) + 1);
  }
  model.num_workers = std::max(model.num_workers, num_workers);
  return model;
}

std::vector<obs::analysis::ClassHwRow> hw_class_rows(const RunStats& stats) {
  std::vector<obs::analysis::ClassHwRow> rows;
  for (std::size_t k = 0; k < stats.kind_counters.size(); ++k) {
    const RunStats::KindCounters& kc = stats.kind_counters[k];
    if (kc.tasks == 0) continue;
    obs::analysis::ClassHwRow row;
    row.klass = task_kind_name(static_cast<TaskKind>(k));
    row.tasks = kc.tasks;
    row.busy_ns = kc.busy_ns;
    row.ipc = kc.counters.ipc();
    row.mpki = kc.counters.mpki();
    row.branch_mpki = kc.counters.branch_mpki();
    row.llc_miss_rate = kc.counters.llc_miss_rate();
    row.scale = kc.counters.scale;
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace bpar::taskrt
