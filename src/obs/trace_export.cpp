#include "obs/trace_export.hpp"

#include <fstream>

#include "obs/json.hpp"
#include "obs/report.hpp"
#include "util/check.hpp"

namespace bpar::obs {
namespace {

// Chrome-trace "ts" is microseconds; doubles keep ns precision.
double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

const char* event_cat(EventKind kind) {
  switch (kind) {
    case EventKind::kSpan:
      return "span";
    case EventKind::kTask:
      return "task";
    case EventKind::kCounter:
      return "counter";
    case EventKind::kInstant:
    case EventKind::kKeyedInstant:
      return "instant";
  }
  return "span";
}

}  // namespace

ChromeTraceWriter::ChromeTraceWriter(std::ostream& os) : os_(os) {
  os_ << "[";
}

ChromeTraceWriter::~ChromeTraceWriter() { os_ << "\n]\n"; }

void ChromeTraceWriter::begin_event() {
  if (!first_) os_ << ",";
  first_ = false;
  os_ << "\n  ";
}

void ChromeTraceWriter::thread_name(int pid, int tid, std::string_view name) {
  begin_event();
  os_ << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": " << pid
      << ", \"tid\": " << tid << ", \"args\": {\"name\": "
      << json_quote(name) << "}}";
}

void ChromeTraceWriter::slice(std::string_view name, std::string_view cat,
                              std::uint64_t ts_ns, double dur_ns, int pid,
                              int tid) {
  begin_event();
  os_ << "{\"name\": " << json_quote(name) << ", \"cat\": "
      << json_quote(cat) << ", \"ph\": \"X\", \"ts\": "
      << json_number(us(ts_ns)) << ", \"dur\": " << json_number(dur_ns / 1e3)
      << ", \"pid\": " << pid << ", \"tid\": " << tid << "}";
}

void ChromeTraceWriter::slice_args(std::string_view name, std::string_view cat,
                                   std::uint64_t ts_ns, double dur_ns, int pid,
                                   int tid, std::string_view args_json) {
  begin_event();
  os_ << "{\"name\": " << json_quote(name) << ", \"cat\": "
      << json_quote(cat) << ", \"ph\": \"X\", \"ts\": "
      << json_number(us(ts_ns)) << ", \"dur\": " << json_number(dur_ns / 1e3)
      << ", \"pid\": " << pid << ", \"tid\": " << tid << ", \"args\": "
      << args_json << "}";
}

void ChromeTraceWriter::counter(std::string_view name, std::uint64_t ts_ns,
                                int pid, std::uint64_t value) {
  begin_event();
  os_ << "{\"name\": " << json_quote(name)
      << ", \"ph\": \"C\", \"ts\": " << json_number(us(ts_ns))
      << ", \"pid\": " << pid << ", \"args\": {\"value\": " << value << "}}";
}

void ChromeTraceWriter::instant(std::string_view name, std::uint64_t ts_ns,
                                int pid, int tid) {
  begin_event();
  os_ << "{\"name\": " << json_quote(name)
      << ", \"ph\": \"i\", \"s\": \"t\", \"ts\": " << json_number(us(ts_ns))
      << ", \"pid\": " << pid << ", \"tid\": " << tid << "}";
}

void ChromeTraceWriter::instant_args(std::string_view name,
                                     std::uint64_t ts_ns, int pid, int tid,
                                     std::string_view args_json) {
  begin_event();
  os_ << "{\"name\": " << json_quote(name)
      << ", \"ph\": \"i\", \"s\": \"t\", \"ts\": " << json_number(us(ts_ns))
      << ", \"pid\": " << pid << ", \"tid\": " << tid << ", \"args\": "
      << args_json << "}";
}

void write_thread_events(ChromeTraceWriter& writer, const ThreadTrace& thread,
                         int pid, int tid, std::uint64_t base_ns,
                         bool skip_tasks) {
  for (const TraceEvent& ev : thread.events) {
    const std::uint64_t ts =
        ev.ts_ns > base_ns ? ev.ts_ns - base_ns : 0;
    const std::string name = interned_name(ev.name);
    switch (ev.kind) {
      case EventKind::kSpan:
        writer.slice(name, event_cat(ev.kind), ts, ev.duration_ns(), pid,
                     tid);
        break;
      case EventKind::kTask:
        if (!skip_tasks) {
          writer.slice(name, event_cat(ev.kind), ts, ev.duration_ns(), pid,
                       tid);
        }
        break;
      case EventKind::kCounter:
        writer.counter(name, ts, pid, ev.payload);
        break;
      case EventKind::kInstant:
        writer.instant(name, ts, pid, tid);
        break;
      case EventKind::kKeyedInstant:
        writer.instant_args(name, ts, pid, tid,
                            "{\"id\": " + std::to_string(ev.payload) +
                                ", \"arg\": " + std::to_string(ev.extra) +
                                "}");
        break;
    }
  }
}

std::uint64_t earliest_ts(const std::vector<ThreadTrace>& threads) {
  std::uint64_t base = 0;
  bool seen = false;
  for (const ThreadTrace& t : threads) {
    for (const TraceEvent& ev : t.events) {
      if (!seen || ev.ts_ns < base) {
        base = ev.ts_ns;
        seen = true;
      }
    }
  }
  return base;
}

void write_trace_json(std::ostream& os) {
  const std::vector<ThreadTrace> threads = collect();
  const std::uint64_t base = earliest_ts(threads);
  constexpr int kPid = 1;
  ChromeTraceWriter writer(os);
  for (const ThreadTrace& t : threads) {
    std::string label = t.name.empty()
                            ? "thread " + std::to_string(t.ring_id)
                            : t.name;
    if (t.dropped > 0) {
      label += " (dropped " + std::to_string(t.dropped) + ")";
    }
    writer.thread_name(kPid, t.ring_id, label);
  }
  for (const ThreadTrace& t : threads) {
    write_thread_events(writer, t, kPid, t.ring_id, base);
  }
}

void write_trace_json_file(const std::string& path) {
  std::ofstream os = open_output_file(path);
  write_trace_json(os);
}

}  // namespace bpar::obs
