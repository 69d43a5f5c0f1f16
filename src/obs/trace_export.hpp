// Chrome-trace (Perfetto-loadable) JSON emission for span snapshots.
//
// write_trace_json() dumps every thread ring collected so far as one JSON
// document: an "X" slice per span/task event (nested slices render as
// stacks), a "C" counter sample per counter event (ready-FIFO depth,
// per-worker deque depths), an "i" instant per instant event, plus
// thread_name metadata rows. Open the file at https://ui.perfetto.dev or
// chrome://tracing. A keyed instant carries args {"id": …, "arg": …}.
//
// ChromeTraceWriter is shared with taskrt/export.cpp, which merges per-task
// rows from a RunStats trace into the same document.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace bpar::obs {

/// Streams chrome-trace events and tracks the leading-comma state.
class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(std::ostream& os);
  ~ChromeTraceWriter();  // closes the JSON array

  void thread_name(int pid, int tid, std::string_view name);
  /// Complete slice ("ph":"X"). Times in ns; written as microseconds.
  void slice(std::string_view name, std::string_view cat, std::uint64_t ts_ns,
             double dur_ns, int pid, int tid);
  /// Slice carrying a pre-rendered JSON args object (must be a complete
  /// `{...}` literal) — how task slices publish {task, deps, worker, ...}
  /// for bpar_prof to re-parse.
  void slice_args(std::string_view name, std::string_view cat,
                  std::uint64_t ts_ns, double dur_ns, int pid, int tid,
                  std::string_view args_json);
  void counter(std::string_view name, std::uint64_t ts_ns, int pid,
               std::uint64_t value);
  void instant(std::string_view name, std::uint64_t ts_ns, int pid, int tid);
  /// Instant carrying a pre-rendered JSON args object (complete `{...}`
  /// literal) — how keyed instants publish {id, arg} (the serving
  /// engine's request-stage markers, which `bpar_prof request` re-parses).
  void instant_args(std::string_view name, std::uint64_t ts_ns, int pid,
                    int tid, std::string_view args_json);

  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

 private:
  void begin_event();
  std::ostream& os_;
  bool first_ = true;
};

/// Emits one ThreadTrace's events through `writer` with row id `tid`,
/// shifting timestamps down by `base_ns`. `skip_tasks` drops kTask events
/// (used when task rows come from a richer source).
void write_thread_events(ChromeTraceWriter& writer, const ThreadTrace& thread,
                         int pid, int tid, std::uint64_t base_ns,
                         bool skip_tasks = false);

/// The whole-process timeline: collect() rendered as one chrome-trace JSON.
void write_trace_json(std::ostream& os);
void write_trace_json_file(const std::string& path);

/// Smallest timestamp across `threads` (0 when empty) — the export base so
/// Perfetto shows times from ~0 instead of hours of steady-clock uptime.
[[nodiscard]] std::uint64_t earliest_ts(const std::vector<ThreadTrace>& threads);

}  // namespace bpar::obs
