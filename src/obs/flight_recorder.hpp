// Flight recorder (DESIGN.md §5j): after-the-fact incident capture.
//
// The tracing rings are drop-oldest, the request-event ring is bounded,
// and the sampler keeps a rolling snapshot window — so at any moment the
// process already holds "the last N seconds of everything". A
// FlightRecorder turns that into a self-contained dump bundle on demand:
//
//   <dir>/<stem>-<seq>-<reason>.trace.json    unified Chrome trace
//   <dir>/<stem>-<seq>-<reason>.report.json   schema-versioned report
//                                             (trigger, engine state,
//                                             metrics, folded profile)
//
// trigger() is thread-safe, debounced (a trigger firing at 10 Hz writes
// one bundle, not six hundred), and rotates the directory to both a
// bundle-count and a total-byte bound so a long-lived server can never
// fill a disk. Content comes from pluggable providers so obs stays
// layered below taskrt/serve: the serving engine installs a trace writer,
// a /statz-style state JSON fn, and a folded-profile fn.
//
// Fatal signals (SIGSEGV/SIGBUS/SIGFPE/SIGABRT) get the async-signal-safe
// treatment: install_fatal_handler() pre-opens an fd and pre-serializes a
// header; the handler only write()s that header plus the signal number
// and re-raises — the full (allocating, locking) dump is deliberately
// deferred to the next process start, which finds the marker file.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace bpar::obs {

struct FlightRecorderOptions {
  std::string dir = "dumps";
  std::string stem = "dump";
  /// Rotation bounds: oldest bundles are pruned past either limit.
  std::size_t max_bundles = 8;
  std::uint64_t max_total_bytes = 64ULL << 20;
  /// Minimum spacing between written dumps; triggers inside the window
  /// are counted in suppressed() and return written=false.
  std::uint32_t debounce_ms = 5000;
};

struct DumpResult {
  bool written = false;
  std::string reason;       // sanitized trigger reason
  std::string skipped;      // why nothing was written ("debounced", ...)
  std::string trace_path;
  std::string report_path;
};

class FlightRecorder {
 public:
  /// Writes the unified trace; returns false when no trace is available
  /// (the bundle then records "trace": null).
  using TraceWriter = std::function<bool(std::ostream&)>;
  using TextFn = std::function<std::string()>;

  explicit FlightRecorder(FlightRecorderOptions options = {});
  ~FlightRecorder();  // uninstalls the fatal handler if this installed it

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void set_trace_writer(TraceWriter fn);
  /// Complete JSON object describing live engine state (statz_json). Runs
  /// with the recorder's lock held, so it may read dumps()/suppressed()
  /// (lock-free atomics) but must not call trigger() or bundle_reports().
  void set_state_json(TextFn fn);
  /// Folded span-stack profile captured at dump time (may be empty).
  void set_profile_text(TextFn fn);

  /// Snapshots everything into a new bundle. Thread-safe; debounced.
  DumpResult trigger(std::string_view reason);

  [[nodiscard]] std::uint64_t dumps() const;       // bundles written
  [[nodiscard]] std::uint64_t suppressed() const;  // debounced triggers
  [[nodiscard]] const FlightRecorderOptions& options() const {
    return options_;
  }

  /// Bundle report paths currently on disk, oldest first (rotation tests).
  [[nodiscard]] std::vector<std::string> bundle_reports() const;

  /// Installs process-wide handlers for SIGSEGV/SIGBUS/SIGFPE/SIGABRT.
  /// Only one recorder per process can hold them; returns false if
  /// another already does or the marker fd cannot be opened.
  bool install_fatal_handler();
  /// The pre-opened marker file the handler writes ("" until installed).
  [[nodiscard]] std::string fatal_path() const;
  /// Exactly what the signal handler does minus the re-raise: write() the
  /// pre-serialized header + "signal N" line to the pre-opened fd.
  /// Async-signal-safe. Exposed so tests can exercise it directly.
  void write_fatal_record(int sig);

 private:
  DumpResult write_bundle_locked(std::string_view reason);
  void rotate_locked(const std::string& keep_base);

  FlightRecorderOptions options_;
  mutable std::mutex mu_;
  TraceWriter trace_writer_;
  TextFn state_json_;
  TextFn profile_text_;
  std::uint64_t seq_ = 0;
  // Atomics, not mu_-guarded: the state-JSON provider runs inside
  // trigger() (mu_ held) and reads these for its "flight" section.
  std::atomic<std::uint64_t> dumps_{0};
  std::atomic<std::uint64_t> suppressed_{0};
  std::uint64_t last_dump_ns_ = 0;  // steady ns of the last written dump
  int fatal_fd_ = -1;
  bool handler_installed_ = false;
  std::string fatal_path_;
  std::string fatal_header_;  // pre-serialized: no allocation in handler
};

}  // namespace bpar::obs
