// Low-overhead span tracing: per-thread lock-free ring buffers of compact
// 16-byte events, drained into one Perfetto/chrome-trace timeline.
//
// Recording model (DESIGN.md §5d):
//  * every thread that records gets its own fixed-capacity ring; a write is
//    two relaxed atomic stores plus a release bump of the head cursor — no
//    locks, no allocation, no cross-thread traffic on the hot path;
//  * rings drop the *oldest* events on wrap, so a trace always holds the
//    most recent window of activity (the per-ring `dropped` count says how
//    much history was lost);
//  * names are interned once per call site (`BPAR_SPAN("x")` hides a
//    function-local static), so events carry a 2-byte id, not a string;
//  * recording is gated on a single relaxed atomic flag. When the flag is
//    off the cost of an instrumented scope is one load + branch.
//
// Timestamps are absolute steady_clock nanoseconds, the same clock the task
// runtime stamps task traces with, so kernel spans, trainer phases, and
// task rows land on one shared timeline.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bpar::obs {

enum class EventKind : std::uint8_t {
  kSpan = 0,          // payload = duration ns (float bits)
  kTask = 1,          // task execution; extra = TaskKind, payload as kSpan
  kCounter = 2,       // payload = sampled value (saturating u32)
  kInstant = 3,       // point event, payload unused
  kKeyedInstant = 4,  // point event; payload = id, extra = argument byte
};

/// One decoded trace event. The in-ring representation packs this into
/// 16 bytes (8-byte timestamp + 8-byte payload word).
struct TraceEvent {
  std::uint64_t ts_ns = 0;   // absolute steady-clock ns
  std::uint32_t payload = 0; // see EventKind
  std::uint16_t name = 0;    // interned name id
  EventKind kind = EventKind::kSpan;
  std::uint8_t extra = 0;    // kTask: TaskKind; kKeyedInstant: argument

  [[nodiscard]] double duration_ns() const;  // decodes the float payload
};

/// Steady-clock ns since the clock's epoch — the tracing timebase.
[[nodiscard]] std::uint64_t now_ns();

// ---- enable/disable ----

namespace detail {
extern std::atomic<bool> g_tracing_enabled;
}  // namespace detail
[[nodiscard]] inline bool tracing_enabled() {
  return detail::g_tracing_enabled.load(std::memory_order_relaxed);
}
void set_tracing_enabled(bool on);

// ---- span-stack maintenance (profiler support) ----
//
// When a SpanProfiler (obs/profiler.hpp) is running, every live Span also
// pushes its interned name onto a per-thread seqlock-guarded stack so the
// profiler's sampling thread can read "what is this thread doing right
// now" without stopping it. The gate is one relaxed load, the same cost
// model as tracing_enabled().

namespace detail {
extern std::atomic<int> g_profiling_active;  // live SpanProfiler count
}  // namespace detail
[[nodiscard]] inline bool profiling_active() {
  return detail::g_profiling_active.load(std::memory_order_relaxed) > 0;
}
/// Pushes/pops `name` on the calling thread's span stack (profiler.cpp).
/// Span calls these; push only while profiling_active(), pop always pairs
/// with a successful push so enable/disable mid-span stays balanced.
void span_stack_push(std::uint16_t name);
void span_stack_pop();

// ---- name interning ----

/// Returns a stable 16-bit id for `name`; repeated calls with the same
/// string return the same id. Id 0 is reserved for "<overflow>" (returned
/// once the 65k-name table fills — it never does in practice).
[[nodiscard]] std::uint16_t intern_name(std::string_view name);
[[nodiscard]] std::string interned_name(std::uint16_t id);

// ---- recording (no-ops while tracing is disabled) ----

void record_span(std::uint16_t name, std::uint64_t start_ns,
                 std::uint64_t end_ns);
void record_task(std::uint16_t name, std::uint8_t task_kind,
                 std::uint64_t start_ns, std::uint64_t end_ns);
void record_counter(std::uint16_t name, std::uint64_t ts_ns,
                    std::uint64_t value);
void record_instant(std::uint16_t name, std::uint64_t ts_ns);
/// An instant keyed by `id` with a one-byte argument; the exporter writes
/// it with args {"id": id, "arg": arg}.
void record_instant(std::uint16_t name, std::uint64_t ts_ns, std::uint32_t id,
                    std::uint8_t arg);

/// Labels the calling thread's row in the exported trace ("main",
/// "worker 3", ...). Callable before or after the first event.
void set_thread_name(std::string name);

// ---- collection ----

struct ThreadTrace {
  int ring_id = 0;             // registration order, stable per thread
  std::string name;            // thread label (may be empty)
  std::uint64_t dropped = 0;   // events lost to ring wrap
  std::vector<TraceEvent> events;  // oldest → newest
};

/// Snapshot of every thread's ring. Slots are atomics, so concurrent
/// recording is safe (TSan-clean); a thread actively wrapping its ring can
/// contribute one mixed event at the snapshot boundary, which diagnostics
/// tolerate. Intended at quiescent points (end of run).
[[nodiscard]] std::vector<ThreadTrace> collect();

/// Total events currently held across all rings (post-drop).
[[nodiscard]] std::size_t events_held();

/// Drops all recorded events and per-ring drop counts (tests).
void clear();

/// Ring capacity (events per thread) used for rings created from now on.
/// Default 65536 (1 MiB/thread), overridable with BPAR_TRACE_CAPACITY.
[[nodiscard]] std::size_t ring_capacity();
void set_ring_capacity(std::size_t events);

/// RAII span: stamps start at construction, records on destruction. While
/// a profiler is sampling it also maintains the thread's live span stack
/// (the `pushed_` flag keeps push/pop balanced across enable/disable).
class Span {
 public:
  explicit Span(std::uint16_t name)
      : name_(name), start_(tracing_enabled() ? now_ns() : 0) {
    if (profiling_active()) {
      span_stack_push(name);
      pushed_ = true;
    }
  }
  ~Span() {
    if (pushed_) span_stack_pop();
    if (start_ != 0) record_span(name_, start_, now_ns());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint16_t name_;
  std::uint64_t start_;
  bool pushed_ = false;
};

}  // namespace bpar::obs

#define BPAR_OBS_CAT2(a, b) a##b
#define BPAR_OBS_CAT(a, b) BPAR_OBS_CAT2(a, b)

/// Traces the enclosing scope as a span named `name_literal` (a string
/// literal; interned once per call site).
#define BPAR_SPAN(name_literal)                                             \
  static const std::uint16_t BPAR_OBS_CAT(bpar_span_id_, __LINE__) =        \
      ::bpar::obs::intern_name(name_literal);                               \
  const ::bpar::obs::Span BPAR_OBS_CAT(bpar_span_, __LINE__)(               \
      BPAR_OBS_CAT(bpar_span_id_, __LINE__))

/// Samples `value` onto the counter track `name_literal` at the current time.
#define BPAR_COUNTER(name_literal, value)                                   \
  do {                                                                      \
    if (::bpar::obs::tracing_enabled()) {                                   \
      static const std::uint16_t bpar_counter_id_ =                         \
          ::bpar::obs::intern_name(name_literal);                           \
      ::bpar::obs::record_counter(bpar_counter_id_, ::bpar::obs::now_ns(),  \
                                  static_cast<std::uint64_t>(value));       \
    }                                                                       \
  } while (false)
