// Inference serving engine: concurrent clients, dynamic micro-batching,
// cached forward-only task graphs, and a resilience layer (DESIGN.md §5f +
// §5h).
//
// An InferenceEngine owns a trained rnn::Network and a BParExecutor whose
// per-(seq_length, batch_rows) program cache turns every repeated request
// shape into a prebuilt task-graph replay — no graph construction on the
// hot path. Clients submit single-sequence requests from any thread; a
// single dispatcher thread coalesces them into micro-batches (up to
// `max_batch`, or whatever arrived when the head request has waited
// `max_delay_us`), pads the batch up to a power-of-two row bucket so the
// cache stays small, and masks the padded rows out of every per-request
// result (argmax, logits, loss — per-request losses are recomputed from the
// request's own logits, so padding never pollutes them).
//
// Admission control (DESIGN.md §5h): every request carries a Priority
// class. The bounded queue is per-class FIFO with strict priority across
// classes (kHigh is always sealed first), per-class quotas cap how much of
// `max_queue` a class may occupy, and queue-delay load shedding answers
// overdue kNormal/kBatch requests with kShed when the backlog exceeds one
// micro-batch — overload lands on the lowest classes while kHigh latency
// stays flat. Already-expired deadlines are rejected at submit() so dead
// requests never consume a queue slot. serve::Batcher (serve/batcher.hpp)
// makes all of these decisions on an explicit clock; the dispatcher drives
// it with steady-clock time and answers what it decides.
//
// Fault-hardened execution: every batch runs fp32 cells on the kernel
// backend selected at start-up. EngineOptions::executor.faults/watchdog_ms
// flow into the executor's runtime (the PR-2 fault stack), and infer() is
// wrapped in a recovery loop: InjectedFault / WatchdogError / non-finite
// outputs trigger bounded whole-batch retries (fault schedules decorrelate
// across runtime sessions), then bisection — the batch splits in half until
// a deterministically poisoned request is isolated and answered
// kInternalError while its batchmates succeed bit-exactly. The runtime
// watchdog (executor.watchdog_ms) turns a stalled graph into a
// WatchdogError, releasing injected stalls on the way; a poisoned runtime
// (the graph never drained) is replaced by rebuilding the executor.
// Health is healthy / degraded / draining: degraded after a request group
// exhausts its retries, healthy again after the next clean group, draining
// once shutdown() begins — exposed through EngineStats and serve.health.
//
// Observability: per-stage latency histograms (serve.queue_us /
// serve.batch_form_us / serve.exec_us), request/batch/shed/retry counters,
// the health gauge, and BPAR_SPAN tracing on the submit, batch, retry, and
// bisect paths, so `bpar_prof analyze` attributes retry/shed time on
// serving runs unchanged. While span tracing is on, every request stage
// (RequestStage) is also a `req.<stage>` keyed instant in the span ring of
// the thread that reaches it — the submitting client or the dispatcher —
// which `bpar_prof request <id>` reads back from any exported trace.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "exec/bpar_executor.hpp"
#include "exec/common_options.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/profiler.hpp"
#include "obs/sampler.hpp"
#include "obs/slo.hpp"
#include "obs/stats_server.hpp"
#include "rnn/network.hpp"

namespace bpar::serve {

/// Request priority classes for admission control. Lower value = served
/// first. kHigh is never shed; kBatch is shed first under overload.
enum class Priority : std::uint8_t { kHigh = 0, kNormal = 1, kBatch = 2 };
inline constexpr int kNumPriorities = 3;

[[nodiscard]] const char* priority_name(Priority priority);
/// Parses "high" / "normal" / "batch" (throws util::Error otherwise).
[[nodiscard]] Priority parse_priority(std::string_view name);

struct EngineOptions {
  /// Workers / replicas for the owned BParExecutor — including
  /// `faults` (deterministic fault injection) and `watchdog_ms` (runtime
  /// no-progress watchdog), which flow into the runtime unchanged: the
  /// serving engine inherits the PR-2 fault stack through here.
  exec::CommonOptions executor{};
  /// Largest micro-batch the dispatcher coalesces (and the top row bucket).
  /// 1 → every request executes alone (batch-1 latency mode).
  int max_batch = 8;
  /// Flush deadline: a formed batch executes as soon as it reaches
  /// max_batch OR the oldest queued request has waited this long.
  std::uint32_t max_delay_us = 500;
  /// Bounded queue (all classes together); submissions beyond it reject
  /// with kRejected.
  std::size_t max_queue = 256;
  /// Record per-task timing in the executor so write_unified_trace() can
  /// export an analyzable trace (`bpar_prof analyze`) of the last batch.
  bool record_trace = false;
  /// Ignored: kept only so bench/e2e, which sets it, builds unchanged.
  /// Goes with the next change to that benchmark.
  std::string passes = "none";

  // ---- resilience (DESIGN.md §5h) ----
  /// Per-class queue quotas, indexed by Priority: how many of the
  /// max_queue slots each class may occupy. 0 → no class-specific cap
  /// (the shared max_queue still applies).
  std::array<std::size_t, kNumPriorities> class_quota{};
  /// Queue-delay load shedding: when the backlog exceeds one micro-batch
  /// (max_batch) AND a kNormal/kBatch request has waited longer than this,
  /// it is answered kShed instead of executing, lowest class first. kHigh
  /// is never shed. 0 → 16 * max_delay_us.
  std::uint32_t shed_wait_us = 0;
  /// Whole-batch retries after a fault (injected throw, watchdog error,
  /// non-finite outputs) before bisection isolates the poisoned request.
  int max_batch_retries = 2;

  // ---- live observability (DESIGN.md §5i) ----
  /// TCP port for the embedded stats endpoint (/metrics Prometheus text,
  /// /statz JSON, /healthz). -1 = no listener; 0 = ephemeral port (read it
  /// back with stats_port()). Enabling the listener also starts the
  /// MetricsSampler — /statz windows need time series behind them.
  int stats_port = -1;
  /// Sampler tick period.
  std::uint32_t sampler_period_ms = 1000;
  /// Availability objective and latency target for the built-in SLO
  /// tracker.
  obs::SloOptions slo{};

  // ---- flight recorder + profiler (DESIGN.md §5j) ----
  /// Directory for flight-recorder dump bundles. Non-empty arms the
  /// recorder: runtime watchdog errors and SLO both-window alerting each
  /// snapshot what the trace rings still hold (spans / task rows / request
  /// markers; under load only the last tens of milliseconds per thread,
  /// see flight_recorder.hpp) and the metrics into a rotated, size-bounded
  /// bundle here, and `GET /debug/dump` forces one manually. Fatal signals
  /// leave an async-signal-safe marker file in the same directory. Empty =
  /// no recorder.
  std::string dump_dir;
  /// Minimum spacing between automatic dumps (a run of stalled batches
  /// writes one bundle, not hundreds).
  std::uint32_t dump_debounce_ms = 5000;
  /// Run the continuous span-stack profiler for the engine's lifetime, so
  /// `GET /profilez` serves windowed deltas and every dump bundle carries
  /// a folded profile. Off by default: sampling costs ~4 relaxed stores
  /// per span push/pop on every instrumented thread.
  bool enable_profiler = false;
};

enum class Status {
  kOk,
  kRejected,          // bounded queue (or class quota) full at submit time
  kShed,              // load-shed from the queue under overload
  kDeadlineExceeded,  // request expired before execution
  kShutdown,          // submitted after shutdown() began
  kFailed,            // invalid request (validation error; see error)
  kInternalError,     // execution failed after retries + bisection
};
inline constexpr int kNumStatuses = 7;

[[nodiscard]] const char* status_name(Status status);

/// Engine health state machine (DESIGN.md §5h): healthy → degraded when a
/// request group exhausts its retries, back to healthy after the next clean
/// group; draining once shutdown() begins.
enum class Health { kHealthy, kDegraded, kDraining };

[[nodiscard]] const char* health_name(Health health);

/// Lifecycle stages a request passes through, recorded while span tracing
/// is on as `req.<stage>` instants keyed by the request id mod 2^32. The
/// one-byte argument (saturated at 255) disambiguates within a stage:
/// class at kQueued, batch size at kSealed, padded rows at kFormed, 1 for
/// a failure at kExecEnd, attempt number at kRetry, bisection depth at
/// kBisect, and the final Status at kResponded.
enum class RequestStage : std::uint8_t {
  kSubmitted,  // id assigned, request validated
  kQueued,     // earned a queue slot
  kSealed,     // taken into a micro-batch (arg = batch size)
  kFormed,     // batch buffers filled (arg = padded rows)
  kExecBegin,  // first execution attempt starts
  kExecEnd,    // execution attempts finished (ok or not)
  kRetry,      // whole-batch retry (arg = attempt number)
  kBisect,     // batch split to isolate a fault (arg = depth)
  kResponded,  // promise fulfilled (arg = Status)
};
inline constexpr int kNumRequestStages = 9;

/// "submitted", "queued", ...: the marker name without its "req." prefix.
[[nodiscard]] const char* request_stage_name(RequestStage stage);

/// One sequence to classify. `features` is row-major by timestep:
/// features[t * input_size + f]. Labels are optional — empty means no loss
/// is computed; otherwise 1 entry (many-to-one) or `steps` entries
/// (many-to-many) and the response carries this request's exact loss.
struct Request {
  int steps = 0;
  std::vector<float> features;
  std::vector<int> labels;
  /// Optional absolute deadline; default (epoch) = none. Already-expired
  /// deadlines are answered kDeadlineExceeded at submit() without ever
  /// occupying a queue slot.
  std::chrono::steady_clock::time_point deadline{};
  bool want_logits = false;
  /// Admission class: kHigh is sealed first and never shed; kBatch is the
  /// first to be shed under overload.
  Priority priority = Priority::kNormal;
};

struct Response {
  Status status = Status::kOk;
  std::uint64_t id = 0;
  /// Mean cross-entropy of THIS request (padding-immune; 0 without labels).
  double loss = 0.0;
  std::vector<int> predictions;  // [outputs] argmax class ids
  std::vector<float> logits;     // [outputs * classes] when want_logits
  int batch_rows = 0;            // executed micro-batch rows (with padding)
  int real_rows = 0;             // of which were real requests
  double queue_us = 0.0;         // submit → micro-batch sealed
  double batch_form_us = 0.0;    // seal → batch buffers filled
  double exec_us = 0.0;          // task-graph execution (incl. retries)
  std::string error;             // kFailed / kInternalError diagnostic
};

/// Counter snapshot + health; the `serve.*` metrics mirror these.
struct EngineStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  // answered kOk
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t failed = 0;           // validation failures
  std::uint64_t internal_errors = 0;  // answered kInternalError
  std::uint64_t batches = 0;
  std::uint64_t padded_rows = 0;
  std::uint64_t retries = 0;          // whole-batch retry attempts
  std::uint64_t bisections = 0;       // batch splits isolating a fault
  std::uint64_t executor_rebuilds = 0;  // poisoned-runtime replacements
  Health health = Health::kHealthy;
  std::size_t queue_depth = 0;  // all classes together
  /// Per-class backlog, indexed by Priority.
  std::array<std::size_t, kNumPriorities> queue_depths{};
  /// SLO tracker state (availability, latency attainment, budget burn).
  obs::SloTracker::Snapshot slo{};
};

// The admission core, defined in serve/batcher.hpp.
struct Pending;
class Batcher;

class InferenceEngine {
 public:
  /// Builds the network from `config` (load trained weights through
  /// network() or load_weights() before serving) and starts the dispatcher.
  InferenceEngine(const rnn::NetworkConfig& config, EngineOptions options);
  ~InferenceEngine();  // shutdown(): drains the queue, joins the dispatcher

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  [[nodiscard]] rnn::Network& network() { return net_; }
  [[nodiscard]] const rnn::NetworkConfig& config() const {
    return net_.config();
  }
  [[nodiscard]] exec::BParExecutor& executor() { return *executor_; }

  /// Reads weights saved by Model::save / rnn::Network::save.
  void load_weights(const std::string& path);

  /// Pre-builds the forward program of every row bucket for each sequence
  /// length, so the first real requests don't pay graph construction.
  void warmup(std::span<const int> seq_lengths);

  /// Thread-safe. The future completes when the request is served (or
  /// immediately, with a non-kOk status, when it cannot be queued).
  [[nodiscard]] std::future<Response> submit(Request request);

  /// Blocking convenience: submit(request).get().
  [[nodiscard]] Response infer(Request request);

  /// Stops intake (new submits answer kShutdown), serves everything already
  /// queued, and joins the dispatcher. Idempotent.
  void shutdown();

  [[nodiscard]] EngineStats stats() const;
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] Health health() const;

  /// Writes a unified chrome-trace (task slices of the LAST served
  /// micro-batch + every obs span and request-stage marker recorded so
  /// far) that `bpar_prof analyze` / `bpar_prof request <id>` consume.
  /// Requires EngineOptions::record_trace and at least one cached-path
  /// batch; call when quiescent (after shutdown()).
  void write_unified_trace(const std::string& path);

  /// The bound stats-endpoint port (useful with EngineOptions::stats_port
  /// = 0), or -1 when no listener is running.
  [[nodiscard]] int stats_port() const;
  /// The /statz payload: EngineStats + per-class queue depths + SLO state
  /// + sampler windows + the full metrics registry, as one JSON object.
  /// Works with or without a listener (the sampler section degrades to
  /// whatever has been collected).
  [[nodiscard]] std::string statz_json() const;
  /// The background sampler, or nullptr when not enabled.
  [[nodiscard]] const obs::MetricsSampler* sampler() const {
    return sampler_.get();
  }
  /// Forces a flight-recorder dump (same path the automatic triggers use,
  /// including the debounce). Thread-safe. Returns written=false with a
  /// `skipped` reason when no recorder is armed or the trigger debounced.
  obs::DumpResult trigger_dump(std::string_view reason);
  /// The armed flight recorder, or nullptr when dump_dir is empty.
  [[nodiscard]] const obs::FlightRecorder* flight_recorder() const {
    return flight_.get();
  }
  /// The continuous span-stack profiler, or nullptr unless
  /// EngineOptions::enable_profiler.
  [[nodiscard]] const obs::SpanProfiler* profiler() const {
    return profiler_.get();
  }
  /// Collapsed-flamegraph text for roughly the next `seconds` of serving
  /// (what `GET /profilez?seconds=N` returns): a windowed delta of the
  /// continuous profiler when one is running, otherwise an ephemeral
  /// profiler spun up just for the window. Blocks for the window.
  [[nodiscard]] std::string profile_folded(double seconds);

  /// The row bucket a micro-batch of `rows` requests pads up to: the next
  /// power of two, clamped to `max_batch`.
  [[nodiscard]] static int bucket_rows(int rows, int max_batch);

 private:
  using Clock = std::chrono::steady_clock;

  /// Steps the Batcher and answers its decisions until shutdown() has
  /// drained the queues.
  void dispatcher_loop();
  /// Forms + executes a request group with bounded retries; bisects on
  /// exhaustion. Answers every promise exactly once. Dispatcher thread.
  void serve_group(std::vector<Pending> live, Clock::time_point sealed,
                   int depth);
  /// One execution attempt; never throws. Returns an empty error string on
  /// success.
  std::string try_execute(const rnn::BatchData& batch, bool need_logits,
                          int steps, int rows, exec::InferResult& result);
  /// Replaces a poisoned executor with a fresh one (dispatcher thread).
  void rebuild_executor();
  void set_health(Health health);
  /// Answers `pending` with `response`: the per-Status counters, SLO
  /// bookkeeping (latency_us counts for kOk only) and the kResponded marker.
  void respond(Pending& pending, Response response, double latency_us = 0.0);
  /// SLO bookkeeping for one terminal response (kRejected / kShutdown /
  /// kFailed are not SLO-eligible — they are client errors or the client's
  /// own backpressure signal, not service failures).
  void record_slo(Status status, double latency_us);
  /// Publishes serve.queue_depth and the per-class
  /// serve.queue_depth.{high,normal,batch} gauges. Caller holds mu_.
  void publish_queue_depths_locked();
  /// Builds + starts the sampler / stats listener per options_ (ctor).
  void start_observability();
  /// Builds + arms the flight recorder / profiler per options_ (ctor,
  /// before start_observability so handlers can reference them).
  void start_flight_recorder();
  /// FlightRecorder trace provider: the last traced batch's unified trace
  /// when one exists, else a spans-only trace — request markers ride along
  /// in the span rings either way. Takes trace_mu_.
  bool write_flight_trace(std::ostream& os);
  /// Edge-detects SLO both-window alerting and fires a dump on the rising
  /// edge. Dispatcher thread, mu_ not held.
  void check_slo_alert();
  /// Serve-queue memory accounting (mem.serve_queue): the payload bytes a
  /// queued request pins.
  static std::uint64_t pending_bytes(const Pending& pending);
  [[nodiscard]] std::string validate(const Request& request) const;

  rnn::Network net_;
  EngineOptions options_;
  std::unique_ptr<exec::BParExecutor> executor_;
  Clock::time_point started_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unique_ptr<Batcher> batcher_;  // guarded by mu_

  mutable std::mutex trace_mu_;  // guards the two last-trace fields
  graph::TrainingProgram* last_traced_program_ = nullptr;
  taskrt::RunStats last_traced_stats_;

  // ---- live observability (DESIGN.md §5i) ----
  obs::SloTracker slo_;
  std::unique_ptr<obs::MetricsSampler> sampler_;
  std::unique_ptr<obs::StatsServer> stats_server_;
  // ---- flight recorder + profiler (DESIGN.md §5j) ----
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::unique_ptr<obs::SpanProfiler> profiler_;
  bool slo_alerting_prev_ = false;  // dispatcher thread only

  std::atomic<int> health_{0};  // Health as int, for lock-free reads

  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> submitted_{0};
  /// Requests answered, indexed by Status.
  std::array<std::atomic<std::uint64_t>, kNumStatuses> answered_{};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> padded_rows_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> bisections_{0};
  std::atomic<std::uint64_t> executor_rebuilds_{0};

  // Threads last: they start after everything above is initialized.
  std::thread dispatcher_;
};

}  // namespace bpar::serve
