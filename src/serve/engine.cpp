#include "serve/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "obs/expo.hpp"
#include "obs/json.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "taskrt/export.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace bpar::serve {

namespace {

constexpr std::chrono::steady_clock::time_point kNoDeadline{};

/// Shared microsecond-scale latency edges for the serve.* histograms.
std::vector<double> latency_edges_us() {
  return {50,    100,   200,    500,    1000,   2000,    5000,
          10000, 20000, 50000, 100000, 200000, 500000, 1000000};
}

obs::HistogramCell& queue_histogram() {
  static obs::HistogramCell& cell =
      obs::Registry::instance().histogram("serve.queue_us",
                                          latency_edges_us());
  return cell;
}

obs::HistogramCell& form_histogram() {
  static obs::HistogramCell& cell = obs::Registry::instance().histogram(
      "serve.batch_form_us", latency_edges_us());
  return cell;
}

obs::HistogramCell& exec_histogram() {
  static obs::HistogramCell& cell =
      obs::Registry::instance().histogram("serve.exec_us",
                                          latency_edges_us());
  return cell;
}

obs::HistogramCell& batch_rows_histogram() {
  static obs::HistogramCell& cell = obs::Registry::instance().histogram(
      "serve.batch_rows", {1.5, 2.5, 4.5, 8.5, 16.5, 32.5, 64.5});
  return cell;
}

obs::HistogramCell& request_histogram() {
  static obs::HistogramCell& cell = obs::Registry::instance().histogram(
      "serve.request_us", latency_edges_us());
  return cell;
}

double us_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Value of `key=value` inside an HTTP query string ("" when absent).
std::string query_param(std::string_view query, std::string_view key) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t end = query.find('&', pos);
    if (end == std::string_view::npos) end = query.size();
    const std::string_view pair = query.substr(pos, end - pos);
    if (pair.size() > key.size() + 1 &&
        pair.substr(0, key.size()) == key && pair[key.size()] == '=') {
      return std::string(pair.substr(key.size() + 1));
    }
    pos = end + 1;
  }
  return {};
}

/// Numerically stable log(sum(exp(logits))).
double logsumexp(std::span<const float> logits) {
  double hi = logits[0];
  for (const float v : logits) hi = std::max(hi, static_cast<double>(v));
  double sum = 0.0;
  for (const float v : logits) sum += std::exp(static_cast<double>(v) - hi);
  return hi + std::log(sum);
}

}  // namespace

const char* status_name(Status status) {
  switch (status) {
    case Status::kOk:
      return "ok";
    case Status::kRejected:
      return "rejected";
    case Status::kShed:
      return "shed";
    case Status::kDeadlineExceeded:
      return "deadline_exceeded";
    case Status::kShutdown:
      return "shutdown";
    case Status::kFailed:
      return "failed";
    case Status::kInternalError:
      return "internal_error";
  }
  return "unknown";
}

const char* priority_name(Priority priority) {
  switch (priority) {
    case Priority::kHigh:
      return "high";
    case Priority::kNormal:
      return "normal";
    case Priority::kBatch:
      return "batch";
  }
  return "unknown";
}

Priority parse_priority(std::string_view name) {
  if (name == "high") return Priority::kHigh;
  if (name == "normal") return Priority::kNormal;
  if (name == "batch") return Priority::kBatch;
  throw util::Error("unknown priority '" + std::string(name) +
                    "' (expected high|normal|batch)");
}

const char* request_stage_name(RequestStage stage) {
  switch (stage) {
    case RequestStage::kSubmitted:
      return "submitted";
    case RequestStage::kQueued:
      return "queued";
    case RequestStage::kSealed:
      return "sealed";
    case RequestStage::kFormed:
      return "formed";
    case RequestStage::kExecBegin:
      return "exec_begin";
    case RequestStage::kExecEnd:
      return "exec_end";
    case RequestStage::kRetry:
      return "retry";
    case RequestStage::kBisect:
      return "bisect";
    case RequestStage::kResponded:
      return "responded";
  }
  return "unknown";
}

const char* health_name(Health health) {
  switch (health) {
    case Health::kHealthy:
      return "healthy";
    case Health::kDegraded:
      return "degraded";
    case Health::kDraining:
      return "draining";
  }
  return "unknown";
}

int InferenceEngine::bucket_rows(int rows, int max_batch) {
  BPAR_CHECK(rows >= 1, "empty micro-batch");
  int bucket = 1;
  while (bucket < rows) bucket *= 2;
  return std::min(bucket, std::max(rows, max_batch));
}

InferenceEngine::InferenceEngine(const rnn::NetworkConfig& config,
                                 EngineOptions options)
    : net_(config),
      options_(options),
      executor_(std::make_unique<exec::BParExecutor>(
          net_,
          exec::BParOptions{.common = options.executor,
                            .record_trace = options.record_trace})),
      started_(Clock::now()),
      slo_(options.slo) {
  BPAR_CHECK(options_.max_batch >= 1, "max_batch must be >= 1");
  BPAR_CHECK(options_.max_queue >= 1, "max_queue must be >= 1");
  BPAR_CHECK(options_.max_batch_retries >= 0,
             "max_batch_retries must be >= 0");
  if (options_.trace_requests) {
    request_events_.assign(kMaxRequestEvents, RequestEvent{});
  }

  start_flight_recorder();
  start_observability();
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

void InferenceEngine::start_flight_recorder() {
  if (options_.enable_profiler) {
    profiler_ = std::make_unique<obs::SpanProfiler>(
        obs::ProfilerOptions{.period_us = options_.profiler_period_us});
    profiler_->start();
  }
  if (options_.dump_dir.empty()) return;
  obs::FlightRecorderOptions fo;
  fo.dir = options_.dump_dir;
  fo.max_bundles = options_.dump_max_bundles;
  fo.max_total_bytes = options_.dump_max_total_bytes;
  fo.debounce_ms = options_.dump_debounce_ms;
  flight_ = std::make_unique<obs::FlightRecorder>(fo);
  flight_->set_trace_writer(
      [this](std::ostream& os) { return write_flight_trace(os); });
  flight_->set_state_json([this] { return statz_json(); });
  flight_->set_profile_text([this] {
    return profiler_ != nullptr ? profiler_->folded_text() : std::string();
  });
  if (!flight_->install_fatal_handler()) {
    BPAR_LOG_WARN << "serve: fatal-signal dump marker unavailable "
                     "(another recorder owns the handlers?)";
  }
  BPAR_LOG_INFO << "serve: flight recorder armed, dumping to "
                << options_.dump_dir;
}

void InferenceEngine::start_observability() {
  if (options_.enable_sampler || options_.stats_port >= 0) {
    obs::SamplerOptions sampler_options;
    sampler_options.period_ms = options_.sampler_period_ms;
    sampler_options.rate_series = {"serve.requests", "serve.completed"};
    sampler_ = std::make_unique<obs::MetricsSampler>(sampler_options);
    sampler_->start();
  }
  if (options_.stats_port >= 0) {
    stats_server_ = std::make_unique<obs::StatsServer>();
    stats_server_->handle("/healthz", [](std::string_view) {
      return obs::HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
    });
    stats_server_->handle("/metrics", [](std::string_view) {
      return obs::HttpResponse{
          200, "text/plain; version=0.0.4; charset=utf-8",
          obs::prometheus_text(
              obs::Registry::instance().snapshot(/*include_series=*/false))};
    });
    stats_server_->handle("/statz", [this](std::string_view) {
      return obs::HttpResponse{200, "application/json", statz_json()};
    });
    // Manual flight dump: GET /debug/dump[?reason=<slug>]. Debounced like
    // every other trigger so a curl loop cannot flood the directory.
    stats_server_->handle("/debug/dump", [this](std::string_view query) {
      std::string reason = query_param(query, "reason");
      if (reason.empty()) reason = "manual";
      const obs::DumpResult result = trigger_dump(reason);
      std::string body = "{\"written\": ";
      body += result.written ? "true" : "false";
      body += ", \"reason\": " + obs::json_quote(result.reason);
      if (!result.skipped.empty()) {
        body += ", \"skipped\": " + obs::json_quote(result.skipped);
      }
      if (result.written) {
        body += ", \"trace\": " + obs::json_quote(result.trace_path);
        body += ", \"report\": " + obs::json_quote(result.report_path);
      }
      body += "}\n";
      return obs::HttpResponse{result.written ? 200 : 503,
                               "application/json", body};
    });
    // Live profile window: GET /profilez?seconds=N returns collapsed
    // flamegraph text. Blocks the (single-connection) stats thread for the
    // window, which is exactly what a "profile the next N seconds" call
    // means.
    stats_server_->handle("/profilez", [this](std::string_view query) {
      double seconds = 2.0;
      if (const std::string v = query_param(query, "seconds"); !v.empty()) {
        seconds = std::strtod(v.c_str(), nullptr);
      }
      seconds = std::clamp(seconds, 0.1, 30.0);
      return obs::HttpResponse{200, "text/plain; charset=utf-8",
                               profile_folded(seconds)};
    });
    if (stats_server_->start(
            static_cast<std::uint16_t>(options_.stats_port))) {
      BPAR_LOG_INFO << "serve: stats endpoint listening on port "
                    << stats_server_->port()
                    << " (/metrics /statz /healthz /profilez /debug/dump)";
    } else {
      BPAR_LOG_WARN << "serve: could not bind stats port "
                    << options_.stats_port << "; serving without endpoint";
      stats_server_.reset();
    }
  }
}

InferenceEngine::~InferenceEngine() { shutdown(); }

void InferenceEngine::load_weights(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  BPAR_CHECK(in.good(), "cannot open ", path);
  net_.load(in);
}

void InferenceEngine::warmup(std::span<const int> seq_lengths) {
  BPAR_SPAN("serve.warmup");
  for (const int steps : seq_lengths) {
    for (int rows = 1; rows <= options_.max_batch; rows *= 2) {
      (void)executor_->infer_program(steps, rows);
    }
    if (!options_.enable_batching) {
      (void)executor_->infer_program(steps, 1);
    }
  }
}

std::string InferenceEngine::validate(const Request& request) const {
  const auto& cfg = net_.config();
  if (request.steps < 1) return "request has no timesteps";
  const auto want = static_cast<std::size_t>(request.steps) *
                    static_cast<std::size_t>(cfg.input_size);
  if (request.features.size() != want) {
    return "feature count " + std::to_string(request.features.size()) +
           " != steps*input_size = " + std::to_string(want);
  }
  const std::size_t outputs =
      cfg.many_to_many ? static_cast<std::size_t>(request.steps) : 1U;
  if (!request.labels.empty() && request.labels.size() != outputs) {
    return "label count " + std::to_string(request.labels.size()) +
           " != outputs = " + std::to_string(outputs);
  }
  for (const int label : request.labels) {
    if (label < 0 || label >= cfg.num_classes) return "label out of range";
  }
  return {};
}

std::size_t InferenceEngine::total_queued_locked() const {
  std::size_t n = 0;
  for (const auto& q : queues_) n += q.size();
  return n;
}

std::uint32_t InferenceEngine::effective_shed_wait_us() const {
  return options_.shed_wait_us != 0 ? options_.shed_wait_us
                                    : 16U * options_.max_delay_us;
}

std::future<Response> InferenceEngine::submit(Request request) {
  BPAR_SPAN("serve.submit");
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  const std::uint64_t id =
      next_id_.fetch_add(1, std::memory_order_relaxed);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  obs::Registry::instance().counter("serve.requests").add();
  record_request_event(id, RequestStage::kSubmitted);

  Response immediate;
  immediate.id = id;
  if (std::string error = validate(request); !error.empty()) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    obs::Registry::instance().counter("serve.failed").add();
    immediate.status = Status::kFailed;
    immediate.error = std::move(error);
    record_request_event(id, RequestStage::kResponded,
                         static_cast<std::int32_t>(Status::kFailed));
    promise.set_value(std::move(immediate));
    return future;
  }
  // An already-expired deadline never earns a queue slot: answering now
  // keeps dead requests from delaying live ones through the bounded queue.
  if (request.deadline != kNoDeadline && Clock::now() > request.deadline) {
    expired_.fetch_add(1, std::memory_order_relaxed);
    obs::Registry::instance().counter("serve.deadline_exceeded").add();
    immediate.status = Status::kDeadlineExceeded;
    record_slo(Status::kDeadlineExceeded, 0.0);
    record_request_event(
        id, RequestStage::kResponded,
        static_cast<std::int32_t>(Status::kDeadlineExceeded));
    promise.set_value(std::move(immediate));
    return future;
  }

  const auto cls = static_cast<std::size_t>(request.priority);
  const std::size_t quota = options_.class_quota[cls] != 0
                                ? options_.class_quota[cls]
                                : options_.max_queue;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load(std::memory_order_relaxed)) {
      immediate.status = Status::kShutdown;
    } else if (total_queued_locked() >= options_.max_queue ||
               queues_[cls].size() >= quota) {
      immediate.status = Status::kRejected;
    } else {
      Pending pending;
      pending.request = std::move(request);
      pending.promise = std::move(promise);
      pending.enqueued = Clock::now();
      pending.id = id;
      obs::serve_queue_memory().on_alloc(pending_bytes(pending));
      queues_[cls].push_back(std::move(pending));
      publish_queue_depths_locked();
      record_request_event(id, RequestStage::kQueued,
                           static_cast<std::int32_t>(cls));
      cv_.notify_all();
      return future;
    }
  }
  if (immediate.status == Status::kRejected) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    obs::Registry::instance().counter("serve.rejected").add();
  }
  record_request_event(id, RequestStage::kResponded,
                       static_cast<std::int32_t>(immediate.status));
  promise.set_value(std::move(immediate));
  return future;
}

Response InferenceEngine::infer(Request request) {
  return submit(std::move(request)).get();
}

void InferenceEngine::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load(std::memory_order_relaxed) &&
        !dispatcher_.joinable()) {
      return;
    }
    stopping_.store(true, std::memory_order_relaxed);
    set_health(Health::kDraining);
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  // Observability plane last: /statz handlers read stats(), so the
  // listener must not outlive anything it snapshots.
  if (stats_server_ != nullptr) stats_server_->stop();
  if (sampler_ != nullptr) sampler_->stop();
  if (profiler_ != nullptr) profiler_->stop();
}

void InferenceEngine::shed_overdue_locked(Clock::time_point now) {
  const std::uint32_t limit_us = effective_shed_wait_us();
  const auto cap = static_cast<std::size_t>(options_.max_batch);
  bool any = false;
  // Lowest class first; kHigh (class 0) is never shed. Stop as soon as the
  // backlog fits in one micro-batch again — shedding is a pressure valve,
  // not a purge.
  for (int cls = kNumPriorities - 1; cls >= 1; --cls) {
    auto& queue = queues_[static_cast<std::size_t>(cls)];
    while (!queue.empty() && total_queued_locked() > cap &&
           us_between(queue.front().enqueued, now) >
               static_cast<double>(limit_us)) {
      Pending victim = std::move(queue.front());
      queue.pop_front();
      obs::serve_queue_memory().on_free(pending_bytes(victim));
      any = true;
      shed_.fetch_add(1, std::memory_order_relaxed);
      obs::Registry::instance().counter("serve.shed").add();
      record_slo(Status::kShed, 0.0);
      record_request_event(victim.id, RequestStage::kResponded,
                           static_cast<std::int32_t>(Status::kShed));
      Response response;
      response.id = victim.id;
      response.status = Status::kShed;
      response.queue_us = us_between(victim.enqueued, now);
      victim.promise.set_value(std::move(response));
    }
  }
  if (any) {
    BPAR_SPAN("serve.shed");
    publish_queue_depths_locked();
  }
}

void InferenceEngine::dispatcher_loop() {
  for (;;) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      return stopping_.load(std::memory_order_relaxed) ||
             total_queued_locked() > 0;
    });
    if (total_queued_locked() == 0) return;  // stopping && drained

    shed_overdue_locked(Clock::now());
    if (total_queued_locked() == 0) continue;

    // Strict priority: the head comes from the highest non-empty class.
    // The head request defines the micro-batch's shape group: BRNN outputs
    // depend on the whole sequence, so only requests with the SAME length
    // coalesce (the batch dimension pads; timesteps never do).
    std::size_t head_cls = 0;
    while (queues_[head_cls].empty()) ++head_cls;
    const int cap = options_.enable_batching ? options_.max_batch : 1;
    const int steps = queues_[head_cls].front().request.steps;
    const Clock::time_point flush_at =
        queues_[head_cls].front().enqueued +
        std::chrono::microseconds(options_.max_delay_us);
    const auto matching = [&] {
      std::size_t m = 0;
      for (const auto& q : queues_) {
        for (const Pending& p : q) m += (p.request.steps == steps) ? 1 : 0;
      }
      return m;
    };
    while (!stopping_.load(std::memory_order_relaxed) &&
           matching() < static_cast<std::size_t>(cap) &&
           Clock::now() < flush_at) {
      cv_.wait_until(lock, flush_at);
    }

    // Seal: extract up to `cap` same-length requests, classes in priority
    // order, FIFO within a class.
    const Clock::time_point sealed = Clock::now();
    std::vector<Pending> taken;
    taken.reserve(static_cast<std::size_t>(cap));
    for (auto& queue : queues_) {
      for (auto it = queue.begin();
           it != queue.end() &&
           taken.size() < static_cast<std::size_t>(cap);) {
        if (it->request.steps == steps) {
          taken.push_back(std::move(*it));
          obs::serve_queue_memory().on_free(pending_bytes(taken.back()));
          it = queue.erase(it);
        } else {
          ++it;
        }
      }
      if (taken.size() >= static_cast<std::size_t>(cap)) break;
    }
    publish_queue_depths_locked();
    for (const Pending& p : taken) {
      record_request_event(p.id, RequestStage::kSealed,
                           static_cast<std::int32_t>(taken.size()));
    }

    lock.unlock();
    process_batch(std::move(taken), sealed);
  }
}

void InferenceEngine::process_batch(std::vector<Pending> taken,
                                    Clock::time_point sealed) {
  BPAR_SPAN("serve.batch");
  auto& registry = obs::Registry::instance();

  // Expired requests answer without executing.
  std::vector<Pending> live;
  live.reserve(taken.size());
  for (Pending& p : taken) {
    if (p.request.deadline != kNoDeadline && sealed > p.request.deadline) {
      expired_.fetch_add(1, std::memory_order_relaxed);
      registry.counter("serve.deadline_exceeded").add();
      record_slo(Status::kDeadlineExceeded, 0.0);
      record_request_event(
          p.id, RequestStage::kResponded,
          static_cast<std::int32_t>(Status::kDeadlineExceeded));
      Response response;
      response.id = p.id;
      response.status = Status::kDeadlineExceeded;
      response.queue_us = us_between(p.enqueued, sealed);
      p.promise.set_value(std::move(response));
    } else {
      live.push_back(std::move(p));
    }
  }
  if (live.empty()) return;

  serve_group(std::move(live), sealed, /*depth=*/0);
  check_slo_alert();

  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - started_).count();
  if (elapsed_s > 0.0) {
    registry.gauge("serve.throughput_rps")
        .set(static_cast<double>(completed_.load(std::memory_order_relaxed)) /
             elapsed_s);
  }
}

std::string InferenceEngine::try_execute(const rnn::BatchData& batch,
                                         bool need_logits, int steps,
                                         int rows,
                                         exec::InferResult& result) {
  try {
    if (options_.rebuild_per_call) {
      // Benchmark mode: pay graph construction on every batch.
      exec::BParExecutor fresh(
          net_, exec::BParOptions{.common = options_.executor});
      result = fresh.infer(batch, {.want_logits = need_logits});
    } else {
      result = executor_->infer(batch, {.want_logits = need_logits});
      if (options_.record_trace) {
        std::lock_guard<std::mutex> lock(trace_mu_);
        last_traced_program_ = &executor_->infer_program(steps, rows);
        last_traced_stats_ = result.stats;
      }
    }
  } catch (const taskrt::InjectedFault& e) {
    return std::string("injected fault: ") + e.what();
  } catch (const std::exception& e) {
    // A taskrt::WatchdogError's message already starts with "watchdog: ",
    // the prefix serve_group keys its flight dump on.
    return e.what();
  }
  if (!result.finite()) {
    return "non-finite outputs (NaN/Inf guard)";
  }
  return {};
}

void InferenceEngine::serve_group(std::vector<Pending> live,
                                  Clock::time_point sealed, int depth) {
  auto& registry = obs::Registry::instance();
  const auto& cfg = net_.config();
  const int real_rows = static_cast<int>(live.size());
  const int rows = options_.enable_batching
                       ? bucket_rows(real_rows, options_.max_batch)
                       : real_rows;
  const int steps = live.front().request.steps;
  const int outputs = cfg.many_to_many ? steps : 1;
  bool need_logits = false;
  for (const Pending& p : live) {
    need_logits |= p.request.want_logits || !p.request.labels.empty();
  }

  // Form the padded batch. Matrix buffers are zero-initialized, so padding
  // rows are all-zero inputs with label 0; their outputs are never read.
  rnn::BatchData batch;
  batch.x.resize(static_cast<std::size_t>(steps));
  for (auto& m : batch.x) m.resize(rows, cfg.input_size);
  batch.labels.assign(static_cast<std::size_t>(outputs) *
                          static_cast<std::size_t>(rows),
                      0);
  for (int r = 0; r < real_rows; ++r) {
    const Request& request = live[static_cast<std::size_t>(r)].request;
    for (int t = 0; t < steps; ++t) {
      const auto row = batch.x[static_cast<std::size_t>(t)].view().row(r);
      std::copy_n(request.features.data() +
                      static_cast<std::size_t>(t) * cfg.input_size,
                  static_cast<std::size_t>(cfg.input_size), row.begin());
    }
    for (std::size_t t = 0; t < request.labels.size(); ++t) {
      batch.labels[t * static_cast<std::size_t>(rows) +
                   static_cast<std::size_t>(r)] = request.labels[t];
    }
  }
  const Clock::time_point formed = Clock::now();
  for (const Pending& p : live) {
    record_request_event(p.id, RequestStage::kFormed, rows);
  }

  // Bounded retries: fault schedules decorrelate across runtime sessions,
  // so a re-run of the same batch usually clears transient injected (or
  // genuine) faults. Deterministic failures fall through to bisection.
  exec::InferResult result;
  std::string error;
  for (const Pending& p : live) {
    record_request_event(p.id, RequestStage::kExecBegin);
  }
  for (int attempt = 0; attempt <= options_.max_batch_retries; ++attempt) {
    if (attempt > 0) {
      BPAR_SPAN("serve.retry");
      retries_.fetch_add(1, std::memory_order_relaxed);
      registry.counter("serve.retries").add();
      for (const Pending& p : live) {
        record_request_event(p.id, RequestStage::kRetry, attempt);
      }
      if (!options_.rebuild_per_call && executor_->runtime().poisoned()) {
        rebuild_executor();
      }
      error = try_execute(batch, need_logits, steps, rows, result);
    } else {
      error = try_execute(batch, need_logits, steps, rows, result);
    }
    if (error.empty()) break;
    BPAR_LOG_WARN << "serve: batch of " << real_rows << " (attempt "
                  << attempt + 1 << "/" << options_.max_batch_retries + 1
                  << ") failed: " << error;
  }
  const Clock::time_point done = Clock::now();
  for (const Pending& p : live) {
    record_request_event(p.id, RequestStage::kExecEnd,
                         error.empty() ? 0 : 1);
  }

  const double form_us = us_between(sealed, formed);
  const double exec_us = us_between(formed, done);
  batches_.fetch_add(1, std::memory_order_relaxed);
  padded_rows_.fetch_add(static_cast<std::uint64_t>(rows - real_rows),
                         std::memory_order_relaxed);
  registry.counter("serve.batches").add();
  registry.counter("serve.padded_rows")
      .add(static_cast<std::uint64_t>(rows - real_rows));
  form_histogram().add(form_us);
  exec_histogram().add(exec_us);
  batch_rows_histogram().add(static_cast<double>(real_rows));

  // Degraded once a group exhausts its retries, healthy again after the
  // next clean group; draining (set by shutdown()) sticks.
  if (!stopping_.load(std::memory_order_relaxed)) {
    set_health(error.empty() ? Health::kHealthy : Health::kDegraded);
  }
  if (!error.empty()) {
    // A watchdog error means the runtime itself stalled mid-graph — the
    // most valuable moment to capture, and one retries often erase.
    if (error.rfind("watchdog: ", 0) == 0) {
      (void)trigger_dump("watchdog-error");
    }
    if (real_rows > 1) {
      // Bisection: split the batch and serve each half independently. A
      // deterministically poisoned request ends up alone, answers
      // kInternalError, and its batchmates succeed (per-row results are
      // bit-identical across row buckets, so they lose nothing).
      BPAR_SPAN("serve.bisect");
      bisections_.fetch_add(1, std::memory_order_relaxed);
      registry.counter("serve.bisections").add();
      for (const Pending& p : live) {
        record_request_event(p.id, RequestStage::kBisect, depth);
      }
      const auto mid =
          live.begin() + static_cast<std::ptrdiff_t>(live.size() / 2);
      std::vector<Pending> first(std::make_move_iterator(live.begin()),
                                 std::make_move_iterator(mid));
      std::vector<Pending> second(std::make_move_iterator(mid),
                                  std::make_move_iterator(live.end()));
      serve_group(std::move(first), sealed, depth + 1);
      serve_group(std::move(second), sealed, depth + 1);
      return;
    }
    Pending& p = live.front();
    Response response;
    response.id = p.id;
    response.status = Status::kInternalError;
    response.error = error;
    response.batch_rows = rows;
    response.real_rows = real_rows;
    response.queue_us = us_between(p.enqueued, sealed);
    response.batch_form_us = form_us;
    response.exec_us = exec_us;
    internal_errors_.fetch_add(1, std::memory_order_relaxed);
    registry.counter("serve.internal_errors").add();
    record_slo(Status::kInternalError, 0.0);
    record_request_event(p.id, RequestStage::kResponded,
                         static_cast<std::int32_t>(Status::kInternalError));
    p.promise.set_value(std::move(response));
    return;
  }

  for (int r = 0; r < real_rows; ++r) {
    Pending& p = live[static_cast<std::size_t>(r)];
    Response response;
    response.id = p.id;
    response.batch_rows = rows;
    response.real_rows = real_rows;
    response.queue_us = us_between(p.enqueued, sealed);
    response.batch_form_us = form_us;
    response.exec_us = exec_us;
    response.predictions.resize(static_cast<std::size_t>(outputs));
    for (int t = 0; t < outputs; ++t) {
      response.predictions[static_cast<std::size_t>(t)] =
          result.prediction(t, r);
    }
    if (p.request.want_logits) {
      response.logits.reserve(static_cast<std::size_t>(outputs) *
                              static_cast<std::size_t>(cfg.num_classes));
      for (int t = 0; t < outputs; ++t) {
        const auto row = result.logits_row(t, r);
        response.logits.insert(response.logits.end(), row.begin(), row.end());
      }
    }
    if (!p.request.labels.empty()) {
      // Exact per-request loss from this row's logits — the batch-mean loss
      // would smear padding and neighbours into it.
      double loss = 0.0;
      for (int t = 0; t < outputs; ++t) {
        const auto row = result.logits_row(t, r);
        const int label = p.request.labels[static_cast<std::size_t>(t)];
        loss += logsumexp(row) - static_cast<double>(row[
            static_cast<std::size_t>(label)]);
      }
      response.loss = loss / outputs;
    }
    queue_histogram().add(response.queue_us);
    const double request_us = us_between(p.enqueued, Clock::now());
    request_histogram().add(request_us);
    record_slo(Status::kOk, request_us);
    completed_.fetch_add(1, std::memory_order_relaxed);
    registry.counter("serve.completed").add();
    record_request_event(p.id, RequestStage::kResponded,
                         static_cast<std::int32_t>(Status::kOk));
    p.promise.set_value(std::move(response));
  }
}

void InferenceEngine::rebuild_executor() {
  executor_rebuilds_.fetch_add(1, std::memory_order_relaxed);
  obs::Registry::instance().counter("serve.executor_rebuilds").add();
  BPAR_LOG_ERROR << "serve: runtime poisoned by an unrecovered watchdog "
                    "failure; rebuilding the executor";
  {
    // The traced program pointer aims into the executor being replaced.
    std::lock_guard<std::mutex> lock(trace_mu_);
    last_traced_program_ = nullptr;
  }
  executor_ = std::make_unique<exec::BParExecutor>(
      net_, exec::BParOptions{.common = options_.executor,
                              .record_trace = options_.record_trace});
}

void InferenceEngine::set_health(Health health) {
  const int value = static_cast<int>(health);
  const int previous = health_.exchange(value, std::memory_order_relaxed);
  if (previous == value) return;
  auto& registry = obs::Registry::instance();
  registry.gauge("serve.health").set(static_cast<double>(value));
  registry.counter("serve.health_transitions").add();
  BPAR_LOG_INFO << "serve: health "
                << health_name(static_cast<Health>(previous)) << " -> "
                << health_name(health);
}

void InferenceEngine::record_request_event(std::uint64_t id,
                                           RequestStage stage,
                                           std::int32_t arg) {
  if (!options_.trace_requests) return;
  RequestEvent event;
  event.id = id;
  event.ts_ns = steady_ns();
  event.stage = stage;
  event.arg = arg;
  const std::lock_guard<std::mutex> lock(req_mu_);
  request_events_[request_events_next_] = event;
  request_events_next_ = (request_events_next_ + 1) % request_events_.size();
  ++request_events_recorded_;
}

void InferenceEngine::record_slo(Status status, double latency_us) {
  switch (status) {
    case Status::kOk:
      slo_.record(true, latency_us);
      break;
    case Status::kShed:
    case Status::kDeadlineExceeded:
    case Status::kInternalError:
      slo_.record(false, 0.0);
      break;
    case Status::kRejected:
    case Status::kShutdown:
    case Status::kFailed:
      break;  // not SLO-eligible
  }
}

void InferenceEngine::publish_queue_depths_locked() {
  auto& registry = obs::Registry::instance();
  registry.gauge("serve.queue_depth")
      .set(static_cast<double>(total_queued_locked()));
  for (int cls = 0; cls < kNumPriorities; ++cls) {
    registry
        .gauge(std::string("serve.queue_depth.") +
               priority_name(static_cast<Priority>(cls)))
        .set(static_cast<double>(
            queues_[static_cast<std::size_t>(cls)].size()));
  }
}

std::vector<RequestEvent> InferenceEngine::request_events() const {
  const std::lock_guard<std::mutex> lock(req_mu_);
  const std::size_t slots = request_events_.size();
  const auto held = static_cast<std::size_t>(
      std::min<std::uint64_t>(request_events_recorded_, slots));
  // Until the ring wraps, the oldest event is in slot 0; after, it is the
  // one the next event will overwrite.
  const std::size_t oldest = held < slots ? 0 : request_events_next_;
  std::vector<RequestEvent> events;
  events.reserve(held);
  for (std::size_t i = 0; i < held; ++i) {
    events.push_back(request_events_[(oldest + i) % slots]);
  }
  return events;
}

std::uint64_t InferenceEngine::request_events_dropped() const {
  const std::lock_guard<std::mutex> lock(req_mu_);
  const std::uint64_t slots = request_events_.size();
  return request_events_recorded_ > slots ? request_events_recorded_ - slots
                                          : 0;
}

int InferenceEngine::stats_port() const {
  return stats_server_ != nullptr ? stats_server_->port() : -1;
}

std::string InferenceEngine::statz_json() const {
  const EngineStats s = stats();
  const double uptime_s =
      std::chrono::duration<double>(Clock::now() - started_).count();
  std::string out = "{\"type\": \"statz\", \"schema_version\": 1";
  out += ", \"uptime_s\": " + obs::json_number(uptime_s);

  const auto u64 = [](std::uint64_t v) { return std::to_string(v); };
  out += ", \"engine\": {";
  out += "\"submitted\": " + u64(s.submitted);
  out += ", \"completed\": " + u64(s.completed);
  out += ", \"rejected\": " + u64(s.rejected);
  out += ", \"shed\": " + u64(s.shed);
  out += ", \"expired\": " + u64(s.expired);
  out += ", \"failed\": " + u64(s.failed);
  out += ", \"internal_errors\": " + u64(s.internal_errors);
  out += ", \"batches\": " + u64(s.batches);
  out += ", \"padded_rows\": " + u64(s.padded_rows);
  out += ", \"retries\": " + u64(s.retries);
  out += ", \"bisections\": " + u64(s.bisections);
  out += ", \"executor_rebuilds\": " + u64(s.executor_rebuilds);
  out += ", \"health\": " + obs::json_quote(health_name(s.health));
  out += ", \"queue_depth\": {\"total\": " + u64(s.queue_depth);
  for (int cls = 0; cls < kNumPriorities; ++cls) {
    out += std::string(", \"") +
           priority_name(static_cast<Priority>(cls)) + "\": " +
           u64(s.queue_depths[static_cast<std::size_t>(cls)]);
  }
  out += "}}";

  out += ", \"slo\": {";
  out += "\"eligible\": " + u64(s.slo.eligible);
  out += ", \"errors\": " + u64(s.slo.errors);
  out += ", \"latency_misses\": " + u64(s.slo.latency_misses);
  out += ", \"availability\": " + obs::json_number(s.slo.availability);
  out += ", \"latency_attainment\": " +
         obs::json_number(s.slo.latency_attainment);
  out += ", \"budget_consumed\": " + obs::json_number(s.slo.budget_consumed);
  out += ", \"burn_short\": " + obs::json_number(s.slo.burn_short);
  out += ", \"burn_long\": " + obs::json_number(s.slo.burn_long);
  out += std::string(", \"alerting\": ") +
         (s.slo.alerting ? "true" : "false");
  out += ", \"availability_objective\": " +
         obs::json_number(slo_.options().availability_objective);
  out += ", \"latency_target_us\": " +
         obs::json_number(slo_.options().latency_target_us);
  out += "}";

  // Memory observability (DESIGN.md §5j): subsystem trackers + a fresh
  // /proc/self sample, so bpar_top and dump bundles see where the heap is.
  const auto tracker_json = [&u64](const char* name,
                                   const obs::MemTracker& t) {
    std::string block = std::string("\"") + name + "\": {";
    block += "\"bytes\": " + u64(t.current_bytes());
    block += ", \"peak_bytes\": " + u64(t.peak_bytes());
    block += ", \"total_bytes\": " + u64(t.total_bytes());
    block += ", \"allocs\": " + u64(t.allocs());
    block += ", \"frees\": " + u64(t.frees());
    block += "}";
    return block;
  };
  out += ", \"memory\": {";
  out += tracker_json("tensor", obs::tensor_memory());
  out += ", " + tracker_json("program_cache", obs::program_cache_memory());
  out += ", " + tracker_json("serve_queue", obs::serve_queue_memory());
  if (const obs::ProcSelfStats proc = obs::read_proc_self(); proc.valid) {
    out += ", \"proc\": {\"rss_bytes\": " + obs::json_number(proc.rss_bytes);
    out += ", \"vm_bytes\": " + obs::json_number(proc.vm_bytes);
    out += ", \"minor_faults\": " + obs::json_number(proc.minor_faults);
    out += ", \"major_faults\": " + obs::json_number(proc.major_faults);
    out += ", \"threads\": " + obs::json_number(proc.threads);
    out += ", \"ctx_voluntary\": " + obs::json_number(proc.ctx_voluntary);
    out += ", \"ctx_involuntary\": " +
           obs::json_number(proc.ctx_involuntary);
    out += "}";
  } else {
    out += ", \"proc\": null";
  }
  out += "}";

  if (flight_ != nullptr) {
    out += ", \"flight\": {\"dumps\": " + u64(flight_->dumps());
    out += ", \"suppressed\": " + u64(flight_->suppressed());
    out += ", \"dir\": " + obs::json_quote(flight_->options().dir);
    out += "}";
  } else {
    out += ", \"flight\": null";
  }
  if (profiler_ != nullptr) {
    out += ", \"profiler\": {\"samples\": " + u64(profiler_->samples());
    out += ", \"sweeps\": " + u64(profiler_->sweeps());
    out += ", \"torn\": " + u64(profiler_->torn());
    out += ", \"truncations\": " + u64(obs::span_stack_truncations());
    out += "}";
  } else {
    out += ", \"profiler\": null";
  }

  if (sampler_ != nullptr) {
    constexpr double kWindowS = 10.0;
    out += ", \"sampler\": {\"period_ms\": " +
           std::to_string(sampler_->period_ms());
    out += ", \"samples\": " + std::to_string(sampler_->samples());
    out += ", \"ticks\": " + u64(sampler_->ticks());
    out += ", \"window_s\": " + obs::json_number(kWindowS);
    out += ", \"windows\": {\"counters\": {";
    bool first = true;
    for (const std::string& name : sampler_->counter_names()) {
      if (name.rfind("serve.", 0) != 0) continue;
      const auto window = sampler_->counter_window(name, kWindowS);
      if (!window.valid) continue;
      if (!first) out += ", ";
      first = false;
      out += obs::json_quote(name) + ": {\"rate_per_s\": " +
             obs::json_number(window.rate_per_s) +
             ", \"delta\": " + obs::json_number(window.delta) +
             ", \"seconds\": " + obs::json_number(window.seconds) + "}";
    }
    out += "}, \"histograms\": {";
    first = true;
    for (const std::string& name : sampler_->histogram_names()) {
      if (name.rfind("serve.", 0) != 0) continue;
      const auto window = sampler_->histogram_window(name, kWindowS);
      if (!window.valid) continue;
      if (!first) out += ", ";
      first = false;
      out += obs::json_quote(name) + ": {\"count\": " +
             obs::json_number(window.count) +
             ", \"mean\": " + obs::json_number(window.mean) +
             ", \"p50\": " + obs::json_number(window.p50) +
             ", \"p95\": " + obs::json_number(window.p95) +
             ", \"p99\": " + obs::json_number(window.p99) + "}";
    }
    out += "}}}";
  } else {
    out += ", \"sampler\": null";
  }

  out += ", \"metrics\": " +
         obs::metrics_json(obs::Registry::instance().snapshot());
  out += "}";
  return out;
}

EngineStats InferenceEngine::stats() const {
  EngineStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.expired = expired_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.internal_errors = internal_errors_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.padded_rows = padded_rows_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.bisections = bisections_.load(std::memory_order_relaxed);
  s.executor_rebuilds = executor_rebuilds_.load(std::memory_order_relaxed);
  s.health = health();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int cls = 0; cls < kNumPriorities; ++cls) {
      s.queue_depths[static_cast<std::size_t>(cls)] =
          queues_[static_cast<std::size_t>(cls)].size();
    }
    s.queue_depth = total_queued_locked();
  }
  s.slo = slo_.snapshot();
  return s;
}

Health InferenceEngine::health() const {
  return static_cast<Health>(health_.load(std::memory_order_relaxed));
}

obs::ExtraEventEmitter InferenceEngine::request_marker_emitter() const {
  // Request stage markers ride along as instants on their own row (tid 99,
  // below the worker rows, beside the obs ring rows at 100+): one
  // "req.<stage>" marker per event with {req, arg[, status]} args so
  // `bpar_prof request <id>` can rebuild any request's timeline. Events
  // are captured by value: the emitter must stay valid after this returns.
  return [events = request_events()](obs::ChromeTraceWriter& writer,
                                     std::uint64_t base_ns) {
    constexpr int kPid = 1;
    constexpr int kRequestTid = 99;
    if (events.empty()) return;
    writer.thread_name(kPid, kRequestTid, "requests");
    for (const RequestEvent& event : events) {
      const std::uint64_t ts =
          event.ts_ns > base_ns ? event.ts_ns - base_ns : 0;
      std::string args = "{\"req\": " + std::to_string(event.id) +
                         ", \"arg\": " + std::to_string(event.arg);
      if (event.stage == RequestStage::kResponded) {
        args += ", \"status\": " +
                obs::json_quote(status_name(
                    static_cast<Status>(event.arg)));
      }
      args += "}";
      writer.instant_args(
          std::string("req.") + request_stage_name(event.stage), ts, kPid,
          kRequestTid, args);
    }
  };
}

void InferenceEngine::write_unified_trace(const std::string& path) {
  BPAR_CHECK(options_.record_trace,
             "write_unified_trace requires EngineOptions::record_trace");
  const obs::ExtraEventEmitter emit_requests = request_marker_emitter();
  std::lock_guard<std::mutex> lock(trace_mu_);
  BPAR_CHECK(last_traced_program_ != nullptr,
             "no cached-path micro-batch has been served yet");
  taskrt::write_unified_trace_file(last_traced_program_->graph(),
                                   last_traced_stats_, path, emit_requests);
}

bool InferenceEngine::write_flight_trace(std::ostream& os) {
  const obs::ExtraEventEmitter emit_requests = request_marker_emitter();
  std::lock_guard<std::mutex> lock(trace_mu_);
  if (last_traced_program_ != nullptr) {
    // Full bundle: the last traced micro-batch's task slices (the rows
    // `bpar_prof analyze` needs) + spans + request markers.
    taskrt::write_unified_trace(last_traced_program_->graph(),
                                last_traced_stats_, os, emit_requests);
  } else {
    // No traced batch (record_trace off, or nothing served yet): spans and
    // request markers still make a timeline Perfetto opens.
    obs::write_trace_json(os, emit_requests);
  }
  return true;
}

obs::DumpResult InferenceEngine::trigger_dump(std::string_view reason) {
  if (flight_ == nullptr) {
    obs::DumpResult result;
    result.reason = std::string(reason);
    result.skipped = "no flight recorder (EngineOptions::dump_dir empty)";
    return result;
  }
  return flight_->trigger(reason);
}

void InferenceEngine::check_slo_alert() {
  if (flight_ == nullptr) return;
  // Rising edge only: a sustained alert is one incident, not one dump per
  // batch (the debounce would eat most of them anyway, but edge detection
  // keeps suppressed() meaningful).
  const bool alerting = slo_.snapshot().alerting;
  if (alerting && !slo_alerting_prev_) (void)trigger_dump("slo-alert");
  slo_alerting_prev_ = alerting;
}

std::string InferenceEngine::profile_folded(double seconds) {
  const auto window = std::chrono::duration<double>(seconds);
  if (profiler_ != nullptr) {
    // Continuous profiler: a windowed delta of its running aggregates.
    const std::vector<obs::SpanProfiler::Fold> before = profiler_->folded();
    std::this_thread::sleep_for(window);
    return obs::folded_to_text(obs::fold_delta(before, profiler_->folded()));
  }
  // No continuous profiler: spin one up just for the window.
  obs::ProfilerOptions po;
  po.period_us =
      options_.profiler_period_us != 0 ? options_.profiler_period_us : 2000;
  obs::SpanProfiler ephemeral(po);
  ephemeral.start();
  std::this_thread::sleep_for(window);
  ephemeral.stop();
  return ephemeral.folded_text();
}

std::uint64_t InferenceEngine::pending_bytes(const Pending& pending) {
  return static_cast<std::uint64_t>(sizeof(Pending)) +
         pending.request.features.size() * sizeof(float) +
         pending.request.labels.size() * sizeof(int);
}

std::size_t InferenceEngine::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_queued_locked();
}

}  // namespace bpar::serve
