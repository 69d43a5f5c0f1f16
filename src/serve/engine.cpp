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
#include "serve/batcher.hpp"
#include "taskrt/export.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace bpar::serve {

namespace {

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

/// Records `stage` of request `id` as a `req.<stage>` keyed instant in the
/// calling thread's span ring: the id mod 2^32 and `arg` saturated at 255.
/// Untraced, it costs the one relaxed load of the tracing gate.
void record_stage(std::uint64_t id, RequestStage stage, int arg = 0) {
  if (!obs::tracing_enabled()) return;
  static const std::array<std::uint16_t, kNumRequestStages> kNames = [] {
    std::array<std::uint16_t, kNumRequestStages> names{};
    for (std::size_t s = 0; s < names.size(); ++s) {
      names[s] = obs::intern_name(
          std::string("req.") +
          request_stage_name(static_cast<RequestStage>(s)));
    }
    return names;
  }();
  obs::record_instant(kNames[static_cast<std::size_t>(stage)], obs::now_ns(),
                      static_cast<std::uint32_t>(id),
                      static_cast<std::uint8_t>(std::clamp(arg, 0, 255)));
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
      batcher_(std::make_unique<Batcher>(options_)),
      slo_(options.slo) {
  BPAR_CHECK(options_.max_batch_retries >= 0,
             "max_batch_retries must be >= 0");
  start_flight_recorder();
  start_observability();
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

void InferenceEngine::start_flight_recorder() {
  if (options_.enable_profiler) {
    profiler_ = std::make_unique<obs::SpanProfiler>(obs::ProfilerOptions{});
    profiler_->start();
  }
  if (options_.dump_dir.empty()) return;
  obs::FlightRecorderOptions fo;
  fo.dir = options_.dump_dir;
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
  if (options_.stats_port >= 0) {
    obs::SamplerOptions sampler_options;
    sampler_options.period_ms = options_.sampler_period_ms;
    sampler_options.rate_series = {"serve.requests", "serve.completed"};
    sampler_ = std::make_unique<obs::MetricsSampler>(sampler_options);
    sampler_->start();
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
    // means. A `seconds` that is not wholly a finite number answers 400.
    stats_server_->handle("/profilez", [this](std::string_view query) {
      double seconds = 2.0;
      if (const std::string v = query_param(query, "seconds"); !v.empty()) {
        char* end = nullptr;
        seconds = std::strtod(v.c_str(), &end);
        if (*end != '\0' || !std::isfinite(seconds)) {
          return obs::HttpResponse{400, "text/plain; charset=utf-8",
                                   "seconds must be a finite number\n"};
        }
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
    for (int rows = 1; rows <= options_.max_batch; ++rows) {
      (void)executor_->infer_program(steps,
                                     bucket_rows(rows, options_.max_batch));
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

std::future<Response> InferenceEngine::submit(Request request) {
  BPAR_SPAN("serve.submit");
  Pending pending;
  pending.request = std::move(request);
  pending.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t id = pending.id;
  std::future<Response> future = pending.promise.get_future();
  submitted_.fetch_add(1, std::memory_order_relaxed);
  obs::Registry::instance().counter("serve.requests").add();
  record_stage(id, RequestStage::kSubmitted);

  Response immediate;
  immediate.error = validate(pending.request);
  if (!immediate.error.empty()) {
    immediate.status = Status::kFailed;
  } else {
    const std::uint64_t bytes = pending_bytes(pending);
    const auto cls = static_cast<int>(pending.request.priority);
    std::lock_guard<std::mutex> lock(mu_);
    immediate.status = batcher_->admit(pending, Clock::now());
    if (immediate.status == Status::kOk) {
      obs::serve_queue_memory().on_alloc(bytes);
      publish_queue_depths_locked();
      record_stage(id, RequestStage::kQueued, cls);
      cv_.notify_all();
      return future;
    }
  }
  respond(pending, std::move(immediate));
  return future;
}

Response InferenceEngine::infer(Request request) {
  return submit(std::move(request)).get();
}

void InferenceEngine::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (batcher_->closed() && !dispatcher_.joinable()) return;
    batcher_->close();
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

void InferenceEngine::dispatcher_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const Clock::time_point now = Clock::now();
    Batcher::Step step = batcher_->step(now);
    if (step.shed.empty() && step.expired.empty() && step.batch.empty()) {
      if (batcher_->closed() && batcher_->queued() == 0) return;
      if (step.wake == Batcher::kNever) {
        cv_.wait(lock);
      } else {
        cv_.wait_until(lock, step.wake);
      }
      continue;
    }
    publish_queue_depths_locked();
    lock.unlock();

    // Shed, or sealed past their deadline: answered without executing.
    const auto answer = [&](std::vector<Pending>& pendings, Status status) {
      for (Pending& p : pendings) {
        obs::serve_queue_memory().on_free(pending_bytes(p));
        Response response;
        response.status = status;
        response.queue_us = us_between(p.enqueued, now);
        respond(p, std::move(response));
      }
    };
    if (!step.shed.empty()) {
      BPAR_SPAN("serve.shed");
      answer(step.shed, Status::kShed);
    }
    const auto sealed_rows =
        static_cast<int>(step.expired.size() + step.batch.size());
    for (const Pending& p : step.expired) {
      record_stage(p.id, RequestStage::kSealed, sealed_rows);
    }
    answer(step.expired, Status::kDeadlineExceeded);
    if (!step.batch.empty()) {
      BPAR_SPAN("serve.batch");
      for (const Pending& p : step.batch) {
        obs::serve_queue_memory().on_free(pending_bytes(p));
        record_stage(p.id, RequestStage::kSealed, sealed_rows);
      }
      serve_group(std::move(step.batch), now, /*depth=*/0);
      check_slo_alert();
      const double elapsed_s =
          std::chrono::duration<double>(Clock::now() - started_).count();
      const auto completed = answered_[static_cast<std::size_t>(Status::kOk)]
                                 .load(std::memory_order_relaxed);
      if (elapsed_s > 0.0) {
        obs::Registry::instance()
            .gauge("serve.throughput_rps")
            .set(static_cast<double>(completed) / elapsed_s);
      }
    }
    lock.lock();
  }
}

std::string InferenceEngine::try_execute(const rnn::BatchData& batch,
                                         bool need_logits, int steps,
                                         int rows,
                                         exec::InferResult& result) {
  try {
    result = executor_->infer(batch, {.want_logits = need_logits});
    if (options_.record_trace) {
      std::lock_guard<std::mutex> lock(trace_mu_);
      last_traced_program_ = &executor_->infer_program(steps, rows);
      last_traced_stats_ = result.stats;
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
  const int rows = bucket_rows(real_rows, options_.max_batch);
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
    record_stage(p.id, RequestStage::kFormed, rows);
  }

  // Bounded retries: fault schedules decorrelate across runtime sessions,
  // so a re-run of the same batch usually clears transient injected (or
  // genuine) faults. Deterministic failures fall through to bisection.
  exec::InferResult result;
  std::string error;
  for (const Pending& p : live) {
    record_stage(p.id, RequestStage::kExecBegin);
  }
  for (int attempt = 0; attempt <= options_.max_batch_retries; ++attempt) {
    if (attempt > 0) {
      BPAR_SPAN("serve.retry");
      retries_.fetch_add(1, std::memory_order_relaxed);
      registry.counter("serve.retries").add();
      for (const Pending& p : live) {
        record_stage(p.id, RequestStage::kRetry, attempt);
      }
      if (executor_->runtime().poisoned()) rebuild_executor();
    }
    error = try_execute(batch, need_logits, steps, rows, result);
    if (error.empty()) break;
    BPAR_LOG_WARN << "serve: batch of " << real_rows << " (attempt "
                  << attempt + 1 << "/" << options_.max_batch_retries + 1
                  << ") failed: " << error;
  }
  const Clock::time_point done = Clock::now();
  for (const Pending& p : live) {
    record_stage(p.id, RequestStage::kExecEnd, error.empty() ? 0 : 1);
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
  if (health() != Health::kDraining) {
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
        record_stage(p.id, RequestStage::kBisect, depth);
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
    response.status = Status::kInternalError;
    response.error = error;
    response.batch_rows = rows;
    response.real_rows = real_rows;
    response.queue_us = us_between(p.enqueued, sealed);
    response.batch_form_us = form_us;
    response.exec_us = exec_us;
    respond(p, std::move(response));
    return;
  }

  for (int r = 0; r < real_rows; ++r) {
    Pending& p = live[static_cast<std::size_t>(r)];
    Response response;
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
    respond(p, std::move(response), request_us);
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

void InferenceEngine::respond(Pending& pending, Response response,
                              double latency_us) {
  // Registry counter of each Status, by index; kShutdown has none.
  static constexpr std::array<const char*, kNumStatuses> kCounters = {
      "serve.completed", "serve.rejected", "serve.shed",
      "serve.deadline_exceeded", nullptr, "serve.failed",
      "serve.internal_errors"};
  const auto index = static_cast<std::size_t>(response.status);
  answered_[index].fetch_add(1, std::memory_order_relaxed);
  if (kCounters[index] != nullptr) {
    obs::Registry::instance().counter(kCounters[index]).add();
  }
  record_slo(response.status, latency_us);
  record_stage(pending.id, RequestStage::kResponded,
               static_cast<int>(response.status));
  response.id = pending.id;
  pending.promise.set_value(std::move(response));
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
      .set(static_cast<double>(batcher_->queued()));
  for (int cls = 0; cls < kNumPriorities; ++cls) {
    const auto priority = static_cast<Priority>(cls);
    registry.gauge(std::string("serve.queue_depth.") + priority_name(priority))
        .set(static_cast<double>(batcher_->queued(priority)));
  }
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
  const auto answered = [this](Status status) {
    return answered_[static_cast<std::size_t>(status)].load(
        std::memory_order_relaxed);
  };
  EngineStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = answered(Status::kOk);
  s.rejected = answered(Status::kRejected);
  s.shed = answered(Status::kShed);
  s.expired = answered(Status::kDeadlineExceeded);
  s.failed = answered(Status::kFailed);
  s.internal_errors = answered(Status::kInternalError);
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
          batcher_->queued(static_cast<Priority>(cls));
    }
    s.queue_depth = batcher_->queued();
  }
  s.slo = slo_.snapshot();
  return s;
}

Health InferenceEngine::health() const {
  return static_cast<Health>(health_.load(std::memory_order_relaxed));
}

void InferenceEngine::write_unified_trace(const std::string& path) {
  BPAR_CHECK(options_.record_trace,
             "write_unified_trace requires EngineOptions::record_trace");
  std::lock_guard<std::mutex> lock(trace_mu_);
  BPAR_CHECK(last_traced_program_ != nullptr,
             "no cached-path micro-batch has been served yet");
  taskrt::write_unified_trace_file(last_traced_program_->graph(),
                                   last_traced_stats_, path);
}

bool InferenceEngine::write_flight_trace(std::ostream& os) {
  std::lock_guard<std::mutex> lock(trace_mu_);
  if (last_traced_program_ != nullptr) {
    // Full bundle: the last traced micro-batch's task slices (the rows
    // `bpar_prof analyze` needs) + spans + request markers.
    taskrt::write_unified_trace(last_traced_program_->graph(),
                                last_traced_stats_, os);
  } else {
    // No traced batch (record_trace off, or nothing served yet): spans and
    // request markers still make a timeline Perfetto opens.
    obs::write_trace_json(os);
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
  obs::SpanProfiler ephemeral(obs::ProfilerOptions{});
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
  return batcher_->queued();
}

}  // namespace bpar::serve
