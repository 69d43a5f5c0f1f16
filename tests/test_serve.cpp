// Serving engine suite (DESIGN.md §5f, §5h): the admission core
// (serve::Batcher: flush, coalescing, priority, quotas, deadlines and
// shedding) on virtual time with no engine, then the engine itself: padding
// masking (batched results must match a batch-1 sequential reference),
// cached-program determinism, how it answers each admission decision, NaN
// bisection, and a many-client concurrency smoke that doubles as the TSan
// target.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "exec/sequential.hpp"
#include "kernels/backend.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/stats_server.hpp"
#include "obs/trace.hpp"
#include "rnn/network.hpp"
#include "serve/batcher.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"

namespace bpar {
namespace {

using serve::Batcher;
using serve::EngineOptions;
using serve::InferenceEngine;
using serve::LoadgenOptions;
using serve::Pending;
using serve::Priority;
using serve::Request;
using serve::Response;
using serve::Status;
using std::chrono::microseconds;

rnn::NetworkConfig small_config(int seq = 6, int max_batch = 4) {
  rnn::NetworkConfig cfg;
  cfg.cell = rnn::CellType::kLstm;
  cfg.input_size = 5;
  cfg.hidden_size = 8;
  cfg.num_layers = 2;
  cfg.seq_length = seq;
  cfg.batch_size = max_batch;
  cfg.num_classes = 4;
  return cfg;
}

EngineOptions quiet_options(int max_batch = 4) {
  EngineOptions options;
  options.executor.num_workers = 2;
  options.executor.num_replicas = 2;
  options.max_batch = max_batch;
  // Sanitizer runs are 10-20x slower than real time; keep the queue-delay
  // shed valve out of play unless a test dials it in explicitly.
  options.shed_wait_us = 10'000'000;
  return options;
}

/// The request as a batch-1 BatchData for the reference executor.
rnn::BatchData unit_batch(const rnn::NetworkConfig& cfg,
                          const Request& request) {
  rnn::BatchData batch;
  batch.x.resize(static_cast<std::size_t>(request.steps));
  for (int t = 0; t < request.steps; ++t) {
    auto& m = batch.x[static_cast<std::size_t>(t)];
    m.resize(1, cfg.input_size);
    for (int f = 0; f < cfg.input_size; ++f) {
      m.view().at(0, f) =
          request.features[static_cast<std::size_t>(t) *
                               static_cast<std::size_t>(cfg.input_size) +
                           static_cast<std::size_t>(f)];
    }
  }
  batch.labels = request.labels;
  return batch;
}

// ---- admission core on virtual time (serve::Batcher) ----

using Ids = std::vector<std::uint64_t>;

/// Virtual time: `us` microseconds after an origin kept clear of the clock's
/// epoch, which a Request's deadline uses to mean "no deadline".
Batcher::TimePoint at(std::int64_t us) {
  return Batcher::TimePoint{} + std::chrono::seconds(100) + microseconds(us);
}

EngineOptions batcher_options(int max_batch, std::uint32_t max_delay_us,
                              std::uint32_t shed_wait_us = 0) {
  EngineOptions options;
  options.max_batch = max_batch;
  options.max_delay_us = max_delay_us;
  options.shed_wait_us = shed_wait_us;
  return options;
}

/// Admits request `id` of `steps` timesteps at virtual time `at_us`.
Status admit(Batcher& batcher, std::uint64_t id, int steps,
             std::int64_t at_us, Priority priority = Priority::kNormal,
             Batcher::TimePoint deadline = {}) {
  Pending pending;
  pending.id = id;
  pending.request.steps = steps;
  pending.request.priority = priority;
  pending.request.deadline = deadline;
  return batcher.admit(pending, at(at_us));
}

Ids ids(const std::vector<Pending>& pendings) {
  Ids out;
  for (const Pending& p : pendings) out.push_back(p.id);
  return out;
}

TEST(ServeBatcher, SealsWhenFullOrExactlyAtFlushTime) {
  Batcher full(batcher_options(/*max_batch=*/3, /*max_delay_us=*/500));
  ASSERT_EQ(admit(full, 1, 6, 0), Status::kOk);
  ASSERT_EQ(admit(full, 2, 6, 0), Status::kOk);
  const Batcher::Step waiting = full.step(at(0));
  EXPECT_TRUE(waiting.batch.empty());
  EXPECT_EQ(waiting.wake, at(500));  // head.enqueued + max_delay_us
  ASSERT_EQ(admit(full, 3, 6, 10), Status::kOk);
  EXPECT_EQ(ids(full.step(at(10)).batch), (Ids{1, 2, 3}));

  Batcher underfull(batcher_options(/*max_batch=*/8, /*max_delay_us=*/2000));
  ASSERT_EQ(admit(underfull, 1, 6, 0), Status::kOk);
  ASSERT_EQ(admit(underfull, 2, 6, 100), Status::kOk);
  EXPECT_TRUE(underfull.step(at(1999)).batch.empty());
  EXPECT_EQ(ids(underfull.step(at(2000)).batch), (Ids{1, 2}));
}

// The head's length fixes its group; later shapes never overtake it, and
// each class stays FIFO across batches.
TEST(ServeBatcher, OnlySameLengthCoalescesAndHeadGroupGoesFirst) {
  Batcher batcher(batcher_options(/*max_batch=*/2, /*max_delay_us=*/500));
  ASSERT_EQ(admit(batcher, 1, 6, 0), Status::kOk);
  ASSERT_EQ(admit(batcher, 2, 9, 1), Status::kOk);
  ASSERT_EQ(admit(batcher, 3, 6, 2), Status::kOk);
  ASSERT_EQ(admit(batcher, 4, 6, 3), Status::kOk);
  EXPECT_EQ(ids(batcher.step(at(3)).batch), (Ids{1, 3}));
  EXPECT_TRUE(batcher.step(at(3)).batch.empty());  // head 2 waits alone
  EXPECT_EQ(ids(batcher.step(at(501)).batch), (Ids{2}));
  EXPECT_EQ(ids(batcher.step(at(503)).batch), (Ids{4}));
}

TEST(ServeBatcher, QuotaAndSharedQueueReject) {
  EngineOptions options = batcher_options(/*max_batch=*/8, 500);
  options.max_queue = 3;
  options.class_quota[static_cast<std::size_t>(Priority::kBatch)] = 1;
  Batcher batcher(options);
  EXPECT_EQ(admit(batcher, 1, 6, 0, Priority::kBatch), Status::kOk);
  EXPECT_EQ(admit(batcher, 2, 6, 0, Priority::kBatch), Status::kRejected);
  // The quota leaves the shared queue to the other classes, until
  // max_queue is reached for every class.
  EXPECT_EQ(admit(batcher, 3, 6, 0), Status::kOk);
  EXPECT_EQ(admit(batcher, 4, 6, 0, Priority::kHigh), Status::kOk);
  EXPECT_EQ(admit(batcher, 5, 6, 0, Priority::kHigh), Status::kRejected);
  EXPECT_EQ(batcher.queued(Priority::kBatch), 1U);
  EXPECT_EQ(batcher.queued(), 3U);
}

TEST(ServeBatcher, DeadlineExpiresAtAdmitWithoutASlotAndAtSeal) {
  EngineOptions options = batcher_options(/*max_batch=*/4, 500);
  options.max_queue = 2;
  Batcher batcher(options);
  EXPECT_EQ(admit(batcher, 1, 6, 0, Priority::kNormal, at(-1)),
            Status::kDeadlineExceeded);
  // Both slots are still free; a deadline equal to `now` has not passed.
  EXPECT_EQ(admit(batcher, 2, 6, 0, Priority::kNormal, at(0)), Status::kOk);
  EXPECT_EQ(admit(batcher, 3, 6, 0), Status::kOk);
  const Batcher::Step sealed = batcher.step(at(500));
  EXPECT_EQ(ids(sealed.expired), (Ids{2}));
  EXPECT_EQ(ids(sealed.batch), (Ids{3}));
}

TEST(ServeBatcher, HighClassHeadsAndLowerClassesFillItsRows) {
  Batcher batcher(batcher_options(/*max_batch=*/3, /*max_delay_us=*/500));
  ASSERT_EQ(admit(batcher, 1, 6, 0, Priority::kBatch), Status::kOk);
  ASSERT_EQ(admit(batcher, 2, 6, 1), Status::kOk);
  ASSERT_EQ(admit(batcher, 3, 9, 2, Priority::kHigh), Status::kOk);
  ASSERT_EQ(admit(batcher, 4, 6, 3, Priority::kHigh), Status::kOk);
  ASSERT_EQ(admit(batcher, 5, 6, 4), Status::kOk);
  // The oldest kHigh request heads the first group, though it arrived
  // after two lower-class ones; alone in its length, it waits to flush.
  EXPECT_TRUE(batcher.step(at(4)).batch.empty());
  EXPECT_EQ(ids(batcher.step(at(502)).batch), (Ids{3}));
  // The next kHigh head's group is full at once; kNormal fills its rows
  // before kBatch.
  EXPECT_EQ(ids(batcher.step(at(502)).batch), (Ids{4, 2, 5}));
  EXPECT_EQ(batcher.queued(Priority::kBatch), 1U);
}

TEST(ServeBatcher, ShedsOverdueLowClassesOldestFirstHighNever) {
  Batcher mixed(batcher_options(/*max_batch=*/2, 500, /*shed_wait_us=*/1000));
  ASSERT_EQ(admit(mixed, 1, 6, 0, Priority::kBatch), Status::kOk);
  ASSERT_EQ(admit(mixed, 2, 6, 0, Priority::kBatch), Status::kOk);
  for (std::uint64_t id = 3; id <= 5; ++id) {
    ASSERT_EQ(admit(mixed, id, 6, 0), Status::kOk);
  }
  // kBatch first, then the oldest kNormal, until one micro-batch remains.
  const Batcher::Step down = mixed.step(at(1001));
  EXPECT_EQ(ids(down.shed), (Ids{1, 2, 3}));
  EXPECT_EQ(ids(down.batch), (Ids{4, 5}));

  Batcher high(batcher_options(/*max_batch=*/2, 500, /*shed_wait_us=*/1000));
  ASSERT_EQ(admit(high, 1, 6, 0, Priority::kBatch), Status::kOk);
  for (std::uint64_t id = 2; id <= 4; ++id) {
    ASSERT_EQ(admit(high, id, 6, 0, Priority::kHigh), Status::kOk);
  }
  // The backlog stays above max_batch: only kBatch was sheddable.
  const Batcher::Step kept = high.step(at(1001));
  EXPECT_EQ(ids(kept.shed), (Ids{1}));
  EXPECT_EQ(ids(kept.batch), (Ids{2, 3}));
}

TEST(ServeBatcher, ShedsOnlyWhenAHeadIsPicked) {
  Batcher batcher(
      batcher_options(/*max_batch=*/2, 5000, /*shed_wait_us=*/1000));
  ASSERT_EQ(admit(batcher, 1, 6, 0, Priority::kBatch), Status::kOk);
  ASSERT_TRUE(batcher.step(at(0)).batch.empty());  // head 1 opens a group
  for (std::uint64_t id = 2; id <= 4; ++id) {
    ASSERT_EQ(admit(batcher, id, 9, 0, Priority::kBatch), Status::kOk);
  }
  // Overdue under backlog, but the open group keeps its head.
  EXPECT_TRUE(batcher.step(at(2000)).shed.empty());
  EXPECT_EQ(ids(batcher.step(at(5000)).batch), (Ids{1}));
  const Batcher::Step next = batcher.step(at(5000));
  EXPECT_EQ(ids(next.shed), (Ids{2}));
  EXPECT_EQ(ids(next.batch), (Ids{3, 4}));
}

// shed_wait_us = 0 means 16 × max_delay_us, and "waited longer" is strict.
// With max_batch = 1 (batch-1 mode) the backlog may not exceed one request.
TEST(ServeBatcher, DefaultShedWaitIsSixteenFlushDelays) {
  Batcher batcher(batcher_options(/*max_batch=*/1, /*max_delay_us=*/100));
  for (std::uint64_t id = 1; id <= 3; ++id) {
    ASSERT_EQ(admit(batcher, id, 6, 0, Priority::kBatch), Status::kOk);
  }
  const Batcher::Step at_limit = batcher.step(at(1600));
  EXPECT_TRUE(at_limit.shed.empty());
  EXPECT_EQ(ids(at_limit.batch), (Ids{1}));
  const Batcher::Step past = batcher.step(at(1601));
  EXPECT_EQ(ids(past.shed), (Ids{2}));
  EXPECT_EQ(ids(past.batch), (Ids{3}));
}

TEST(ServeBatcher, DrainingSealsAtOnce) {
  Batcher batcher(batcher_options(/*max_batch=*/8, /*max_delay_us=*/500));
  ASSERT_EQ(admit(batcher, 1, 6, 0), Status::kOk);
  ASSERT_EQ(admit(batcher, 2, 9, 0), Status::kOk);
  ASSERT_EQ(admit(batcher, 3, 6, 0), Status::kOk);
  EXPECT_TRUE(batcher.step(at(0)).batch.empty());
  batcher.close();
  // Admission checks the deadline before shutdown, shutdown before space.
  EXPECT_EQ(admit(batcher, 4, 6, 0, Priority::kNormal, at(-1)),
            Status::kDeadlineExceeded);
  EXPECT_EQ(admit(batcher, 5, 6, 0), Status::kShutdown);
  EXPECT_EQ(ids(batcher.step(at(0)).batch), (Ids{1, 3}));
  EXPECT_EQ(ids(batcher.step(at(0)).batch), (Ids{2}));
  EXPECT_EQ(batcher.step(at(0)).wake, Batcher::kNever);
  EXPECT_EQ(batcher.queued(), 0U);
}

// ---- the engine ----

TEST(ServeBucketRows, PowersOfTwoClampedToMaxBatch) {
  EXPECT_EQ(InferenceEngine::bucket_rows(1, 8), 1);
  EXPECT_EQ(InferenceEngine::bucket_rows(2, 8), 2);
  EXPECT_EQ(InferenceEngine::bucket_rows(3, 8), 4);
  EXPECT_EQ(InferenceEngine::bucket_rows(5, 8), 8);
  EXPECT_EQ(InferenceEngine::bucket_rows(8, 8), 8);
  EXPECT_EQ(InferenceEngine::bucket_rows(3, 6), 4);
  EXPECT_EQ(InferenceEngine::bucket_rows(5, 6), 6);   // clamped, not 8
  EXPECT_EQ(InferenceEngine::bucket_rows(6, 6), 6);
}

TEST(ServeEngine, RepeatedInferIsBitExact) {
  const auto cfg = small_config();
  InferenceEngine engine(cfg, quiet_options());
  Request request = serve::make_request(cfg, cfg.seq_length, 7,
                                        /*with_labels=*/true);
  request.want_logits = true;

  const Response first = engine.infer(request);
  ASSERT_EQ(first.status, Status::kOk);
  ASSERT_FALSE(first.logits.empty());
  // Cached-program replays must be deterministic down to the bit.
  for (int i = 0; i < 4; ++i) {
    const Response again = engine.infer(request);
    ASSERT_EQ(again.status, Status::kOk);
    EXPECT_EQ(again.predictions, first.predictions);
    EXPECT_EQ(again.logits, first.logits);  // float-exact
    EXPECT_EQ(again.loss, first.loss);
  }
  // All five identical requests hit ONE cached forward program.
  EXPECT_EQ(engine.executor().cached_programs(false), 1U);
  EXPECT_EQ(engine.stats().batches, 5U);
}

TEST(ServeEngine, PaddedBatchMatchesSequentialReference) {
  const auto cfg = small_config();
  EngineOptions options = quiet_options(/*max_batch=*/4);
  options.max_delay_us = 50000;  // long enough for 3 submits to coalesce
  InferenceEngine engine(cfg, options);

  // Reference network with the engine's exact weights.
  rnn::NetworkConfig ref_cfg = cfg;
  ref_cfg.batch_size = 1;
  rnn::Network ref_net(ref_cfg);
  {
    std::stringstream weights;
    engine.network().save(weights);
    ref_net.load(weights);
  }
  exec::SequentialExecutor ref(ref_net);

  std::vector<Request> requests;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Request r = serve::make_request(cfg, cfg.seq_length, seed, true);
    r.want_logits = true;
    requests.push_back(std::move(r));
  }
  std::vector<std::future<Response>> futures;
  futures.reserve(requests.size());
  for (const Request& r : requests) futures.push_back(engine.submit(r));

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Response response = futures[i].get();
    ASSERT_EQ(response.status, Status::kOk);
    // 3 real rows padded up to the 4-row bucket.
    EXPECT_EQ(response.real_rows, 3);
    EXPECT_EQ(response.batch_rows, 4);

    const auto expect =
        ref.infer(unit_batch(ref_cfg, requests[i]), {.want_logits = true});
    EXPECT_EQ(response.predictions, expect.predictions);
    EXPECT_NEAR(response.loss, expect.loss, 1e-5);
    ASSERT_EQ(response.logits.size(), expect.logits.size());
    for (std::size_t k = 0; k < expect.logits.size(); ++k) {
      EXPECT_NEAR(response.logits[k], expect.logits[k], 1e-4F) << "logit " << k;
    }
  }
  EXPECT_EQ(engine.stats().batches, 1U);
  EXPECT_EQ(engine.stats().padded_rows, 1U);
}

// max_batch = 6 clamps the top row bucket to 6 rows, below the next power
// of two: warmup() must build it too, so a full group replays a prebuilt
// program instead of building one on the dispatcher's path.
TEST(ServeEngine, WarmupBuildsEveryRowBucket) {
  const auto cfg = small_config();
  EngineOptions options = quiet_options(/*max_batch=*/6);
  options.max_delay_us = 60'000'000;  // the group seals only when full
  InferenceEngine engine(cfg, options);
  const int lengths[] = {cfg.seq_length};
  engine.warmup(lengths);
  EXPECT_EQ(engine.executor().cached_programs(false), 4U);  // 1, 2, 4, 6

  std::vector<std::future<Response>> futures;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    futures.push_back(
        engine.submit(serve::make_request(cfg, cfg.seq_length, seed, true)));
  }
  for (auto& f : futures) {
    const Response response = f.get();
    ASSERT_EQ(response.status, Status::kOk);
    EXPECT_EQ(response.real_rows, 6);
    EXPECT_EQ(response.batch_rows, 6);
  }
  EXPECT_EQ(engine.stats().batches, 1U);
  EXPECT_EQ(engine.executor().cached_programs(false), 4U);
}

// How the engine answers each admission decision and publishes the queue
// depths, deterministically: the 60 s flush delay keeps every group open
// until shutdown() drains it.
TEST(ServeEngine, AnswersEachAdmissionDecisionAndDrains) {
  const auto cfg = small_config();
  EngineOptions options = quiet_options(/*max_batch=*/8);
  options.max_delay_us = 60'000'000;
  options.max_queue = 4;
  options.class_quota[static_cast<std::size_t>(Priority::kBatch)] = 1;
  InferenceEngine engine(cfg, options);
  const auto submit = [&](int steps, Priority priority, bool expired = false) {
    Request r = serve::make_request(cfg, steps, 1, /*with_labels=*/true);
    r.priority = priority;
    if (expired) {
      r.deadline =
          std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
    }
    return engine.submit(std::move(r));
  };
  // Refusals are answered inside submit(); a request that was queued
  // instead reads kOk here rather than blocking until the 60 s flush.
  const auto refused = [](std::future<Response> f) {
    if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      return Status::kOk;
    }
    return f.get().status;
  };
  const auto gauge = [](const std::string& suffix) {
    return obs::Registry::instance().snapshot(false).gauges.at(
        "serve.queue_depth" + suffix);
  };

  std::vector<std::future<Response>> queued;
  queued.push_back(submit(6, Priority::kBatch));
  EXPECT_EQ(refused(submit(6, Priority::kBatch)), Status::kRejected);  // quota
  EXPECT_EQ(refused(submit(6, Priority::kNormal, /*expired=*/true)),
            Status::kDeadlineExceeded);
  queued.push_back(submit(6, Priority::kNormal));
  queued.push_back(submit(6, Priority::kNormal));
  queued.push_back(submit(9, Priority::kHigh));
  EXPECT_EQ(refused(submit(6, Priority::kHigh)), Status::kRejected);  // full
  EXPECT_EQ(engine.stats().queue_depths,
            (std::array<std::size_t, serve::kNumPriorities>{1, 2, 1}));
  EXPECT_EQ(gauge(""), 4.0);
  EXPECT_EQ(gauge(".high"), 1.0);
  EXPECT_EQ(gauge(".normal"), 2.0);
  EXPECT_EQ(gauge(".batch"), 1.0);

  engine.shutdown();  // seals both open groups at once
  std::vector<Response> served;
  for (auto& f : queued) served.push_back(f.get());
  for (const Response& r : served) EXPECT_EQ(r.status, Status::kOk);
  // The three length-6 requests share one 4-row batch; length 9 rides alone.
  EXPECT_EQ(served[0].real_rows, 3);
  EXPECT_EQ(served[0].batch_rows, 4);
  EXPECT_EQ(served[3].real_rows, 1);
  EXPECT_EQ(engine.executor().cached_programs(false), 2U);
  EXPECT_EQ(engine.infer(serve::make_request(cfg, 6, 2, true)).status,
            Status::kShutdown);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.completed, 4U);
  EXPECT_EQ(stats.rejected, 2U);
  EXPECT_EQ(stats.expired, 1U);
  EXPECT_EQ(stats.padded_rows, 1U);
  for (const char* suffix : {"", ".high", ".normal", ".batch"}) {
    EXPECT_EQ(gauge(suffix), 0.0) << suffix;
  }
}

// Four lengths, so no group fills before shutdown(). However many of them
// were queued when the dispatcher picked its first head, the kNormal
// request is the only sheddable one of a backlog above max_batch by the
// time drain picks the next head (a whole batch has executed since, far
// beyond the 1 µs shed wait), so it alone is shed.
TEST(ServeEngine, AnswersShedWithoutExecuting) {
  const auto cfg = small_config();
  EngineOptions options = quiet_options(/*max_batch=*/2);
  options.max_delay_us = 60'000'000;
  options.shed_wait_us = 1;
  InferenceEngine engine(cfg, options);
  const auto submit = [&](int steps, Priority priority) {
    Request r = serve::make_request(cfg, steps, 1, /*with_labels=*/true);
    r.priority = priority;
    return engine.submit(std::move(r));
  };
  auto high = submit(6, Priority::kHigh);
  auto normal = submit(9, Priority::kNormal);
  auto high2 = submit(7, Priority::kHigh);
  auto high3 = submit(8, Priority::kHigh);
  engine.shutdown();
  EXPECT_EQ(normal.get().status, Status::kShed);
  for (auto* f : {&high, &high2, &high3}) {
    EXPECT_EQ(f->get().status, Status::kOk);
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.shed, 1U);
  EXPECT_EQ(stats.completed, 3U);
  EXPECT_EQ(stats.batches, 3U);
}

// A request admitted live whose deadline passes while its group is open is
// answered at the seal and takes no row: its batchmate runs alone. The
// 60 s flush delay holds the group open until shutdown(), and the deadline
// has passed by then, however slowly the test runs.
TEST(ServeEngine, AnswersExpiredAtSealWithoutExecuting) {
  const auto cfg = small_config();
  EngineOptions options = quiet_options(/*max_batch=*/4);
  options.max_delay_us = 60'000'000;
  InferenceEngine engine(cfg, options);
  Request late = serve::make_request(cfg, cfg.seq_length, 1, true);
  late.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  const auto deadline = late.deadline;
  auto f_late = engine.submit(std::move(late));
  auto f_live = engine.submit(serve::make_request(cfg, cfg.seq_length, 2, true));
  while (std::chrono::steady_clock::now() <= deadline) {
  }
  engine.shutdown();
  EXPECT_EQ(f_late.get().status, Status::kDeadlineExceeded);
  const Response live = f_live.get();
  EXPECT_EQ(live.status, Status::kOk);
  EXPECT_EQ(live.real_rows, 1);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.expired, 1U);
  EXPECT_EQ(stats.batches, 1U);
}

TEST(ServeEngine, ValidatesRequests) {
  const auto cfg = small_config();
  InferenceEngine engine(cfg, quiet_options());

  Request bad_features = serve::make_request(cfg, cfg.seq_length, 1, true);
  bad_features.features.pop_back();
  const Response r1 = engine.infer(std::move(bad_features));
  EXPECT_EQ(r1.status, Status::kFailed);
  EXPECT_FALSE(r1.error.empty());

  Request bad_label = serve::make_request(cfg, cfg.seq_length, 1, true);
  bad_label.labels[0] = cfg.num_classes;
  EXPECT_EQ(engine.infer(std::move(bad_label)).status, Status::kFailed);

  EXPECT_EQ(engine.stats().failed, 2U);
  EXPECT_EQ(engine.stats().completed, 0U);
}

// ≥8 concurrent clients hammering the bounded queue; every submitted
// request must get exactly one response (promise semantics make duplicates
// impossible — a double set_value would throw — so conservation of counts
// is the whole story). This test is the serving TSan target.
TEST(ServeConcurrency, ManyClientsNoLostResponses) {
  const auto cfg = small_config();
  EngineOptions options = quiet_options(/*max_batch=*/4);
  options.max_delay_us = 200;
  options.max_queue = 16;  // small enough that backpressure can trigger
  InferenceEngine engine(cfg, options);

  LoadgenOptions load;
  load.clients = 8;
  load.requests_per_client = 25;
  load.seq_lengths = {cfg.seq_length, cfg.seq_length + 2};
  const auto result = serve::run_load(engine, load);
  engine.shutdown();

  const auto stats = engine.stats();
  const std::uint64_t total =
      static_cast<std::uint64_t>(load.clients) *
      static_cast<std::uint64_t>(load.requests_per_client);
  EXPECT_EQ(stats.submitted, total);
  EXPECT_EQ(result.ok + result.rejected + result.shed + result.expired +
                result.failed,
            total);
  EXPECT_EQ(stats.completed + stats.rejected + stats.shed + stats.expired +
                stats.failed + stats.internal_errors,
            total);
  EXPECT_EQ(result.ok, stats.completed);
  EXPECT_EQ(result.failed, 0U);
  EXPECT_GT(result.ok, 0U);
  EXPECT_EQ(engine.queue_depth(), 0U);
}

// ---- resilience layer (DESIGN.md §5h) ----

// A request whose features are NaN poisons its whole micro-batch (the
// batch-mean loss goes NaN → the finite() guard fails). Retries cannot
// clear it, so bisection must isolate it: the poisoned request alone is
// answered kInternalError, and every batchmate succeeds bit-exactly (rows
// are computed independently, so results do not depend on batch shape).
// Sealed first, the poisoned request fails at bisection depths 0, 1 and 2;
// none of that may touch the process-wide kernel backend.
void expect_bisection_isolates_poison(int hidden) {
  auto cfg = small_config();
  cfg.hidden_size = hidden;
  const std::string backend = kernels::active_backend_name();
  EngineOptions options = quiet_options(/*max_batch=*/4);
  options.max_delay_us = 50000;  // let all four coalesce
  options.max_batch_retries = 1;
  InferenceEngine engine(cfg, options);

  std::vector<Request> good;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Request r = serve::make_request(cfg, cfg.seq_length, seed, true);
    r.want_logits = true;
    good.push_back(std::move(r));
  }
  Request poison = serve::make_request(cfg, cfg.seq_length, 9, true);
  poison.features[3] = std::numeric_limits<float>::quiet_NaN();

  auto f_poison = engine.submit(std::move(poison));
  std::vector<std::future<Response>> futures;
  for (const Request& r : good) futures.push_back(engine.submit(r));

  const Response bad = f_poison.get();
  EXPECT_EQ(bad.status, Status::kInternalError);
  EXPECT_FALSE(bad.error.empty());
  std::vector<Response> served;
  for (auto& f : futures) {
    served.push_back(f.get());
    ASSERT_EQ(served.back().status, Status::kOk);
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.internal_errors, 1U);
  // 4-row group fails, splits [2|2]; the poisoned pair splits again [1|1].
  EXPECT_EQ(stats.bisections, 2U);
  EXPECT_EQ(stats.retries, 3U);  // 1 retry per failing group
  EXPECT_EQ(kernels::active_backend_name(), backend);
  // The clean groups served after the poisoned one restore health.
  EXPECT_EQ(stats.health, serve::Health::kHealthy);

  // Bit-parity: the survivors' results match a solo re-run exactly.
  for (std::size_t i = 0; i < good.size(); ++i) {
    const Response solo = engine.infer(good[i]);
    ASSERT_EQ(solo.status, Status::kOk);
    EXPECT_EQ(served[i].predictions, solo.predictions);
    EXPECT_EQ(served[i].logits, solo.logits);  // float-exact
    EXPECT_EQ(served[i].loss, solo.loss);
  }
}

TEST(ServeRecovery, BisectionIsolatesPoisonedRequestBitExactly) {
  expect_bisection_isolates_poison(8);
}

// At hidden 32 the gate rows (128 floats) run the vector sigmoid/tanh body
// on every SIMD backend, so the NaN must survive it, not only the tails.
TEST(ServeRecovery, BisectionIsolatesPoisonedRequestOnVectorActivations) {
  expect_bisection_isolates_poison(32);
}

// Request-scoped tracing through the ugliest path the engine has: a
// poisoned batch that retries, bisects twice, and answers one request
// kInternalError. The stage markers are keyed instants in the span rings:
// ids must be unique, every id must respond exactly once, and each id's
// marker timestamps must be monotone.
TEST(ServeObservability, RequestIdsUniqueAndTracedThroughRetryBisect) {
  const auto cfg = small_config();
  EngineOptions options = quiet_options(/*max_batch=*/4);
  options.max_delay_us = 50'000;  // let all four coalesce
  options.max_batch_retries = 1;
  obs::set_tracing_enabled(true);
  obs::clear();
  InferenceEngine engine(cfg, options);

  std::vector<std::future<Response>> futures;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    futures.push_back(
        engine.submit(serve::make_request(cfg, cfg.seq_length, seed, true)));
  }
  Request poison = serve::make_request(cfg, cfg.seq_length, 9, true);
  poison.features[3] = std::numeric_limits<float>::quiet_NaN();
  futures.push_back(engine.submit(std::move(poison)));
  for (auto& f : futures) (void)f.get();
  engine.shutdown();
  obs::set_tracing_enabled(false);

  struct Mark {
    std::string stage;  // marker name minus "req."
    int arg = 0;
    std::uint64_t ts_ns = 0;
    int ring = 0;
  };
  std::map<std::uint32_t, std::vector<Mark>> by_id;  // ring order
  for (const obs::ThreadTrace& ring : obs::collect()) {
    EXPECT_EQ(ring.dropped, 0U) << ring.name;
    for (const obs::TraceEvent& ev : ring.events) {
      const std::string name = obs::interned_name(ev.name);
      if (ev.kind != obs::EventKind::kKeyedInstant ||
          name.rfind("req.", 0) != 0) {
        continue;
      }
      by_id[ev.payload].push_back(
          {name.substr(4), ev.extra, ev.ts_ns, ring.ring_id});
    }
  }
  ASSERT_EQ(by_id.size(), 4U);  // one unique id per submitted request

  int internal_errors = 0;
  int ok = 0;
  for (auto& [id, marks] : by_id) {
    int submitted = 0;
    int responded = 0;
    int retries = 0;
    int bisects = 0;
    int final_status = -1;
    int client_ring = -1;
    for (const Mark& m : marks) {
      if (m.stage == "submitted") {
        ++submitted;
        client_ring = m.ring;
      } else if (m.stage == "responded") {
        ++responded;
        final_status = m.arg;
      } else if (m.stage == "retry") {
        ++retries;
      } else if (m.stage == "bisect") {
        ++bisects;
      }
    }
    EXPECT_EQ(submitted, 1) << "id " << id;
    EXPECT_EQ(responded, 1) << "id " << id;
    // Every member of the poisoned 4-row batch saw the retry and at least
    // the first bisection before the fault was isolated.
    EXPECT_GE(retries, 1) << "id " << id;
    EXPECT_GE(bisects, 1) << "id " << id;
    if (final_status == static_cast<int>(Status::kInternalError)) {
      ++internal_errors;
    } else if (final_status == static_cast<int>(Status::kOk)) {
      ++ok;
    }
    // The submitting client's markers come first, then the dispatcher's.
    std::stable_partition(marks.begin(), marks.end(), [&](const Mark& m) {
      return m.ring == client_ring;
    });
    for (std::size_t i = 1; i < marks.size(); ++i) {
      EXPECT_GE(marks[i].ts_ns, marks[i - 1].ts_ns)
          << "id " << id << " went backwards at " << marks[i].stage;
    }
  }
  EXPECT_EQ(internal_errors, 1);
  EXPECT_EQ(ok, 3);
}

// End-to-end stats endpoint on a live engine: /healthz, /statz (parse +
// schema spot-checks), and /metrics exposition.
TEST(ServeObservability, StatzJsonParsesWithSchema) {
  const auto cfg = small_config();
  EngineOptions options = quiet_options();
  options.stats_port = 0;  // ephemeral listener (also enables the sampler)
  InferenceEngine engine(cfg, options);
  const int port = engine.stats_port();
  ASSERT_GT(port, 0);

  ASSERT_EQ(engine.infer(serve::make_request(cfg, cfg.seq_length, 1, true))
                .status,
            Status::kOk);

  const auto health = obs::http_get(
      "127.0.0.1", static_cast<std::uint16_t>(port), "/healthz");
  ASSERT_TRUE(health.ok) << health.error;
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  // The sampler takes its first tick in start(), so /statz carries one.
  const auto statz = obs::http_get(
      "127.0.0.1", static_cast<std::uint16_t>(port), "/statz");
  ASSERT_TRUE(statz.ok) << statz.error;
  ASSERT_EQ(statz.status, 200);
  const obs::JsonValue doc = obs::json_parse(statz.body);
  EXPECT_EQ(doc.at("type").str, "statz");
  EXPECT_EQ(doc.at("schema_version").number, 1.0);
  EXPECT_GE(doc.at("uptime_s").number, 0.0);
  EXPECT_EQ(doc.at("engine").at("completed").number, 1.0);
  EXPECT_EQ(doc.at("engine").at("queue_depth").at("total").number, 0.0);
  ASSERT_NE(doc.find("slo"), nullptr);
  EXPECT_GE(doc.at("slo").at("availability").number, 0.0);
  EXPECT_GT(doc.at("slo").at("latency_target_us").number, 0.0);
  ASSERT_NE(doc.find("sampler"), nullptr);
  EXPECT_GE(doc.at("sampler").at("ticks").number, 1.0);
  ASSERT_NE(doc.find("metrics"), nullptr);
  EXPECT_NE(doc.at("metrics").find("counters"), nullptr);

  const auto metrics = obs::http_get(
      "127.0.0.1", static_cast<std::uint16_t>(port), "/metrics");
  ASSERT_TRUE(metrics.ok) << metrics.error;
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("# TYPE bpar_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("bpar_serve_request_us_bucket"),
            std::string::npos);

  engine.shutdown();
  // The listener dies with the engine.
  const auto after = obs::http_get(
      "127.0.0.1", static_cast<std::uint16_t>(port), "/healthz");
  EXPECT_FALSE(after.ok && after.status == 200);
}

}  // namespace
}  // namespace bpar
