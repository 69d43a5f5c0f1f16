// Chaos serving soak (DESIGN.md §5h): 8 client threads blast a burst of
// mixed-priority requests — roughly 2× what the engine can absorb — at an
// engine with shipped defaults whose runtime is injected with randomized
// throws, delays, and stalls. The runtime watchdog (executor.watchdog_ms)
// is the only thing between an injected stall and a dispatcher hang: it
// releases the stall and fails the attempt, and the engine retries it. The
// soak asserts the three resilience invariants end to end:
//
//   1. Exactly-once: every submitted request receives exactly one terminal
//      status, and the per-status counts conserve (promise semantics make
//      duplicates throw, so conservation is the whole story).
//   2. No hang: the run completes — injected stalls are converted into
//      watchdog errors and retries instead of wedging the dispatcher.
//   3. Bit-parity: every kOk response is bit-identical to the fault-free
//      reference for the same request — retries and bisection may re-run
//      and re-shape micro-batches, but they must never change an answer.
//
// This file is part of the TSan CI target (the -R filter matches
// 'test_serve*'), so the soak also proves the resilience layer adds no
// data races under real contention.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "serve/engine.hpp"
#include "serve/loadgen.hpp"
#include "taskrt/fault.hpp"

namespace bpar {
namespace {

using serve::EngineOptions;
using serve::InferenceEngine;
using serve::Priority;
using serve::Request;
using serve::Response;
using serve::Status;

constexpr int kClients = 8;
constexpr int kRequestsPerClient = 25;

rnn::NetworkConfig chaos_config() {
  rnn::NetworkConfig cfg;
  cfg.cell = rnn::CellType::kLstm;
  cfg.input_size = 5;
  cfg.hidden_size = 8;
  cfg.num_layers = 2;
  cfg.seq_length = 6;
  cfg.batch_size = 4;
  cfg.num_classes = 4;
  return cfg;
}

std::uint64_t request_seed(int client, int index) {
  return 1000ULL * static_cast<std::uint64_t>(client) +
         static_cast<std::uint64_t>(index);
}

Request chaos_request(const rnn::NetworkConfig& cfg, int client, int index) {
  Request request =
      serve::make_request(cfg, cfg.seq_length, request_seed(client, index),
                          /*with_labels=*/true);
  request.want_logits = true;
  static constexpr Priority kCycle[] = {Priority::kHigh, Priority::kNormal,
                                        Priority::kBatch};
  request.priority = kCycle[index % 3];
  return request;
}

TEST(ServeChaos, FaultedOverloadSoakIsExactlyOnceAndBitExact) {
  const auto cfg = chaos_config();

  // Fault-free reference engine: serves every distinct request solo and
  // records its bit-exact answer.
  EngineOptions clean;
  clean.executor.num_workers = 2;
  clean.executor.num_replicas = 2;
  clean.max_batch = 4;
  InferenceEngine reference(cfg, clean);
  std::map<std::uint64_t, Response> expected;
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kRequestsPerClient; ++i) {
      const Response r = reference.infer(chaos_request(cfg, c, i));
      ASSERT_EQ(r.status, Status::kOk);
      expected.emplace(request_seed(c, i), r);
    }
  }

  // Chaos engine with the reference's exact weights. Probabilistic faults
  // re-roll every runtime session, so retries can clear them; a stall is
  // released by the runtime watchdog, which fails that attempt.
  EngineOptions chaos = clean;
  chaos.executor.faults = taskrt::FaultSpec::parse(
      "seed=9,throw=0.01,delay=0.02,delay_us=100,stall=0.003");
  chaos.executor.watchdog_ms = 100;
  chaos.max_delay_us = 200;
  chaos.max_queue = 32;
  chaos.max_batch_retries = 2;
  InferenceEngine engine(cfg, chaos);
  {
    std::stringstream weights;
    reference.network().save(weights);
    engine.network().load(weights);
  }
  reference.shutdown();

  // 8 clients submit their full quota as fast as they can — a burst far
  // over the engine's capacity — then collect every future exactly once.
  std::array<std::atomic<std::uint64_t>, serve::kNumStatuses> counts{};
  std::atomic<std::uint64_t> shed_high{0};
  std::atomic<std::uint64_t> parity_failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::future<Response>> futures;
      std::vector<int> indices;
      futures.reserve(kRequestsPerClient);
      for (int i = 0; i < kRequestsPerClient; ++i) {
        futures.push_back(engine.submit(chaos_request(cfg, c, i)));
        indices.push_back(i);
      }
      for (std::size_t k = 0; k < futures.size(); ++k) {
        const Response r = futures[k].get();
        counts[static_cast<std::size_t>(r.status)].fetch_add(1);
        const Priority priority =
            chaos_request(cfg, c, indices[k]).priority;
        if (r.status == Status::kShed && priority == Priority::kHigh) {
          shed_high.fetch_add(1);
        }
        if (r.status == Status::kOk) {
          const Response& want = expected.at(request_seed(c, indices[k]));
          if (r.predictions != want.predictions || r.logits != want.logits ||
              r.loss != want.loss) {
            parity_failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  engine.shutdown();

  // 1. Exactly-once conservation, client-side and engine-side.
  const auto stats = engine.stats();
  const std::uint64_t total =
      static_cast<std::uint64_t>(kClients) *
      static_cast<std::uint64_t>(kRequestsPerClient);
  std::uint64_t answered = 0;
  for (const auto& count : counts) answered += count.load();
  EXPECT_EQ(answered, total);
  EXPECT_EQ(stats.submitted, total);
  EXPECT_EQ(stats.completed + stats.rejected + stats.shed + stats.expired +
                stats.failed + stats.internal_errors,
            total);
  EXPECT_EQ(counts[static_cast<std::size_t>(Status::kOk)].load(),
            stats.completed);
  EXPECT_EQ(counts[static_cast<std::size_t>(Status::kFailed)].load(), 0U);
  EXPECT_EQ(counts[static_cast<std::size_t>(Status::kShutdown)].load(), 0U);
  EXPECT_GT(stats.completed, 0U);

  // 2. No hang: reaching this line at all means no dispatcher wedge; the
  // queue drained and shedding never touched the high-priority class.
  EXPECT_EQ(engine.queue_depth(), 0U);
  EXPECT_EQ(shed_high.load(), 0U);

  // 3. Bit-parity of every kOk answer against the fault-free reference.
  EXPECT_EQ(parity_failures.load(), 0U);

  // The fault schedule at these rates makes at least one retryable fault
  // statistically certain over ~50 batches (P[none] < 1e-9); its absence
  // means the recovery path silently stopped being exercised.
  EXPECT_GT(stats.retries, 0U);
}

}  // namespace
}  // namespace bpar
