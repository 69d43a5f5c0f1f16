// Optimizer and trainer tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "exec/sequential.hpp"
#include "train/optimizer.hpp"
#include "train/trainer.hpp"
#include "util/rng.hpp"

namespace bpar::train {
namespace {

using rnn::BatchData;
using rnn::NetworkConfig;

NetworkConfig tiny_config() {
  NetworkConfig cfg;
  cfg.cell = rnn::CellType::kGru;
  cfg.input_size = 4;
  cfg.hidden_size = 8;
  cfg.num_layers = 2;
  cfg.seq_length = 4;
  cfg.batch_size = 8;
  cfg.num_classes = 3;
  cfg.seed = 3;
  return cfg;
}

// A learnable toy problem: the label is determined by which input channel
// has the largest mean over time.
BatchData learnable_batch(const NetworkConfig& cfg, std::uint64_t seed) {
  util::Rng rng(seed);
  BatchData batch;
  batch.x.resize(static_cast<std::size_t>(cfg.seq_length));
  for (auto& m : batch.x) m.resize(cfg.batch_size, cfg.input_size);
  batch.labels.resize(static_cast<std::size_t>(cfg.batch_size));
  for (int b = 0; b < cfg.batch_size; ++b) {
    const int label =
        static_cast<int>(rng.uniform_index(
            static_cast<std::uint64_t>(cfg.num_classes)));
    batch.labels[static_cast<std::size_t>(b)] = label;
    for (int t = 0; t < cfg.seq_length; ++t) {
      for (int f = 0; f < cfg.input_size; ++f) {
        const double boost = f == label ? 1.0 : 0.0;
        batch.x[static_cast<std::size_t>(t)].at(b, f) =
            static_cast<float>(boost + rng.normal(0.0, 0.3));
      }
    }
  }
  return batch;
}

TEST(Sgd, ReducesLossOnFixedBatch) {
  const NetworkConfig cfg = tiny_config();
  rnn::Network net(cfg);
  exec::SequentialExecutor executor(net);
  Sgd sgd({.learning_rate = 0.3F});
  const BatchData batch = learnable_batch(cfg, 1);
  const double first = executor.train_batch(batch).loss;
  double last = first;
  for (int i = 0; i < 30; ++i) {
    sgd.step(net, executor.grads());
    last = executor.train_batch(batch).loss;
  }
  EXPECT_LT(last, first * 0.5);
}

TEST(Sgd, MomentumAcceleratesOverVanilla) {
  const NetworkConfig cfg = tiny_config();
  const BatchData batch = learnable_batch(cfg, 2);
  auto run = [&](float momentum) {
    rnn::Network net(cfg);
    exec::SequentialExecutor executor(net);
    Sgd sgd({.learning_rate = 0.05F, .momentum = momentum});
    double loss = 0.0;
    for (int i = 0; i < 25; ++i) {
      loss = executor.train_batch(batch).loss;
      sgd.step(net, executor.grads());
    }
    return loss;
  };
  EXPECT_LT(run(0.9F), run(0.0F));
}

TEST(Sgd, ClippingBoundsUpdateMagnitude) {
  const NetworkConfig cfg = tiny_config();
  rnn::Network net(cfg);
  exec::SequentialExecutor executor(net);
  const BatchData batch = learnable_batch(cfg, 3);
  executor.train_batch(batch);
  // Inflate gradients artificially, then clip hard.
  executor.grads().scale(100.0F);
  const double before = tensor::sum(net.w_out.cview());
  Sgd sgd({.learning_rate = 1.0F, .clip_norm = 1e-3F});
  sgd.step(net, executor.grads());
  const double after = tensor::sum(net.w_out.cview());
  EXPECT_LT(std::abs(after - before), 1e-2);
}

TEST(Adam, ReducesLossOnFixedBatch) {
  const NetworkConfig cfg = tiny_config();
  rnn::Network net(cfg);
  exec::SequentialExecutor executor(net);
  Adam adam({.learning_rate = 5e-3F});
  const BatchData batch = learnable_batch(cfg, 4);
  const double first = executor.train_batch(batch).loss;
  double last = first;
  for (int i = 0; i < 40; ++i) {
    adam.step(net, executor.grads());
    last = executor.train_batch(batch).loss;
  }
  EXPECT_LT(last, first * 0.6);
}

TEST(Accuracy, CountsMatches) {
  const std::vector<int> pred = {1, 2, 0, 1};
  const std::vector<int> gold = {1, 0, 0, 2};
  EXPECT_NEAR(accuracy(pred, gold), 0.5, 1e-9);
}

TEST(Trainer, EpochLoopImprovesAccuracy) {
  NetworkConfig cfg = tiny_config();
  cfg.hidden_size = 12;
  rnn::Network net(cfg);
  exec::SequentialExecutor executor(net);
  Sgd sgd({.learning_rate = 0.25F});
  Trainer trainer(net, executor, sgd);

  std::vector<rnn::BatchData> batches;
  for (std::uint64_t s = 0; s < 6; ++s) {
    batches.push_back(learnable_batch(cfg, 100 + s));
  }
  const auto before = trainer.evaluate(batches);
  for (int epoch = 0; epoch < 12; ++epoch) trainer.train_epoch(batches);
  const auto after = trainer.evaluate(batches);
  EXPECT_GT(after.accuracy, before.accuracy);
  EXPECT_LT(after.mean_loss, before.mean_loss);
  EXPECT_EQ(trainer.history().size(), 12U);
}



TEST(Trainer, ShuffleIsDeterministicAndChangesOrderAcrossEpochs) {
  NetworkConfig cfg = tiny_config();
  std::vector<rnn::BatchData> batches;
  for (std::uint64_t s = 0; s < 4; ++s) {
    batches.push_back(learnable_batch(cfg, 200 + s));
  }
  auto run = [&](bool shuffle) {
    rnn::Network net(cfg);
    exec::SequentialExecutor executor(net);
    Sgd sgd({.learning_rate = 0.1F});
    Trainer trainer(net, executor, sgd);
    trainer.set_shuffle(shuffle, 42);
    for (int epoch = 0; epoch < 3; ++epoch) trainer.train_epoch(batches);
    return tensor::l2_norm(net.w_out.cview());
  };
  // Deterministic: two shuffled runs agree exactly.
  EXPECT_EQ(run(true), run(true));
  // Order matters for SGD: shuffled differs from unshuffled.
  EXPECT_NE(run(true), run(false));
}

TEST(AdamW, WeightDecayShrinksWeightsVsAdam) {
  const NetworkConfig cfg = tiny_config();
  const BatchData batch = learnable_batch(cfg, 5);
  auto final_norm = [&](float decay) {
    rnn::Network net(cfg);
    exec::SequentialExecutor executor(net);
    Adam opt({.learning_rate = 2e-3F, .weight_decay = decay});
    for (int i = 0; i < 20; ++i) {
      executor.train_batch(batch);
      opt.step(net, executor.grads());
    }
    return tensor::l2_norm(net.w_out.cview()) +
           tensor::l2_norm(net.layer(0, 0).w.cview());
  };
  EXPECT_LT(final_norm(0.05F), final_norm(0.0F));
}

TEST(AdamW, NameReflectsDecay) {
  Adam plain({});
  Adam decayed({.weight_decay = 0.01F});
  EXPECT_STREQ(plain.name(), "adam");
  EXPECT_STREQ(decayed.name(), "adamw");
}

/// The scalar Adam update adam_update must reproduce bit for bit: the same
/// operations in the same order, one element at a time.
void scalar_adam(std::span<float> p, std::span<const float> g,
                 std::span<float> m, std::span<float> v, const AdamCoeffs& c) {
  for (std::size_t i = 0; i < p.size(); ++i) {
    m[i] = c.beta1 * m[i] + (1.0F - c.beta1) * g[i];
    v[i] = c.beta2 * v[i] + (1.0F - c.beta2) * g[i] * g[i];
    const float mhat = m[i] / c.bias1;
    const float vhat = v[i] / c.bias2;
    p[i] -= c.learning_rate *
            (mhat / (std::sqrt(vhat) + c.epsilon) + c.weight_decay * p[i]);
  }
}

// Random moments and gradients mixed with zeros, signed zeros and
// denormals, at every length from 1 to 17 (vector tails) and one long run,
// from unaligned starts, under Adam and AdamW coefficients.
TEST(Adam, VectorizedUpdateMatchesScalarBitwise) {
  util::Rng rng(17);
  const auto value = [&](std::size_t i, bool non_negative) {
    float x = 0.0F;
    switch (i % 6) {
      case 0:
        x = 0.0F;
        break;
      case 1:
        x = -0.0F;
        break;
      case 2:
        x = 3e-41F * static_cast<float>(1 + rng.uniform_index(50));
        break;
      default:
        x = static_cast<float>(rng.normal(0.0, 1.0));
    }
    return non_negative ? std::abs(x) : x;
  };
  const AdamCoeffs adam{.bias1 = 1.0F - std::pow(0.9F, 3.0F),
                        .bias2 = 1.0F - std::pow(0.999F, 3.0F)};
  AdamCoeffs adamw = adam;
  adamw.learning_rate = 5e-2F;
  adamw.weight_decay = 0.01F;
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1; n <= 17; ++n) lengths.push_back(n);
  lengths.push_back(1037);
  for (const AdamCoeffs& c : {adam, adamw}) {
    for (const std::size_t n : lengths) {
      for (const std::size_t offset : {0U, 1U, 3U}) {
        const std::size_t size = n + offset;
        std::vector<float> p(size), g(size), m(size), v(size);
        for (std::size_t i = 0; i < size; ++i) {
          p[i] = value(i + 1, false);
          g[i] = value(i + 2, false);
          m[i] = value(i + 3, false);
          v[i] = value(i + 4, true);
        }
        std::vector<float> ep = p, em = m, ev = v;
        adam_update(std::span(p).subspan(offset), std::span(g).subspan(offset),
                    std::span(m).subspan(offset), std::span(v).subspan(offset),
                    c);
        scalar_adam(std::span(ep).subspan(offset),
                    std::span<const float>(g).subspan(offset),
                    std::span(em).subspan(offset),
                    std::span(ev).subspan(offset), c);
        const std::size_t bytes = size * sizeof(float);
        EXPECT_EQ(std::memcmp(p.data(), ep.data(), bytes), 0)
            << "params, n " << n << " offset " << offset;
        EXPECT_EQ(std::memcmp(m.data(), em.data(), bytes), 0)
            << "m, n " << n << " offset " << offset;
        EXPECT_EQ(std::memcmp(v.data(), ev.data(), bytes), 0)
            << "v, n " << n << " offset " << offset;
      }
    }
  }
}

}  // namespace
}  // namespace bpar::train
