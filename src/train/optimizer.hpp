// Optimizers applying reduced gradients to a Network's weights.
//
// The weight update runs after the batch graph drains (its time is part of
// the paper's per-batch training time). Updates are deterministic and
// identical regardless of which executor produced the gradients.
#pragma once

#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "rnn/network.hpp"

namespace bpar::train {

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  /// net -= update(grads). Gradients are whole-batch means.
  virtual void step(rnn::Network& net, const rnn::NetworkGrads& grads) = 0;
  [[nodiscard]] virtual const char* name() const = 0;

  /// Serialize internal state (momentum/moment buffers, step count) so a
  /// checkpointed training run resumes bit-exactly. Default: stateless.
  virtual void save_state(std::ostream& os) const;
  virtual void load_state(std::istream& is, const rnn::Network& net);

  /// Learning-rate backoff hook for the trainer's divergence recovery:
  /// multiplies the current learning rate by `s`. Default: no-op (an
  /// optimizer without a rate ignores backoff).
  virtual void scale_learning_rate(float s);
  /// Current learning rate, 0 when the optimizer has none.
  [[nodiscard]] virtual float learning_rate() const { return 0.0F; }
};

/// Plain SGD with optional momentum and gradient clipping.
class Sgd final : public Optimizer {
 public:
  struct Config {
    float learning_rate = 0.05F;
    float momentum = 0.0F;      // 0 → vanilla SGD
    float clip_norm = 0.0F;     // 0 → no clipping
  };
  explicit Sgd(Config config) : config_(config) {}

  void step(rnn::Network& net, const rnn::NetworkGrads& grads) override;
  [[nodiscard]] const char* name() const override { return "sgd"; }
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is, const rnn::Network& net) override;
  void scale_learning_rate(float s) override { config_.learning_rate *= s; }
  [[nodiscard]] float learning_rate() const override {
    return config_.learning_rate;
  }

 private:
  Config config_;
  std::unique_ptr<rnn::NetworkGrads> velocity_;  // lazily initialized
};

/// Adam (Kingma & Ba) with bias correction; weight_decay > 0 turns it into
/// AdamW (decoupled weight decay, Loshchilov & Hutter).
class Adam final : public Optimizer {
 public:
  struct Config {
    float learning_rate = 1e-3F;
    float beta1 = 0.9F;
    float beta2 = 0.999F;
    float epsilon = 1e-8F;
    float weight_decay = 0.0F;  // decoupled (AdamW) when non-zero
  };
  explicit Adam(Config config) : config_(config) {}

  void step(rnn::Network& net, const rnn::NetworkGrads& grads) override;
  [[nodiscard]] const char* name() const override {
    return config_.weight_decay > 0.0F ? "adamw" : "adam";
  }
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is, const rnn::Network& net) override;
  void scale_learning_rate(float s) override { config_.learning_rate *= s; }
  [[nodiscard]] float learning_rate() const override {
    return config_.learning_rate;
  }

 private:
  Config config_;
  std::unique_ptr<rnn::NetworkGrads> m_;
  std::unique_ptr<rnn::NetworkGrads> v_;
  long step_count_ = 0;
};

/// Coefficients of one Adam step, as Adam::step derives them from its
/// config and step count (bias_k = 1 - beta_k^step).
struct AdamCoeffs {
  float beta1 = 0.9F;
  float beta2 = 0.999F;
  float bias1 = 1.0F;
  float bias2 = 1.0F;
  float learning_rate = 1e-3F;
  float epsilon = 1e-8F;
  float weight_decay = 0.0F;
};

/// One Adam update of the parameters `p` in place, with gradient `g` and
/// moments `m`, `v` (all of one length, not overlapping):
///   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;
///   p -= lr * ((m/bias1) / (sqrt(v/bias2) + eps) + decay*p).
/// The loop compiles to packed sqrt and div (optimizer.cpp builds without
/// errno-setting math and without FMA contraction), and IEEE sqrt and div
/// round the same packed or scalar, so every element gets the bits of the
/// scalar loop.
void adam_update(std::span<float> p, std::span<const float> g,
                 std::span<float> m, std::span<float> v, const AdamCoeffs& c);

}  // namespace bpar::train
