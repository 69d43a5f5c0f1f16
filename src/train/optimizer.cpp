#include "train/optimizer.hpp"

#include <cmath>
#include <functional>
#include <istream>
#include <ostream>

#include "util/check.hpp"

namespace bpar::train {
namespace {

// Visits every (param, grad, state...) matrix triple of the model in a
// fixed order. States may be null.
void for_each_param(
    rnn::Network& net, const rnn::NetworkGrads& grads, rnn::NetworkGrads* s1,
    rnn::NetworkGrads* s2,
    const std::function<void(tensor::MatrixView, tensor::ConstMatrixView,
                             tensor::MatrixView, tensor::MatrixView)>& fn) {
  const auto& cfg = net.config();
  auto view_or_null = [](rnn::NetworkGrads* g, auto&& pick) {
    return g == nullptr ? tensor::MatrixView{} : pick(*g).view();
  };
  for (int dir = 0; dir < 2; ++dir) {
    for (int l = 0; l < cfg.num_layers; ++l) {
      auto& p = net.layer(dir, l);
      const auto& g = grads.layers[dir][static_cast<std::size_t>(l)];
      fn(p.w.view(), g.dw.cview(),
         view_or_null(s1, [&](rnn::NetworkGrads& x) -> tensor::Matrix& {
           return x.layers[dir][static_cast<std::size_t>(l)].dw;
         }),
         view_or_null(s2, [&](rnn::NetworkGrads& x) -> tensor::Matrix& {
           return x.layers[dir][static_cast<std::size_t>(l)].dw;
         }));
      fn(p.b.view(), g.db.cview(),
         view_or_null(s1, [&](rnn::NetworkGrads& x) -> tensor::Matrix& {
           return x.layers[dir][static_cast<std::size_t>(l)].db;
         }),
         view_or_null(s2, [&](rnn::NetworkGrads& x) -> tensor::Matrix& {
           return x.layers[dir][static_cast<std::size_t>(l)].db;
         }));
    }
  }
  fn(net.w_out.view(), grads.dw_out.cview(),
     view_or_null(s1,
                  [](rnn::NetworkGrads& x) -> tensor::Matrix& { return x.dw_out; }),
     view_or_null(s2, [](rnn::NetworkGrads& x) -> tensor::Matrix& {
       return x.dw_out;
     }));
  fn(net.b_out.view(), grads.db_out.cview(),
     view_or_null(s1,
                  [](rnn::NetworkGrads& x) -> tensor::Matrix& { return x.db_out; }),
     view_or_null(s2, [](rnn::NetworkGrads& x) -> tensor::Matrix& {
       return x.db_out;
     }));
}

void write_grads_state(std::ostream& os, const rnn::NetworkGrads& g) {
  for (const auto& dir : g.layers) {
    for (const auto& lg : dir) {
      rnn::write_gate_matrix(os, lg.dw);
      tensor::write_matrix(os, lg.db);
    }
  }
  tensor::write_matrix(os, g.dw_out);
  tensor::write_matrix(os, g.db_out);
}

void read_grads_state(std::istream& is, rnn::NetworkGrads& g) {
  for (auto& dir : g.layers) {
    for (auto& lg : dir) {
      rnn::read_gate_matrix(is, lg.dw);
      tensor::read_matrix(is, lg.db);
    }
  }
  tensor::read_matrix(is, g.dw_out);
  tensor::read_matrix(is, g.db_out);
}

}  // namespace

void Optimizer::save_state(std::ostream&) const {}
void Optimizer::load_state(std::istream&, const rnn::Network&) {}
void Optimizer::scale_learning_rate(float) {}

void Sgd::save_state(std::ostream& os) const {
  const char has_velocity = velocity_ ? 1 : 0;
  os.write(&has_velocity, 1);
  if (velocity_) write_grads_state(os, *velocity_);
}

void Sgd::load_state(std::istream& is, const rnn::Network& net) {
  char has_velocity = 0;
  is.read(&has_velocity, 1);
  BPAR_CHECK(is.good(), "truncated optimizer state");
  if (has_velocity != 0) {
    velocity_ = std::make_unique<rnn::NetworkGrads>();
    velocity_->init_like(net);
    read_grads_state(is, *velocity_);
  } else {
    velocity_.reset();
  }
}

void Adam::save_state(std::ostream& os) const {
  const char has_state = m_ ? 1 : 0;
  os.write(&has_state, 1);
  os.write(reinterpret_cast<const char*>(&step_count_), sizeof step_count_);
  if (m_) {
    write_grads_state(os, *m_);
    write_grads_state(os, *v_);
  }
}

void Adam::load_state(std::istream& is, const rnn::Network& net) {
  char has_state = 0;
  is.read(&has_state, 1);
  is.read(reinterpret_cast<char*>(&step_count_), sizeof step_count_);
  BPAR_CHECK(is.good(), "truncated optimizer state");
  if (has_state != 0) {
    m_ = std::make_unique<rnn::NetworkGrads>();
    v_ = std::make_unique<rnn::NetworkGrads>();
    m_->init_like(net);
    v_->init_like(net);
    read_grads_state(is, *m_);
    read_grads_state(is, *v_);
  } else {
    m_.reset();
    v_.reset();
  }
}

void Sgd::step(rnn::Network& net, const rnn::NetworkGrads& grads) {
  float scale = 1.0F;
  if (config_.clip_norm > 0.0F) {
    const double norm = grads.l2_norm();
    if (norm > static_cast<double>(config_.clip_norm)) {
      scale = config_.clip_norm / static_cast<float>(norm);
    }
  }
  if (config_.momentum != 0.0F && !velocity_) {
    velocity_ = std::make_unique<rnn::NetworkGrads>();
    velocity_->init_like(net);
  }
  const float lr = config_.learning_rate;
  const float mu = config_.momentum;
  for_each_param(
      net, grads, velocity_.get(), nullptr,
      [lr, mu, scale](tensor::MatrixView p, tensor::ConstMatrixView g,
                      tensor::MatrixView v, tensor::MatrixView) {
        for (int r = 0; r < p.rows; ++r) {
          float* pr = p.row(r).data();
          const float* gr = g.row(r).data();
          if (mu != 0.0F) {
            float* vr = v.row(r).data();
            for (int c = 0; c < p.cols; ++c) {
              vr[c] = mu * vr[c] + scale * gr[c];
              pr[c] -= lr * vr[c];
            }
          } else {
            for (int c = 0; c < p.cols; ++c) pr[c] -= lr * scale * gr[c];
          }
        }
      });
}

void adam_update(std::span<float> p, std::span<const float> g,
                 std::span<float> m, std::span<float> v,
                 const AdamCoeffs& c) {
  BPAR_CHECK(g.size() == p.size() && m.size() == p.size() &&
                 v.size() == p.size(),
             "adam_update length mismatch");
  float* __restrict pr = p.data();
  const float* __restrict gr = g.data();
  float* __restrict mr = m.data();
  float* __restrict vr = v.data();
  const float b1 = c.beta1;
  const float b2 = c.beta2;
  for (std::size_t i = 0; i < p.size(); ++i) {
    mr[i] = b1 * mr[i] + (1.0F - b1) * gr[i];
    vr[i] = b2 * vr[i] + (1.0F - b2) * gr[i] * gr[i];
    const float mhat = mr[i] / c.bias1;
    const float vhat = vr[i] / c.bias2;
    // AdamW: decay applied to the weight directly, not the grad.
    pr[i] -= c.learning_rate *
             (mhat / (std::sqrt(vhat) + c.epsilon) + c.weight_decay * pr[i]);
  }
}

void Adam::step(rnn::Network& net, const rnn::NetworkGrads& grads) {
  if (!m_) {
    m_ = std::make_unique<rnn::NetworkGrads>();
    v_ = std::make_unique<rnn::NetworkGrads>();
    m_->init_like(net);
    v_->init_like(net);
  }
  ++step_count_;
  const AdamCoeffs coeffs{
      .beta1 = config_.beta1,
      .beta2 = config_.beta2,
      .bias1 = 1.0F - std::pow(config_.beta1, static_cast<float>(step_count_)),
      .bias2 = 1.0F - std::pow(config_.beta2, static_cast<float>(step_count_)),
      .learning_rate = config_.learning_rate,
      .epsilon = config_.epsilon,
      .weight_decay = config_.weight_decay};
  for_each_param(
      net, grads, m_.get(), v_.get(),
      [&coeffs](tensor::MatrixView p, tensor::ConstMatrixView g,
                tensor::MatrixView m, tensor::MatrixView v) {
        for (int r = 0; r < p.rows; ++r) {
          adam_update(p.row(r), g.row(r), m.row(r), v.row(r), coeffs);
        }
      });
}

}  // namespace bpar::train
