#include "rnn/network.hpp"

#include <cmath>
#include <istream>
#include <ostream>

#include "kernels/elementwise.hpp"
#include "util/check.hpp"

namespace bpar::rnn {

void NetworkConfig::validate() const {
  BPAR_CHECK(input_size > 0, "input_size must be positive");
  BPAR_CHECK(hidden_size > 0, "hidden_size must be positive");
  BPAR_CHECK(num_layers > 0, "num_layers must be positive");
  BPAR_CHECK(seq_length > 0, "seq_length must be positive");
  BPAR_CHECK(batch_size > 0, "batch_size must be positive");
  BPAR_CHECK(num_classes > 0, "num_classes must be positive");
}

Network::Network(const NetworkConfig& config, bool allocate_weights)
    : config_(config) {
  config_.validate();
  util::Rng rng(config_.seed);
  for (int dir = 0; dir < 2; ++dir) {
    params_[dir].resize(static_cast<std::size_t>(config_.num_layers));
    for (int l = 0; l < config_.num_layers; ++l) {
      auto& p = params_[dir][static_cast<std::size_t>(l)];
      if (allocate_weights) {
        p.init(config_.cell, config_.layer_input_size(l), config_.hidden_size,
               rng);
      } else {
        p.init_shape(config_.cell, config_.layer_input_size(l),
                     config_.hidden_size);
      }
    }
  }
  if (!allocate_weights) return;
  w_out.resize(config_.num_classes, config_.merged_size());
  b_out.resize(1, config_.num_classes);
  const float scale =
      1.0F / std::sqrt(static_cast<float>(config_.merged_size()));
  tensor::fill_weights(w_out.view(), rng, scale);
}

LayerParams& Network::layer(int dir, int l) {
  BPAR_CHECK(dir == 0 || dir == 1, "bad direction ", dir);
  BPAR_CHECK(l >= 0 && l < config_.num_layers, "bad layer ", l);
  return params_[dir][static_cast<std::size_t>(l)];
}

const LayerParams& Network::layer(int dir, int l) const {
  return const_cast<Network*>(this)->layer(dir, l);
}

std::size_t Network::param_count() const {
  // Computed from shapes so it also works for shape-only networks.
  std::size_t count =
      static_cast<std::size_t>(config_.num_classes) *
      (static_cast<std::size_t>(config_.merged_size()) + 1U);
  for (int dir = 0; dir < 2; ++dir) {
    for (const auto& p : params_[dir]) count += p.param_count();
  }
  return count;
}

using tensor::read_matrix;
using tensor::write_matrix;

void Network::save(std::ostream& os) const {
  static constexpr char kMagic[8] = {'B', 'P', 'A', 'R', 'N', 'E', 'T', '1'};
  os.write(kMagic, sizeof kMagic);
  for (int dir = 0; dir < 2; ++dir) {
    for (const auto& p : params_[dir]) {
      write_gate_matrix(os, p.w);
      write_matrix(os, p.b);
    }
  }
  write_matrix(os, w_out);
  write_matrix(os, b_out);
}

void Network::load(std::istream& is) {
  char magic[8] = {};
  is.read(magic, sizeof magic);
  BPAR_CHECK(is.good() && std::string_view(magic, 8) == "BPARNET1",
             "not a B-Par weight file");
  for (int dir = 0; dir < 2; ++dir) {
    for (auto& p : params_[dir]) {
      read_gate_matrix(is, p.w);
      read_matrix(is, p.b);
    }
  }
  read_matrix(is, w_out);
  read_matrix(is, b_out);
}

void NetworkGrads::init_like(const Network& net) {
  const auto& cfg = net.config();
  for (int dir = 0; dir < 2; ++dir) {
    layers[dir].resize(static_cast<std::size_t>(cfg.num_layers));
    for (int l = 0; l < cfg.num_layers; ++l) {
      layers[dir][static_cast<std::size_t>(l)].init_like(net.layer(dir, l));
    }
  }
  dw_out.resize(net.w_out.rows(), net.w_out.cols());
  db_out.resize(net.b_out.rows(), net.b_out.cols());
}

void NetworkGrads::zero() {
  for (auto& dir : layers) {
    for (auto& g : dir) g.zero();
  }
  dw_out.zero();
  db_out.zero();
}

void NetworkGrads::accumulate(const NetworkGrads& other) {
  for (int dir = 0; dir < 2; ++dir) {
    BPAR_CHECK(layers[dir].size() == other.layers[dir].size(),
               "grad layer count mismatch");
    for (std::size_t l = 0; l < layers[dir].size(); ++l) {
      layers[dir][l].accumulate(other.layers[dir][l]);
    }
  }
  kernels::accumulate(dw_out.view(), other.dw_out.cview());
  kernels::accumulate(db_out.view(), other.db_out.cview());
}

void NetworkGrads::scale(float s) {
  for (auto& dir : layers) {
    for (auto& g : dir) {
      for (int r = 0; r < g.dw.rows(); ++r) {
        kernels::scale_inplace(g.dw.view().row(r), s);
      }
      kernels::scale_inplace(g.db.view().row(0), s);
    }
  }
  for (int r = 0; r < dw_out.rows(); ++r) {
    kernels::scale_inplace(dw_out.view().row(r), s);
  }
  kernels::scale_inplace(db_out.view().row(0), s);
}

bool NetworkGrads::all_finite() const {
  for (const auto& dir : layers) {
    for (const auto& g : dir) {
      if (!kernels::all_finite(g.dw.cview()) ||
          !kernels::all_finite(g.db.cview())) {
        return false;
      }
    }
  }
  return kernels::all_finite(dw_out.cview()) &&
         kernels::all_finite(db_out.cview());
}

double NetworkGrads::l2_norm() const {
  double acc = 0.0;
  auto add_sq = [&acc](const tensor::Matrix& m) {
    const double n = tensor::l2_norm(m.cview());
    acc += n * n;
  };
  for (const auto& dir : layers) {
    for (const auto& g : dir) {
      add_sq(g.dw);
      add_sq(g.db);
    }
  }
  add_sq(dw_out);
  add_sq(db_out);
  return std::sqrt(acc);
}

Workspace::Workspace(const NetworkConfig& config, int batch, bool training,
                     bool alloc_input_grads)
    : config_(config), batch_(batch) {
  BPAR_CHECK(batch > 0, "batch must be positive");
  BPAR_CHECK(training || !alloc_input_grads,
             "input gradients need a training workspace");
  const int layers = config_.num_layers;
  const int rows = config_.seq_length * batch;
  const int hidden = config_.hidden_size;
  const int merged_width = config_.merged_size();
  const bool lstm = config_.cell == CellType::kLstm;

  x_.resize_for_overwrite(rows, config_.input_size);
  tapes_.resize(static_cast<std::size_t>(2 * layers));
  for (auto& tape : tapes_) tape.init(config_.cell, rows, hidden);
  merged_.resize(static_cast<std::size_t>(merged_layers()));
  for (auto& m : merged_) m.resize_for_overwrite(rows, merged_width);
  if (!config_.many_to_many) final_merged.resize(batch, merged_width);

  const int outputs = num_outputs();
  logits_.resize(static_cast<std::size_t>(outputs));
  probs_.resize(static_cast<std::size_t>(outputs));
  for (int t = 0; t < outputs; ++t) {
    logits_[static_cast<std::size_t>(t)].resize(batch, config_.num_classes);
    probs_[static_cast<std::size_t>(t)].resize(batch, config_.num_classes);
  }
  zero_state.resize(batch, hidden);
  if (!training) return;

  dlogits_.resize_for_overwrite(outputs * batch, config_.num_classes);
  dh_.resize(tapes_.size());
  for (auto& m : dh_) m.resize_for_overwrite(rows, hidden);
  if (lstm) {
    dc_.resize(tapes_.size());
    for (auto& m : dc_) m.resize_for_overwrite(rows, hidden);
  }
  for (int src = 0; src < 2; ++src) {
    dmerged_[src].resize(merged_.size());
    for (int l = 0; l < merged_layers(); ++l) {
      if (src < config_.merge_grad_sources(l)) {
        dmerged_[src][static_cast<std::size_t>(l)].resize_for_overwrite(
            rows, merged_width);
      }
    }
  }
  if (!config_.many_to_many) dfinal.resize(batch, merged_width);
  if (alloc_input_grads) {
    for (auto& m : dx_) m.resize_for_overwrite(rows, config_.input_size);
  }
}

tensor::MatrixView Workspace::rows_of(tensor::Matrix& slab, int block,
                                      int rows) {
  BPAR_DCHECK(slab.count() != 0);
  return slab.view().block(block * rows, 0, rows, slab.cols());
}

void Workspace::load_input(const BatchData& data, int r0) {
  BPAR_CHECK(data.steps() == config_.seq_length &&
                 data.input_size() == config_.input_size &&
                 r0 >= 0 && r0 + batch_ <= data.batch(),
             "input slice out of range");
  for (int t = 0; t < config_.seq_length; ++t) {
    tensor::copy(data.x[static_cast<std::size_t>(t)].cview().block(
                     r0, 0, batch_, config_.input_size),
                 x(t));
  }
}

tensor::MatrixView Workspace::x(int t) {
  BPAR_DCHECK(t >= 0 && t < config_.seq_length);
  return rows_of(x_, t, batch_);
}

tensor::MatrixView Workspace::layer_input(int l, int t) {
  return l == 0 ? x(t) : merged(l - 1, t);
}

tensor::MatrixView Workspace::layer_input_slab(int l) {
  return l == 0 ? x_.view() : merged_slab(l - 1);
}

CellTapeViews Workspace::tape(int dir, int l, int step) {
  BPAR_DCHECK(step >= 0 && step < config_.seq_length);
  return tape_slab(dir, l).rows(block(dir, step) * batch_, batch_);
}

CellTapeViews Workspace::tape_slab(int dir, int l) {
  BPAR_DCHECK(dir == 0 || dir == 1);
  BPAR_DCHECK(l >= 0 && l < config_.num_layers);
  return tapes_[slab_index(dir, l)].views();
}

tensor::MatrixView Workspace::merged(int l, int t) {
  BPAR_DCHECK(t >= 0 && t < config_.seq_length);
  return rows_of(merged_[static_cast<std::size_t>(l)], t, batch_);
}

tensor::MatrixView Workspace::merged_slab(int l) {
  BPAR_DCHECK(l >= 0 && l < merged_layers());
  return merged_[static_cast<std::size_t>(l)].view();
}

tensor::Matrix& Workspace::logits(int t) {
  return logits_[static_cast<std::size_t>(t)];
}
tensor::Matrix& Workspace::probs(int t) {
  return probs_[static_cast<std::size_t>(t)];
}

tensor::MatrixView Workspace::dlogits(int t) {
  BPAR_DCHECK(t >= 0 && t < num_outputs());
  return rows_of(dlogits_, t, batch_);
}

tensor::MatrixView Workspace::dlogits_slab() { return dlogits_.view(); }

tensor::MatrixView Workspace::dh(int dir, int l, int step) {
  return rows_of(dh_[slab_index(dir, l)], block(dir, step), batch_);
}

tensor::MatrixView Workspace::dc(int dir, int l, int step) {
  BPAR_DCHECK(config_.cell == CellType::kLstm);
  return rows_of(dc_[slab_index(dir, l)], block(dir, step), batch_);
}

tensor::MatrixView Workspace::dmerged(int src_dir, int l, int t) {
  BPAR_DCHECK(l >= 0 && l < merged_layers());
  BPAR_DCHECK(src_dir >= 0 && src_dir < config_.merge_grad_sources(l));
  return rows_of(dmerged_[src_dir][static_cast<std::size_t>(l)], t, batch_);
}

tensor::MatrixView Workspace::dx(int src_dir, int t) {
  BPAR_DCHECK(src_dir == 0 || src_dir == 1);
  BPAR_CHECK(has_input_grads(), "workspace built without input grads");
  return rows_of(dx_[src_dir], t, batch_);
}

void Workspace::input_grad(int t, tensor::MatrixView out) {
  kernels::add(dx(0, t), dx(1, t), out);
}

void Workspace::zero_backward() {
  for (auto& m : dh_) m.zero();
}

std::size_t Workspace::backward_bytes() const {
  std::size_t count = dlogits_.count() + dfinal.count();
  for (const auto& m : dh_) count += m.count();
  for (const auto& m : dc_) count += m.count();
  for (const auto& src : dmerged_) {
    for (const auto& m : src) count += m.count();
  }
  for (const auto& m : dx_) count += m.count();
  return count * sizeof(float);
}

}  // namespace bpar::rnn
