// Deep BRNN model container: per-layer, per-direction weights plus a dense
// output (classifier) layer, and the per-replica workspace holding every
// buffer the forward and backward passes touch, one slab per chain.
//
// Indexing conventions used across the whole library:
//   * direction 0 = forward order; direction 1 = reverse order.
//   * reverse tapes are indexed by *processing step* k: tape(1, l, k)
//     processes input index (T-1-k). So tape(1, l, T-1) handles input 0 and
//     is the last reverse cell to run — the paper's 3r/6r/9r cells.
//   * merged(l, t) = merge(h_fwd(l, t), h_rev(l, T-1-t)) aligns by *input
//     index* t and feeds layer l+1 in both directions.
//   * many-to-one models merge only the final cells of the last layer
//     (paper Fig. 1: 9f with 9r); many-to-many models merge every t.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "rnn/batch.hpp"
#include "rnn/cell_kernels.hpp"
#include "rnn/layer_params.hpp"
#include "rnn/types.hpp"

namespace bpar::rnn {

struct NetworkConfig {
  CellType cell = CellType::kLstm;
  MergeOp merge = MergeOp::kConcat;
  int input_size = 8;
  int hidden_size = 16;
  int num_layers = 2;
  int seq_length = 4;
  int batch_size = 2;
  int num_classes = 4;
  bool many_to_many = false;
  std::uint64_t seed = 1234;

  /// Width of the input consumed by layer `l` in either direction.
  [[nodiscard]] int layer_input_size(int layer) const {
    return layer == 0 ? input_size : merged_size();
  }
  /// Width of a merged bidirectional output.
  [[nodiscard]] int merged_size() const {
    return merge_output_size(merge, hidden_size);
  }
  /// Directions whose backward chains write a gradient of merged(layer, t):
  /// both below the top layer. A many-to-many model's top merged output is
  /// read only by the dense layer, whose gradient takes source slot 0.
  [[nodiscard]] int merge_grad_sources(int layer) const {
    return many_to_many && layer == num_layers - 1 ? 1 : 2;
  }
  void validate() const;
};

class Network {
 public:
  /// With allocate_weights == false, only the layer shapes are recorded
  /// (param_count() still works) — used by the shape-only simulation
  /// benches where full-size weight buffers would waste gigabytes.
  explicit Network(const NetworkConfig& config, bool allocate_weights = true);

  [[nodiscard]] const NetworkConfig& config() const { return config_; }
  [[nodiscard]] LayerParams& layer(int dir, int l);
  [[nodiscard]] const LayerParams& layer(int dir, int l) const;

  /// Dense classifier: logits = y * w_out^T + b_out.
  tensor::Matrix w_out;  // C x merged_size
  tensor::Matrix b_out;  // 1 x C

  [[nodiscard]] std::size_t param_count() const;

  void save(std::ostream& os) const;
  /// Loads weights saved by save(); shapes must match this config.
  void load(std::istream& is);

 private:
  NetworkConfig config_;
  std::vector<LayerParams> params_[2];  // [dir][layer]
};

struct NetworkGrads {
  std::vector<LayerGrads> layers[2];  // [dir][layer]
  tensor::Matrix dw_out;
  tensor::Matrix db_out;

  void init_like(const Network& net);
  void zero();
  void accumulate(const NetworkGrads& other);
  void scale(float s);
  [[nodiscard]] double l2_norm() const;
  /// True iff every gradient element is finite — the trainer's cheap
  /// post-batch divergence probe.
  [[nodiscard]] bool all_finite() const;
};

/// Per-replica forward tape and backward buffers.
///
/// Every per-timestep buffer is a row block of one [T·B, width] slab, one
/// slab per (direction, layer) for the tape and the backward state and one
/// per layer for merged outputs. Rows are in input-time order: row block t
/// holds input index t for both directions, so tape(1, l, k) is row block
/// T-1-k. The per-timestep accessors return row views, so every cell GEMM
/// keeps its shape, while rnn::chain_weight_grads runs over whole slabs.
///
/// An inference workspace (training == false) holds only the forward
/// buffers. A training workspace adds the backward buffers; of those,
/// only dh has two writers that add into it (merge backward and the next
/// cell's dh_prev), so zero_backward() clears dh alone. Every other buffer
/// has exactly one writer that assigns it (DESIGN.md §5l). So the slabs
/// are allocated without a zero fill, and each page is first touched by
/// the task that writes it, on that task's worker.
class Workspace {
 public:
  /// `batch` overrides config.batch_size (mini-batch replicas are smaller).
  /// `alloc_input_grads` additionally allocates ∂L/∂x buffers (needed only
  /// when the caller wants input gradients, e.g. for encoder stacking or
  /// saliency analysis); it requires `training`.
  Workspace(const NetworkConfig& config, int batch, bool training = true,
            bool alloc_input_grads = false);

  [[nodiscard]] int batch() const { return batch_; }
  [[nodiscard]] const NetworkConfig& config() const { return config_; }

  /// Copies batch rows [r0, r0 + batch()) of every timestep into the input
  /// slab.
  void load_input(const BatchData& data, int r0);
  /// Layer-0 input at input index t (row block t of the input slab).
  [[nodiscard]] tensor::MatrixView x(int t);
  /// Input of layer `l` at input index t: x(t) for layer 0, else
  /// merged(l - 1, t).
  [[nodiscard]] tensor::MatrixView layer_input(int l, int t);
  /// All T·B rows of layer `l`'s input.
  [[nodiscard]] tensor::MatrixView layer_input_slab(int l);

  /// Forward state of processing step `step` of (dir, l): row views.
  [[nodiscard]] CellTapeViews tape(int dir, int l, int step);
  /// The whole chain's tape slabs, rows in input-time order.
  [[nodiscard]] CellTapeViews tape_slab(int dir, int l);

  /// Merged output feeding layer l+1 at input index t. For many-to-many
  /// models, l ranges over all layers; otherwise over [0, L-1).
  [[nodiscard]] tensor::MatrixView merged(int l, int t);
  [[nodiscard]] tensor::MatrixView merged_slab(int l);
  /// Final merged output of a many-to-one model.
  tensor::Matrix final_merged;

  /// Per-output logits/probs: index 0 for many-to-one, else t.
  [[nodiscard]] tensor::Matrix& logits(int t);
  [[nodiscard]] tensor::Matrix& probs(int t);
  [[nodiscard]] int num_outputs() const {
    return config_.many_to_many ? config_.seq_length : 1;
  }

  // ---- backward buffers (training workspaces only) ----

  /// Loss gradient of output t: row block t of the dlogits slab.
  [[nodiscard]] tensor::MatrixView dlogits(int t);
  [[nodiscard]] tensor::MatrixView dlogits_slab();
  /// ∂L/∂h of processing step `step`; the only buffer zero_backward clears.
  [[nodiscard]] tensor::MatrixView dh(int dir, int l, int step);
  /// ∂L/∂c of processing step `step` (LSTM), written by step + 1.
  [[nodiscard]] tensor::MatrixView dc(int dir, int l, int step);
  /// Gradient of merged(l, t) from direction `src_dir` of layer l+1, split
  /// per direction so the two backward chains never serialize on a shared
  /// buffer; the merge-backward task sums the halves. In many-to-many
  /// models the top layer's gradient comes from the dense layer alone and
  /// is dmerged(0, L-1, t) (see NetworkConfig::merge_grad_sources).
  [[nodiscard]] tensor::MatrixView dmerged(int src_dir, int l, int t);

  /// ∂L/∂x at timestep t, contributed by direction `src_dir` of layer 0
  /// (allocated only with alloc_input_grads; split per direction like
  /// dmerged). Use input_grad() to obtain the combined gradient.
  [[nodiscard]] tensor::MatrixView dx(int src_dir, int t);
  [[nodiscard]] bool has_input_grads() const { return dx_[0].count() != 0; }
  /// Combined ∂L/∂x at timestep t, written into `out` (B x input_size).
  void input_grad(int t, tensor::MatrixView out);
  tensor::Matrix dfinal;  // many-to-one: grad of final_merged

  /// Shared all-zero initial state (read-only by convention).
  tensor::Matrix zero_state;

  /// Zeroes dh, the one backward buffer that tasks add into (one memset per
  /// (direction, layer) slab). Call before each backward pass.
  void zero_backward();

  /// Bytes of the backward buffers (0 for an inference workspace).
  [[nodiscard]] std::size_t backward_bytes() const;

 private:
  [[nodiscard]] int merged_layers() const {
    return config_.many_to_many ? config_.num_layers : config_.num_layers - 1;
  }
  /// Row block of processing step `step` in direction `dir`.
  [[nodiscard]] int block(int dir, int step) const {
    return dir == 0 ? step : config_.seq_length - 1 - step;
  }
  [[nodiscard]] static tensor::MatrixView rows_of(tensor::Matrix& slab,
                                                  int block, int rows);
  [[nodiscard]] std::size_t slab_index(int dir, int l) const {
    return static_cast<std::size_t>(dir * config_.num_layers + l);
  }

  NetworkConfig config_;
  int batch_;
  tensor::Matrix x_;                   // T·B x input_size
  std::vector<CellTape> tapes_;        // [dir * L + l], T·B rows each
  std::vector<tensor::Matrix> merged_; // [l], T·B x merged
  std::vector<tensor::Matrix> logits_;
  std::vector<tensor::Matrix> probs_;
  tensor::Matrix dlogits_;             // outputs·B x classes
  std::vector<tensor::Matrix> dh_;     // [dir * L + l], T·B x H
  std::vector<tensor::Matrix> dc_;     // [dir * L + l] (LSTM)
  std::vector<tensor::Matrix> dmerged_[2];  // [src_dir][l]
  tensor::Matrix dx_[2];               // [src_dir], T·B x input (optional)
};

}  // namespace bpar::rnn
