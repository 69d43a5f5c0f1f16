// Weights and biases of one direction of one BRNN layer.
//
// As in the paper (§II), the unrolled timesteps of a layer share a single
// copy of the weights; only outputs and internal states are per-timestep.
// The fused weight matrix W is stored K-major, (in + H) x (gates*H): the
// layout the forward GEMM reads, so a cell's gates are [x_t, h_{t-1}] · W
// with no transpose (gemm_nn). Rows [0, in) multiply the layer input x_t,
// rows [in, in + H) multiply the recurrent state h_{t-1}. Gate g owns
// columns [g*H, (g+1)*H), in the order:
//   LSTM: f, i, g (=c̄), o     (Eqs. 1-4)
//   GRU:  z, r, h̄             (Eqs. 7-9)
// Weight files and optimizer state keep the gate-major (gates*H) x (in + H)
// record; write_gate_matrix / read_gate_matrix convert at the stream. The
// backward cells read a gate-major copy that a training program refreshes
// with gate_major on every execution (graph/brnn_graph.hpp), so their dx and
// dh_prev GEMMs run nn as well; inference holds no copy.
#pragma once

#include <iosfwd>

#include "rnn/types.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace bpar::rnn {

struct LayerParams {
  CellType cell = CellType::kLstm;
  int input_size = 0;
  int hidden_size = 0;
  tensor::Matrix w;  // (input + H) x (gates*H)
  tensor::Matrix b;  // 1 x (gates*H)

  /// Draws W in gate-major order (gate row, then input column) and stores
  /// each value at its K-major position, so the weights equal a gate-major
  /// tensor::fill_weights draw element for element.
  void init(CellType cell_type, int input, int hidden, util::Rng& rng);
  /// Records only the shape — no weight buffers (shape-only simulations).
  void init_shape(CellType cell_type, int input, int hidden);

  [[nodiscard]] int gates() const { return gate_count(cell); }
  /// Weight + bias element count, computed from the shape (valid with or
  /// without allocated buffers).
  [[nodiscard]] std::size_t param_count() const {
    const auto rows = static_cast<std::size_t>(gates()) * hidden_size;
    return rows * (static_cast<std::size_t>(input_size) + hidden_size) + rows;
  }
  /// Rows [0, input) of W — the input projection, input x (gates*H).
  [[nodiscard]] tensor::ConstMatrixView w_input() const {
    return w.cview().block(0, 0, input_size, w.cols());
  }
  /// Rows [input, input+H) of W — the recurrent projection, H x (gates*H).
  [[nodiscard]] tensor::ConstMatrixView w_recurrent() const {
    return w.cview().block(input_size, 0, hidden_size, w.cols());
  }
};

struct LayerGrads {
  tensor::Matrix dw;  // same shape as LayerParams::w
  tensor::Matrix db;  // same shape as LayerParams::b

  void init_like(const LayerParams& params);
  void zero();
  void accumulate(const LayerGrads& other);
};

/// Writes a K-major gate matrix (LayerParams::w, LayerGrads::dw or an
/// optimizer buffer of that shape) as the tensor::write_matrix record of
/// its gate-major (gates*H) x (in + H) transpose.
void write_gate_matrix(std::ostream& os, const tensor::Matrix& w);
/// Reads a write_gate_matrix record into the K-major `w`; the stored shape
/// must be w's transpose.
void read_gate_matrix(std::istream& is, tensor::Matrix& w);
/// Writes the gate-major transpose of the K-major `w` into `wt`, which must
/// be (gates*H) x (in + H): wt(g, k) = w(k, g). The copy rnn::cell_backward
/// reads for its dx and dh_prev GEMMs.
void gate_major(tensor::ConstMatrixView w, tensor::MatrixView wt);

}  // namespace bpar::rnn
