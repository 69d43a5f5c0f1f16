// LSTM and GRU cell kernels — forward update and BPTT backward.
//
// Each call updates one cell (one layer, one direction, one timestep) for a
// whole (mini-)batch: exactly the unit of work B-Par encapsulates in one
// task (paper §III-A, "B-Par maps all computations corresponding to an RNN
// cell into a single sequential task"). The kernels are purely sequential;
// all parallelism lives in the executor layer.
//
// Shapes (B = batch, H = hidden, N = layer input width, G = gate count):
//   x       B x N      layer input at this timestep
//   h_prev  B x H      recurrent state from the previous timestep
//   c_prev  B x H      LSTM cell state from the previous timestep
//   gates   B x G*H    fused gate buffer (activated in place)
//   W       (N+H) x G*H  K-major gate weights (LayerParams::w)
//   Wᵀ      G*H x (N+H)  gate-major copy of W (rnn::gate_major)
//
// Forward: gates = x · W[0:N) + h_prev · W[N:N+H) + b, both gemm_nn. The
// input side is one G*H-wide GEMM for both cells. GRU splits only the
// recurrent side: the z,r blocks use h_prev, the candidate block r ⊙ h_prev.
// Backward: dW += [x | h_prev]ᵀ · dG (gemm_tn), dx += dG · Wᵀ[:, 0:N) and
// dh_prev += dG · Wᵀ[:, N:N+H) (gemm_nn against the copy). Gate block order
// matches LayerParams: LSTM [f, i, g, o], GRU [z, r, h̄], each a column
// block of W, a row block of Wᵀ and a block of the gate buffer.
#pragma once

#include "rnn/layer_params.hpp"
#include "tensor/tensor.hpp"

namespace bpar::rnn {

/// Mutable views over a cell's forward-state buffers. Row-sliceable, so the
/// intra-op-parallel baseline executors can split one cell's batch rows
/// across workers (the per-row computations are independent).
struct CellTapeViews {
  tensor::MatrixView gates;
  tensor::MatrixView h;
  tensor::MatrixView c;
  tensor::MatrixView tanh_c;
  tensor::MatrixView rh;
};

struct ConstCellTapeViews {
  tensor::ConstMatrixView gates;
  tensor::ConstMatrixView h;
  tensor::ConstMatrixView c;
  tensor::ConstMatrixView tanh_c;
  tensor::ConstMatrixView rh;
};

/// Per-cell forward state retained for the backward pass.
struct CellTape {
  tensor::Matrix gates;   // B x G*H, activated gate values
  tensor::Matrix h;       // B x H, cell output
  tensor::Matrix c;       // B x H, LSTM cell state
  tensor::Matrix tanh_c;  // B x H, tanh(c) (LSTM)
  tensor::Matrix rh;      // B x H, r ⊙ h_prev (GRU)

  void init(CellType cell, int batch, int hidden);
  [[nodiscard]] std::size_t bytes() const;
  [[nodiscard]] CellTapeViews views();
  /// Views restricted to batch rows [row0, row0 + nrows).
  [[nodiscard]] CellTapeViews views_rows(int row0, int nrows);
  [[nodiscard]] ConstCellTapeViews cviews() const;
};

/// Forward update of one cell. For GRU, `c_prev` is ignored (pass {}).
void cell_forward(const LayerParams& p, tensor::ConstMatrixView x,
                  tensor::ConstMatrixView h_prev,
                  tensor::ConstMatrixView c_prev, const CellTapeViews& tape);

/// Convenience overload writing a whole owned tape.
inline void cell_forward(const LayerParams& p, tensor::ConstMatrixView x,
                         tensor::ConstMatrixView h_prev,
                         tensor::ConstMatrixView c_prev, CellTape& tape) {
  cell_forward(p, x, h_prev, c_prev, tape.views());
}

/// BPTT backward of one cell.
///
///   wt    G*H x (N+H)  — gate-major copy of p.w (rnn::gate_major), the
///                        right-hand side of the dx and dh_prev GEMMs
///   dh_total     B x H  — ∂L/∂h_t accumulated from all consumers
///   dc_in        B x H  — ∂L/∂c_t from timestep t+1 (LSTM; {} at the last
///                         timestep or for GRU)
///   dx_acc       B x N  — += ∂L/∂x_t ({} to skip — layer 0 needs no input
///                         gradient)
///   dh_prev_acc  B x H  — += ∂L/∂h_{t-1}
///   dc_prev_out  B x H  — =  ∂L/∂c_{t-1} (LSTM only; {} for GRU)
///   grads               — += weight/bias gradients (shared per layer, so
///                         calls for the same layer must be serialized —
///                         B-Par does this with an inout dependency)
void cell_backward(const LayerParams& p, tensor::ConstMatrixView wt,
                   tensor::ConstMatrixView x, tensor::ConstMatrixView h_prev,
                   tensor::ConstMatrixView c_prev,
                   const ConstCellTapeViews& tape,
                   tensor::ConstMatrixView dh_total,
                   tensor::ConstMatrixView dc_in, tensor::MatrixView dx_acc,
                   tensor::MatrixView dh_prev_acc,
                   tensor::MatrixView dc_prev_out, LayerGrads& grads);

inline void cell_backward(const LayerParams& p, tensor::ConstMatrixView wt,
                          tensor::ConstMatrixView x,
                          tensor::ConstMatrixView h_prev,
                          tensor::ConstMatrixView c_prev, const CellTape& tape,
                          tensor::ConstMatrixView dh_total,
                          tensor::ConstMatrixView dc_in,
                          tensor::MatrixView dx_acc,
                          tensor::MatrixView dh_prev_acc,
                          tensor::MatrixView dc_prev_out, LayerGrads& grads) {
  cell_backward(p, wt, x, h_prev, c_prev, tape.cviews(), dh_total, dc_in,
                dx_acc, dh_prev_acc, dc_prev_out, grads);
}

}  // namespace bpar::rnn
