// LSTM and GRU cell kernels — forward update, BPTT BackwardData, and the
// BackwardWeights of a whole chain.
//
// Each cell call updates one cell (one layer, one direction, one timestep)
// for a whole (mini-)batch: exactly the unit of work B-Par encapsulates in
// one task (paper §III-A, "B-Par maps all computations corresponding to an
// RNN cell into a single sequential task"). The weight gradients do not
// depend on the recurrence, so they are split off the cell, as in cuDNN's
// BackwardData / BackwardWeights: chain_weight_grads runs once per
// (direction, layer) after that chain's last backward cell, as one GEMM
// over all T·B rows (Appleyard et al., PAPERS.md). The kernels are purely
// sequential; all parallelism lives in the executor layer.
//
// Shapes (B = batch, H = hidden, N = layer input width, G = gate count):
//   x       B x N      layer input at this timestep
//   h_prev  B x H      recurrent state from the previous timestep
//   c_prev  B x H      LSTM cell state from the previous timestep
//   gates   B x G*H    fused gate buffer (activated in place; the backward
//                      cell overwrites it with the pre-activation dG)
//   W       (N+H) x G*H  K-major gate weights (LayerParams::w)
//   Wᵀ      G*H x (N+H)  gate-major copy of W (rnn::gate_major)
//
// Forward: gates = x · W[0:N) + h_prev · W[N:N+H) + b, both gemm_nn. The
// input side is one G*H-wide GEMM for both cells. GRU splits only the
// recurrent side: the z,r blocks use h_prev, the candidate block r ⊙ h_prev.
// BackwardData: dG from the tape, dx = dG · Wᵀ[:, 0:N) and
// dh_prev += dG · Wᵀ[:, N:N+H) (gemm_nn against the copy).
// BackwardWeights: dW = [X | H_prev]ᵀ · dG over the chain's slabs
// (gemm_tn, k = T·B). Gate block order matches LayerParams: LSTM
// [f, i, g, o], GRU [z, r, h̄], each a column block of W, a row block of
// Wᵀ and a block of the gate buffer.
#pragma once

#include "rnn/layer_params.hpp"
#include "tensor/tensor.hpp"

namespace bpar::rnn {

/// Mutable views over a cell's forward-state buffers, or over the
/// [T·B, width] slabs of a whole chain (rnn::Workspace). Row-sliceable, so
/// the intra-op-parallel baseline executors can split one cell's batch rows
/// across workers (the per-row computations are independent).
struct CellTapeViews {
  tensor::MatrixView gates;
  tensor::MatrixView h;
  tensor::MatrixView c;       // LSTM only
  tensor::MatrixView tanh_c;  // LSTM only
  tensor::MatrixView rh;      // GRU only

  /// Views restricted to rows [row0, row0 + nrows).
  [[nodiscard]] CellTapeViews rows(int row0, int nrows) const;
};

/// Owned forward state of `rows` batch rows (one cell in tests and
/// micro-benchmarks, or one chain's slabs in a Workspace).
struct CellTape {
  tensor::Matrix gates;   // rows x G*H, activated gate values
  tensor::Matrix h;       // rows x H, cell output
  tensor::Matrix c;       // rows x H, LSTM cell state
  tensor::Matrix tanh_c;  // rows x H, tanh(c) (LSTM)
  tensor::Matrix rh;      // rows x H, r ⊙ h_prev (GRU)

  void init(CellType cell, int rows, int hidden);
  [[nodiscard]] std::size_t bytes() const;
  [[nodiscard]] CellTapeViews views();
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

/// BackwardData of one cell: the gradients the recurrence needs, and the
/// pre-activation dG written over the tape's gate buffer, where
/// chain_weight_grads reads it. Touches no weight gradient, so the cells of
/// one layer need no ordering beyond their own data dependencies.
///
///   wt    G*H x (N+H)  — gate-major copy of p.w (rnn::gate_major), the
///                        right-hand side of the dx and dh_prev GEMMs
///   h_prev       B x H  — GRU: recurrent state of the previous timestep
///                         (LSTM ignores it)
///   c_prev       B x H  — LSTM: cell state of the previous timestep
///   tape                — this cell's forward state; gates become dG
///   dh_total     B x H  — ∂L/∂h_t accumulated from all consumers
///   dc_in        B x H  — ∂L/∂c_t from timestep t+1 (LSTM; {} at the last
///                         timestep or for GRU)
///   dx           B x N  — =  ∂L/∂x_t ({} to skip — layer 0 needs no input
///                         gradient)
///   dh_prev_acc  B x H  — += ∂L/∂h_{t-1} ({} at the first timestep, whose
///                         h_prev is the constant zero state)
///   dc_prev_out  B x H  — =  ∂L/∂c_{t-1} (LSTM; {} at the first timestep
///                         or for GRU)
void cell_backward(const LayerParams& p, tensor::ConstMatrixView wt,
                   tensor::ConstMatrixView h_prev,
                   tensor::ConstMatrixView c_prev, const CellTapeViews& tape,
                   tensor::ConstMatrixView dh_total,
                   tensor::ConstMatrixView dc_in, tensor::MatrixView dx,
                   tensor::MatrixView dh_prev_acc,
                   tensor::MatrixView dc_prev_out);

/// BackwardWeights of one (direction, layer) chain, run after its last
/// backward cell. All slabs hold T = x.rows / batch row blocks of `batch`
/// rows in input-time order (row block t belongs to input index t, in both
/// directions):
///   x   T·B x N    the layer's input
///   dg  T·B x G*H  dG, as the backward cells left it in the gate slab
///   h   T·B x H    cell outputs; h_prev of input t is row block t-1 in
///                  direction 0 and t+1 in direction 1
///   rh  T·B x H    GRU: r ⊙ h_prev, the candidate block's recurrent input
/// Writes (beta = 0) rows [row0, row0 + nrows) of grads.dw, whose row k
/// multiplies feature k of [x_t | h_{t-1}], and, when row0 == 0, all of
/// grads.db (the column sums of dg). Each element sums its T·B products in
/// row order, so a row range computes the same bits as the whole call.
void chain_weight_grads(const LayerParams& p, int dir, int batch,
                        tensor::ConstMatrixView x, tensor::ConstMatrixView dg,
                        tensor::ConstMatrixView h, tensor::ConstMatrixView rh,
                        LayerGrads& grads, int row0, int nrows);

inline void chain_weight_grads(const LayerParams& p, int dir, int batch,
                               tensor::ConstMatrixView x,
                               tensor::ConstMatrixView dg,
                               tensor::ConstMatrixView h,
                               tensor::ConstMatrixView rh, LayerGrads& grads) {
  chain_weight_grads(p, dir, batch, x, dg, h, rh, grads, 0,
                     p.input_size + p.hidden_size);
}

/// BackwardWeights of the dense output layer over all its outputs' rows:
/// dw_out = dlᵀ · y and db_out = the column sums of dl (both written).
void dense_weight_grads(tensor::ConstMatrixView dl, tensor::ConstMatrixView y,
                        tensor::MatrixView dw_out, tensor::MatrixView db_out);

}  // namespace bpar::rnn
