#include "rnn/cell_kernels.hpp"

#include <algorithm>
#include <vector>

#include "kernels/elementwise.hpp"
#include "kernels/gemm.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace bpar::rnn {

using kernels::gemm_nn;
using kernels::gemm_tn;
using tensor::ConstMatrixView;
using tensor::MatrixView;

void CellTape::init(CellType cell, int rows, int hidden) {
  gates.resize_for_overwrite(rows, gate_count(cell) * hidden);
  h.resize_for_overwrite(rows, hidden);
  if (cell == CellType::kLstm) {
    c.resize_for_overwrite(rows, hidden);
    tanh_c.resize_for_overwrite(rows, hidden);
  } else {
    rh.resize_for_overwrite(rows, hidden);
  }
}

std::size_t CellTape::bytes() const {
  return (gates.count() + h.count() + c.count() + tanh_c.count() +
          rh.count()) *
         sizeof(float);
}

CellTapeViews CellTape::views() {
  return {gates.view(), h.view(), c.view(), tanh_c.view(), rh.view()};
}

CellTapeViews CellTapeViews::rows(int row0, int nrows) const {
  auto slice = [&](MatrixView m) -> MatrixView {
    if (m.data == nullptr) return {};
    return m.block(row0, 0, nrows, m.cols);
  };
  return {slice(gates), slice(h), slice(c), slice(tanh_c), slice(rh)};
}

namespace {

void lstm_forward(const LayerParams& p, ConstMatrixView x,
                  ConstMatrixView h_prev, ConstMatrixView c_prev,
                  const CellTapeViews& tape) {
  const int batch = tape.gates.rows;
  const int hidden = p.hidden_size;
  MatrixView gates = tape.gates;

  // gates = x · Wx + h_prev · Wh + b.
  gemm_nn(x, p.w_input(), gates);
  gemm_nn(h_prev, p.w_recurrent(), gates, 1.0F, 1.0F);
  kernels::add_bias_rows(gates, p.b.cview().row(0));

  BPAR_SPAN("rnn.lstm_pointwise");
  for (int r = 0; r < batch; ++r) {
    float* g = gates.row(r).data();
    // f, i: sigmoid; g: tanh; o: sigmoid.
    kernels::sigmoid_inplace({g, static_cast<std::size_t>(2 * hidden)});
    kernels::tanh_inplace({g + 2 * hidden, static_cast<std::size_t>(hidden)});
    kernels::sigmoid_inplace(
        {g + 3 * hidden, static_cast<std::size_t>(hidden)});

    const float* f = g;
    const float* i = g + hidden;
    const float* gbar = g + 2 * hidden;
    const float* o = g + 3 * hidden;
    const float* cp = c_prev.row(r).data();
    float* c = tape.c.row(r).data();
    float* tc = tape.tanh_c.row(r).data();
    float* h = tape.h.row(r).data();
    for (int j = 0; j < hidden; ++j) {
      c[j] = f[j] * cp[j] + i[j] * gbar[j];
      tc[j] = c[j];
    }
    kernels::tanh_inplace({tc, static_cast<std::size_t>(hidden)});
    for (int j = 0; j < hidden; ++j) h[j] = o[j] * tc[j];
  }
}

void gru_forward(const LayerParams& p, ConstMatrixView x,
                 ConstMatrixView h_prev, const CellTapeViews& tape) {
  const int batch = tape.gates.rows;
  const int hidden = p.hidden_size;
  MatrixView gates = tape.gates;
  MatrixView zr = gates.block(0, 0, batch, 2 * hidden);
  MatrixView hbar = gates.block(0, 2 * hidden, batch, hidden);
  // Gate blocks are column blocks of the input and recurrent rows of W.
  const ConstMatrixView wx = p.w_input();
  const ConstMatrixView wh = p.w_recurrent();

  // Input side of all three gate blocks as one 3H-wide GEMM. Writing the
  // candidate block before the z,r pointwise stage is value-identical to
  // two narrower GEMMs: the blocks are disjoint, and a GEMM row's output
  // element does not depend on which other columns the call computes.
  gemm_nn(x, wx, gates);

  // z, r recurrent half, then bias + sigmoid over the z,r block.
  gemm_nn(h_prev, wh.block(0, 0, hidden, 2 * hidden), zr, 1.0F, 1.0F);
  for (int r = 0; r < batch; ++r) {
    kernels::add_inplace(zr.row(r),
                         p.b.cview().row(0).subspan(0, 2 * hidden));
    kernels::sigmoid_inplace(zr.row(r));
  }

  // rh = r ⊙ h_prev, then the candidate block uses rh as recurrent input.
  for (int r = 0; r < batch; ++r) {
    const float* rr = gates.row(r).data() + hidden;
    kernels::hadamard({rr, static_cast<std::size_t>(hidden)}, h_prev.row(r),
                      tape.rh.row(r));
  }

  // Candidate block: recurrent half against rh on top of the input half,
  // then bias + tanh.
  gemm_nn(tape.rh, wh.block(0, 2 * hidden, hidden, hidden), hbar, 1.0F, 1.0F);
  for (int r = 0; r < batch; ++r) {
    kernels::add_inplace(hbar.row(r),
                         p.b.cview().row(0).subspan(2 * hidden));
    kernels::tanh_inplace(hbar.row(r));
  }

  // h = z ⊙ h̄ + (1 - z) ⊙ h_prev   (Eq. 10)
  BPAR_SPAN("rnn.gru_pointwise");
  for (int r = 0; r < batch; ++r) {
    const float* g = gates.row(r).data();
    const float* z = g;
    const float* hb = g + 2 * hidden;
    const float* hp = h_prev.row(r).data();
    float* h = tape.h.row(r).data();
    for (int j = 0; j < hidden; ++j) {
      h[j] = z[j] * hb[j] + (1.0F - z[j]) * hp[j];
    }
  }
}

void lstm_backward(const LayerParams& p, ConstMatrixView wt,
                   ConstMatrixView c_prev, const CellTapeViews& tape,
                   ConstMatrixView dh_total, ConstMatrixView dc_in,
                   MatrixView dx, MatrixView dh_prev_acc,
                   MatrixView dc_prev_out) {
  const int batch = dh_total.rows;
  const int hidden = p.hidden_size;
  // Each j reads its four activated gates before writing their dG, so the
  // gate buffer holds the pre-activation gradients afterwards.
  const MatrixView dg = tape.gates;
  const bool has_dc_in = dc_in.data != nullptr;
  const bool has_dc_prev = dc_prev_out.data != nullptr;
  for (int r = 0; r < batch; ++r) {
    float* g = dg.row(r).data();
    const float* tc = tape.tanh_c.row(r).data();
    const float* cp = c_prev.row(r).data();
    const float* dh = dh_total.row(r).data();
    const float* dci = has_dc_in ? dc_in.row(r).data() : nullptr;
    float* dcp = has_dc_prev ? dc_prev_out.row(r).data() : nullptr;
    for (int j = 0; j < hidden; ++j) {
      const float f = g[j];
      const float i = g[j + hidden];
      const float gbar = g[j + 2 * hidden];
      const float o = g[j + 3 * hidden];
      const float dc = (dci != nullptr ? dci[j] : 0.0F) +
                       dh[j] * o * kernels::dtanh_from_y(tc[j]);
      const float df = dc * cp[j];
      const float di = dc * gbar;
      const float dgb = dc * i;
      const float dout = dh[j] * tc[j];
      g[j] = df * kernels::dsigmoid_from_y(f);
      g[j + hidden] = di * kernels::dsigmoid_from_y(i);
      g[j + 2 * hidden] = dgb * kernels::dtanh_from_y(gbar);
      g[j + 3 * hidden] = dout * kernels::dsigmoid_from_y(o);
      if (dcp != nullptr) dcp[j] = dc * f;
    }
  }

  // Input and recurrent-state gradients: dG · Wᵀ, whose input and
  // recurrent halves are column blocks of the gate-major copy.
  const int gh = 4 * hidden;
  if (dx.data != nullptr) {
    gemm_nn(dg, wt.block(0, 0, gh, p.input_size), dx);
  }
  if (dh_prev_acc.data != nullptr) {
    gemm_nn(dg, wt.block(0, p.input_size, gh, hidden), dh_prev_acc, 1.0F,
            1.0F);
  }
}

/// Rows x cols scratch for the GRU cell's drh. One buffer per thread, so
/// concurrently running cells never share it; it only grows, so a warm
/// worker allocates nothing.
MatrixView gru_scratch(int rows, int cols) {
  thread_local std::vector<float> buffer;
  const std::size_t need = static_cast<std::size_t>(rows) * cols;
  if (buffer.size() < need) buffer.resize(need);
  return {buffer.data(), rows, cols, cols};
}

void gru_backward(const LayerParams& p, ConstMatrixView wt,
                  ConstMatrixView h_prev, const CellTapeViews& tape,
                  ConstMatrixView dh_total, MatrixView dx,
                  MatrixView dh_prev_acc) {
  const int batch = dh_total.rows;
  const int hidden = p.hidden_size;
  const int in = p.input_size;
  const MatrixView dg = tape.gates;
  const bool has_dh_prev = dh_prev_acc.data != nullptr;

  // Update gate and candidate first: dG_z = dh ⊙ (h̄ - h_prev) ⊙ z(1 - z)
  // and dG_h̄ = dh ⊙ z ⊙ (1 - h̄²) overwrite z and h̄ after their last read.
  for (int r = 0; r < batch; ++r) {
    float* g = dg.row(r).data();
    const float* hp = h_prev.row(r).data();
    const float* dh = dh_total.row(r).data();
    float* dhp = has_dh_prev ? dh_prev_acc.row(r).data() : nullptr;
    for (int j = 0; j < hidden; ++j) {
      const float z = g[j];
      const float hb = g[j + 2 * hidden];
      const float dghb = dh[j] * z * kernels::dtanh_from_y(hb);
      const float dz = dh[j] * (hb - hp[j]);
      if (dhp != nullptr) dhp[j] += dh[j] * (1.0F - z);  // direct path, Eq. 10
      g[j] = dz * kernels::dsigmoid_from_y(z);
      g[j + 2 * hidden] = dghb;
    }
  }

  // Gate blocks are row blocks of the gate-major copy, whose columns [0, N)
  // give dx and [N, N+H) the recurrent-state gradients.
  const ConstMatrixView dg_hbar = dg.block(0, 2 * hidden, batch, hidden);
  if (dx.data != nullptr) {
    gemm_nn(dg_hbar, wt.block(2 * hidden, 0, hidden, in), dx);
  }

  // drh = dG_h̄ · W_h̄hᵀ, then split into dr and the gated h_prev path.
  const MatrixView drh = gru_scratch(batch, hidden);
  gemm_nn(dg_hbar, wt.block(2 * hidden, in, hidden, hidden), drh);
  for (int r = 0; r < batch; ++r) {
    float* g = dg.row(r).data();
    const float* hp = h_prev.row(r).data();
    const float* drh_r = drh.row(r).data();
    float* dhp = has_dh_prev ? dh_prev_acc.row(r).data() : nullptr;
    for (int j = 0; j < hidden; ++j) {
      const float rr = g[j + hidden];
      const float dr = drh_r[j] * hp[j];
      if (dhp != nullptr) dhp[j] += drh_r[j] * rr;  // h_prev path through rh
      g[j + hidden] = dr * kernels::dsigmoid_from_y(rr);
    }
  }

  const ConstMatrixView dg_zr = dg.block(0, 0, batch, 2 * hidden);
  if (dx.data != nullptr) {
    gemm_nn(dg_zr, wt.block(0, 0, 2 * hidden, in), dx, 1.0F, 1.0F);
  }
  if (has_dh_prev) {
    gemm_nn(dg_zr, wt.block(0, in, 2 * hidden, hidden), dh_prev_acc, 1.0F,
            1.0F);
  }
}

}  // namespace

void cell_forward(const LayerParams& p, ConstMatrixView x,
                  ConstMatrixView h_prev, ConstMatrixView c_prev,
                  const CellTapeViews& tape) {
  BPAR_SPAN("rnn.cell_forward");
  BPAR_CHECK(x.cols == p.input_size, "cell input width ", x.cols,
             " != layer input size ", p.input_size);
  BPAR_CHECK(h_prev.rows == x.rows, "h_prev shape mismatch");
  BPAR_CHECK(h_prev.cols == p.hidden_size, "h_prev shape mismatch");
  if (p.cell == CellType::kLstm) {
    BPAR_CHECK(c_prev.data != nullptr, "LSTM needs c_prev");
    lstm_forward(p, x, h_prev, c_prev, tape);
  } else {
    gru_forward(p, x, h_prev, tape);
  }
}

void cell_backward(const LayerParams& p, ConstMatrixView wt,
                   ConstMatrixView h_prev, ConstMatrixView c_prev,
                   const CellTapeViews& tape, ConstMatrixView dh_total,
                   ConstMatrixView dc_in, MatrixView dx,
                   MatrixView dh_prev_acc, MatrixView dc_prev_out) {
  BPAR_SPAN("rnn.cell_backward");
  BPAR_CHECK(dh_total.cols == p.hidden_size &&
                 dh_total.rows == tape.gates.rows,
             "dh shape mismatch");
  BPAR_CHECK(wt.rows == p.gates() * p.hidden_size &&
                 wt.cols == p.input_size + p.hidden_size,
             "gate-major weight copy shape mismatch");
  if (p.cell == CellType::kLstm) {
    BPAR_CHECK(c_prev.data != nullptr, "LSTM needs c_prev");
    lstm_backward(p, wt, c_prev, tape, dh_total, dc_in, dx, dh_prev_acc,
                  dc_prev_out);
  } else {
    gru_backward(p, wt, h_prev, tape, dh_total, dx, dh_prev_acc);
  }
}

void chain_weight_grads(const LayerParams& p, int dir, int batch,
                        ConstMatrixView x, ConstMatrixView dg,
                        ConstMatrixView h, ConstMatrixView rh,
                        LayerGrads& grads, int row0, int nrows) {
  BPAR_SPAN("rnn.chain_weight_grads");
  const int in = p.input_size;
  const int hidden = p.hidden_size;
  const int rows = x.rows;
  BPAR_CHECK(batch > 0 && rows > 0 && rows % batch == 0,
             "slab rows must be whole timesteps");
  BPAR_CHECK(x.cols == in && dg.rows == rows && h.rows == rows &&
                 dg.cols == p.gates() * hidden && h.cols == hidden,
             "weight-gradient slab shape mismatch");
  BPAR_CHECK(row0 >= 0 && nrows >= 0 && row0 + nrows <= in + hidden,
             "weight-gradient row range out of bounds");
  const MatrixView dw = grads.dw.view();

  // Input rows: dW_x = Xᵀ · dG over every timestep.
  const int x0 = row0;
  const int x1 = std::min(row0 + nrows, in);
  if (x1 > x0) {
    gemm_tn(x.block(0, x0, rows, x1 - x0), dg,
            dw.block(x0, 0, x1 - x0, dw.cols));
  }

  // Recurrent rows: dW_h = H_prevᵀ · dG over the timesteps that have a
  // predecessor (the first step's h_prev is zero), with H_prev the h slab
  // shifted by one row block against dG.
  const int h0 = std::max(row0, in) - in;
  const int h1 = std::min(row0 + nrows, in + hidden) - in;
  if (h1 > h0) {
    const int nh = h1 - h0;
    const int shifted = rows - batch;
    const ConstMatrixView h_prev =
        h.block(dir == 0 ? 0 : batch, h0, shifted, nh);
    const ConstMatrixView dg_next = dg.block(dir == 0 ? batch : 0, 0,
                                             shifted, dg.cols);
    const MatrixView dwh = dw.block(in + h0, 0, nh, dw.cols);
    if (p.cell == CellType::kLstm) {
      gemm_tn(h_prev, dg_next, dwh);
    } else {
      // z, r against h_prev; the candidate block against r ⊙ h_prev.
      gemm_tn(h_prev, dg_next.block(0, 0, shifted, 2 * hidden),
              dwh.block(0, 0, nh, 2 * hidden));
      gemm_tn(rh.block(0, h0, rows, nh),
              dg.block(0, 2 * hidden, rows, hidden),
              dwh.block(0, 2 * hidden, nh, hidden));
    }
  }

  if (row0 == 0) {
    const MatrixView db = grads.db.view();
    tensor::fill_constant(db, 0.0F);
    kernels::sum_rows_acc(dg, db.row(0));
  }
}

void dense_weight_grads(ConstMatrixView dl, ConstMatrixView y,
                        MatrixView dw_out, MatrixView db_out) {
  BPAR_SPAN("rnn.dense_weight_grads");
  gemm_tn(dl, y, dw_out);
  tensor::fill_constant(db_out, 0.0F);
  kernels::sum_rows_acc(dl, db_out.row(0));
}

}  // namespace bpar::rnn
