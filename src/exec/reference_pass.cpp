#include "exec/reference_pass.hpp"

#include <algorithm>

#include "kernels/elementwise.hpp"
#include "kernels/gemm.hpp"
#include "rnn/cell_kernels.hpp"
#include "rnn/layer_params.hpp"
#include "rnn/merge.hpp"
#include "util/check.hpp"

namespace bpar::exec {

using rnn::CellType;
using rnn::NetworkConfig;
using tensor::ConstMatrixView;
using tensor::MatrixView;

namespace {

std::span<const int> label_slice(const rnn::BatchData& batch, int t, int r0,
                                 int rb) {
  const std::size_t offset =
      batch.many_to_many()
          ? static_cast<std::size_t>(t) * batch.batch() + r0
          : static_cast<std::size_t>(r0);
  return std::span<const int>(batch.labels)
      .subspan(offset, static_cast<std::size_t>(rb));
}

int merged_layers(const NetworkConfig& cfg) {
  return cfg.many_to_many ? cfg.num_layers : cfg.num_layers - 1;
}

}  // namespace

double forward_pass(const rnn::Network& net, rnn::Workspace& ws,
                    const rnn::BatchData& batch, int r0, int total_batch) {
  const NetworkConfig& cfg = net.config();
  const int rb = ws.batch();
  const int steps = cfg.seq_length;
  const bool lstm = cfg.cell == CellType::kLstm;
  ws.load_input(batch, r0);

  for (int l = 0; l < cfg.num_layers; ++l) {
    for (int dir = 0; dir < 2; ++dir) {
      const rnn::LayerParams& p = net.layer(dir, l);
      for (int s = 0; s < steps; ++s) {
        const int ti = dir == 0 ? s : steps - 1 - s;
        const ConstMatrixView h_prev =
            s == 0 ? ws.zero_state.view() : ws.tape(dir, l, s - 1).h;
        ConstMatrixView c_prev;
        if (lstm) {
          c_prev = s == 0 ? ws.zero_state.view() : ws.tape(dir, l, s - 1).c;
        }
        rnn::cell_forward(p, ws.layer_input(l, ti), h_prev, c_prev,
                          ws.tape(dir, l, s));
      }
    }
    if (l < merged_layers(cfg)) {
      for (int t = 0; t < steps; ++t) {
        rnn::merge_forward(cfg.merge, ws.tape(0, l, t).h,
                           ws.tape(1, l, steps - 1 - t).h, ws.merged(l, t));
      }
    }
  }

  const int last = cfg.num_layers - 1;
  if (!cfg.many_to_many) {
    rnn::merge_forward(cfg.merge, ws.tape(0, last, steps - 1).h,
                       ws.tape(1, last, steps - 1).h, ws.final_merged.view());
  }

  const int outputs = ws.num_outputs();
  const double weight =
      static_cast<double>(rb) / (static_cast<double>(total_batch) * outputs);
  double loss = 0.0;
  for (int t = 0; t < outputs; ++t) {
    const ConstMatrixView y =
        cfg.many_to_many ? ws.merged(last, t) : ws.final_merged.view();
    MatrixView logits = ws.logits(t).view();
    kernels::gemm_nt(y, net.w_out.cview(), logits);
    kernels::add_bias_rows(logits, net.b_out.cview().row(0));
    kernels::softmax_rows(logits, ws.probs(t).view());
    loss += kernels::cross_entropy(ws.probs(t).cview(),
                                   label_slice(batch, t, r0, rb)) *
            weight;
  }
  return loss;
}

void backward_pass(const rnn::Network& net, rnn::Workspace& ws,
                   const rnn::BatchData& batch, int r0, int total_batch,
                   rnn::NetworkGrads& grads) {
  const NetworkConfig& cfg = net.config();
  const int rb = ws.batch();
  const int steps = cfg.seq_length;
  const int last = cfg.num_layers - 1;
  const bool lstm = cfg.cell == CellType::kLstm;
  const int outputs = ws.num_outputs();
  const float scale = static_cast<float>(
      static_cast<double>(rb) / (static_cast<double>(total_batch) * outputs));

  // Loss gradient + dense BackwardData per output, then the dense
  // BackwardWeights over all outputs.
  for (int t = 0; t < outputs; ++t) {
    const MatrixView dl = ws.dlogits(t);
    kernels::softmax_ce_grad(ws.probs(t).cview(),
                             label_slice(batch, t, r0, rb), dl);
    for (int r = 0; r < dl.rows; ++r) kernels::scale_inplace(dl.row(r), scale);
    kernels::gemm_nn(dl, net.w_out.cview(),
                     cfg.many_to_many ? ws.dmerged(0, last, t)
                                      : ws.dfinal.view());
  }
  rnn::dense_weight_grads(
      ws.dlogits_slab(),
      cfg.many_to_many ? ws.merged_slab(last) : ws.final_merged.view(),
      grads.dw_out.view(), grads.db_out.view());

  if (!cfg.many_to_many) {
    rnn::merge_backward(cfg.merge, ws.tape(0, last, steps - 1).h,
                        ws.tape(1, last, steps - 1).h, ws.dfinal.view(),
                        ws.dh(0, last, steps - 1), ws.dh(1, last, steps - 1));
  }

  for (int l = last; l >= 0; --l) {
    if (l < merged_layers(cfg)) {
      for (int t = steps - 1; t >= 0; --t) {
        for (int src = 0; src < cfg.merge_grad_sources(l); ++src) {
          rnn::merge_backward(cfg.merge, ws.tape(0, l, t).h,
                              ws.tape(1, l, steps - 1 - t).h,
                              ws.dmerged(src, l, t), ws.dh(0, l, t),
                              ws.dh(1, l, steps - 1 - t));
        }
      }
    }
    for (int dir = 0; dir < 2; ++dir) {
      const rnn::LayerParams& p = net.layer(dir, l);
      // The gate-major copy the backward cells read, as a training program's
      // transposition task writes it.
      tensor::Matrix wt(p.w.cols(), p.w.rows());
      rnn::gate_major(p.w.cview(), wt.view());
      for (int s = steps - 1; s >= 0; --s) {
        const int ti = dir == 0 ? s : steps - 1 - s;
        const ConstMatrixView h_prev =
            s == 0 ? ws.zero_state.view() : ws.tape(dir, l, s - 1).h;
        ConstMatrixView c_prev;
        ConstMatrixView dc_in;
        MatrixView dc_prev;
        if (lstm) {
          c_prev = s == 0 ? ws.zero_state.view() : ws.tape(dir, l, s - 1).c;
          if (s < steps - 1) dc_in = ws.dc(dir, l, s);
          if (s > 0) dc_prev = ws.dc(dir, l, s - 1);
        }
        MatrixView dx;
        if (l > 0) {
          dx = ws.dmerged(dir, l - 1, ti);
        } else if (ws.has_input_grads()) {
          dx = ws.dx(dir, ti);
        }
        const MatrixView dh_prev =
            s > 0 ? ws.dh(dir, l, s - 1) : MatrixView{};
        rnn::cell_backward(p, wt.cview(), h_prev, c_prev, ws.tape(dir, l, s),
                           ws.dh(dir, l, s), dc_in, dx, dh_prev, dc_prev);
      }
      const rnn::CellTapeViews slab = ws.tape_slab(dir, l);
      rnn::chain_weight_grads(p, dir, rb, ws.layer_input_slab(l), slab.gates,
                              slab.h, slab.rh,
                              grads.layers[dir][static_cast<std::size_t>(l)]);
    }
  }
}

void init_infer_outputs(const rnn::Workspace& ws, int total_batch,
                        bool want_logits, InferResult& result) {
  result.outputs = ws.num_outputs();
  result.batch = total_batch;
  result.num_classes = ws.config().num_classes;
  result.predictions.assign(
      static_cast<std::size_t>(result.outputs) *
          static_cast<std::size_t>(total_batch),
      0);
  if (want_logits) {
    result.logits.assign(result.predictions.size() *
                             static_cast<std::size_t>(result.num_classes),
                         0.0F);
  } else {
    result.logits.clear();
  }
}

void extract_infer_outputs(const rnn::Workspace& ws, int r0,
                           InferResult& result) {
  auto& mutable_ws = const_cast<rnn::Workspace&>(ws);
  const int outputs = ws.num_outputs();
  const int rows = ws.batch();
  BPAR_CHECK(outputs == result.outputs && r0 >= 0 &&
                 r0 + rows <= result.batch,
             "infer output slice out of range");
  std::span<int> preds(result.predictions);
  for (int t = 0; t < outputs; ++t) {
    kernels::argmax_rows(
        mutable_ws.probs(t).cview(),
        preds.subspan(static_cast<std::size_t>(t) * result.batch + r0,
                      static_cast<std::size_t>(rows)));
    if (!result.logits.empty()) {
      const tensor::Matrix& logits = mutable_ws.logits(t);
      for (int b = 0; b < rows; ++b) {
        const std::size_t row =
            static_cast<std::size_t>(t) * result.batch + r0 + b;
        std::copy_n(logits.data() + static_cast<std::size_t>(b) *
                                        result.num_classes,
                    static_cast<std::size_t>(result.num_classes),
                    result.logits.data() +
                        row * static_cast<std::size_t>(result.num_classes));
      }
    }
  }
}

}  // namespace bpar::exec
