// LSTM/GRU cell kernel tests: forward invariants, finite-difference
// gradients of one cell's BackwardData and of a chain's BackwardWeights, and
// row-sliced equivalence (the basis of intra-op-parallel baselines).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "rnn/cell_kernels.hpp"
#include "rnn/layer_params.hpp"
#include "rnn/merge.hpp"
#include "rnn/types.hpp"
#include "util/rng.hpp"

namespace bpar::rnn {
namespace {

using tensor::Matrix;

struct CellFixtureParams {
  CellType cell;
  int batch;
  int input;
  int hidden;
};

class CellKinds : public ::testing::TestWithParam<CellFixtureParams> {
 protected:
  void SetUp() override {
    const auto p = GetParam();
    util::Rng rng(42);
    params_.init(p.cell, p.input, p.hidden, rng);
    x_.resize(p.batch, p.input);
    h_prev_.resize(p.batch, p.hidden);
    c_prev_.resize(p.batch, p.hidden);
    tensor::fill_uniform(x_.view(), rng, -1.0F, 1.0F);
    tensor::fill_uniform(h_prev_.view(), rng, -0.8F, 0.8F);
    tensor::fill_uniform(c_prev_.view(), rng, -0.8F, 0.8F);
    tape_.init(p.cell, p.batch, p.hidden);
  }

  /// The gate-major copy of the current weights that cell_backward reads.
  [[nodiscard]] Matrix weight_copy() const {
    Matrix wt(params_.w.cols(), params_.w.rows());
    gate_major(params_.w.cview(), wt.view());
    return wt;
  }

  LayerParams params_;
  Matrix x_, h_prev_, c_prev_;
  CellTape tape_;
};

TEST_P(CellKinds, ForwardOutputsBounded) {
  const auto p = GetParam();
  cell_forward(params_, x_.cview(), h_prev_.cview(), c_prev_.cview(), tape_);
  // h is a convex/gated combination of tanh-like values → |h| <= ~1 for
  // GRU; for LSTM h = o * tanh(c) so |h| <= 1.
  for (int r = 0; r < p.batch; ++r) {
    for (int j = 0; j < p.hidden; ++j) {
      EXPECT_LE(std::abs(tape_.h.at(r, j)), 1.0F + 1e-5F);
    }
  }
  EXPECT_TRUE(tensor::all_finite(tape_.h.cview()));
}

TEST_P(CellKinds, GateActivationsInRange) {
  const auto p = GetParam();
  cell_forward(params_, x_.cview(), h_prev_.cview(), c_prev_.cview(), tape_);
  const int sigmoid_gates = p.cell == CellType::kLstm ? 2 : 2;
  // First two gate blocks are sigmoid in both cell types.
  for (int r = 0; r < p.batch; ++r) {
    for (int j = 0; j < sigmoid_gates * p.hidden; ++j) {
      const float v = tape_.gates.at(r, j);
      EXPECT_GE(v, 0.0F);
      EXPECT_LE(v, 1.0F);
    }
  }
}

TEST_P(CellKinds, ZeroStateZeroInputGivesBiasDrivenOutput) {
  const auto p = GetParam();
  Matrix zx(p.batch, p.input);
  Matrix zh(p.batch, p.hidden);
  Matrix zc(p.batch, p.hidden);
  cell_forward(params_, zx.cview(), zh.cview(), zc.cview(), tape_);
  // All batch rows identical (no input variation).
  for (int r = 1; r < p.batch; ++r) {
    for (int j = 0; j < p.hidden; ++j) {
      EXPECT_EQ(tape_.h.at(r, j), tape_.h.at(0, j));
    }
  }
}

TEST_P(CellKinds, RowSlicedForwardEqualsFull) {
  const auto p = GetParam();
  cell_forward(params_, x_.cview(), h_prev_.cview(), c_prev_.cview(), tape_);
  CellTape sliced;
  sliced.init(p.cell, p.batch, p.hidden);
  for (int r0 = 0; r0 < p.batch; r0 += 3) {
    const int rows = std::min(3, p.batch - r0);
    tensor::ConstMatrixView cpv;
    if (p.cell == CellType::kLstm) {
      cpv = c_prev_.cview().block(r0, 0, rows, p.hidden);
    }
    cell_forward(params_, x_.cview().block(r0, 0, rows, p.input),
                 h_prev_.cview().block(r0, 0, rows, p.hidden), cpv,
                 sliced.views().rows(r0, rows));
  }
  EXPECT_EQ(tensor::max_abs_diff(tape_.h.cview(), sliced.h.cview()), 0.0F);
  EXPECT_EQ(tensor::max_abs_diff(tape_.gates.cview(), sliced.gates.cview()),
            0.0F);
}

/// A `steps`-long chain of direction `dir` over one layer's weights, laid
/// out like a Workspace: an input slab and tape slabs in input-time order
/// (row block t belongs to input index t). The loss is the sum of every h.
struct Chain {
  Chain(CellType cell, int steps_, int dir_, int batch_, int input,
        int hidden, util::Rng& rng)
      : steps(steps_), dir(dir_), batch(batch_), x(steps_ * batch_, input),
        zero(batch_, hidden) {
    tensor::fill_uniform(x.view(), rng, -1.0F, 1.0F);
    tape.init(cell, steps * batch, hidden);
  }

  [[nodiscard]] int block(int s) const { return dir == 0 ? s : steps - 1 - s; }
  [[nodiscard]] tensor::MatrixView rows(tensor::MatrixView slab, int s) const {
    return slab.block(block(s) * batch, 0, batch, slab.cols);
  }

  double forward(const LayerParams& p) {
    const CellTapeViews t = tape.views();
    double sum = 0.0;
    for (int s = 0; s < steps; ++s) {
      const tensor::ConstMatrixView h_prev =
          s == 0 ? zero.view() : rows(t.h, s - 1);
      tensor::ConstMatrixView c_prev;
      if (p.cell == CellType::kLstm) {
        c_prev = s == 0 ? zero.view() : rows(t.c, s - 1);
      }
      cell_forward(p, rows(x.view(), s), h_prev, c_prev,
                   t.rows(block(s) * batch, batch));
      sum += tensor::sum(rows(t.h, s));
    }
    return sum;
  }

  /// BackwardData of every cell, last step first, then BackwardWeights.
  void backward(const LayerParams& p, const Matrix& wt, LayerGrads& grads) {
    const bool lstm = p.cell == CellType::kLstm;
    const CellTapeViews t = tape.views();
    Matrix dh(steps * batch, p.hidden_size);
    Matrix dc(steps * batch, p.hidden_size);
    tensor::fill_constant(dh.view(), 1.0F);  // ∂(sum h)/∂h_t, direct part
    for (int s = steps - 1; s >= 0; --s) {
      const tensor::ConstMatrixView h_prev =
          s == 0 ? zero.view() : rows(t.h, s - 1);
      tensor::ConstMatrixView c_prev;
      tensor::ConstMatrixView dc_in;
      tensor::MatrixView dc_prev;
      if (lstm) {
        c_prev = s == 0 ? zero.view() : rows(t.c, s - 1);
        if (s < steps - 1) dc_in = rows(dc.view(), s);
        if (s > 0) dc_prev = rows(dc.view(), s - 1);
      }
      cell_backward(p, wt.cview(), h_prev, c_prev,
                    t.rows(block(s) * batch, batch), rows(dh.view(), s), dc_in,
                    {}, s > 0 ? rows(dh.view(), s - 1) : tensor::MatrixView{},
                    dc_prev);
    }
    chain_weight_grads(p, dir, batch, x.cview(), tape.gates.cview(),
                       tape.h.cview(), tape.rh.cview(), grads);
  }

  int steps;
  int dir;
  int batch;
  Matrix x;
  Matrix zero;
  CellTape tape;
};

TEST_P(CellKinds, BackwardMatchesFiniteDifferences) {
  const auto p = GetParam();
  const bool lstm = p.cell == CellType::kLstm;

  // Scalar objective: L = sum(h) (so dL/dh = 1). Finite differences on a
  // few inputs / states must match the cell's BackwardData.
  auto loss_of = [&]() -> double {
    CellTape t;
    t.init(p.cell, p.batch, p.hidden);
    cell_forward(params_, x_.cview(), h_prev_.cview(), c_prev_.cview(), t);
    return tensor::sum(t.h.cview());
  };

  cell_forward(params_, x_.cview(), h_prev_.cview(), c_prev_.cview(), tape_);
  Matrix dh(p.batch, p.hidden);
  tensor::fill_constant(dh.view(), 1.0F);
  Matrix dx(p.batch, p.input);
  Matrix dh_prev(p.batch, p.hidden);
  Matrix dc_prev(p.batch, p.hidden);
  cell_backward(params_, weight_copy().cview(), h_prev_.cview(),
                c_prev_.cview(), tape_.views(), dh.cview(), {}, dx.view(),
                dh_prev.view(), lstm ? dc_prev.view() : tensor::MatrixView{});

  util::Rng rng(7);
  const float eps = 1e-2F;
  auto check = [&](float& slot, float analytic, const char* what,
                   const auto& loss) {
    const float saved = slot;
    slot = saved + eps;
    const double plus = loss();
    slot = saved - eps;
    const double minus = loss();
    slot = saved;
    const double numeric = (plus - minus) / (2.0 * static_cast<double>(eps));
    const double denom = std::max(
        {std::abs(numeric), std::abs(static_cast<double>(analytic)), 1e-3});
    EXPECT_LT(std::abs(numeric - static_cast<double>(analytic)) / denom, 0.08)
        << what << ": analytic " << analytic << " numeric " << numeric;
  };

  // Weight and bias gradients come from BackwardWeights over a T = 3 chain
  // in each direction, so the h_prev row shift is checked both ways.
  std::vector<std::pair<int, int>> weight_probes;
  for (int i = 0; i < 12; ++i) {
    const int r = static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(params_.w.rows())));
    const int c = static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(params_.w.cols())));
    weight_probes.emplace_back(r, c);
  }
  std::vector<int> bias_probes;
  for (int i = 0; i < 4; ++i) {
    bias_probes.push_back(static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(params_.b.cols()))));
  }
  for (const int dir : {0, 1}) {
    SCOPED_TRACE("chain direction " + std::to_string(dir));
    util::Rng data(11);
    Chain chain(p.cell, 3, dir, p.batch, p.input, p.hidden, data);
    chain.forward(params_);
    LayerGrads grads;
    grads.init_like(params_);
    chain.backward(params_, weight_copy(), grads);
    const auto chain_loss = [&] { return chain.forward(params_); };
    for (const auto& [r, c] : weight_probes) {
      check(params_.w.at(r, c), grads.dw.at(r, c), "weight", chain_loss);
    }
    for (const int c : bias_probes) {
      check(params_.b.at(0, c), grads.db.at(0, c), "bias", chain_loss);
    }
  }

  for (int i = 0; i < 4; ++i) {
    const int r = static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(p.batch)));
    const int c = static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(p.input)));
    check(x_.at(r, c), dx.at(r, c), "input", loss_of);
  }
  for (int i = 0; i < 4; ++i) {
    const int r = static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(p.batch)));
    const int c = static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(p.hidden)));
    check(h_prev_.at(r, c), dh_prev.at(r, c), "h_prev", loss_of);
    if (lstm) check(c_prev_.at(r, c), dc_prev.at(r, c), "c_prev", loss_of);
  }
}

TEST_P(CellKinds, NullDxSkipsInputGradient) {
  const auto p = GetParam();
  const bool lstm = p.cell == CellType::kLstm;
  cell_forward(params_, x_.cview(), h_prev_.cview(), c_prev_.cview(), tape_);
  Matrix dh(p.batch, p.hidden);
  tensor::fill_constant(dh.view(), 1.0F);
  Matrix dh_prev(p.batch, p.hidden);
  Matrix dc_prev(p.batch, p.hidden);
  // Must not crash; the single cell, as a one-step chain, must still yield
  // weight gradients.
  cell_backward(params_, weight_copy().cview(), h_prev_.cview(),
                c_prev_.cview(), tape_.views(), dh.cview(), {}, {},
                dh_prev.view(), lstm ? dc_prev.view() : tensor::MatrixView{});
  LayerGrads grads;
  grads.init_like(params_);
  chain_weight_grads(params_, 0, p.batch, x_.cview(), tape_.gates.cview(),
                     tape_.h.cview(), tape_.rh.cview(), grads);
  EXPECT_GT(tensor::l2_norm(grads.dw.cview()), 0.0);
}

// The copy the backward GEMMs read is the exact transpose of the K-major W:
// element (g, k) of the copy is w.at(k, g), across every tile boundary.
TEST_P(CellKinds, GateMajorCopyIsTranspose) {
  const Matrix wt = weight_copy();
  ASSERT_EQ(wt.rows(), params_.w.cols());
  ASSERT_EQ(wt.cols(), params_.w.rows());
  for (int g = 0; g < wt.rows(); ++g) {
    for (int k = 0; k < wt.cols(); ++k) {
      ASSERT_EQ(wt.at(g, k), params_.w.at(k, g)) << g << ", " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, CellKinds,
    ::testing::Values(CellFixtureParams{CellType::kLstm, 4, 6, 8},
                      CellFixtureParams{CellType::kGru, 4, 6, 8},
                      CellFixtureParams{CellType::kLstm, 1, 3, 5},
                      CellFixtureParams{CellType::kGru, 1, 3, 5},
                      CellFixtureParams{CellType::kLstm, 7, 10, 12},
                      CellFixtureParams{CellType::kGru, 7, 10, 12}),
    [](const auto& param_info) {
      return std::string(cell_name(param_info.param.cell)) + "_b" +
             std::to_string(param_info.param.batch) + "_i" +
             std::to_string(param_info.param.input) + "_h" +
             std::to_string(param_info.param.hidden);
    });

class MergeOps : public ::testing::TestWithParam<MergeOp> {};

TEST_P(MergeOps, ForwardShapeAndValues) {
  const MergeOp op = GetParam();
  util::Rng rng(9);
  Matrix hf(3, 4);
  Matrix hr(3, 4);
  tensor::fill_uniform(hf.view(), rng, -1.0F, 1.0F);
  tensor::fill_uniform(hr.view(), rng, -1.0F, 1.0F);
  Matrix y(3, merge_output_size(op, 4));
  merge_forward(op, hf.cview(), hr.cview(), y.view());
  switch (op) {
    case MergeOp::kConcat:
      EXPECT_EQ(y.at(1, 0), hf.at(1, 0));
      EXPECT_EQ(y.at(1, 4), hr.at(1, 0));
      break;
    case MergeOp::kSum:
      EXPECT_NEAR(y.at(1, 2), hf.at(1, 2) + hr.at(1, 2), 1e-6F);
      break;
    case MergeOp::kAverage:
      EXPECT_NEAR(y.at(1, 2), 0.5F * (hf.at(1, 2) + hr.at(1, 2)), 1e-6F);
      break;
    case MergeOp::kMul:
      EXPECT_NEAR(y.at(1, 2), hf.at(1, 2) * hr.at(1, 2), 1e-6F);
      break;
  }
}

TEST_P(MergeOps, BackwardMatchesFiniteDifferences) {
  const MergeOp op = GetParam();
  util::Rng rng(10);
  Matrix hf(2, 3);
  Matrix hr(2, 3);
  tensor::fill_uniform(hf.view(), rng, -1.0F, 1.0F);
  tensor::fill_uniform(hr.view(), rng, -1.0F, 1.0F);
  const int out_w = merge_output_size(op, 3);
  auto loss_of = [&]() {
    Matrix y(2, out_w);
    merge_forward(op, hf.cview(), hr.cview(), y.view());
    return tensor::sum(y.cview());
  };
  Matrix dy(2, out_w);
  tensor::fill_constant(dy.view(), 1.0F);
  Matrix dhf(2, 3);
  Matrix dhr(2, 3);
  merge_backward(op, hf.cview(), hr.cview(), dy.cview(), dhf.view(),
                 dhr.view());
  const float eps = 1e-3F;
  for (const auto& [r, c] : {std::pair{0, 0}, {1, 2}}) {
    float& slot = hf.at(r, c);
    const float saved = slot;
    slot = saved + eps;
    const double plus = loss_of();
    slot = saved - eps;
    const double minus = loss_of();
    slot = saved;
    EXPECT_NEAR(dhf.at(r, c),
                (plus - minus) / (2.0 * static_cast<double>(eps)), 5e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(Ops, MergeOps,
                         ::testing::Values(MergeOp::kConcat, MergeOp::kSum,
                                           MergeOp::kAverage, MergeOp::kMul),
                         [](const auto& param_info) {
                           return std::string(
                               merge_name(param_info.param));
                         });

TEST(LayerParams, InitShapesAndForgetBias) {
  util::Rng rng(1);
  LayerParams p;
  p.init(CellType::kLstm, 10, 16, rng);
  EXPECT_EQ(p.w.rows(), 26);  // K-major: input + hidden rows
  EXPECT_EQ(p.w.cols(), 64);  // gates * hidden columns
  EXPECT_EQ(p.b.cols(), 64);
  // The draws are a gate-major [64, 26] fill_weights from the same seed,
  // each stored at its K-major position.
  util::Rng same(1);
  tensor::Matrix gate_major(64, 26);
  tensor::fill_weights(gate_major.view(), same,
                       1.0F / std::sqrt(static_cast<float>(26)));
  int mismatches = 0;
  for (int g = 0; g < 64; ++g) {
    for (int k = 0; k < 26; ++k) {
      if (p.w.at(k, g) != gate_major.at(g, k)) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0);
  // Forget-gate bias initialized to 1.
  for (int j = 0; j < 16; ++j) EXPECT_EQ(p.b.at(0, j), 1.0F);
  for (int j = 16; j < 64; ++j) EXPECT_EQ(p.b.at(0, j), 0.0F);
  EXPECT_EQ(p.param_count(), 64U * 26U + 64U);
}

TEST(CellTape, BytesAccountsBuffers) {
  CellTape t;
  t.init(CellType::kLstm, 2, 4);
  // gates 2x16, h 2x4, c 2x4, tanh_c 2x4 → (32+8+8+8)*4 bytes.
  EXPECT_EQ(t.bytes(), (32U + 8U + 8U + 8U) * sizeof(float));
  CellTape g;
  g.init(CellType::kGru, 2, 4);
  // gates 2x12, h 2x4, rh 2x4.
  EXPECT_EQ(g.bytes(), (24U + 8U + 8U) * sizeof(float));
}

}  // namespace
}  // namespace bpar::rnn
