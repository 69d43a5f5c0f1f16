#include "rnn/layer_params.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <vector>

#include "kernels/elementwise.hpp"

namespace bpar::rnn {

void LayerParams::init_shape(CellType cell_type, int input, int hidden) {
  BPAR_CHECK(input > 0 && hidden > 0, "bad layer shape ", input, "/", hidden);
  cell = cell_type;
  input_size = input;
  hidden_size = hidden;
}

void LayerParams::init(CellType cell_type, int input, int hidden,
                       util::Rng& rng) {
  init_shape(cell_type, input, hidden);
  const int cols = gates() * hidden;
  w.resize(input + hidden, cols);
  b.resize(1, cols);
  // Xavier-style uniform init over fan-in, drawn in tensor::fill_weights'
  // gate-major order and stored transposed.
  const float scale = 1.0F / std::sqrt(static_cast<float>(input + hidden));
  const auto lo = static_cast<double>(-scale);
  const auto hi = static_cast<double>(scale);
  for (int g = 0; g < cols; ++g) {
    for (int k = 0; k < input + hidden; ++k) {
      w.at(k, g) = static_cast<float>(rng.uniform(lo, hi));
    }
  }
  if (cell == CellType::kLstm) {
    // Forget-gate bias of 1.0 — the standard trick for stable training.
    auto bias = b.view();
    for (int j = 0; j < hidden; ++j) bias.at(0, j) = 1.0F;
  }
}

void LayerGrads::init_like(const LayerParams& params) {
  dw.resize(params.w.rows(), params.w.cols());
  db.resize(params.b.rows(), params.b.cols());
}

void LayerGrads::zero() {
  dw.zero();
  db.zero();
}

void LayerGrads::accumulate(const LayerGrads& other) {
  kernels::accumulate(dw.view(), other.dw.cview());
  kernels::accumulate(db.view(), other.db.cview());
}

// Both directions stream one gate-major row (one column of w) at a time,
// so the conversion holds no second copy of the matrix.
void write_gate_matrix(std::ostream& os, const tensor::Matrix& w) {
  const int shape[2] = {w.cols(), w.rows()};
  os.write(reinterpret_cast<const char*>(shape), sizeof shape);
  std::vector<float> row(static_cast<std::size_t>(w.rows()));
  for (int g = 0; g < w.cols(); ++g) {
    for (int k = 0; k < w.rows(); ++k) {
      row[static_cast<std::size_t>(k)] = w.at(k, g);
    }
    os.write(reinterpret_cast<const char*>(row.data()),
             static_cast<std::streamsize>(row.size() * sizeof(float)));
  }
}

void read_gate_matrix(std::istream& is, tensor::Matrix& w) {
  int shape[2] = {0, 0};
  is.read(reinterpret_cast<char*>(shape), sizeof shape);
  BPAR_CHECK(is.good(), "truncated matrix stream");
  BPAR_CHECK(shape[0] == w.cols() && shape[1] == w.rows(),
             "matrix shape mismatch: got ", shape[0], "x", shape[1], " want ",
             w.cols(), "x", w.rows());
  std::vector<float> row(static_cast<std::size_t>(w.rows()));
  for (int g = 0; g < w.cols(); ++g) {
    is.read(reinterpret_cast<char*>(row.data()),
            static_cast<std::streamsize>(row.size() * sizeof(float)));
    BPAR_CHECK(is.good(), "truncated matrix payload");
    for (int k = 0; k < w.rows(); ++k) {
      w.at(k, g) = row[static_cast<std::size_t>(k)];
    }
  }
}

void gate_major(tensor::ConstMatrixView w, tensor::MatrixView wt) {
  BPAR_CHECK(wt.rows == w.cols && wt.cols == w.rows,
             "gate-major copy shape mismatch: got ", wt.rows, "x", wt.cols,
             " want ", w.cols, "x", w.rows);
  // Square tiles keep both the rows read and the rows written in L1.
  constexpr int kTile = 16;
  for (int k0 = 0; k0 < w.rows; k0 += kTile) {
    const int k1 = std::min(k0 + kTile, w.rows);
    for (int g0 = 0; g0 < w.cols; g0 += kTile) {
      const int g1 = std::min(g0 + kTile, w.cols);
      for (int g = g0; g < g1; ++g) {
        for (int k = k0; k < k1; ++k) wt.at(g, k) = w.at(k, g);
      }
    }
  }
}

}  // namespace bpar::rnn
