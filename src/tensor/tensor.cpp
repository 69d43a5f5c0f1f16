#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>

#include "obs/memory.hpp"

namespace bpar::tensor {

namespace {

// Matrix backing stores are where virtually all of the library's heap
// lives (weights, activations, workspaces), so this is the one funnel the
// tensor-arena memory accounting needs.
std::uint64_t matrix_bytes(std::size_t count) {
  return static_cast<std::uint64_t>(count) * sizeof(float);
}

}  // namespace

Matrix::Matrix(int rows, int cols) { resize(rows, cols); }

Matrix::Matrix(const Matrix& other) { *this = other; }

Matrix& Matrix::operator=(const Matrix& other) {
  if (this == &other) return *this;
  resize(other.rows_, other.cols_);
  if (count() != 0) {
    std::memcpy(storage_.get(), other.storage_.get(), count() * sizeof(float));
  }
  return *this;
}

Matrix::Matrix(Matrix&& other) noexcept
    : rows_(other.rows_),
      cols_(other.cols_),
      storage_(std::move(other.storage_)) {
  other.rows_ = 0;
  other.cols_ = 0;
}

Matrix& Matrix::operator=(Matrix&& other) noexcept {
  if (this == &other) return *this;
  if (count() != 0) obs::tensor_memory().on_free(matrix_bytes(count()));
  rows_ = other.rows_;
  cols_ = other.cols_;
  storage_ = std::move(other.storage_);
  other.rows_ = 0;
  other.cols_ = 0;
  return *this;
}

Matrix::~Matrix() {
  if (count() != 0) obs::tensor_memory().on_free(matrix_bytes(count()));
}

void Matrix::resize(int rows, int cols) {
  resize_for_overwrite(rows, cols);
  zero();
}

void Matrix::resize_for_overwrite(int rows, int cols) {
  BPAR_CHECK(rows >= 0 && cols >= 0, "bad shape ", rows, "x", cols);
  if (count() != 0) obs::tensor_memory().on_free(matrix_bytes(count()));
  rows_ = rows;
  cols_ = cols;
  storage_ = allocate_floats(count());
  if (count() != 0) obs::tensor_memory().on_alloc(matrix_bytes(count()));
}

void Matrix::zero() {
  if (count() != 0) std::memset(storage_.get(), 0, count() * sizeof(float));
}

void fill_uniform(MatrixView m, util::Rng& rng, float lo, float hi) {
  for (int r = 0; r < m.rows; ++r) {
    for (float& v : m.row(r)) {
      v = static_cast<float>(
          rng.uniform(static_cast<double>(lo), static_cast<double>(hi)));
    }
  }
}

void fill_normal(MatrixView m, util::Rng& rng, float mean, float stddev) {
  for (int r = 0; r < m.rows; ++r) {
    for (float& v : m.row(r)) {
      v = static_cast<float>(rng.normal(static_cast<double>(mean),
                                        static_cast<double>(stddev)));
    }
  }
}

void fill_constant(MatrixView m, float value) {
  for (int r = 0; r < m.rows; ++r) {
    std::ranges::fill(m.row(r), value);
  }
}

void fill_weights(MatrixView m, util::Rng& rng, float scale) {
  fill_uniform(m, rng, -scale, scale);
}

void copy(ConstMatrixView src, MatrixView dst) {
  BPAR_CHECK(src.rows == dst.rows && src.cols == dst.cols,
             "copy shape mismatch");
  for (int r = 0; r < src.rows; ++r) {
    std::memcpy(dst.row(r).data(), src.row(r).data(),
                static_cast<std::size_t>(src.cols) * sizeof(float));
  }
}

float max_abs_diff(ConstMatrixView a, ConstMatrixView b) {
  BPAR_CHECK(a.rows == b.rows && a.cols == b.cols, "shape mismatch");
  float worst = 0.0F;
  for (int r = 0; r < a.rows; ++r) {
    for (int c = 0; c < a.cols; ++c) {
      worst = std::max(worst, std::abs(a.at(r, c) - b.at(r, c)));
    }
  }
  return worst;
}

bool allclose(ConstMatrixView a, ConstMatrixView b, float atol, float rtol) {
  if (a.rows != b.rows || a.cols != b.cols) return false;
  for (int r = 0; r < a.rows; ++r) {
    for (int c = 0; c < a.cols; ++c) {
      const float x = a.at(r, c);
      const float y = b.at(r, c);
      if (std::abs(x - y) > atol + rtol * std::abs(y)) return false;
    }
  }
  return true;
}

double l2_norm(ConstMatrixView m) {
  double acc = 0.0;
  for (int r = 0; r < m.rows; ++r) {
    for (const float v : m.row(r)) {
      acc += static_cast<double>(v) * static_cast<double>(v);
    }
  }
  return std::sqrt(acc);
}

double sum(ConstMatrixView m) {
  double acc = 0.0;
  for (int r = 0; r < m.rows; ++r) {
    for (const float v : m.row(r)) acc += static_cast<double>(v);
  }
  return acc;
}

void write_matrix(std::ostream& os, const Matrix& m) {
  const int shape[2] = {m.rows(), m.cols()};
  os.write(reinterpret_cast<const char*>(shape), sizeof shape);
  os.write(reinterpret_cast<const char*>(m.data()),
           static_cast<std::streamsize>(m.count() * sizeof(float)));
}

void read_matrix(std::istream& is, Matrix& m) {
  int shape[2] = {0, 0};
  is.read(reinterpret_cast<char*>(shape), sizeof shape);
  BPAR_CHECK(is.good(), "truncated matrix stream");
  BPAR_CHECK(shape[0] == m.rows() && shape[1] == m.cols(),
             "matrix shape mismatch: got ", shape[0], "x", shape[1],
             " want ", m.rows(), "x", m.cols());
  is.read(reinterpret_cast<char*>(m.data()),
          static_cast<std::streamsize>(m.count() * sizeof(float)));
  BPAR_CHECK(is.good(), "truncated matrix payload");
}

bool all_finite(ConstMatrixView m) {
  for (int r = 0; r < m.rows; ++r) {
    for (const float v : m.row(r)) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

}  // namespace bpar::tensor
