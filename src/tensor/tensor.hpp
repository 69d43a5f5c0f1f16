// Owning matrices and non-owning views over float data.
//
// Everything in the library computes on float32 (matching the paper's MKL
// setup). A `Matrix` owns a cache-line-aligned, zero-initialized buffer;
// `MatrixView` / `ConstMatrixView` are cheap row-major views with a leading
// dimension so sub-blocks (e.g. one gate slice of a fused gate buffer) can
// alias owned storage without copies.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>

#include "tensor/aligned.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace bpar::tensor {

struct ConstMatrixView {
  const float* data = nullptr;
  int rows = 0;
  int cols = 0;
  int ld = 0;  // leading dimension (row stride in elements)

  [[nodiscard]] const float& at(int r, int c) const {
    BPAR_DCHECK(r >= 0 && r < rows && c >= 0 && c < cols);
    return data[static_cast<std::size_t>(r) * ld + c];
  }
  [[nodiscard]] std::span<const float> row(int r) const {
    BPAR_DCHECK(r >= 0 && r < rows);
    return {data + static_cast<std::size_t>(r) * ld,
            static_cast<std::size_t>(cols)};
  }
  [[nodiscard]] ConstMatrixView block(int r0, int c0, int nr, int nc) const {
    BPAR_DCHECK(r0 >= 0 && c0 >= 0 && r0 + nr <= rows && c0 + nc <= cols);
    return {data + static_cast<std::size_t>(r0) * ld + c0, nr, nc, ld};
  }
  [[nodiscard]] bool contiguous() const { return ld == cols; }
  [[nodiscard]] std::size_t count() const {
    return static_cast<std::size_t>(rows) * cols;
  }
};

struct MatrixView {
  float* data = nullptr;
  int rows = 0;
  int cols = 0;
  int ld = 0;

  [[nodiscard]] float& at(int r, int c) const {
    BPAR_DCHECK(r >= 0 && r < rows && c >= 0 && c < cols);
    return data[static_cast<std::size_t>(r) * ld + c];
  }
  [[nodiscard]] std::span<float> row(int r) const {
    BPAR_DCHECK(r >= 0 && r < rows);
    return {data + static_cast<std::size_t>(r) * ld,
            static_cast<std::size_t>(cols)};
  }
  [[nodiscard]] MatrixView block(int r0, int c0, int nr, int nc) const {
    BPAR_DCHECK(r0 >= 0 && c0 >= 0 && r0 + nr <= rows && c0 + nc <= cols);
    return {data + static_cast<std::size_t>(r0) * ld + c0, nr, nc, ld};
  }
  [[nodiscard]] bool contiguous() const { return ld == cols; }
  [[nodiscard]] std::size_t count() const {
    return static_cast<std::size_t>(rows) * cols;
  }

  // NOLINTNEXTLINE(google-explicit-constructor): views decay naturally.
  operator ConstMatrixView() const { return {data, rows, cols, ld}; }
};

/// Owning row-major matrix. Zero-initialized on construction/resize (but
/// see resize_for_overwrite).
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols);

  Matrix(const Matrix& other);
  Matrix& operator=(const Matrix& other);
  // Moves hand the accounted bytes over with the storage, so the source
  // must forget its shape (obs::tensor_memory accounting, DESIGN.md §5j).
  Matrix(Matrix&& other) noexcept;
  Matrix& operator=(Matrix&& other) noexcept;
  ~Matrix();

  void resize(int rows, int cols);
  /// resize() without the zero fill: the contents are indeterminate until
  /// written. For buffers whose every element is written before it is read,
  /// so that their pages are first touched by the code that writes them.
  void resize_for_overwrite(int rows, int cols);
  void zero();

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] std::size_t count() const {
    return static_cast<std::size_t>(rows_) * cols_;
  }
  [[nodiscard]] float* data() { return storage_.get(); }
  [[nodiscard]] const float* data() const { return storage_.get(); }
  [[nodiscard]] float& at(int r, int c) { return view().at(r, c); }
  [[nodiscard]] const float& at(int r, int c) const { return cview().at(r, c); }

  [[nodiscard]] MatrixView view() {
    return {storage_.get(), rows_, cols_, cols_};
  }
  [[nodiscard]] ConstMatrixView cview() const {
    return {storage_.get(), rows_, cols_, cols_};
  }
  [[nodiscard]] ConstMatrixView view() const { return cview(); }

 private:
  int rows_ = 0;
  int cols_ = 0;
  AlignedFloatPtr storage_;
};

// ---- initialization and comparison helpers ----

void fill_uniform(MatrixView m, util::Rng& rng, float lo, float hi);
void fill_normal(MatrixView m, util::Rng& rng, float mean, float stddev);
void fill_constant(MatrixView m, float value);
/// Classic small-uniform RNN weight init: U(-scale, scale).
void fill_weights(MatrixView m, util::Rng& rng, float scale);

void copy(ConstMatrixView src, MatrixView dst);

[[nodiscard]] float max_abs_diff(ConstMatrixView a, ConstMatrixView b);
[[nodiscard]] bool allclose(ConstMatrixView a, ConstMatrixView b,
                            float atol = 1e-5F, float rtol = 1e-5F);
[[nodiscard]] double l2_norm(ConstMatrixView m);
[[nodiscard]] double sum(ConstMatrixView m);
[[nodiscard]] bool all_finite(ConstMatrixView m);

// ---- binary serialization (shape header + raw float payload) ----

void write_matrix(std::ostream& os, const Matrix& m);
/// Reads a matrix written by write_matrix; the shape must match `m`.
void read_matrix(std::istream& is, Matrix& m);

}  // namespace bpar::tensor
