// Public GEMM entry points: shape checks + tracing here, the numeric body
// in the runtime-selected kernel backend (backend.hpp). The scalar
// implementations these dispatch to by default live in backend_scalar.cpp.
#include "kernels/gemm.hpp"

#include "kernels/backend.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace bpar::kernels {

void gemm_nn(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
             float beta) {
  BPAR_SPAN("kernels.gemm_nn");
  BPAR_CHECK(a.rows == c.rows && b.cols == c.cols && a.cols == b.rows,
             "gemm_nn shape mismatch: A ", a.rows, "x", a.cols, " B ", b.rows,
             "x", b.cols, " C ", c.rows, "x", c.cols);
  active_backend().gemm_nn(a, b, c, alpha, beta);
}

void gemm_nt(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
             float beta) {
  BPAR_SPAN("kernels.gemm_nt");
  BPAR_CHECK(a.rows == c.rows && b.rows == c.cols && a.cols == b.cols,
             "gemm_nt shape mismatch: A ", a.rows, "x", a.cols, " B ", b.rows,
             "x", b.cols, " C ", c.rows, "x", c.cols);
  active_backend().gemm_nt(a, b, c, alpha, beta);
}

void gemm_tn(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
             float beta) {
  BPAR_SPAN("kernels.gemm_tn");
  BPAR_CHECK(a.cols == c.rows && b.cols == c.cols && a.rows == b.rows,
             "gemm_tn shape mismatch: A ", a.rows, "x", a.cols, " B ", b.rows,
             "x", b.cols, " C ", c.rows, "x", c.cols);
  active_backend().gemm_tn(a, b, c, alpha, beta);
}

}  // namespace bpar::kernels
