// Single-precision GEMM kernels (the library's MKL-Sequential substitute).
//
// Three transpose variants cover everything the RNN cells need. The gate
// weights W are stored K-major, (in + H) x (gates*H) (rnn/layer_params.hpp),
// and training also keeps a gate-major copy W^T:
//   gemm_nn:  C = alpha * A   * B   + beta * C      (G  = X * W, forward;
//                                                    dX = dG * W^T, backward)
//   gemm_nt:  C = alpha * A   * B^T + beta * C      (dense output forward)
//   gemm_tn:  C = alpha * A^T * B   + beta * C      (dW = X^T * dG)
// The dense output layer keeps w_out as [classes, M] and runs its forward
// as nt: at 10 classes a row of C is narrower than one vector, where nt
// measured 13-30x faster than nn.
//
// These entry points validate shapes and dispatch to the runtime-selected
// kernel backend (kernels/backend.hpp): cache-blocked scalar reference by
// default, register-tiled AVX2 / AVX-512 / NEON when the CPU supports
// them. All implementations are sequential by design: task-level
// parallelism comes from the runtime (B-Par) or from explicit
// row-splitting (the intra-op parallel baselines), matching the paper's
// "B-Par is mapped to MKL-Sequential" setup.
#pragma once

#include "tensor/tensor.hpp"

namespace bpar::kernels {

using tensor::ConstMatrixView;
using tensor::MatrixView;

/// C(m,n) = alpha * A(m,k) * B(k,n) + beta * C.
void gemm_nn(ConstMatrixView a, ConstMatrixView b, MatrixView c,
             float alpha = 1.0F, float beta = 0.0F);

/// C(m,n) = alpha * A(m,k) * B(n,k)^T + beta * C.
void gemm_nt(ConstMatrixView a, ConstMatrixView b, MatrixView c,
             float alpha = 1.0F, float beta = 0.0F);

/// C(m,n) = alpha * A(k,m)^T * B(k,n) + beta * C.
void gemm_tn(ConstMatrixView a, ConstMatrixView b, MatrixView c,
             float alpha = 1.0F, float beta = 0.0F);

/// Flop count of a GEMM with the given shape (2*m*n*k).
[[nodiscard]] constexpr double gemm_flops(int m, int n, int k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

}  // namespace bpar::kernels
