// ISA-generic SIMD kernel bodies (internal header — backend TUs only).
//
// Each SIMD backend TU (backend_avx2.cpp / backend_avx512.cpp /
// backend_neon.cpp) is compiled with its ISA's flags, defines a small
// vector-traits struct V, and instantiates SimdKernels<V>. The kernel
// logic — register-tiled GEMM micro-loops, the polynomial exp used by the
// fused activations — is written once here against the traits interface:
//
//   using reg = ...;              native float vector
//   static constexpr int kWidth;  floats per reg
//   load/loadu, store, set1, zero, add, sub, mul, div, min, max
//   fma(a, b, c) = a*b + c
//   hsum(reg) -> float
//   round_nearest(reg)
//   scale_by_pow2(x, n) = x * 2^(int)n   (n integral-valued float reg)
//
// Tails (sizes not a multiple of kWidth) take scalar loops; the scalar
// code matches what detail::scale_c + the vector body compute, so a
// backend is self-consistent across sizes. Scalar tails of the activation
// kernels intentionally reuse the SAME polynomial exp (exp_scalar) rather
// than libm, so a row's numerics do not depend on where the vector loop
// stopped.
#pragma once

#include <cmath>

#include "kernels/backend.hpp"
#include "kernels/gemm_common.hpp"

namespace bpar::kernels::simd {

// Cephes-style expf constants (same polynomial the classic avx_mathfun /
// SLEEF-u10 fast paths use; ~2 ulp over the reduced range).
inline constexpr float kLog2e = 1.44269504088896341F;
inline constexpr float kLn2Hi = 0.693359375F;
inline constexpr float kLn2Lo = -2.12194440e-4F;
inline constexpr float kExpHi = 88.02F;   // just below log(FLT_MAX)
inline constexpr float kExpLo = -87.0F;   // exp() of this is still normal
inline constexpr float kExpC0 = 1.9875691500e-4F;
inline constexpr float kExpC1 = 1.3981999507e-3F;
inline constexpr float kExpC2 = 8.3334519073e-3F;
inline constexpr float kExpC3 = 4.1665795894e-2F;
inline constexpr float kExpC4 = 1.6666665459e-1F;
inline constexpr float kExpC5 = 5.0000001201e-1F;

/// Scalar twin of exp_ps below — used for activation tails so the whole
/// span sees one set of numerics.
inline float exp_scalar(float x) {
  x = x > kExpHi ? kExpHi : (x < kExpLo ? kExpLo : x);
  const float n = std::nearbyint(x * kLog2e);
  float r = x - n * kLn2Hi;
  r -= n * kLn2Lo;
  float p = kExpC0;
  p = p * r + kExpC1;
  p = p * r + kExpC2;
  p = p * r + kExpC3;
  p = p * r + kExpC4;
  p = p * r + kExpC5;
  p = p * r * r + r + 1.0F;
  return std::ldexp(p, static_cast<int>(n));
}

inline float sigmoid_scalar(float x) {
  return 1.0F / (1.0F + exp_scalar(-x));
}

inline float tanh_scalar(float x) {
  const float e = exp_scalar(-2.0F * x);
  return (1.0F - e) / (1.0F + e);
}

template <class V>
struct SimdKernels {
  using reg = typename V::reg;
  static constexpr int kW = V::kWidth;

  // ---- vectorized exp / sigmoid / tanh ----

  static reg exp_ps(reg x) {
    // x86 min/max return their second operand when either is NaN, so x
    // goes second: NaN passes through the clamp (and out of sigmoid/tanh)
    // as it does in exp_scalar and the scalar backend.
    x = V::min(V::set1(kExpHi), x);
    x = V::max(V::set1(kExpLo), x);
    const reg n = V::round_nearest(V::mul(x, V::set1(kLog2e)));
    reg r = V::fma(n, V::set1(-kLn2Hi), x);
    r = V::fma(n, V::set1(-kLn2Lo), r);
    reg p = V::set1(kExpC0);
    p = V::fma(p, r, V::set1(kExpC1));
    p = V::fma(p, r, V::set1(kExpC2));
    p = V::fma(p, r, V::set1(kExpC3));
    p = V::fma(p, r, V::set1(kExpC4));
    p = V::fma(p, r, V::set1(kExpC5));
    p = V::fma(V::mul(p, r), r, V::add(r, V::set1(1.0F)));
    return V::scale_by_pow2(p, n);
  }

  static void sigmoid_inplace(std::span<float> v) {
    const reg one = V::set1(1.0F);
    std::size_t i = 0;
    for (; i + kW <= v.size(); i += kW) {
      const reg x = V::loadu(v.data() + i);
      const reg e = exp_ps(V::sub(V::zero(), x));
      V::storeu(v.data() + i, V::div(one, V::add(one, e)));
    }
    for (; i < v.size(); ++i) v[i] = sigmoid_scalar(v[i]);
  }

  static void tanh_inplace(std::span<float> v) {
    const reg one = V::set1(1.0F);
    const reg m2 = V::set1(-2.0F);
    std::size_t i = 0;
    for (; i + kW <= v.size(); i += kW) {
      const reg x = V::loadu(v.data() + i);
      const reg e = exp_ps(V::mul(m2, x));
      V::storeu(v.data() + i, V::div(V::sub(one, e), V::add(one, e)));
    }
    for (; i < v.size(); ++i) v[i] = tanh_scalar(v[i]);
  }

  // ---- pointwise vector ops ----

  static void hadamard(std::span<const float> a, std::span<const float> b,
                       std::span<float> dst) {
    std::size_t i = 0;
    for (; i + kW <= dst.size(); i += kW) {
      V::storeu(dst.data() + i,
                V::mul(V::loadu(a.data() + i), V::loadu(b.data() + i)));
    }
    for (; i < dst.size(); ++i) dst[i] = a[i] * b[i];
  }

  static void hadamard_acc(std::span<const float> a, std::span<const float> b,
                           std::span<float> dst) {
    std::size_t i = 0;
    for (; i + kW <= dst.size(); i += kW) {
      V::storeu(dst.data() + i,
                V::fma(V::loadu(a.data() + i), V::loadu(b.data() + i),
                       V::loadu(dst.data() + i)));
    }
    for (; i < dst.size(); ++i) dst[i] += a[i] * b[i];
  }

  static void axpy(float s, std::span<const float> src, std::span<float> dst) {
    const reg sv = V::set1(s);
    std::size_t i = 0;
    for (; i + kW <= dst.size(); i += kW) {
      V::storeu(dst.data() + i,
                V::fma(sv, V::loadu(src.data() + i), V::loadu(dst.data() + i)));
    }
    for (; i < dst.size(); ++i) dst[i] += s * src[i];
  }

  // ---- GEMM family ----
  // All three pre-scale C through the shared detail::scale_c and then pure
  // accumulate, exactly like the scalar reference. The micro-kernels tile C
  // in registers, but every output element still sees the same operations
  // in the same order as a one-element-at-a-time loop, so the tile shape
  // and loop order never change a bit of the result:
  //   nn, tn  c = fma(alpha*a(i,p), b(p,j), c) for p ascending;
  //   nt      per kBlockK slice: four lane-partial dot products s0..s3
  //           over consecutive kW-wide chunks, (s0+s1)+(s2+s3), V::hsum's
  //           reduction tree, the scalar k-tail, then c += alpha*acc.

  /// Vector registers a tile may use: V::kRegisters, else the 16 that
  /// every supported ISA has.
  static constexpr int kRegs = [] {
    if constexpr (requires { V::kRegisters; }) {
      return V::kRegisters;
    } else {
      return 16;
    }
  }();

  // nn/tn tile: kRankRows rows x kRankCols vectors of C, plus one B vector
  // per column and the broadcast A value. Four rows divide the 16-row
  // batches the workloads run; six (all AVX-512 registers) measured slower
  // there because the last four rows fell to one-row tiles.
  static constexpr int kRankCols = 4;
  static constexpr int kRankRows = kRegs / 8;

  /// C[0..R, 0..NC*kW) += Σ_p ap[p*R + r] * B[p, :] over p in [0, kb): the
  /// C tile stays in registers across all of kb.
  template <int R, int NC>
  static void rank_tile(const float* ap, const float* b, std::ptrdiff_t ldb,
                        float* c, std::ptrdiff_t ldc, int kb) {
    reg acc[R][NC];
    for (int r = 0; r < R; ++r) {
      for (int v = 0; v < NC; ++v) acc[r][v] = V::loadu(c + r * ldc + v * kW);
    }
    for (int p = 0; p < kb; ++p) {
      const float* brow = b + p * ldb;
      reg bv[NC];
      for (int v = 0; v < NC; ++v) bv[v] = V::loadu(brow + v * kW);
      for (int r = 0; r < R; ++r) {
        const reg av = V::set1(ap[p * R + r]);
        for (int v = 0; v < NC; ++v) acc[r][v] = V::fma(av, bv[v], acc[r][v]);
      }
    }
    for (int r = 0; r < R; ++r) {
      for (int v = 0; v < NC; ++v) V::storeu(c + r * ldc + v * kW, acc[r][v]);
    }
  }

  /// Rows [i, i+R) of C += alpha * Â(:, k0..k0+kb) * B(k0..k0+kb, :), with
  /// Â(i, p) = a[i*ai + p*ap]. alpha*Â is packed first — the same single
  /// rounding the reference loop applies — so the tiles broadcast it
  /// straight from memory.
  template <int R>
  static void rank_rows(const float* a, std::ptrdiff_t ai, std::ptrdiff_t ap,
                        tensor::ConstMatrixView b, tensor::MatrixView c, int i,
                        int k0, int kb, float alpha, float* pack) {
    for (int p = 0; p < kb; ++p) {
      for (int r = 0; r < R; ++r) {
        pack[p * R + r] = alpha * a[(i + r) * ai + (k0 + p) * ap];
      }
    }
    const int n = c.cols;
    const std::ptrdiff_t ldb = b.ld;
    const std::ptrdiff_t ldc = c.ld;
    const float* b0 = b.data + k0 * ldb;
    float* c0 = c.data + i * ldc;
    int j = 0;
    for (; j + kRankCols * kW <= n; j += kRankCols * kW) {
      rank_tile<R, kRankCols>(pack, b0 + j, ldb, c0 + j, ldc, kb);
    }
    for (; j + kW <= n; j += kW) {
      rank_tile<R, 1>(pack, b0 + j, ldb, c0 + j, ldc, kb);
    }
    for (; j < n; ++j) {
      for (int r = 0; r < R; ++r) {
        float acc = c0[r * ldc + j];
        for (int p = 0; p < kb; ++p) {
          acc = std::fma(pack[p * R + r], b0[p * ldb + j], acc);
        }
        c0[r * ldc + j] = acc;
      }
    }
  }

  /// C += alpha * Â * B, blocked at kBlockK so the packed panel of Â stays
  /// on the stack. Shared by gemm_nn (Â = A) and gemm_tn (Â = A^T).
  static void rank_update(const float* a, std::ptrdiff_t ai, std::ptrdiff_t ap,
                          tensor::ConstMatrixView b, tensor::MatrixView c,
                          int k, float alpha) {
    float pack[kRankRows * detail::kBlockK];
    for (int k0 = 0; k0 < k; k0 += detail::kBlockK) {
      const int kb = std::min(k - k0, detail::kBlockK);
      int i = 0;
      for (; i + kRankRows <= c.rows; i += kRankRows) {
        rank_rows<kRankRows>(a, ai, ap, b, c, i, k0, kb, alpha, pack);
      }
      for (; i < c.rows; ++i) {
        rank_rows<1>(a, ai, ap, b, c, i, k0, kb, alpha, pack);
      }
    }
  }

  /// C += alpha * A * B: each B vector load is shared by kRankRows rows.
  static void gemm_nn(tensor::ConstMatrixView a, tensor::ConstMatrixView b,
                      tensor::MatrixView c, float alpha, float beta) {
    detail::scale_c(c, beta);
    rank_update(a.data, a.ld, 1, b, c, a.cols, alpha);
  }

  /// C += alpha * A^T * B, the weight-gradient GEMM (k = batch rows). No
  /// zero fast-path — 0 * NaN must stay NaN (see scalar gemm_tn).
  static void gemm_tn(tensor::ConstMatrixView a, tensor::ConstMatrixView b,
                      tensor::MatrixView c, float alpha, float beta) {
    detail::scale_c(c, beta);
    rank_update(a.data, 1, a.ld, b, c, a.rows, alpha);
  }

  // nt tile: one row of A against kDotCols rows of B, four partials per
  // element, so each A vector load serves the whole tile. Wider tiles
  // measured slower on AVX-512; three columns fill AVX2's 16 registers.
  static constexpr int kDotCols = kRegs >= 32 ? 4 : 3;

  /// s[v] = fma(a, b row v, s[v]) over the kW floats at p.
  template <int NC>
  static void dot_step(reg (&s)[NC], const float* a, const float* b,
                       std::ptrdiff_t ldb, int p) {
    const reg av = V::loadu(a + p);
    for (int v = 0; v < NC; ++v) {
      s[v] = V::fma(av, V::loadu(b + v * ldb + p), s[v]);
    }
  }

  /// out[v] = dot(a, b row v) over kb, each element computed exactly as a
  /// lone row-dot-product: partials s0..s3 over groups of four kW-wide
  /// chunks (s0 also takes the whole vectors left over), then
  /// (s0+s1)+(s2+s3), hsum and the scalar k-tail. Always inlined, like
  /// dot_block: GCC compiles the k-tail in place, so its bits must not
  /// hinge on an inlining heuristic.
  template <int NC>
  [[gnu::always_inline]] static void dot_tile(const float* a, const float* b,
                                              std::ptrdiff_t ldb, int kb,
                                              float* out) {
    reg s0[NC];
    reg s1[NC];
    reg s2[NC];
    reg s3[NC];
    for (int v = 0; v < NC; ++v) s0[v] = s1[v] = s2[v] = s3[v] = V::zero();
    int p = 0;
    for (; p + 4 * kW <= kb; p += 4 * kW) {
      dot_step(s0, a, b, ldb, p);
      dot_step(s1, a, b, ldb, p + kW);
      dot_step(s2, a, b, ldb, p + 2 * kW);
      dot_step(s3, a, b, ldb, p + 3 * kW);
    }
    for (; p + kW <= kb; p += kW) dot_step(s0, a, b, ldb, p);
    for (int v = 0; v < NC; ++v) {
      out[v] = V::hsum(V::add(V::add(s0[v], s1[v]), V::add(s2[v], s3[v])));
    }
    // The k-tail keeps the reference's plain `+=`: GCC compiles it to an
    // in-order sum of vector products with an fma epilogue, and that mix is
    // part of the numerics to reproduce (an explicit fma would not match).
    for (int v = 0; v < NC; ++v) {
      for (int pt = p; pt < kb; ++pt) out[v] += a[pt] * b[v * ldb + pt];
    }
  }

  /// C[i, j..j+NC) += alpha * A(i, k0..) * B(j..j+NC, k0..)^T.
  template <int NC>
  [[gnu::always_inline]] static void dot_block(tensor::ConstMatrixView a,
                                               tensor::ConstMatrixView b,
                                               tensor::MatrixView c, int i,
                                               int j, int k0, int kb,
                                               float alpha) {
    float out[NC];
    dot_tile<NC>(a.data + static_cast<std::ptrdiff_t>(i) * a.ld + k0,
                 b.data + static_cast<std::ptrdiff_t>(j) * b.ld + k0, b.ld,
                 kb, out);
    float* crow = c.data + static_cast<std::ptrdiff_t>(i) * c.ld + j;
    for (int v = 0; v < NC; ++v) crow[v] = std::fma(alpha, out[v], crow[v]);
  }

  /// C += alpha * A * B^T, k-blocked at kBlockK (the slice boundaries are
  /// part of each element's summation order). The rows of A stream past
  /// one tile of B rows, which stays in L1.
  static void gemm_nt(tensor::ConstMatrixView a, tensor::ConstMatrixView b,
                      tensor::MatrixView c, float alpha, float beta) {
    detail::scale_c(c, beta);
    const int m = c.rows;
    const int n = c.cols;
    const int k = a.cols;
    for (int k0 = 0; k0 < k; k0 += detail::kBlockK) {
      const int kb = std::min(k - k0, detail::kBlockK);
      for (int i0 = 0; i0 < m; i0 += detail::kBlockM) {
        const int i1 = std::min(m, i0 + detail::kBlockM);
        int j = 0;
        for (; j + kDotCols <= n; j += kDotCols) {
          for (int i = i0; i < i1; ++i) {
            dot_block<kDotCols>(a, b, c, i, j, k0, kb, alpha);
          }
        }
        for (; j < n; ++j) {
          for (int i = i0; i < i1; ++i) {
            dot_block<1>(a, b, c, i, j, k0, kb, alpha);
          }
        }
      }
    }
  }

  /// Assembles the Backend table for this ISA.
  static Backend make_backend(const char* name) {
    return Backend{
        .name = name,
        .simd_width = kW,
        .gemm_nn = gemm_nn,
        .gemm_nt = gemm_nt,
        .gemm_tn = gemm_tn,
        .sigmoid_inplace = sigmoid_inplace,
        .tanh_inplace = tanh_inplace,
        .hadamard = hadamard,
        .hadamard_acc = hadamard_acc,
        .axpy = axpy,
    };
  }
};

}  // namespace bpar::kernels::simd
