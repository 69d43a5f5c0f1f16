// AVX2 + FMA kernel backend. This translation unit is compiled with
// -mavx2 -mfma (see src/kernels/CMakeLists.txt); nothing here may run
// before the cpuid check in avx2_backend().
#include "kernels/backend.hpp"

#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64)
#define BPAR_HAVE_AVX2_BACKEND 1
#include <immintrin.h>

#include "kernels/simd_kernels.hpp"
#endif

namespace bpar::kernels {

#if BPAR_HAVE_AVX2_BACKEND
namespace {

struct Avx2Vec {
  using reg = __m256;
  static constexpr int kWidth = 8;

  static reg loadu(const float* p) { return _mm256_loadu_ps(p); }
  static void storeu(float* p, reg v) { _mm256_storeu_ps(p, v); }
  static reg set1(float v) { return _mm256_set1_ps(v); }
  static reg zero() { return _mm256_setzero_ps(); }
  static reg add(reg a, reg b) { return _mm256_add_ps(a, b); }
  static reg sub(reg a, reg b) { return _mm256_sub_ps(a, b); }
  static reg mul(reg a, reg b) { return _mm256_mul_ps(a, b); }
  static reg div(reg a, reg b) { return _mm256_div_ps(a, b); }
  static reg fma(reg a, reg b, reg c) { return _mm256_fmadd_ps(a, b, c); }
  static reg min(reg a, reg b) { return _mm256_min_ps(a, b); }
  static reg max(reg a, reg b) { return _mm256_max_ps(a, b); }
  static reg round_nearest(reg v) {
    return _mm256_round_ps(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  /// x * 2^(int)n via exponent-bit arithmetic (n integral, |n| <= 127).
  static reg scale_by_pow2(reg x, reg n) {
    const __m256i ni = _mm256_cvtps_epi32(n);
    const __m256i pow2 =
        _mm256_slli_epi32(_mm256_add_epi32(ni, _mm256_set1_epi32(127)), 23);
    return _mm256_mul_ps(x, _mm256_castsi256_ps(pow2));
  }
  static float hsum(reg v) {
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 s = _mm_add_ps(lo, hi);
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    return _mm_cvtss_f32(s);
  }
};

}  // namespace
#endif  // BPAR_HAVE_AVX2_BACKEND

const Backend* avx2_backend() {
#if BPAR_HAVE_AVX2_BACKEND
  static const Backend* backend = []() -> const Backend* {
    if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma")) {
      return nullptr;
    }
    static const Backend table =
        simd::SimdKernels<Avx2Vec>::make_backend("avx2");
    return &table;
  }();
  return backend;
#else
  return nullptr;
#endif
}

}  // namespace bpar::kernels
