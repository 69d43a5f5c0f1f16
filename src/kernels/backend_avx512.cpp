// AVX-512 kernel backend (F + BW + DQ + VL). Compiled with the matching
// -mavx512* flags; nothing here may run before the cpuid check in
// avx512_backend().
#include "kernels/backend.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define BPAR_HAVE_AVX512_BACKEND 1
#include <immintrin.h>

#include "kernels/simd_kernels.hpp"
#endif

namespace bpar::kernels {

#if BPAR_HAVE_AVX512_BACKEND
namespace {

struct Avx512Vec {
  using reg = __m512;
  static constexpr int kWidth = 16;
  static constexpr int kRegisters = 32;

  static reg loadu(const float* p) { return _mm512_loadu_ps(p); }
  static void storeu(float* p, reg v) { _mm512_storeu_ps(p, v); }
  static reg set1(float v) { return _mm512_set1_ps(v); }
  static reg zero() { return _mm512_setzero_ps(); }
  static reg add(reg a, reg b) { return _mm512_add_ps(a, b); }
  static reg sub(reg a, reg b) { return _mm512_sub_ps(a, b); }
  static reg mul(reg a, reg b) { return _mm512_mul_ps(a, b); }
  static reg div(reg a, reg b) { return _mm512_div_ps(a, b); }
  static reg fma(reg a, reg b, reg c) { return _mm512_fmadd_ps(a, b, c); }
  static reg min(reg a, reg b) { return _mm512_min_ps(a, b); }
  static reg max(reg a, reg b) { return _mm512_max_ps(a, b); }
  static reg round_nearest(reg v) {
    return _mm512_roundscale_ps(v, _MM_FROUND_TO_NEAREST_INT |
                                       _MM_FROUND_NO_EXC);
  }
  static reg scale_by_pow2(reg x, reg n) {
    const __m512i ni = _mm512_cvtps_epi32(n);
    const __m512i pow2 =
        _mm512_slli_epi32(_mm512_add_epi32(ni, _mm512_set1_epi32(127)), 23);
    return _mm512_mul_ps(x, _mm512_castsi512_ps(pow2));
  }
  // Explicit extract/add chains instead of _mm512_reduce_add_*: GCC's
  // implementations go through _mm256_undefined_pd and trip
  // -Wmaybe-uninitialized.
  static float hsum(reg v) {
    const __m256 lo = _mm512_castps512_ps256(v);
    const __m256 hi = _mm512_extractf32x8_ps(v, 1);
    const __m256 s8 = _mm256_add_ps(lo, hi);
    __m128 s = _mm_add_ps(_mm256_castps256_ps128(s8),
                          _mm256_extractf128_ps(s8, 1));
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    return _mm_cvtss_f32(s);
  }
};

}  // namespace
#endif  // BPAR_HAVE_AVX512_BACKEND

const Backend* avx512_backend() {
#if BPAR_HAVE_AVX512_BACKEND
  static const Backend* backend = []() -> const Backend* {
    if (!__builtin_cpu_supports("avx512f") ||
        !__builtin_cpu_supports("avx512bw") ||
        !__builtin_cpu_supports("avx512dq") ||
        !__builtin_cpu_supports("avx512vl")) {
      return nullptr;
    }
    static const Backend table =
        simd::SimdKernels<Avx512Vec>::make_backend("avx512");
    return &table;
  }();
  return backend;
#else
  return nullptr;
#endif
}

}  // namespace bpar::kernels
