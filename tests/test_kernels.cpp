// GEMM and elementwise kernel tests, including parameterized shape sweeps
// against a naive reference implementation and a backend parity suite that
// pins every SIMD backend to the scalar reference (DESIGN.md §5g).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "kernels/backend.hpp"
#include "kernels/elementwise.hpp"
#include "kernels/gemm.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace bpar {
namespace {

using kernels::gemm_nn;
using kernels::gemm_nt;
using kernels::gemm_tn;
using tensor::Matrix;

Matrix random_matrix(int rows, int cols, util::Rng& rng) {
  Matrix m(rows, cols);
  tensor::fill_uniform(m.view(), rng, -1.0F, 1.0F);
  return m;
}

// A backend switch racing readers of the active table. Under
// ThreadSanitizer (CI runs this suite with it) this checks that publishing
// the pointer orders a table's initialisation before the readers' field
// loads. Defined first, so the setter thread is the first user of every
// non-native table.
TEST(BackendSelection, ConcurrentSelectionIsRaceFree) {
  const std::string before = kernels::active_backend_name();
  std::atomic<bool> stop{false};
  std::thread setter([&] {
    const char* names[] = {"avx2", "avx512", "neon", "scalar", "native"};
    for (int i = 0; i < 200; ++i) {
      (void)kernels::set_backend(names[i % 5]);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&] {
      do {
        const kernels::Backend& b = kernels::active_backend();
        EXPECT_NE(b.name, nullptr);
        EXPECT_NE(b.gemm_nt, nullptr);
      } while (!stop.load());
    });
  }
  setter.join();
  for (auto& r : readers) r.join();
  EXPECT_TRUE(kernels::set_backend(before));
}

// Naive reference: C = alpha * op(A) * op(B) + beta * C.
void naive_gemm(const Matrix& a, bool ta, const Matrix& b, bool tb, Matrix& c,
                float alpha, float beta) {
  const int m = c.rows();
  const int n = c.cols();
  const int k = ta ? a.rows() : a.cols();
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p) {
        const float av = ta ? a.at(p, i) : a.at(i, p);
        const float bv = tb ? b.at(j, p) : b.at(p, j);
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      c.at(i, j) = alpha * static_cast<float>(acc) + beta * c.at(i, j);
    }
  }
}

using GemmShape = std::tuple<int, int, int>;  // m, n, k

class GemmShapes : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmShapes, NnMatchesNaive) {
  const auto [m, n, k] = GetParam();
  util::Rng rng(1);
  Matrix a = random_matrix(m, k, rng);
  Matrix b = random_matrix(k, n, rng);
  Matrix c = random_matrix(m, n, rng);
  Matrix expected = c;
  gemm_nn(a.cview(), b.cview(), c.view(), 0.7F, 0.3F);
  naive_gemm(a, false, b, false, expected, 0.7F, 0.3F);
  EXPECT_TRUE(tensor::allclose(c.cview(), expected.cview(), 1e-4F, 1e-4F))
      << "max diff " << tensor::max_abs_diff(c.cview(), expected.cview());
}

TEST_P(GemmShapes, NtMatchesNaive) {
  const auto [m, n, k] = GetParam();
  util::Rng rng(2);
  Matrix a = random_matrix(m, k, rng);
  Matrix b = random_matrix(n, k, rng);  // used transposed
  Matrix c = random_matrix(m, n, rng);
  Matrix expected = c;
  gemm_nt(a.cview(), b.cview(), c.view(), 1.3F, 0.5F);
  naive_gemm(a, false, b, true, expected, 1.3F, 0.5F);
  EXPECT_TRUE(tensor::allclose(c.cview(), expected.cview(), 1e-4F, 1e-4F));
}

TEST_P(GemmShapes, TnMatchesNaive) {
  const auto [m, n, k] = GetParam();
  util::Rng rng(3);
  Matrix a = random_matrix(k, m, rng);  // used transposed
  Matrix b = random_matrix(k, n, rng);
  Matrix c = random_matrix(m, n, rng);
  Matrix expected = c;
  gemm_tn(a.cview(), b.cview(), c.view(), 1.0F, 1.0F);
  naive_gemm(a, true, b, false, expected, 1.0F, 1.0F);
  EXPECT_TRUE(tensor::allclose(c.cview(), expected.cview(), 1e-4F, 1e-4F));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{2, 3, 4},
                      GemmShape{7, 5, 9}, GemmShape{16, 16, 16},
                      GemmShape{33, 65, 17}, GemmShape{64, 70, 300},
                      GemmShape{1, 128, 256}, GemmShape{128, 1, 300},
                      GemmShape{96, 257, 64}));

// Shapes chosen to exercise vector tails (non-multiples of 8/16), empty
// dims, single rows/cols, k beyond one cache block (kBlockK = 256), and the
// GEMMs the bpar_bench workloads run.
const GemmShape kParityShapes[] = {
    {0, 3, 4},      {3, 0, 4},     {3, 4, 0},      {1, 1, 1},
    {5, 7, 3},      {17, 31, 33},  {31, 33, 1},    {1, 16, 257},
    {8, 16, 32},    {64, 70, 300}, {16, 512, 256}, {16, 512, 64},
    {1, 256, 64},   {40, 256, 16}, {512, 256, 16}, {96, 64, 8}};

// Bitwise: -0 against +0 or two different NaNs count as a mismatch.
bool same_bits(const Matrix& x, const Matrix& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  return x.count() == 0 ||  // empty matrices may hold no storage at all
         std::memcmp(x.data(), y.data(), x.count() * sizeof(float)) == 0;
}

TEST(Gemm, BlockViewsComputeSubsets) {
  // Three invariants of every backend's tiling, checked bitwise:
  //  (a) each row of a gemm_nn / gemm_nt call equals the same call on that
  //      row alone — intra-op row splitting and batched-vs-batch-1 serving
  //      both rely on it;
  //  (b) gemm_tn over k rows equals k successive beta = 1 single-row
  //      calls, which pins its per-element rank-1 FMA order;
  //  (c) each column of a gemm_nn / gemm_nt / gemm_tn call equals the same
  //      call with B cut to that column (that row, for nt) — the GRU
  //      cell's one 3H-wide input GEMM matches its 2H- and H-wide parts, and
  //      the nt tile takes a column through a wide or a one-column tile
  //      depending on where the column falls.
  for (const auto* backend : kernels::available_backends()) {
    for (const auto& [m, n, k] : kParityShapes) {
      util::Rng rng(4);
      const Matrix a = random_matrix(m, k, rng);
      const Matrix b_nn = random_matrix(k, n, rng);
      const Matrix b_nt = random_matrix(n, k, rng);
      const Matrix a_tn = random_matrix(k, m, rng);
      const Matrix c0 = random_matrix(m, n, rng);
      const auto rows_match = [&](auto fn, const Matrix& b,
                                  const char* variant) {
        Matrix full = c0;
        (backend->*fn)(a.cview(), b.cview(), full.view(), 0.7F, 0.3F);
        Matrix split = c0;
        for (int r = 0; r < m; ++r) {
          (backend->*fn)(a.cview().block(r, 0, 1, k), b.cview(),
                         split.view().block(r, 0, 1, n), 0.7F, 0.3F);
        }
        EXPECT_TRUE(same_bits(full, split))
            << backend->name << " " << variant << " " << m << "x" << n << "x"
            << k << ": a row differs from its single-row call";
      };
      rows_match(&kernels::Backend::gemm_nn, b_nn, "nn");
      rows_match(&kernels::Backend::gemm_nt, b_nt, "nt");

      const auto cols_match = [&](auto fn, const Matrix& lhs, const Matrix& b,
                                  bool b_transposed, const char* variant) {
        Matrix full = c0;
        (backend->*fn)(lhs.cview(), b.cview(), full.view(), 0.7F, 0.3F);
        Matrix split = c0;
        for (int j = 0; j < n; ++j) {
          (backend->*fn)(lhs.cview(),
                         b_transposed ? b.cview().block(j, 0, 1, k)
                                      : b.cview().block(0, j, k, 1),
                         split.view().block(0, j, m, 1), 0.7F, 0.3F);
        }
        EXPECT_TRUE(same_bits(full, split))
            << backend->name << " " << variant << " " << m << "x" << n << "x"
            << k << ": a column differs from its single-column call";
      };
      // Empty operands are skipped: their column views would offset a null
      // pointer.
      if (m > 0 && k > 0) {
        cols_match(&kernels::Backend::gemm_nn, a, b_nn, false, "nn");
        cols_match(&kernels::Backend::gemm_nt, a, b_nt, true, "nt");
        cols_match(&kernels::Backend::gemm_tn, a_tn, b_nn, false, "tn");
      }

      Matrix full = c0;
      backend->gemm_tn(a_tn.cview(), b_nn.cview(), full.view(), 0.7F, 1.0F);
      Matrix steps = c0;
      for (int p = 0; p < k; ++p) {
        backend->gemm_tn(a_tn.cview().block(p, 0, 1, m),
                         b_nn.cview().block(p, 0, 1, n), steps.view(), 0.7F,
                         1.0F);
      }
      EXPECT_TRUE(same_bits(full, steps))
          << backend->name << " tn " << m << "x" << n << "x" << k
          << ": differs from successive single-row updates";
    }
  }
}

TEST(Elementwise, SigmoidRangeAndDerivative) {
  EXPECT_NEAR(kernels::sigmoid(0.0F), 0.5F, 1e-6F);
  EXPECT_GT(kernels::sigmoid(10.0F), 0.9999F);
  EXPECT_LT(kernels::sigmoid(-10.0F), 1e-4F);
  const float y = kernels::sigmoid(0.3F);
  // Numeric derivative check.
  const float eps = 1e-3F;
  const float numeric =
      (kernels::sigmoid(0.3F + eps) - kernels::sigmoid(0.3F - eps)) /
      (2.0F * eps);
  EXPECT_NEAR(kernels::dsigmoid_from_y(y), numeric, 1e-4F);
}

TEST(Elementwise, TanhDerivative) {
  const float y = std::tanh(0.7F);
  const float eps = 1e-3F;
  const float numeric =
      (std::tanh(0.7F + eps) - std::tanh(0.7F - eps)) / (2.0F * eps);
  EXPECT_NEAR(kernels::dtanh_from_y(y), numeric, 1e-4F);
}

TEST(Elementwise, FusedVectorOps) {
  std::vector<float> a = {1, 2, 3};
  std::vector<float> b = {4, 5, 6};
  std::vector<float> d(3);
  kernels::hadamard(a, b, d);
  EXPECT_EQ(d, (std::vector<float>{4, 10, 18}));
  kernels::hadamard_acc(a, b, d);
  EXPECT_EQ(d, (std::vector<float>{8, 20, 36}));
  kernels::axpy(2.0F, a, d);
  EXPECT_EQ(d, (std::vector<float>{10, 24, 42}));
  kernels::scale_inplace(d, 0.5F);
  EXPECT_EQ(d, (std::vector<float>{5, 12, 21}));
}

TEST(Elementwise, SoftmaxRowsSumToOne) {
  util::Rng rng(6);
  Matrix logits = random_matrix(5, 9, rng);
  // Inject large magnitudes to verify numerical stability.
  logits.at(0, 0) = 500.0F;
  logits.at(1, 3) = -500.0F;
  Matrix probs(5, 9);
  kernels::softmax_rows(logits.cview(), probs.view());
  for (int r = 0; r < 5; ++r) {
    double sum = 0.0;
    for (int c = 0; c < 9; ++c) {
      EXPECT_GE(probs.at(r, c), 0.0F);
      sum += static_cast<double>(probs.at(r, c));
    }
    EXPECT_NEAR(sum, 1.0, 1e-4);
  }
  EXPECT_NEAR(probs.at(0, 0), 1.0F, 1e-5F);  // dominated row
}

TEST(Elementwise, CrossEntropyOfPerfectPrediction) {
  Matrix probs(2, 3);
  probs.at(0, 1) = 1.0F;
  probs.at(1, 2) = 1.0F;
  const std::vector<int> labels = {1, 2};
  EXPECT_NEAR(kernels::cross_entropy(probs.cview(), labels), 0.0, 1e-5);
}

TEST(Elementwise, SoftmaxCeGradSumsToZeroPerRow) {
  util::Rng rng(7);
  Matrix logits = random_matrix(4, 6, rng);
  Matrix probs(4, 6);
  kernels::softmax_rows(logits.cview(), probs.view());
  const std::vector<int> labels = {0, 5, 2, 3};
  Matrix grad(4, 6);
  kernels::softmax_ce_grad(probs.cview(), labels, grad.view());
  for (int r = 0; r < 4; ++r) {
    double sum = 0.0;
    for (int c = 0; c < 6; ++c) sum += static_cast<double>(grad.at(r, c));
    EXPECT_NEAR(sum, 0.0, 1e-6);
  }
}

TEST(Elementwise, SoftmaxCeGradMatchesNumericDerivative) {
  // d/dlogit of mean CE: perturb one logit, compare losses.
  util::Rng rng(8);
  Matrix logits = random_matrix(3, 5, rng);
  const std::vector<int> labels = {2, 0, 4};
  auto loss_of = [&](const Matrix& lg) {
    Matrix p(3, 5);
    kernels::softmax_rows(lg.cview(), p.view());
    return kernels::cross_entropy(p.cview(), labels);
  };
  Matrix probs(3, 5);
  kernels::softmax_rows(logits.cview(), probs.view());
  Matrix grad(3, 5);
  kernels::softmax_ce_grad(probs.cview(), labels, grad.view());

  const float eps = 1e-2F;
  for (const auto& [r, c] : {std::pair{0, 2}, {1, 1}, {2, 4}}) {
    Matrix plus = logits;
    plus.at(r, c) += eps;
    Matrix minus = logits;
    minus.at(r, c) -= eps;
    const double numeric =
        (loss_of(plus) - loss_of(minus)) / (2.0 * static_cast<double>(eps));
    EXPECT_NEAR(grad.at(r, c), numeric, 2e-3) << "at (" << r << "," << c << ")";
  }
}

TEST(Elementwise, ArgmaxRows) {
  Matrix m(2, 4);
  m.at(0, 2) = 5.0F;
  m.at(1, 0) = 1.0F;
  std::vector<int> out(2);
  kernels::argmax_rows(m.cview(), out);
  EXPECT_EQ(out[0], 2);
  EXPECT_EQ(out[1], 0);
}

// ---------------------------------------------------------------------------
// Backend parity: every runtime-dispatchable backend must agree with the
// scalar reference (the numerical golden model) within SIMD-reassociation
// tolerance, across odd/tail shapes, empty dims, and alpha/beta corners.
// ---------------------------------------------------------------------------

const float kNaN = std::numeric_limits<float>::quiet_NaN();
const float kInf = std::numeric_limits<float>::infinity();

const std::pair<float, float> kAlphaBeta[] = {
    {1.0F, 0.0F}, {0.7F, 0.3F}, {0.0F, 1.0F}, {1.3F, 1.0F}, {0.0F, 0.0F}};

TEST(BackendParity, GemmAllVariantsMatchScalar) {
  const kernels::Backend& ref = kernels::scalar_backend();
  for (const auto* backend : kernels::available_backends()) {
    for (const auto& [m, n, k] : kParityShapes) {
      for (const auto& [alpha, beta] : kAlphaBeta) {
        util::Rng rng(42);
        const Matrix a_nn = random_matrix(m, k, rng);
        const Matrix b_nn = random_matrix(k, n, rng);
        const Matrix b_nt = random_matrix(n, k, rng);
        const Matrix a_tn = random_matrix(k, m, rng);
        const Matrix c0 = random_matrix(m, n, rng);
        const auto check = [&](auto fn, const Matrix& a, const Matrix& b) {
          Matrix got = c0;
          Matrix want = c0;
          (backend->*fn)(a.cview(), b.cview(), got.view(), alpha, beta);
          (ref.*fn)(a.cview(), b.cview(), want.view(), alpha, beta);
          EXPECT_TRUE(
              tensor::allclose(got.cview(), want.cview(), 5e-4F, 5e-5F))
              << backend->name << " vs scalar, shape " << m << "x" << n << "x"
              << k << " alpha=" << alpha << " beta=" << beta << ", max diff "
              << tensor::max_abs_diff(got.cview(), want.cview());
        };
        check(&kernels::Backend::gemm_nn, a_nn, b_nn);
        check(&kernels::Backend::gemm_nt, a_nn, b_nt);
        check(&kernels::Backend::gemm_tn, a_tn, b_nn);
      }
    }
  }
}

// Regression for the scalar gemm_tn `if (av == 0) continue;` shortcut: a
// zero in A must NOT suppress NaN/Inf coming from B — 0 * NaN and 0 * Inf
// are NaN, and the trainer's all_finite() divergence probes rely on
// non-finite values propagating into C.
TEST(BackendParity, GemmTnPropagatesNonFiniteThroughZeros) {
  for (const auto* backend : kernels::available_backends()) {
    Matrix a(3, 2);  // A(k=3, m=2), all zeros
    Matrix b(3, 2);  // B(k=3, n=2)
    b.at(0, 0) = kNaN;
    b.at(1, 1) = kInf;
    Matrix c(2, 2);
    backend->gemm_tn(a.cview(), b.cview(), c.view(), 1.0F, 0.0F);
    EXPECT_TRUE(std::isnan(c.at(0, 0)))
        << backend->name << ": 0 * NaN must stay NaN";
    EXPECT_TRUE(std::isnan(c.at(0, 1)))
        << backend->name << ": 0 * Inf must stay NaN";
    EXPECT_TRUE(std::isnan(c.at(1, 0))) << backend->name;
  }
}

TEST(BackendParity, GemmNtPropagatesNonFiniteThroughZeros) {
  for (const auto* backend : kernels::available_backends()) {
    Matrix a(2, 3);  // zeros
    Matrix b(2, 3);
    b.at(0, 0) = kNaN;
    b.at(1, 2) = kInf;
    Matrix c(2, 2);
    backend->gemm_nt(a.cview(), b.cview(), c.view(), 1.0F, 0.0F);
    EXPECT_TRUE(std::isnan(c.at(0, 0))) << backend->name;
    EXPECT_TRUE(std::isnan(c.at(1, 1))) << backend->name;
  }
}

// Shared BLAS beta semantics: beta == 0 must OVERWRITE C — existing NaNs
// (e.g. uninitialized or poisoned buffers) are discarded, in all three
// variants, in every backend.
TEST(BackendParity, BetaZeroOverwritesNaNInC) {
  for (const auto* backend : kernels::available_backends()) {
    util::Rng rng(11);
    const int m = 5, n = 9, k = 7;
    const Matrix a_nn = random_matrix(m, k, rng);
    const Matrix b_nn = random_matrix(k, n, rng);
    const Matrix b_nt = random_matrix(n, k, rng);
    const Matrix a_tn = random_matrix(k, m, rng);
    const auto check = [&](auto fn, const Matrix& a, const Matrix& b,
                           const char* variant) {
      Matrix poisoned(m, n);
      tensor::fill_constant(poisoned.view(), kNaN);
      Matrix clean(m, n);
      (backend->*fn)(a.cview(), b.cview(), poisoned.view(), 1.0F, 0.0F);
      (backend->*fn)(a.cview(), b.cview(), clean.view(), 1.0F, 0.0F);
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
          EXPECT_TRUE(std::isfinite(poisoned.at(i, j)))
              << backend->name << " " << variant << " left NaN at (" << i
              << "," << j << ")";
        }
      }
      EXPECT_EQ(tensor::max_abs_diff(poisoned.cview(), clean.cview()), 0.0F)
          << backend->name << " " << variant;
    };
    check(&kernels::Backend::gemm_nn, a_nn, b_nn, "nn");
    check(&kernels::Backend::gemm_nt, a_nn, b_nt, "nt");
    check(&kernels::Backend::gemm_tn, a_tn, b_nn, "tn");
  }
}

TEST(BackendParity, PointwiseMatchesScalar) {
  const kernels::Backend& ref = kernels::scalar_backend();
  for (const auto* backend : kernels::available_backends()) {
    for (const int n : {0, 1, 3, 8, 15, 16, 17, 64, 100}) {
      std::vector<float> base(static_cast<std::size_t>(n));
      util::Rng rng(13);
      for (auto& v : base) {
        v = static_cast<float>(rng.uniform(-12.0, 12.0));
      }
      if (n > 2) {  // exercise the exp clamp range
        base[0] = -95.0F;
        base[1] = 95.0F;
      }
      // Non-finite inputs: NaN must come back NaN from the vector body as
      // from the tail (index n/2 lies in the vector body at 16 and above),
      // and ±Inf saturate like the scalar reference.
      std::vector<float> acts = base;
      if (n > 4) {
        acts[2] = std::numeric_limits<float>::infinity();
        acts[3] = -std::numeric_limits<float>::infinity();
      }
      if (n > 0) acts[static_cast<std::size_t>(n - 1)] = kNaN;
      if (n > 8) acts[static_cast<std::size_t>(n / 2)] = kNaN;
      auto sig_got = acts, sig_want = acts;
      backend->sigmoid_inplace(sig_got);
      ref.sigmoid_inplace(sig_want);
      auto tanh_got = acts, tanh_want = acts;
      backend->tanh_inplace(tanh_got);
      ref.tanh_inplace(tanh_want);
      for (int i = 0; i < n; ++i) {
        const auto u = static_cast<std::size_t>(i);
        EXPECT_EQ(std::isnan(sig_got[u]), std::isnan(sig_want[u]))
            << backend->name << " n=" << n << " sigmoid(" << acts[u]
            << ") = " << sig_got[u];
        EXPECT_EQ(std::isnan(tanh_got[u]), std::isnan(tanh_want[u]))
            << backend->name << " n=" << n << " tanh(" << acts[u]
            << ") = " << tanh_got[u];
        if (std::isnan(sig_want[u])) continue;
        EXPECT_NEAR(sig_got[u], sig_want[u], 1e-5F)
            << backend->name << " sigmoid(" << acts[u] << ")";
        EXPECT_NEAR(tanh_got[u], tanh_want[u], 1e-5F)
            << backend->name << " tanh(" << acts[u] << ")";
      }

      std::vector<float> other(static_cast<std::size_t>(n));
      for (auto& v : other) {
        v = static_cast<float>(rng.uniform(-2.0, 2.0));
      }
      std::vector<float> had_got(static_cast<std::size_t>(n));
      std::vector<float> had_want(static_cast<std::size_t>(n));
      backend->hadamard(base, other, had_got);
      ref.hadamard(base, other, had_want);
      backend->hadamard_acc(base, other, had_got);
      ref.hadamard_acc(base, other, had_want);
      backend->axpy(1.5F, other, had_got);
      ref.axpy(1.5F, other, had_want);
      for (int i = 0; i < n; ++i) {
        const auto u = static_cast<std::size_t>(i);
        EXPECT_NEAR(had_got[u], had_want[u], 1e-4F)
            << backend->name << " fused pointwise chain at " << i;
      }
    }
  }
}

TEST(BackendParity, NameLookupAndOverride) {
  EXPECT_NE(kernels::backend_by_name("scalar"), nullptr);
  EXPECT_EQ(kernels::backend_by_name("no-such-isa"), nullptr);
  EXPECT_STREQ(kernels::scalar_backend().name, "scalar");
  // available_backends always contains scalar and the native choice.
  bool has_scalar = false;
  for (const auto* b : kernels::available_backends()) {
    if (std::string_view(b->name) == "scalar") has_scalar = true;
  }
  EXPECT_TRUE(has_scalar);
  EXPECT_NE(kernels::active_backend_name(), nullptr);
}

TEST(Elementwise, AddBiasAndRowSums) {
  Matrix m(3, 2);
  std::vector<float> bias = {1.0F, -1.0F};
  kernels::add_bias_rows(m.view(), bias);
  EXPECT_EQ(m.at(2, 0), 1.0F);
  EXPECT_EQ(m.at(2, 1), -1.0F);
  std::vector<float> sums(2, 0.0F);
  kernels::sum_rows_acc(m.cview(), sums);
  EXPECT_EQ(sums[0], 3.0F);
  EXPECT_EQ(sums[1], -3.0F);
}

}  // namespace
}  // namespace bpar
