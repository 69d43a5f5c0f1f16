// google-benchmark microbenchmarks of the numeric substrate: GEMM
// variants, cell forward/backward kernels, merges, softmax, plus
// per-backend (scalar / AVX2 / AVX-512 / NEON) kernel benches for the
// BPAR_KERNEL_BACKEND A/B comparisons in EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <string>

#include "kernels/backend.hpp"
#include "kernels/elementwise.hpp"
#include "kernels/gemm.hpp"
#include "rnn/cell_kernels.hpp"
#include "rnn/flops.hpp"
#include "rnn/layer_params.hpp"
#include "rnn/merge.hpp"
#include "util/rng.hpp"

namespace {

using bpar::tensor::Matrix;

void BM_GemmNt(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  bpar::util::Rng rng(1);
  Matrix a(m, k);
  Matrix b(n, k);
  Matrix c(m, n);
  bpar::tensor::fill_uniform(a.view(), rng, -1.0F, 1.0F);
  bpar::tensor::fill_uniform(b.view(), rng, -1.0F, 1.0F);
  for (auto _ : state) {
    bpar::kernels::gemm_nt(a.cview(), b.cview(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      bpar::kernels::gemm_flops(m, n, k) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_GemmNt)
    ->Args({32, 256, 128})
    ->Args({128, 1024, 512})
    ->Args({1, 1024, 512});

void BM_GemmTn(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  bpar::util::Rng rng(2);
  Matrix a(64, n);
  Matrix b(64, n);
  Matrix c(n, n);
  bpar::tensor::fill_uniform(a.view(), rng, -1.0F, 1.0F);
  bpar::tensor::fill_uniform(b.view(), rng, -1.0F, 1.0F);
  for (auto _ : state) {
    bpar::kernels::gemm_tn(a.cview(), b.cview(), c.view(), 1.0F, 1.0F);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmTn)->Arg(128)->Arg(384);

template <bpar::rnn::CellType kCell>
void BM_CellForward(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const int hidden = static_cast<int>(state.range(1));
  const int input = 64;
  bpar::util::Rng rng(3);
  bpar::rnn::LayerParams params;
  params.init(kCell, input, hidden, rng);
  Matrix x(batch, input);
  Matrix h_prev(batch, hidden);
  Matrix c_prev(batch, hidden);
  bpar::tensor::fill_uniform(x.view(), rng, -1.0F, 1.0F);
  bpar::rnn::CellTape tape;
  tape.init(kCell, batch, hidden);
  for (auto _ : state) {
    bpar::rnn::cell_forward(params, x.cview(), h_prev.cview(),
                            c_prev.cview(), tape);
    benchmark::DoNotOptimize(tape.h.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      bpar::rnn::cell_forward_flops(kCell, batch, input, hidden) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_CellForward<bpar::rnn::CellType::kLstm>)
    ->Args({16, 256})
    ->Args({128, 256});
BENCHMARK(BM_CellForward<bpar::rnn::CellType::kGru>)
    ->Args({16, 256})
    ->Args({128, 256});

/// BackwardData of one cell. Args: batch rows, hidden, layer input width.
/// The backward GEMMs read a gate-major copy of W, made outside the timed
/// loop: a training program makes it once per step, not once per cell. The
/// cell writes dG over the activated gates, so each iteration first
/// restores them (a B x G*H copy, timed with the cell).
template <bpar::rnn::CellType kCell>
void BM_CellBackward(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const int hidden = static_cast<int>(state.range(1));
  const int input = static_cast<int>(state.range(2));
  bpar::util::Rng rng(4);
  bpar::rnn::LayerParams params;
  params.init(kCell, input, hidden, rng);
  Matrix wt(params.w.cols(), params.w.rows());
  bpar::rnn::gate_major(params.w.cview(), wt.view());
  Matrix x(batch, input);
  Matrix h_prev(batch, hidden);
  Matrix c_prev(batch, hidden);
  bpar::tensor::fill_uniform(x.view(), rng, -1.0F, 1.0F);
  bpar::tensor::fill_uniform(h_prev.view(), rng, -0.5F, 0.5F);
  bpar::rnn::CellTape tape;
  tape.init(kCell, batch, hidden);
  bpar::rnn::cell_forward(params, x.cview(), h_prev.cview(), c_prev.cview(),
                          tape);
  const Matrix gates = tape.gates;
  Matrix dh(batch, hidden);
  bpar::tensor::fill_constant(dh.view(), 1.0F);
  Matrix dx(batch, input);
  Matrix dh_prev(batch, hidden);
  Matrix dc_prev(batch, hidden);
  const bool lstm = kCell == bpar::rnn::CellType::kLstm;
  for (auto _ : state) {
    bpar::tensor::copy(gates.cview(), tape.gates.view());
    bpar::rnn::cell_backward(
        params, wt.cview(), h_prev.cview(), c_prev.cview(), tape.views(),
        dh.cview(), {}, dx.view(), dh_prev.view(),
        lstm ? dc_prev.view() : bpar::tensor::MatrixView{});
    benchmark::DoNotOptimize(dh_prev.data());
  }
}
// Besides 16/256/64: the upper-layer cells of train-blstm (16/128/256) and
// train-bgru-m2m (8/32/32; its sum merge keeps the upper input at H).
BENCHMARK(BM_CellBackward<bpar::rnn::CellType::kLstm>)
    ->Args({16, 256, 64})
    ->Args({16, 128, 256});
BENCHMARK(BM_CellBackward<bpar::rnn::CellType::kGru>)
    ->Args({16, 256, 64})
    ->Args({8, 32, 32});

void BM_MergeForward(benchmark::State& state) {
  const auto op = static_cast<bpar::rnn::MergeOp>(state.range(0));
  bpar::util::Rng rng(5);
  Matrix hf(128, 256);
  Matrix hr(128, 256);
  bpar::tensor::fill_uniform(hf.view(), rng, -1.0F, 1.0F);
  bpar::tensor::fill_uniform(hr.view(), rng, -1.0F, 1.0F);
  Matrix y(128, bpar::rnn::merge_output_size(op, 256));
  for (auto _ : state) {
    bpar::rnn::merge_forward(op, hf.cview(), hr.cview(), y.view());
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_MergeForward)->Arg(0)->Arg(1)->Arg(3);

// Per-backend benches: one registration per runtime-dispatchable backend,
// named BM_<Kernel>Backend/<name>[/<m>x<n>x<k>], so `bpar_prof diff` can
// compare e.g. gbench/BM_GemmNtBackend/avx512 against .../scalar across
// runs. The shape-suffixed GEMM rows are the shapes the bpar_bench
// workloads run.
enum class GemmOp { kNn, kNt, kTn };

/// C(m,n) += op(A) * op(B) through one backend's table: nn is A(m,k) B(k,n),
/// nt is A(m,k) B(n,k)^T, tn is A(k,m)^T B(k,n). tn accumulates (beta = 1)
/// like the weight-gradient GEMMs it stands for; nn and nt overwrite.
void gemm_backend(benchmark::State& state,
                  const bpar::kernels::Backend* backend, GemmOp op, int m,
                  int n, int k) {
  bpar::util::Rng rng(7);
  Matrix a = op == GemmOp::kTn ? Matrix(k, m) : Matrix(m, k);
  Matrix b = op == GemmOp::kNt ? Matrix(n, k) : Matrix(k, n);
  Matrix c(m, n);
  bpar::tensor::fill_uniform(a.view(), rng, -1.0F, 1.0F);
  bpar::tensor::fill_uniform(b.view(), rng, -1.0F, 1.0F);
  const auto fn = op == GemmOp::kNn   ? backend->gemm_nn
                  : op == GemmOp::kNt ? backend->gemm_nt
                                      : backend->gemm_tn;
  const float beta = op == GemmOp::kTn ? 1.0F : 0.0F;
  for (auto _ : state) {
    fn(a.cview(), b.cview(), c.view(), 1.0F, beta);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      bpar::kernels::gemm_flops(m, n, k) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

void sigmoid_backend(benchmark::State& state,
                     const bpar::kernels::Backend* backend) {
  bpar::util::Rng rng(9);
  Matrix base(64, 1024);
  bpar::tensor::fill_uniform(base.view(), rng, -8.0F, 8.0F);
  Matrix work = base;
  for (auto _ : state) {
    state.PauseTiming();
    work = base;
    state.ResumeTiming();
    for (int r = 0; r < work.rows(); ++r) {
      backend->sigmoid_inplace(work.view().row(r));
    }
    benchmark::DoNotOptimize(work.data());
  }
}

struct BackendGemm {
  const char* kernel;
  GemmOp op;
  int m, n, k;
  bool shape_suffix;
};

// The unsuffixed rows predate the workload shapes and keep their baseline
// keys; the rest are the GEMMs of the workloads, each in its role: nn is
// the forward G = X·W against the K-major weights (train-blstm
// 16x512x256; infer-b1 1x256x16 layer-0 input, 1x256x64 recurrent) and the
// backward dX = dG·Wᵀ against the gate-major copy (train-blstm 16x256x512,
// train-bgru-m2m dh of the z,r gates 8x32x64), tn the weight gradient
// (train-blstm 512x256x16, train-bgru-m2m 96x64x8).
const BackendGemm kBackendGemms[] = {
    {"BM_GemmNtBackend", GemmOp::kNt, 128, 1024, 512, false},
    {"BM_GemmNnBackend", GemmOp::kNn, 128, 512, 1024, false},
    {"BM_GemmNnBackend", GemmOp::kNn, 16, 512, 256, true},
    {"BM_GemmNnBackend", GemmOp::kNn, 1, 256, 16, true},
    {"BM_GemmNnBackend", GemmOp::kNn, 1, 256, 64, true},
    {"BM_GemmTnBackend", GemmOp::kTn, 512, 256, 16, true},
    {"BM_GemmTnBackend", GemmOp::kTn, 96, 64, 8, true},
    {"BM_GemmNnBackend", GemmOp::kNn, 16, 256, 512, true},
    {"BM_GemmNnBackend", GemmOp::kNn, 8, 32, 64, true},
};

/// BackwardWeights of one whole chain (rnn::chain_weight_grads) through one
/// backend's table: dW over T·B rows from random slabs.
void weight_grads_backend(benchmark::State& state,
                          const bpar::kernels::Backend* backend,
                          bpar::rnn::CellType cell, int batch, int hidden,
                          int input, int steps) {
  const std::string previous = bpar::kernels::active_backend_name();
  bpar::kernels::set_backend(backend->name);
  bpar::util::Rng rng(8);
  bpar::rnn::LayerParams params;
  params.init(cell, input, hidden, rng);
  bpar::rnn::LayerGrads grads;
  grads.init_like(params);
  const int rows = steps * batch;
  Matrix x(rows, input);
  bpar::rnn::CellTape slab;
  slab.init(cell, rows, hidden);
  for (const bpar::tensor::MatrixView m :
       {x.view(), slab.gates.view(), slab.h.view(), slab.rh.view()}) {
    bpar::tensor::fill_uniform(m, rng, -1.0F, 1.0F);
  }
  for (auto _ : state) {
    bpar::rnn::chain_weight_grads(params, 0, batch, x.cview(),
                                  slab.gates.cview(), slab.h.cview(),
                                  slab.rh.cview(), grads);
    benchmark::DoNotOptimize(grads.dw.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      bpar::rnn::chain_weight_grad_flops(cell, batch, input, hidden, steps) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
  bpar::kernels::set_backend(previous);
}

struct BackendChain {
  bpar::rnn::CellType cell;
  int batch, hidden, input, steps;
};

// The upper-layer chains of train-blstm (LSTM, 16 rows, H 128, input 256,
// T 50) and train-bgru-m2m (GRU, 8 rows, H 32, input 32, T 100).
const BackendChain kBackendChains[] = {
    {bpar::rnn::CellType::kLstm, 16, 128, 256, 50},
    {bpar::rnn::CellType::kGru, 8, 32, 32, 100},
};

const int kBackendBenchesRegistered = [] {
  int count = 0;
  for (const auto* backend : bpar::kernels::available_backends()) {
    const std::string name = backend->name;
    for (const BackendGemm& g : kBackendGemms) {
      std::string key = g.kernel;
      key.append("/").append(name);
      if (g.shape_suffix) {
        key.append("/").append(std::to_string(g.m)).append("x");
        key.append(std::to_string(g.n)).append("x");
        key.append(std::to_string(g.k));
      }
      benchmark::RegisterBenchmark(key.c_str(),
                                   [backend, g](benchmark::State& s) {
                                     gemm_backend(s, backend, g.op, g.m, g.n,
                                                  g.k);
                                   });
    }
    for (const BackendChain& c : kBackendChains) {
      const bool lstm = c.cell == bpar::rnn::CellType::kLstm;
      const std::string key =
          "BM_WeightGradsBackend/" + name + (lstm ? "/lstm/" : "/gru/") +
          std::to_string(c.batch) + "x" + std::to_string(c.hidden) + "x" +
          std::to_string(c.input) + "x" + std::to_string(c.steps);
      benchmark::RegisterBenchmark(key.c_str(),
                                   [backend, c](benchmark::State& s) {
                                     weight_grads_backend(s, backend, c.cell,
                                                          c.batch, c.hidden,
                                                          c.input, c.steps);
                                   });
    }
    benchmark::RegisterBenchmark(
        ("BM_SigmoidBackend/" + name).c_str(),
        [backend](benchmark::State& s) { sigmoid_backend(s, backend); });
    ++count;
  }
  return count;
}();

void BM_SoftmaxCe(benchmark::State& state) {
  bpar::util::Rng rng(6);
  Matrix logits(128, 64);
  Matrix probs(128, 64);
  bpar::tensor::fill_uniform(logits.view(), rng, -2.0F, 2.0F);
  std::vector<int> labels(128, 3);
  for (auto _ : state) {
    bpar::kernels::softmax_rows(logits.cview(), probs.view());
    benchmark::DoNotOptimize(
        bpar::kernels::cross_entropy(probs.cview(), labels));
  }
}
BENCHMARK(BM_SoftmaxCe);

}  // namespace
