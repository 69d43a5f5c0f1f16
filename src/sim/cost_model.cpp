#include "sim/cost_model.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>

#include "kernels/gemm.hpp"
#include "obs/trace.hpp"
#include "tensor/tensor.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace bpar::sim {
namespace {

double time_once_ns(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

Calibration calibrate() {
  Calibration cal;

  // GEMM throughput: a 128x512x512 gemm_nn against a K-major B, the kernel
  // and layout of one forward gate-block product G = X·W.
  {
    constexpr int m = 128;
    constexpr int n = 512;
    constexpr int k = 512;
    tensor::Matrix a(m, k);
    tensor::Matrix b(k, n);
    tensor::Matrix c(m, n);
    util::Rng rng(7);
    tensor::fill_uniform(a.view(), rng, -1.0F, 1.0F);
    tensor::fill_uniform(b.view(), rng, -1.0F, 1.0F);
    kernels::gemm_nn(a.cview(), b.cview(), c.view());  // warm-up
    double best_ns = 1e18;
    for (int rep = 0; rep < 3; ++rep) {
      best_ns = std::min(best_ns, time_once_ns([&] {
                           kernels::gemm_nn(a.cview(), b.cview(), c.view());
                         }));
    }
    cal.gflops = kernels::gemm_flops(m, n, k) / best_ns;  // flops/ns = Gflop/s
  }

  // Stream bandwidth: a large copy-scale pass (well beyond L2).
  {
    constexpr std::size_t n = 4UL << 20;  // 4 Mi floats = 16 MB
    std::vector<float> src(n, 1.5F);
    std::vector<float> dst(n, 0.0F);
    double best_ns = 1e18;
    for (int rep = 0; rep < 3; ++rep) {
      best_ns = std::min(best_ns, time_once_ns([&] {
                           for (std::size_t i = 0; i < n; ++i) {
                             dst[i] = 2.0F * src[i] + dst[i];
                           }
                         }));
    }
    // 3 accesses (2 loads + 1 store) of 4 bytes per element.
    cal.mem_gbps = 3.0 * 4.0 * static_cast<double>(n) / best_ns;
  }

  BPAR_LOG_DEBUG << "calibration: " << cal.gflops << " Gflop/s, "
                 << cal.mem_gbps << " GB/s";
  return cal;
}

std::uint64_t roofline_cost_ns(double flops, std::size_t bytes,
                               const Calibration& cal) {
  const double compute_ns = flops / cal.gflops;
  const double memory_ns = static_cast<double>(bytes) / cal.cache_gbps;
  return static_cast<std::uint64_t>(std::max(compute_ns, memory_ns) +
                                    cal.fixed_ns);
}

std::vector<std::uint64_t> modeled_costs(const taskrt::TaskGraph& graph,
                                         const Calibration& cal) {
  BPAR_SPAN("sim.modeled_costs");
  std::vector<std::uint64_t> costs(graph.size());
  for (taskrt::TaskId id = 0; id < graph.size(); ++id) {
    const auto& spec = graph.task(id).spec;
    if (spec.flops > 0.0 || spec.working_set_bytes > 0) {
      costs[id] = roofline_cost_ns(spec.flops, spec.working_set_bytes, cal);
    } else {
      costs[id] = std::max<std::uint64_t>(spec.cost_hint_ns,
                                          static_cast<std::uint64_t>(cal.fixed_ns));
    }
  }
  return costs;
}

std::vector<std::uint64_t> measured_costs(
    const taskrt::TaskGraph& graph, std::span<const std::uint64_t> durations,
    const Calibration& cal) {
  BPAR_CHECK(durations.size() == graph.size(), "durations size mismatch");
  std::vector<std::uint64_t> costs(durations.begin(), durations.end());
  for (taskrt::TaskId id = 0; id < graph.size(); ++id) {
    if (costs[id] == 0) {
      const auto& spec = graph.task(id).spec;
      costs[id] = roofline_cost_ns(spec.flops, spec.working_set_bytes, cal);
    }
  }
  return costs;
}

}  // namespace bpar::sim
