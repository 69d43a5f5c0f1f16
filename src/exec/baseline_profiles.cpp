#include "exec/baseline_profiles.hpp"

#include <algorithm>

namespace bpar::exec {

FrameworkProfile keras_cpu_profile() {
  // MKL-parallel on gate-GEMM slices saturates around 12 useful lanes at
  // ~55% efficiency (≈6.6x intra-op speedup), which reproduces the paper's
  // Keras-CPU times within ~15% across the Table III batch sizes.
  return {.name = "keras",
          .gemm_cost_multiplier = 1.15,
          .per_op_overhead_ns = 15000.0,
          .intra_op_efficiency = 0.55,
          .max_intra_op_chunks = 12};
}

FrameworkProfile pytorch_cpu_profile() {
  return {.name = "pytorch",
          .gemm_cost_multiplier = 1.8,
          .per_op_overhead_ns = 60000.0,
          .intra_op_efficiency = 0.50,
          .max_intra_op_chunks = 12};
}

int intra_op_chunks(int lanes, int batch_rows) {
  return std::clamp(lanes, 1, std::max(1, batch_rows / 4));
}

graph::BuildOptions baseline_build_options(const FrameworkProfile& profile,
                                           int cores, int batch_rows,
                                           bool training) {
  graph::BuildOptions bo;
  bo.num_replicas = 1;
  bo.training = training;
  bo.executable = false;
  bo.schedule_profile = "framework";  // per-layer barriers + sequential dirs
  bo.intra_op_chunks =
      intra_op_chunks(std::min(cores, profile.max_intra_op_chunks), batch_rows);
  return bo;
}

std::vector<std::uint64_t> profile_costs(const taskrt::TaskGraph& graph,
                                         const sim::Calibration& cal,
                                         const FrameworkProfile& profile) {
  std::vector<std::uint64_t> costs(graph.size());
  for (taskrt::TaskId id = 0; id < graph.size(); ++id) {
    const auto& spec = graph.task(id).spec;
    double ns;
    if (spec.flops > 0.0 || spec.working_set_bytes > 0) {
      ns = static_cast<double>(sim::roofline_cost_ns(
          spec.flops * profile.gemm_cost_multiplier, spec.working_set_bytes,
          cal));
      // Intra-op chunks lose efficiency versus perfect splitting.
      if (spec.kind == taskrt::TaskKind::kGemmChunk) {
        ns /= profile.intra_op_efficiency;
      }
    } else {
      ns = static_cast<double>(
          std::max<std::uint64_t>(spec.cost_hint_ns, 300));
    }
    ns += profile.per_op_overhead_ns;
    costs[id] = static_cast<std::uint64_t>(ns);
  }
  return costs;
}

}  // namespace bpar::exec
