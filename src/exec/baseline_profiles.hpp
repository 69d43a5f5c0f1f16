// Framework cost profiles for simulating the Keras/TensorFlow and PyTorch
// CPU baselines (DESIGN.md §4).
//
// The baselines' *schedule* (per-layer barriers, sequential directions,
// intra-op chunking) is the "framework" schedule profile — the same graph
// BParExecutor runs for ExecutorKind::kLayerBarrier, here built shape-only.
// These profiles supply the per-task cost adjustments that distinguish the
// frameworks:
//
//   * gemm_cost_multiplier — kernel quality relative to our mini-BLAS.
//     The paper measures PyTorch-CPU 2-5x slower than Keras-CPU at
//     identical math (Tables III/IV), dominated by op-by-op execution.
//   * per_op_overhead_ns   — per-op dispatch/framework overhead.
//   * intra_op_efficiency  — fraction of ideal speedup the fork-join
//     chunking achieves (MKL-parallel loses to task parallelism; ~0.7
//     is typical for the gate-GEMM sizes involved).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/brnn_graph.hpp"
#include "sim/cost_model.hpp"
#include "taskrt/task_graph.hpp"

namespace bpar::exec {

struct FrameworkProfile {
  std::string name;
  double gemm_cost_multiplier = 1.0;
  double per_op_overhead_ns = 0.0;
  double intra_op_efficiency = 1.0;
  int max_intra_op_chunks = 48;
};

/// Keras/TensorFlow 2.3 with MKL + oneDNN: well-fused kernels, modest
/// dispatch cost.
[[nodiscard]] FrameworkProfile keras_cpu_profile();

/// PyTorch 1.7 CPU: op-by-op dispatch, weaker RNN-cell kernels.
[[nodiscard]] FrameworkProfile pytorch_cpu_profile();

/// Intra-op chunks a cell of `batch_rows` rows splits into across `lanes`
/// cores: at most one chunk per four rows.
[[nodiscard]] int intra_op_chunks(int lanes, int batch_rows);

/// Build options for a shape-only baseline graph at `cores` intra-op lanes.
[[nodiscard]] graph::BuildOptions baseline_build_options(
    const FrameworkProfile& profile, int cores, int batch_rows,
    bool training = true);

/// Per-task simulator costs for a graph under `profile`.
[[nodiscard]] std::vector<std::uint64_t> profile_costs(
    const taskrt::TaskGraph& graph, const sim::Calibration& cal,
    const FrameworkProfile& profile);

}  // namespace bpar::exec
