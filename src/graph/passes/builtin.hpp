// Factories for the built-in graph passes (see registry.cpp for names).
#pragma once

#include <cstdint>
#include <memory>

#include "graph/passes/pass.hpp"

namespace bpar::graph::passes {

/// "gate_fusion": mark every forward cell wide-gate. LSTM cells are built
/// wide already (the fused [f|i|g|o] weight layout); GRU cells fold their
/// two input-side GEMMs (z,r and h̄) into one 3H-wide GEMM, 4 → 3 launches.
/// Bit-exact: each output element's dot product is unchanged.
[[nodiscard]] std::unique_ptr<GraphPass> make_gate_fusion();

/// "input_precompute": hoist all timesteps' x·W_x^T of layer 0 into
/// `chunks` sequence-wide GEMM tasks per (replica, direction); the
/// per-timestep cells then row-slice the projection instead of launching
/// their input GEMM. Bit-exact: a row of a GEMM does not depend on which
/// other rows the call computes.
[[nodiscard]] std::unique_ptr<GraphPass> make_input_precompute(int chunks = 4);

/// "coarsen": merge immediately-adjacent *dependent* non-cell tasks whose
/// estimated body is below `threshold_ns` (0 → 4 × measured dispatch cost
/// from PassContext), preserving the dependency frontier via access-mode
/// union. Chains cap at 8 fused bodies.
[[nodiscard]] std::unique_ptr<GraphPass> make_task_coarsening(
    std::uint64_t threshold_ns = 0);

}  // namespace bpar::graph::passes
