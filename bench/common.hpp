// Shared helpers for the paper-reproduction benches.
//
// Every table/figure bench follows the same recipe (DESIGN.md §4):
//  1. build the *shape-only* task graph of each system (B-Par, B-Seq,
//     Keras-like, PyTorch-like) at the paper's full problem sizes;
//  2. assign per-task costs from the roofline model under a calibration
//     representing one Xeon 8160 core running MKL (so absolute numbers land
//     near the paper's scale) or, with --host-calibration, this machine's
//     measured kernel rates;
//  3. replay each graph in the discrete-event simulator at the requested
//     core count and scheduler policy.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exec/baseline_profiles.hpp"
#include "graph/brnn_graph.hpp"
#include "perf/gpu_model.hpp"
#include "rnn/network.hpp"
#include "sim/cost_model.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace bench {

/// One Xeon Platinum 8160 core with MKL-sequential kernels.
[[nodiscard]] bpar::sim::Calibration paper_core_calibration();

/// Adds the flags shared by all benches (--full, --host-calibration,
/// --csv-dir) to `args`.
void add_common_flags(bpar::util::ArgParser& args);

/// Resolves the calibration from parsed common flags.
[[nodiscard]] bpar::sim::Calibration resolve_calibration(
    const bpar::util::ArgParser& args);

struct SimSetup {
  bpar::sim::Calibration calibration;
  int cores = 48;
  bpar::sim::SchedulerPolicy policy =
      bpar::sim::SchedulerPolicy::kLocalityAware;
  bool training = true;
};

/// Simulated per-batch time (ms) of B-Par with `replicas` mini-batches.
/// Optionally returns the full simulator result. `schedule_profile` picks
/// another schedule of the same graph ("bseq" — the B-Seq baseline —
/// "fused_merge", "framework").
[[nodiscard]] double simulate_bpar(bpar::rnn::Network& net,
                                   const SimSetup& setup, int replicas,
                                   bpar::sim::SimResult* result = nullptr,
                                   const std::string& schedule_profile = "");

/// Simulated per-batch time (ms) of a framework baseline (per-layer
/// barriers + intra-op chunking under `profile`).
[[nodiscard]] double simulate_framework(
    bpar::rnn::Network& net, const SimSetup& setup,
    const bpar::exec::FrameworkProfile& profile);

/// min over `cores_list` of run(cores).
[[nodiscard]] double best_over_cores(
    const std::vector<int>& cores_list,
    const std::function<double(int)>& run);

/// The paper's Table III/IV network shape (6-layer BRNN, H-wide merge).
[[nodiscard]] bpar::rnn::NetworkConfig table_network(
    bpar::rnn::CellType cell, int input, int hidden, int batch, int seq,
    int layers = 6, bool many_to_many = false);

/// GPU-model columns for a table row ("-" when the profile hangs).
[[nodiscard]] std::string gpu_cell(const bpar::perf::GpuModelParams& params,
                                   const bpar::rnn::NetworkConfig& cfg);

/// Writes the table as CSV under the --csv-dir location.
void emit_csv(const bpar::util::ArgParser& args, const bpar::util::Table& t,
              const std::string& name);

/// True when --trace or --metrics armed schedule capture (set by
/// resolve_calibration): simulate_bpar records the simulated schedule and
/// emit_csv turns it into an analyzable trace + a RunReport "analysis"
/// section (bpar_prof analyze consumes both).
[[nodiscard]] bool analysis_capture_enabled();

}  // namespace bench
