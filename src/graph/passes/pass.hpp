// Task-graph optimizer pass framework (DESIGN.md §5k).
//
// TrainingProgram builds its program as a flat list of `Op`s — the
// intermediate task-spec form — runs a `PassPipeline` over it, and only
// then lowers the surviving ops into the dependency-resolved TaskGraph.
// Passes therefore rewrite *descriptors and access lists*, never live
// tasks: a forward cell carries a `CellInfo` instead of a closure, and its
// body is generated at lowering time from whatever the passes left behind.
//
// Invariants every pass must preserve (tested by tests/test_passes.cpp):
//  * creation order stays topological — an op may only read addresses
//    written by ops earlier in the list;
//  * the external dependency frontier of a rewritten region is unchanged
//    (same addresses read and written, modes at least as strong);
//  * default-pipeline rewrites are bit-exact versus the unfused graph, for
//    training and inference.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "taskrt/task_graph.hpp"

namespace bpar::rnn {
struct LayerParams;
class Workspace;
}  // namespace bpar::rnn

namespace bpar::graph {
class TrainingProgram;
}

namespace bpar::graph::passes {

/// Forward-cell descriptor: everything needed to (re)generate the task
/// body at lowering time. Passes flip the rewrite flags below instead of
/// touching closures.
struct CellInfo {
  rnn::Workspace* ws = nullptr;  // null in shape-only mode
  const rnn::LayerParams* params = nullptr;
  int rep = 0, dir = 0, layer = 0, step = 0, ti = 0;
  int r0 = 0, rb = 0, steps = 0;
  int in_width = 0;  // layer input width (flops bookkeeping)
  int hidden = 0;
  int gates = 0;  // 4 for LSTM, 3 for GRU
  bool lstm = false;
  bool fused_merge = false;  // schedule profile "fused_merge"
  // ---- pass rewrites ----
  bool fuse_gates = false;  // GateFusion: one wide input-side GEMM
  /// InputProjectionPrecompute: rows [ti*rb, (ti+1)*rb) of the program's
  /// precomputed x·W_x^T buffer replace the input-side GEMM(s).
  bool precomputed = false;
  const float* precomp_row0 = nullptr;  // executable mode only
  int precomp_cols = 0;                 // = gates * hidden
};

/// Body of a chunkable op over batch rows [row0, row0 + rows) of its
/// replica. `chunk` >= 0 names the intra-op chunk (whose scratch weight
/// gradients a backward cell accumulates into); -1 runs the op unsplit.
using RowsFn = std::function<void(int chunk, int row0, int rows)>;

/// One task in the pre-lowering intermediate form. Non-cell ops carry
/// their closure; cell ops carry a CellInfo and get their body generated
/// at lowering, after every pass has rewritten the descriptor.
struct Op {
  std::function<void()> fn;
  RowsFn rows_fn;  // chunkable ops in executable graphs (instead of fn)
  std::vector<taskrt::Access> accesses;
  taskrt::TaskSpec spec;
  bool chunkable = false;
  bool dead = false;     // removed by a pass; skipped at lowering
  int fused_bodies = 1;  // sub-bodies a coarsened op runs in sequence
  int gemms = 0;         // GEMM launches of this body (reporting only)
  std::optional<CellInfo> cell;
};
using OpList = std::vector<Op>;

/// What the pipeline did — stored on the program, surfaced through the
/// RunReport "analysis" section and `bpar_prof analyze`.
struct PassReport {
  struct Entry {
    std::string name;
    std::size_t rewrites = 0;
    std::string detail;
  };
  std::string signature = "none";  // "+"-joined pass names, "none" if empty
  std::vector<Entry> entries;
  std::size_t tasks_before = 0;
  std::size_t tasks_after = 0;
};

struct PassContext {
  TrainingProgram& program;
  bool executable = false;
  bool training = true;
  /// Per-task dispatch-cost estimate feeding TaskCoarsening (ns).
  std::uint64_t dispatch_ns = 300;
  PassReport* report = nullptr;
  /// A pass may leave a human-readable note here; the pipeline moves it
  /// into its PassReport entry after the pass returns.
  std::string last_detail;
};

/// Forward-cell GEMM launch count under the given rewrite flags. LSTM is
/// built wide (one input + one recurrent GEMM); GRU starts at 4 because the
/// candidate block's recurrent GEMM needs r⊙h_prev. Precompute replaces the
/// whole input side with a row copy.
inline int cell_forward_gemms(bool lstm, bool fuse_gates, bool precomputed) {
  if (precomputed) return lstm ? 1 : 2;
  if (lstm) return 2;
  return fuse_gates ? 3 : 4;
}

class GraphPass {
 public:
  virtual ~GraphPass() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Rewrites `ops` in place; returns the number of rewrites applied.
  virtual std::size_t run(OpList& ops, PassContext& ctx) = 0;
};

class PassPipeline {
 public:
  void add(std::unique_ptr<GraphPass> pass) {
    passes_.push_back(std::move(pass));
  }
  [[nodiscard]] bool empty() const { return passes_.empty(); }
  [[nodiscard]] std::string signature() const;
  /// Runs every pass in order; appends one PassReport entry per pass when
  /// ctx.report is set.
  void run(OpList& ops, PassContext& ctx) const;

 private:
  std::vector<std::unique_ptr<GraphPass>> passes_;
};

}  // namespace bpar::graph::passes
