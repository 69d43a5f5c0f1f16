// Task-graph construction for BRNN training and inference — the C++
// realization of the paper's Algorithms 1-3, plus the pass-pipeline
// optimizer layered on top (DESIGN.md §5k).
//
// A `TrainingProgram` owns every buffer a batch pass touches (input copies,
// per-replica workspaces and gradients, the master gradients) and a
// TaskGraph whose tasks reference those buffers. Dependencies are declared
// through buffer addresses exactly like OmpSs `in`/`out` clauses:
//
//   * forward-order cell (l, t):  in(h of (l, t-1), layer input)
//                                 out(h of (l, t))
//   * reverse-order cell (l, k):  mirrored over processing steps
//   * merge (l, t):               in(h_fwd, h_rev) out(merged(l, t))
//   * cell backward:              in(dh, dc, forward tape) inout(layer
//                                 grads, dh of predecessor, dmerged below)
//   * gradient reduction:         in(all replica grads) inout(master)
//
// Construction happens in three stages: build() emits an intermediate op
// list (closures + access lists + specs, forward cells as rewritable
// descriptors), the `BuildOptions::passes` pipeline rewrites that list, and
// lower() resolves the surviving ops into the TaskGraph. With an empty pass
// spec (the default here) the graph is the faithful per-cell-per-timestep
// form the paper describes; executors opt into the optimizer pipeline.
//
// Baseline schedules (per-layer barriers, sequential directions, fused
// merge, B-Seq replica chains) are selected with
// `BuildOptions::schedule_profile` and add only constraints to the same
// ops, so one program both runs and feeds the simulator; see
// exec/baseline_profiles.hpp.
//
// The same program can be re-run for many batches: `load_batch` copies new
// data into the stable input buffers and `prepare` clears accumulators, so
// the graph (built once) stays valid.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "graph/passes/pass.hpp"
#include "rnn/batch.hpp"
#include "rnn/network.hpp"
#include "taskrt/task_graph.hpp"

namespace bpar::graph {

struct BuildOptions {
  int num_replicas = 1;   // mini-batch count (the paper's mbs:N)
  /// Override the network config's sequence length (0 = use the config's).
  /// Weights are shared across timesteps, so the same Network serves any
  /// sequence length — this is how B-Par handles variable-length batches
  /// (paper §III-B: "B-Par adjusts the computation graph dynamically").
  int seq_length_override = 0;
  bool training = true;   // false → forward + loss only
  bool executable = true; // false → shape-only graph (for the simulator)

  /// Intra-op parallelism (the Keras/PyTorch emulation): each cell becomes
  /// N tasks over batch-row slices plus a join. Backward chunks accumulate
  /// weight gradients into per-chunk scratch, which one fold task per
  /// (direction, layer) adds into the layer's gradients in chunk order.
  int intra_op_chunks = 1;

  /// Also compute ∂L/∂x (per-timestep input gradients) during backward —
  /// off by default because layer 0 then pays an extra GEMM per cell.
  bool compute_input_grads = false;

  /// Optimizer pass spec (see graph/passes/registry.hpp). "" = no passes:
  /// the faithful paper graph. Executors resolve their user-facing
  /// default ("default" / BPAR_GRAPH_PASSES) through
  /// passes::effective_pass_spec before setting this.
  std::string passes;

  /// Named schedule shape: "" or "bpar" (default — free-running task
  /// schedule), "fused_merge" (merge folded into forward cells, the
  /// ablation), "layer_barriers", "sequential", "framework" (barriers +
  /// sequential directions — the Keras/PyTorch emulation), "bseq" (each
  /// replica one serial chain — data parallelism only, the paper's B-Seq).
  std::string schedule_profile;

  /// Measured per-task dispatch cost feeding the coarsening pass's
  /// threshold (4×). Executors update this from RunStats.
  std::uint64_t dispatch_ns = 300;
};

class TrainingProgram {
 public:
  /// Builds the graph for `net` with a total batch of `total_batch` rows
  /// split across opts.num_replicas mini-batches. `net` must outlive the
  /// program; its weights are read in place on every run.
  TrainingProgram(rnn::Network& net, int total_batch, BuildOptions opts);
  ~TrainingProgram();

  /// Copies batch data into the program's stable input buffers.
  void load_batch(const rnn::BatchData& batch);

  /// Zeroes all accumulators. Call before every graph execution.
  void prepare();

  /// Effective configuration (seq length possibly overridden).
  [[nodiscard]] const rnn::NetworkConfig& config() const { return cfg_; }

  [[nodiscard]] taskrt::TaskGraph& graph() { return graph_; }
  [[nodiscard]] const taskrt::TaskGraph& graph() const { return graph_; }
  [[nodiscard]] const BuildOptions& options() const { return opts_; }

  /// Mean loss over the whole batch; valid after an executable run.
  [[nodiscard]] double loss() const { return total_loss_; }
  /// Reduced gradients; valid after an executable training run.
  [[nodiscard]] rnn::NetworkGrads& grads() { return master_grads_; }

  [[nodiscard]] int num_replicas() const { return opts_.num_replicas; }
  [[nodiscard]] rnn::Workspace& replica(int r) { return *replicas_[static_cast<std::size_t>(r)]; }
  [[nodiscard]] int replica_row_begin(int r) const { return row_begin_[static_cast<std::size_t>(r)]; }
  [[nodiscard]] int total_batch() const { return total_batch_; }

  /// Softmax probabilities of replica `r`, output index `t`.
  [[nodiscard]] const tensor::Matrix& probs(int r, int t) {
    return replica(r).probs(t);
  }

  /// What the pass pipeline rewrote (signature "none" when no passes ran).
  [[nodiscard]] const passes::PassReport& pass_report() const {
    return pass_report_;
  }
  [[nodiscard]] const std::string& pass_signature() const {
    return pass_report_.signature;
  }
  /// GEMM launches one full graph execution performs (reporting).
  [[nodiscard]] std::size_t gemm_launches() const { return gemm_launches_; }

  // ---- pass-pipeline hooks (called from src/graph/passes, not users) ----
  /// Allocates the sequence-wide input-projection buffers of layer 0 for
  /// (rep, dir) and returns the chunked GEMM ops computing them. Returns
  /// an empty list when already built for that (rep, dir).
  passes::OpList make_precompute_ops(int rep, int dir, int chunks);
  /// Dependency address of the precompute chunk covering input step `ti`.
  [[nodiscard]] const void* precompute_chunk_addr(int rep, int dir,
                                                  int ti) const;
  /// First element of the projection rows for input step `ti` (executable
  /// mode; null for shape-only graphs).
  [[nodiscard]] const float* precompute_row(int rep, int dir, int ti) const;
  [[nodiscard]] int precompute_cols(int rep, int dir) const;

 private:
  struct ReplicaCtx;  // defined in the .cpp
  struct PrecompBuf;  // defined in the .cpp

  // Schedule shape resolved from BuildOptions::schedule_profile.
  struct Schedule {
    bool per_layer_barriers = false;
    bool sequential_directions = false;
    bool fuse_merge = false;
    bool replica_chains = false;
  };

  void resolve_schedule();
  void build();
  void build_replica(int rep);
  void build_forward_layer(ReplicaCtx& ctx, int l);
  void build_backward_layer(ReplicaCtx& ctx, int l);
  void build_loss_and_dense(ReplicaCtx& ctx);
  void build_dense_backward(ReplicaCtx& ctx);
  void build_reduction();
  void run_passes();
  void lower();

  /// Appends an op to the intermediate list; ops of a "bseq" replica also
  /// join that replica's serial chain.
  void push_op(passes::Op op);
  /// Appends a closure op.
  void add_op(std::function<void()> fn, std::vector<taskrt::Access> accesses,
              taskrt::TaskSpec spec, int gemms = 0);
  /// Appends a forward-cell descriptor op (body generated at lowering).
  void add_cell_op(std::vector<taskrt::Access> accesses, taskrt::TaskSpec spec,
                   passes::CellInfo cell);
  /// Generates the row-sliceable executable body (a passes::RowsFn
  /// callable) of a (possibly rewritten) forward cell.
  [[nodiscard]] auto make_cell_fn(passes::CellInfo ci);
  /// Adds one op to the TaskGraph, split into intra-op chunks when it is
  /// chunkable and BuildOptions::intra_op_chunks > 1.
  void lower_one(passes::Op& op);
  [[nodiscard]] int replica_rows(int rep) const {
    return row_begin_[static_cast<std::size_t>(rep + 1)] -
           row_begin_[static_cast<std::size_t>(rep)];
  }

  const void* fresh_token() {
    tokens_.push_back(0);
    return &tokens_.back();
  }

  rnn::Network& net_;
  rnn::NetworkConfig cfg_;  // net_.config() with overrides applied
  BuildOptions opts_;
  Schedule sched_;
  int total_batch_;
  taskrt::TaskGraph graph_;

  std::vector<tensor::Matrix> x_;  // [T] stable input buffers, B x I
  std::vector<int> labels_;
  std::vector<std::unique_ptr<rnn::Workspace>> replicas_;
  std::vector<rnn::NetworkGrads> replica_grads_;
  std::vector<int> row_begin_;         // per replica
  std::vector<double> losses_;         // [rep * outputs + t]
  double total_loss_ = 0.0;
  rnn::NetworkGrads master_grads_;
  // Intra-op scratch weight gradients, [rep * intra_op_chunks + chunk].
  std::vector<rnn::NetworkGrads> chunk_grads_;
  std::deque<char> tokens_;  // stable synthetic dependency addresses
  // "bseq": chain token of the replica currently being built (else null).
  const void* chain_token_ = nullptr;

  // Intermediate form: filled by build(), rewritten by run_passes(),
  // consumed (and cleared) by lower().
  passes::OpList ops_;
  passes::PassReport pass_report_;
  std::size_t gemm_launches_ = 0;
  // Sequence-wide input projections, indexed rep * 2 + dir (null until the
  // precompute pass asks for them).
  std::vector<std::unique_ptr<PrecompBuf>> precomp_;

  // Shape-only mode: one synthetic-address arena per replica (the inner
  // buffers never move; only their data pointers are handed out).
  std::vector<std::vector<char>> arenas_;
  std::vector<std::size_t> grads_bases_;  // per replica, into its arena
  std::vector<std::size_t> x_bases_;      // per replica, into its arena
  // Per-layer forward barrier tokens of the replica currently being built.
  std::vector<const void*> fwd_tokens_;
};

}  // namespace bpar::graph
