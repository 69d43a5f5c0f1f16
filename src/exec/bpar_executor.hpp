// B-Par: the paper's barrier-free task-graph executor.
//
// Builds the training and inference task graphs once (paper Algorithms
// 1-3, via graph::TrainingProgram) and executes them on the OmpSs-like
// runtime for every batch. Mini-batch data parallelism composes with model
// parallelism through `num_replicas` (the paper's mbs:N).
// Batches may have any sequence length: weights are shared across
// timesteps, so the executor keeps one cached program per observed length
// and "adjusts the computation graph dynamically" (paper §III-B) by
// building a new graph the first time a length appears.
//
// The paper's baselines are schedule profiles of the same program
// (BuildOptions::schedule_profile): "bseq" chains each replica's tasks
// into one serial sequence (B-Seq), and "framework" adds per-layer
// barriers, sequential directions and intra-op row chunks sized from the
// worker count (the Keras/PyTorch CPU style).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "exec/common_options.hpp"
#include "exec/executor.hpp"
#include "graph/brnn_graph.hpp"

namespace bpar::exec {

struct BParOptions {
  /// Workers, replicas (mbs:N), policy, watchdog, faults.
  CommonOptions common{};
  bool record_trace = false;
  bool compute_input_grads = false;  // also produce per-timestep dL/dx
  /// Per-task-class hardware counters (RunStats::kind_counters); no-op
  /// when perf_event_open is unavailable.
  bool sample_counters = false;
  /// Ignored: kept only so bench/e2e, which sets it, builds unchanged.
  /// Goes with the next change to that benchmark.
  std::string passes = "none";
  /// Schedule shape forwarded to BuildOptions::schedule_profile ("" =
  /// free-running B-Par; "bseq", "framework", "fused_merge", ...).
  std::string schedule_profile{};
};

class BParExecutor final : public Executor {
 public:
  BParExecutor(rnn::Network& net, BParOptions options);
  ~BParExecutor() override;  // releases program-cache memory accounting

  StepResult train_batch(const rnn::BatchData& batch) override;
  using Executor::infer;
  InferResult infer(const rnn::BatchData& batch,
                    const InferOptions& options) override;
  /// Gradients of the most recent train_batch (which may have used a
  /// non-default sequence length).
  rnn::NetworkGrads& grads() override {
    return (last_train_ != nullptr ? *last_train_ : train_program()).grads();
  }
  /// "b-seq" / "layer-barrier" for those profiles, else "b-par".
  [[nodiscard]] const char* name() const override;

  /// Program for the config's default shape, or for the (`seq_length`,
  /// `batch_rows`) shape bucket when given (0 → the config's value); built
  /// on first use and cached forever, so repeated calls with the same shape
  /// replay the prebuilt graph instead of rebuilding it — the contract the
  /// serving engine (src/serve) relies on.
  [[nodiscard]] graph::TrainingProgram& train_program(int seq_length = 0,
                                                      int batch_rows = 0);
  [[nodiscard]] graph::TrainingProgram& infer_program(int seq_length = 0,
                                                      int batch_rows = 0);
  [[nodiscard]] taskrt::Runtime& runtime() { return runtime_; }
  /// Number of distinct (seq_length, batch) shapes with cached graphs.
  [[nodiscard]] std::size_t cached_programs(bool training) const {
    return training ? train_programs_.size() : infer_programs_.size();
  }

 private:
  // Program-cache key: (seq_length, batch_rows).
  using ShapeKey = std::pair<int, int>;
  graph::TrainingProgram& program(bool training, int seq_length,
                                  int batch_rows);

  rnn::Network& net_;
  BParOptions options_;
  taskrt::Runtime runtime_;
  std::map<ShapeKey, std::unique_ptr<graph::TrainingProgram>> train_programs_;
  std::map<ShapeKey, std::unique_ptr<graph::TrainingProgram>> infer_programs_;
  graph::TrainingProgram* last_train_ = nullptr;
};

}  // namespace bpar::exec
