// B-Par public API — the single header downstream users include.
//
// Quickstart:
//
//   #include "core/bpar.hpp"
//
//   bpar::rnn::NetworkConfig cfg;
//   cfg.cell = bpar::rnn::CellType::kLstm;
//   cfg.input_size = 64; cfg.hidden_size = 128; cfg.num_layers = 4;
//   cfg.seq_length = 50; cfg.batch_size = 32; cfg.num_classes = 11;
//
//   bpar::Model model(cfg);
//   model.select_executor(bpar::ExecutorKind::kBPar, {.num_workers = 8,
//                                                     .num_replicas = 4});
//   for (auto& batch : batches) model.train_batch(batch);
//
// See examples/ for end-to-end programs and DESIGN.md for the system map.
#pragma once

#include <memory>
#include <string>

#include "exec/bpar_executor.hpp"
#include "exec/common_options.hpp"
#include "exec/executor.hpp"
#include "exec/sequential.hpp"
#include "rnn/batch.hpp"
#include "rnn/network.hpp"
#include "train/optimizer.hpp"
#include "train/trainer.hpp"

namespace bpar {

[[nodiscard]] const char* version();

/// The named schedules. Every kind but kSequential is a BParExecutor with
/// the matching schedule profile.
enum class ExecutorKind {
  kSequential,   // single-threaded reference
  kBPar,         // barrier-free task graph (the paper's contribution)
  kBSeq,         // "bseq": data parallelism only
  kLayerBarrier  // "framework": per-layer barriers + intra-op parallelism
};

[[nodiscard]] const char* executor_kind_name(ExecutorKind kind);

/// The knobs every executor understands. This *is* exec::CommonOptions — a
/// single definition shared by all four executor kinds, so a default can
/// never silently diverge between paths (tests/test_executors.cpp asserts
/// this). exec::BParOptions embeds it as its `.common` member.
using ExecutorOptions = exec::CommonOptions;

/// Creates an executor of the given kind bound to `net`.
[[nodiscard]] std::unique_ptr<exec::Executor> make_executor(
    ExecutorKind kind, rnn::Network& net, const ExecutorOptions& options = {});

/// Convenience wrapper owning a network, an executor, and an optimizer.
class Model {
 public:
  explicit Model(const rnn::NetworkConfig& config);

  [[nodiscard]] rnn::Network& network() { return net_; }
  [[nodiscard]] const rnn::NetworkConfig& config() const {
    return net_.config();
  }

  void select_executor(ExecutorKind kind, const ExecutorOptions& options = {});
  [[nodiscard]] exec::Executor& executor();

  void set_optimizer(std::unique_ptr<train::Optimizer> optimizer);
  [[nodiscard]] train::Optimizer& optimizer();

  /// Forward + backward + optimizer step. Returns the batch loss.
  exec::StepResult train_batch(const rnn::BatchData& batch);
  /// Forward only: loss, argmax predictions, optional logits.
  exec::InferResult infer(const rnn::BatchData& batch,
                          const exec::InferOptions& options = {});

  void save(const std::string& path) const;
  void load(const std::string& path);

  /// Full training checkpoint: weights + optimizer state. Resuming from a
  /// checkpoint continues training bit-exactly (tests/test_checkpoint.cpp).
  void save_checkpoint(const std::string& path) const;
  void load_checkpoint(const std::string& path);

 private:
  rnn::Network net_;
  std::unique_ptr<exec::Executor> executor_;
  std::unique_ptr<train::Optimizer> optimizer_;
};

}  // namespace bpar
