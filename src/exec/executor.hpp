// Common interface of the execution strategies the paper compares:
//
//   SequentialExecutor — single-threaded reference (ground truth)
//   BParExecutor       — one task graph plus a schedule profile: the
//                        paper's barrier-free B-Par (default), B-Seq
//                        ("bseq": data parallelism only), and the
//                        Keras/PyTorch CPU style ("framework": per-layer
//                        barriers + intra-op parallelism)
//
// All executors compute identical losses and gradients for the same batch
// (up to float addition reordering, and bitwise for most pairs) — the paper
// stresses that B-Par's scheduling causes no accuracy loss.
//
// Inference contract: `infer(batch)` returns an InferResult that owns the
// argmax predictions (and, on request, the full logits) in batch layout.
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "rnn/batch.hpp"
#include "rnn/network.hpp"
#include "taskrt/runtime.hpp"

namespace bpar::exec {

struct StepResult {
  double loss = 0.0;
  double wall_ms = 0.0;
  taskrt::RunStats stats;  // populated by task-based executors
};

struct InferOptions {
  /// Also copy the raw (pre-softmax) logits of every output into
  /// InferResult::logits. Off by default — the extra outputs*batch*classes
  /// copy only matters to consumers that re-rank or re-normalize (the
  /// serving engine uses it to compute exact per-request losses under
  /// batch padding).
  bool want_logits = false;
};

/// Forward-only result. Predictions (and optional logits) are in batch
/// layout: output timestep t of sequence b lives at index t*batch + b,
/// matching BatchData's label layout. `outputs` is 1 for many-to-one
/// models and the sequence length for many-to-many.
struct InferResult {
  double loss = 0.0;     // mean cross-entropy over the whole batch
  double wall_ms = 0.0;
  taskrt::RunStats stats;  // populated by task-based executors

  int outputs = 0;
  int batch = 0;
  int num_classes = 0;
  std::vector<int> predictions;  // [outputs * batch] argmax class ids
  std::vector<float> logits;     // [outputs * batch * classes]; empty
                                 // unless InferOptions::want_logits

  [[nodiscard]] int prediction(int t, int b) const {
    return predictions[static_cast<std::size_t>(t) *
                           static_cast<std::size_t>(batch) +
                       static_cast<std::size_t>(b)];
  }
  /// NaN/Inf output guard: false when the batch loss or any returned logit
  /// is non-finite — poisoned inputs (or faulted kernels) surface here, and
  /// the serving engine treats it as an execution failure (retry/bisect).
  [[nodiscard]] bool finite() const {
    if (!std::isfinite(loss)) return false;
    for (const float v : logits) {
      if (!std::isfinite(v)) return false;
    }
    return true;
  }

  /// Logits of output t, sequence b (empty span unless requested).
  [[nodiscard]] std::span<const float> logits_row(int t, int b) const {
    if (logits.empty()) return {};
    const std::size_t row = static_cast<std::size_t>(t) *
                                static_cast<std::size_t>(batch) +
                            static_cast<std::size_t>(b);
    return std::span<const float>(logits).subspan(
        row * static_cast<std::size_t>(num_classes),
        static_cast<std::size_t>(num_classes));
  }
};

class Executor {
 public:
  virtual ~Executor() = default;

  /// Forward + backward + gradient reduction on one batch. Gradients are
  /// available via grads() afterwards; the caller applies the optimizer.
  virtual StepResult train_batch(const rnn::BatchData& batch) = 0;

  /// Forward + loss; always extracts argmax predictions (and logits when
  /// asked). This is the primary inference API.
  virtual InferResult infer(const rnn::BatchData& batch,
                            const InferOptions& options) = 0;
  InferResult infer(const rnn::BatchData& batch) {
    return infer(batch, InferOptions{});
  }

  /// Whole-batch mean gradients from the last train_batch call.
  virtual rnn::NetworkGrads& grads() = 0;

  [[nodiscard]] virtual const char* name() const = 0;
};

}  // namespace bpar::exec
