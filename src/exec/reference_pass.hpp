// Plain sequential forward/backward pass over one batch slice.
//
// This is the ground-truth implementation the executors are validated
// against, and the per-replica body of B-Seq (which exploits only data
// parallelism: each mini-batch runs this code sequentially). The loop
// structure and accumulation order mirror the task creation order of
// graph::TrainingProgram exactly, so a correct task execution is bitwise
// identical to this pass.
#pragma once

#include "exec/executor.hpp"
#include "rnn/batch.hpp"
#include "rnn/network.hpp"

namespace bpar::exec {

/// Forward pass over batch rows [r0, r0+ws.batch()): copies them into the
/// workspace's input slab and fills its tapes, merges, logits and probs.
/// Returns the loss contribution already weighted for the whole batch:
/// mean-CE(rows) * rows / (total_batch * outputs) summed over outputs.
double forward_pass(const rnn::Network& net, rnn::Workspace& ws,
                    const rnn::BatchData& batch, int r0, int total_batch);

/// Backward pass matching forward_pass. Writes `grads` (weighted so that
/// summing replica grads yields the whole-batch mean gradient), running
/// rnn::chain_weight_grads after each chain as a training program's
/// weight-gradient task does. Transposes each layer's weights into a
/// gate-major copy once per call, so the backward cells run the same GEMMs
/// as in a training program. Caller must ws.zero_backward() first.
void backward_pass(const rnn::Network& net, rnn::Workspace& ws,
                   const rnn::BatchData& batch, int r0, int total_batch,
                   rnn::NetworkGrads& grads);

/// Sizes `result`'s shape fields and output buffers for a `total_batch`-row
/// batch of `ws`'s configuration (logits allocated only when requested).
void init_infer_outputs(const rnn::Workspace& ws, int total_batch,
                        bool want_logits, InferResult& result);

/// Copies the workspace's argmax predictions — and logits, when `result`
/// was initialized with them — for batch rows [r0, r0 + ws.batch()) into
/// `result`'s batch-layout buffers. Used by every executor (replicated
/// executors call it once per replica with that replica's row offset).
void extract_infer_outputs(const rnn::Workspace& ws, int r0,
                           InferResult& result);

}  // namespace bpar::exec
