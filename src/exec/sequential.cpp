#include "exec/sequential.hpp"

#include "exec/reference_pass.hpp"
#include "perf/timer.hpp"
#include "util/check.hpp"
#include "obs/trace.hpp"

namespace bpar::exec {

SequentialExecutor::SequentialExecutor(rnn::Network& net) : net_(net) {
  ws_ = std::make_unique<rnn::Workspace>(net_.config(),
                                         net_.config().batch_size);
  grads_.init_like(net_);
}

StepResult SequentialExecutor::train_batch(const rnn::BatchData& batch) {
  BPAR_SPAN("exec.sequential.train_batch");
  const auto& cfg = net_.config();
  batch.validate(cfg.input_size, cfg.seq_length);
  BPAR_CHECK(batch.batch() == cfg.batch_size, "batch size mismatch");
  perf::WallTimer timer;
  ws_->zero_backward();
  StepResult result;
  result.loss = forward_pass(net_, *ws_, batch, 0, batch.batch());
  backward_pass(net_, *ws_, batch, 0, batch.batch(), grads_);
  result.wall_ms = timer.elapsed_ms();
  return result;
}

InferResult SequentialExecutor::infer(const rnn::BatchData& batch,
                                      const InferOptions& options) {
  BPAR_SPAN("exec.sequential.infer");
  const auto& cfg = net_.config();
  batch.validate(cfg.input_size, cfg.seq_length);
  BPAR_CHECK(batch.batch() == cfg.batch_size, "batch size mismatch");
  perf::WallTimer timer;
  InferResult result;
  result.loss = forward_pass(net_, *ws_, batch, 0, batch.batch());
  init_infer_outputs(*ws_, batch.batch(), options.want_logits, result);
  extract_infer_outputs(*ws_, 0, result);
  result.wall_ms = timer.elapsed_ms();
  return result;
}

}  // namespace bpar::exec
