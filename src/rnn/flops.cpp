#include "rnn/flops.hpp"

namespace bpar::rnn {

double cell_forward_flops(CellType cell, int batch, int input, int hidden) {
  const double gemm = 2.0 * batch * gate_count(cell) * hidden *
                      (static_cast<double>(input) + hidden);
  const double elementwise = 10.0 * batch * static_cast<double>(hidden);
  return gemm + elementwise;
}

double cell_backward_flops(CellType cell, int batch, int input, int hidden) {
  // dW (gemm_tn) + dx/dh (gemm_nt) are each the size of the forward GEMM.
  return 2.0 * cell_forward_flops(cell, batch, input, hidden);
}

std::size_t cell_working_set_bytes(CellType cell, int batch, int input,
                                   int hidden) {
  const std::size_t gates = static_cast<std::size_t>(gate_count(cell));
  const std::size_t weights =
      gates * hidden * (static_cast<std::size_t>(input) + hidden) +
      gates * hidden;
  const std::size_t states =
      static_cast<std::size_t>(batch) *
      (static_cast<std::size_t>(input) + 2U * hidden);  // x, h_prev, (c_prev|rh)
  const std::size_t tape =
      static_cast<std::size_t>(batch) *
      (gates * hidden + (cell == CellType::kLstm ? 3U : 2U) * hidden);
  return (weights + states + tape) * sizeof(float);
}

double merge_flops(MergeOp op, int batch, int hidden) {
  const double n = static_cast<double>(batch) * hidden;
  return op == MergeOp::kConcat ? n : 2.0 * n;
}

std::size_t merge_working_set_bytes(MergeOp op, int batch, int hidden) {
  const std::size_t io =
      static_cast<std::size_t>(batch) *
      (2U * static_cast<std::size_t>(hidden) +
       static_cast<std::size_t>(merge_output_size(op, hidden)));
  return io * sizeof(float);
}

double dense_forward_flops(int batch, int in, int classes) {
  return 2.0 * batch * static_cast<double>(in) * classes;
}

double dense_backward_flops(int batch, int in, int classes) {
  return 4.0 * batch * static_cast<double>(in) * classes;
}

double network_training_flops(const NetworkConfig& cfg) {
  return network_inference_flops(cfg) * 3.0;  // bwd ≈ 2x fwd
}

double network_inference_flops(const NetworkConfig& cfg) {
  double total = 0.0;
  for (int l = 0; l < cfg.num_layers; ++l) {
    total += 2.0 * cfg.seq_length *
             cell_forward_flops(cfg.cell, cfg.batch_size,
                                cfg.layer_input_size(l), cfg.hidden_size);
  }
  const int outputs = cfg.many_to_many ? cfg.seq_length : 1;
  total += outputs * dense_forward_flops(cfg.batch_size, cfg.merged_size(),
                                         cfg.num_classes);
  return total;
}

}  // namespace bpar::rnn
