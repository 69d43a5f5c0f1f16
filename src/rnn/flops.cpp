#include "rnn/flops.hpp"

namespace bpar::rnn {

double cell_forward_flops(CellType cell, int batch, int input, int hidden) {
  const double gemm = 2.0 * batch * gate_count(cell) * hidden *
                      (static_cast<double>(input) + hidden);
  const double elementwise = 10.0 * batch * static_cast<double>(hidden);
  return gemm + elementwise;
}

double cell_backward_flops(CellType cell, int batch, int input, int hidden,
                           bool input_grads) {
  // dh_prev (and dx) against the gate-major copy: the forward GEMM's size
  // without the input half when no input gradient is wanted.
  return cell_forward_flops(cell, batch, input_grads ? input : 0, hidden);
}

double chain_weight_grad_flops(CellType cell, int batch, int input,
                               int hidden, int steps) {
  const double gh = static_cast<double>(gate_count(cell)) * hidden;
  const double rows = static_cast<double>(steps) * batch;
  const double prev_rows = static_cast<double>(steps - 1) * batch;
  // GRU's candidate block multiplies r ⊙ h_prev on every step.
  const double recurrent =
      cell == CellType::kGru
          ? 2.0 * hidden * (prev_rows * 2.0 * hidden + rows * hidden)
          : 2.0 * hidden * prev_rows * gh;
  return 2.0 * rows * input * gh + recurrent + rows * gh;
}

std::size_t chain_weight_grad_bytes(CellType cell, int batch, int input,
                                    int hidden, int steps) {
  const std::size_t gh = static_cast<std::size_t>(gate_count(cell)) * hidden;
  const std::size_t rows = static_cast<std::size_t>(steps) * batch;
  const std::size_t state_cols =
      static_cast<std::size_t>(cell == CellType::kGru ? 2 : 1) * hidden;
  const std::size_t slabs =
      rows * (static_cast<std::size_t>(input) + gh + state_cols);
  const std::size_t weights =
      (static_cast<std::size_t>(input) + hidden + 1U) * gh;
  return (slabs + weights) * sizeof(float);
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
  return 2.0 * batch * static_cast<double>(in) * classes;
}

double dense_weight_grad_flops(int rows, int in, int classes) {
  return 2.0 * rows * static_cast<double>(in) * classes +
         static_cast<double>(rows) * classes;
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
