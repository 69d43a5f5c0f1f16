// Arithmetic-work and working-set accounting per task type. These feed the
// simulator's roofline cost model and the Fig. 7 cache model.
#pragma once

#include <cstddef>

#include "rnn/network.hpp"
#include "rnn/types.hpp"

namespace bpar::rnn {

/// Flops of one cell forward update (GEMM-dominated).
[[nodiscard]] double cell_forward_flops(CellType cell, int batch, int input,
                                        int hidden);

/// Flops of one cell's BackwardData: the dG pointwise stage plus dG · Wᵀ
/// for dh_prev and, with `input_grads`, dx (≈ forward).
[[nodiscard]] double cell_backward_flops(CellType cell, int batch, int input,
                                         int hidden, bool input_grads = true);

/// Flops of one chain's BackwardWeights over `steps` timesteps: dW =
/// [X | H_prev]ᵀ · dG (the first step has no h_prev) plus db.
[[nodiscard]] double chain_weight_grad_flops(CellType cell, int batch,
                                             int input, int hidden,
                                             int steps);
/// Bytes one chain's BackwardWeights touches: its input, dG, h (and rh)
/// slabs plus dW.
[[nodiscard]] std::size_t chain_weight_grad_bytes(CellType cell, int batch,
                                                  int input, int hidden,
                                                  int steps);

/// Bytes a cell task touches: shared weights + states + tape.
[[nodiscard]] std::size_t cell_working_set_bytes(CellType cell, int batch,
                                                 int input, int hidden);

[[nodiscard]] double merge_flops(MergeOp op, int batch, int hidden);
[[nodiscard]] std::size_t merge_working_set_bytes(MergeOp op, int batch,
                                                  int hidden);

[[nodiscard]] double dense_forward_flops(int batch, int in, int classes);
/// Flops of one output's dense BackwardData, dy = dlogits · W_out.
[[nodiscard]] double dense_backward_flops(int batch, int in, int classes);
/// Flops of the dense BackwardWeights over `rows` = outputs · batch rows.
[[nodiscard]] double dense_weight_grad_flops(int rows, int in, int classes);

/// Total training flops (forward + backward) of one batch of the model.
[[nodiscard]] double network_training_flops(const NetworkConfig& cfg);
/// Total inference (forward-only) flops of one batch.
[[nodiscard]] double network_inference_flops(const NetworkConfig& cfg);

}  // namespace bpar::rnn
