// Network/workspace tests, including parameter-count validation against the
// numbers the paper reports in Tables III and IV.
#include <gtest/gtest.h>

#include <sstream>

#include "rnn/flops.hpp"
#include "rnn/network.hpp"

namespace bpar::rnn {
namespace {

NetworkConfig table_config(CellType cell, int input, int hidden) {
  // Tables III/IV use 6-layer deep BRNNs. The paper's parameter counts
  // (e.g. 6.3M for input 256 / hidden 256 BLSTM) imply deeper layers see an
  // H-wide merged input, i.e. a sum/average-style merge.
  NetworkConfig cfg;
  cfg.cell = cell;
  cfg.merge = MergeOp::kSum;
  cfg.input_size = input;
  cfg.hidden_size = hidden;
  cfg.num_layers = 6;
  cfg.seq_length = 4;   // irrelevant for parameter count
  cfg.batch_size = 2;
  cfg.num_classes = 11;
  return cfg;
}

TEST(ParamCount, MatchesTableIIIBlstm) {
  // Paper Table III: 6-layer BLSTM parameter counts (in millions).
  struct Row {
    int input;
    int hidden;
    double expected_m;
  };
  for (const Row row : {Row{64, 256, 5.9}, Row{256, 256, 6.3},
                        Row{1024, 256, 7.8}, Row{64, 1024, 92.8},
                        Row{256, 1024, 94.4}, Row{1024, 1024, 100.7}}) {
    const Network net(table_config(CellType::kLstm, row.input, row.hidden),
                      /*allocate_weights=*/false);
    const double millions =
        static_cast<double>(net.param_count()) / 1e6;
    EXPECT_NEAR(millions, row.expected_m, row.expected_m * 0.02)
        << "input " << row.input << " hidden " << row.hidden;
  }
}

TEST(ParamCount, MatchesTableIVBgru) {
  struct Row {
    int input;
    int hidden;
    double expected_m;
  };
  for (const Row row : {Row{64, 256, 4.4}, Row{256, 256, 4.7},
                        Row{1024, 256, 5.9}, Row{64, 1024, 69.6},
                        Row{256, 1024, 70.8}, Row{1024, 1024, 75.5}}) {
    const Network net(table_config(CellType::kGru, row.input, row.hidden),
                      /*allocate_weights=*/false);
    const double millions =
        static_cast<double>(net.param_count()) / 1e6;
    EXPECT_NEAR(millions, row.expected_m, row.expected_m * 0.02)
        << "input " << row.input << " hidden " << row.hidden;
  }
}

// The table cases count shape-only networks; at a small shape the count
// equals an allocated network's, and the elements of its weight buffers.
TEST(ParamCount, ShapeOnlyMatchesAllocatedBuffers) {
  const auto elements = [](const tensor::Matrix& m) {
    return static_cast<std::size_t>(m.rows()) *
           static_cast<std::size_t>(m.cols());
  };
  for (const CellType cell : {CellType::kLstm, CellType::kGru}) {
    const NetworkConfig cfg = table_config(cell, 5, 7);
    const Network net(cfg);
    std::size_t allocated = elements(net.w_out) + elements(net.b_out);
    for (int dir = 0; dir < 2; ++dir) {
      for (int l = 0; l < cfg.num_layers; ++l) {
        allocated += elements(net.layer(dir, l).w) +
                     elements(net.layer(dir, l).b);
      }
    }
    const Network shapes(cfg, /*allocate_weights=*/false);
    EXPECT_EQ(shapes.param_count(), net.param_count());
    EXPECT_EQ(shapes.param_count(), allocated);
  }
}

TEST(Network, LayerInputWidths) {
  NetworkConfig cfg = table_config(CellType::kLstm, 64, 256);
  cfg.merge = MergeOp::kConcat;
  EXPECT_EQ(cfg.layer_input_size(0), 64);
  EXPECT_EQ(cfg.layer_input_size(1), 512);  // concat of two 256s
  cfg.merge = MergeOp::kSum;
  EXPECT_EQ(cfg.layer_input_size(1), 256);
}

TEST(Network, SameSeedSameWeights) {
  const NetworkConfig cfg = table_config(CellType::kGru, 8, 8);
  Network a(cfg);
  Network b(cfg);
  EXPECT_TRUE(tensor::allclose(a.layer(0, 0).w.cview(),
                               b.layer(0, 0).w.cview(), 0.0F, 0.0F));
  EXPECT_TRUE(tensor::allclose(a.layer(1, 3).w.cview(),
                               b.layer(1, 3).w.cview(), 0.0F, 0.0F));
}

TEST(Network, DirectionsGetDistinctWeights) {
  const NetworkConfig cfg = table_config(CellType::kLstm, 8, 8);
  Network net(cfg);
  EXPECT_FALSE(tensor::allclose(net.layer(0, 0).w.cview(),
                                net.layer(1, 0).w.cview(), 1e-6F, 0.0F));
}

/// Reads a saved weight stream back with tensor::read_matrix: each gate
/// matrix is the gate-major [gates*H, in + H] record with (g, k) = w(k, g),
/// whatever layout the network holds in memory.
void expect_gate_major_file(const Network& net, std::istream& is) {
  char magic[8] = {};
  is.read(magic, sizeof magic);
  for (int dir = 0; dir < 2; ++dir) {
    for (int l = 0; l < net.config().num_layers; ++l) {
      const LayerParams& p = net.layer(dir, l);
      const int gate_rows = p.gates() * p.hidden_size;
      const int k_cols = p.input_size + p.hidden_size;
      tensor::Matrix w(gate_rows, k_cols);
      tensor::read_matrix(is, w);
      int mismatches = 0;
      for (int g = 0; g < gate_rows; ++g) {
        for (int k = 0; k < k_cols; ++k) {
          if (w.at(g, k) != p.w.at(k, g)) ++mismatches;
        }
      }
      EXPECT_EQ(mismatches, 0) << "dir " << dir << " layer " << l;
      tensor::Matrix b(1, gate_rows);
      tensor::read_matrix(is, b);
      EXPECT_TRUE(tensor::allclose(b.cview(), p.b.cview(), 0.0F, 0.0F));
    }
  }
  tensor::Matrix w_out(net.w_out.rows(), net.w_out.cols());
  tensor::read_matrix(is, w_out);
  EXPECT_TRUE(tensor::allclose(w_out.cview(), net.w_out.cview(), 0.0F, 0.0F));
}

TEST(Network, SaveLoadRoundTripExactly) {
  // A BGRU with concat merge has square upper layers (in + H = 3H =
  // gates*H), where read_matrix's shape check cannot tell a transposed
  // record from the right one.
  NetworkConfig bgru = table_config(CellType::kGru, 8, 8);
  bgru.merge = MergeOp::kConcat;
  for (const NetworkConfig& cfg :
       {table_config(CellType::kLstm, 8, 8), bgru}) {
    Network a(cfg);
    std::stringstream buffer;
    a.save(buffer);
    NetworkConfig cfg2 = cfg;
    cfg2.seed = 4242;
    Network b(cfg2);
    EXPECT_FALSE(
        tensor::allclose(a.w_out.cview(), b.w_out.cview(), 1e-6F, 0.0F));
    b.load(buffer);
    EXPECT_TRUE(tensor::allclose(a.w_out.cview(), b.w_out.cview(), 0.0F, 0.0F));
    for (int dir = 0; dir < 2; ++dir) {
      for (int l = 0; l < cfg.num_layers; ++l) {
        EXPECT_TRUE(tensor::allclose(a.layer(dir, l).w.cview(),
                                     b.layer(dir, l).w.cview(), 0.0F, 0.0F))
            << "dir " << dir << " layer " << l;
      }
    }
    std::stringstream saved;
    a.save(saved);
    expect_gate_major_file(a, saved);
  }
}

TEST(Network, LoadRejectsGarbage) {
  const NetworkConfig cfg = table_config(CellType::kLstm, 8, 8);
  Network net(cfg);
  std::stringstream buffer("not a weight file at all");
  EXPECT_DEATH(net.load(buffer), "not a B-Par weight file");
}

TEST(Workspace, ShapesFollowConfig) {
  NetworkConfig cfg = table_config(CellType::kLstm, 16, 8);
  cfg.merge = MergeOp::kConcat;
  cfg.seq_length = 5;
  cfg.many_to_many = false;
  Workspace ws(cfg, 3);
  EXPECT_EQ(ws.batch(), 3);
  EXPECT_EQ(ws.tape(0, 0, 0).gates.cols, 32);  // 4 * hidden
  EXPECT_EQ(ws.tape(0, 0, 0).gates.rows, 3);   // one timestep's rows
  EXPECT_EQ(ws.tape_slab(0, 0).gates.rows, 15);  // T·B rows per chain
  EXPECT_EQ(ws.merged(0, 4).cols, 16);         // concat = 2 * hidden
  EXPECT_EQ(ws.final_merged.rows(), 3);
  EXPECT_EQ(ws.num_outputs(), 1);
  EXPECT_EQ(ws.logits(0).cols(), cfg.num_classes);
}

TEST(Workspace, ManyToManyAllocatesPerStepOutputs) {
  NetworkConfig cfg = table_config(CellType::kGru, 16, 8);
  cfg.seq_length = 5;
  cfg.many_to_many = true;
  Workspace ws(cfg, 2);
  EXPECT_EQ(ws.num_outputs(), 5);
  EXPECT_EQ(ws.merged(cfg.num_layers - 1, 4).rows, 2);
  EXPECT_EQ(ws.final_merged.count(), 0U);  // unused for many-to-many
}

TEST(Workspace, ZeroBackwardClearsAccumulators) {
  NetworkConfig cfg = table_config(CellType::kLstm, 8, 8);
  Workspace ws(cfg, 2);
  ws.dh(0, 0, 0).at(0, 0) = 5.0F;
  ws.dh(1, 1, 2).at(1, 3) = 4.0F;
  ws.zero_backward();
  EXPECT_EQ(ws.dh(0, 0, 0).at(0, 0), 0.0F);
  EXPECT_EQ(ws.dh(1, 1, 2).at(1, 3), 0.0F);
}

// Per-timestep accessors are row blocks of the slabs, in input-time order:
// reverse processing step k is row block T-1-k, as is its input.
TEST(Workspace, TimestepsAreRowBlocksInInputOrder) {
  NetworkConfig cfg = table_config(CellType::kGru, 8, 8);
  cfg.seq_length = 5;
  Workspace ws(cfg, 3);
  const int last = cfg.seq_length - 1;
  EXPECT_EQ(ws.tape(0, 1, 0).h.data, ws.tape_slab(0, 1).h.data);
  EXPECT_EQ(ws.tape(1, 1, last).h.data, ws.tape_slab(1, 1).h.data);
  EXPECT_EQ(ws.tape(1, 1, 0).h.data,
            ws.tape_slab(1, 1).h.data + static_cast<std::ptrdiff_t>(last) *
                                            3 * cfg.hidden_size);
  EXPECT_EQ(ws.layer_input(1, 2).data, ws.merged(0, 2).data);
  EXPECT_EQ(ws.merged(0, 2).data,
            ws.merged_slab(0).data + 2 * 3 * cfg.merged_size());
}

TEST(Workspace, InferenceHoldsNoBackwardBuffers) {
  NetworkConfig cfg = table_config(CellType::kLstm, 8, 8);
  cfg.many_to_many = true;
  const Workspace infer(cfg, 4, /*training=*/false);
  EXPECT_EQ(infer.backward_bytes(), 0U);
  const Workspace train(cfg, 4);
  EXPECT_GT(train.backward_bytes(), 0U);
}

TEST(NetworkGrads, AccumulateAndScale) {
  const NetworkConfig cfg = table_config(CellType::kGru, 8, 8);
  Network net(cfg);
  NetworkGrads a;
  NetworkGrads b;
  a.init_like(net);
  b.init_like(net);
  a.layers[0][0].dw.at(0, 0) = 2.0F;
  b.layers[0][0].dw.at(0, 0) = 3.0F;
  a.accumulate(b);
  EXPECT_EQ(a.layers[0][0].dw.at(0, 0), 5.0F);
  a.scale(0.5F);
  EXPECT_EQ(a.layers[0][0].dw.at(0, 0), 2.5F);
  EXPECT_NEAR(a.l2_norm(), 2.5, 1e-6);
}

TEST(Flops, FormulasScaleAsExpected) {
  // LSTM has 4 gates, GRU 3 → 4:3 flop ratio at the same shape.
  const double lstm = cell_forward_flops(CellType::kLstm, 8, 16, 32);
  const double gru = cell_forward_flops(CellType::kGru, 8, 16, 32);
  EXPECT_NEAR(lstm / gru, 4.0 / 3.0, 0.05);
  // BackwardData ≈ forward; with one chain's BackwardWeights, the backward
  // pass ≈ 2x forward (the first step has no h_prev, so slightly less).
  EXPECT_NEAR(cell_backward_flops(CellType::kLstm, 8, 16, 32) / lstm, 1.0,
              1e-9);
  const int steps = 50;
  const double chain =
      steps * cell_backward_flops(CellType::kLstm, 8, 16, 32) +
      chain_weight_grad_flops(CellType::kLstm, 8, 16, 32, steps);
  EXPECT_NEAR(chain / (steps * lstm), 2.0, 0.05);
  // Training ≈ 3x inference.
  NetworkConfig cfg = table_config(CellType::kLstm, 64, 128);
  EXPECT_NEAR(network_training_flops(cfg) / network_inference_flops(cfg), 3.0,
              1e-9);
}

TEST(Flops, PaperTaskWorkingSetIsPlausible) {
  // §IV-B: an LSTM cell task at Seq=100, Batch=128, Input=64, Hidden=512
  // has a ~4.71 MB working set. Our accounting should be the same order.
  const std::size_t bytes =
      cell_working_set_bytes(CellType::kLstm, 128, 64, 512);
  EXPECT_GT(bytes, 3U << 20);
  EXPECT_LT(bytes, 8U << 20);
}

TEST(ConfigValidation, RejectsNonPositiveDimensions) {
  NetworkConfig cfg = table_config(CellType::kLstm, 8, 8);
  cfg.hidden_size = 0;
  EXPECT_DEATH(cfg.validate(), "hidden_size");
}

}  // namespace
}  // namespace bpar::rnn
