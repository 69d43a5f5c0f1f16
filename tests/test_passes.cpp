// Graph-optimizer pass pipeline suite (DESIGN.md §5k).
//
// Three layers of coverage: the registry/spec-string contract (parse,
// env override, unknown-name fallback), structural effects of each pass on
// the task graph (fused kinds, hoisted precompute GEMMs, coarsened chains,
// deprecated-boolean shims), and — the load-bearing part — bit-exactness:
// the default pipeline must produce the same losses, gradients, logits,
// and predictions as the unoptimized graph for LSTM and GRU, training and
// inference, including the serving engine's cached replays.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "exec/bpar_executor.hpp"
#include "graph/brnn_graph.hpp"
#include "graph/passes/registry.hpp"
#include "rnn/network.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"
#include "util/rng.hpp"

namespace bpar {
namespace {

using exec::BParExecutor;
using graph::BuildOptions;
using graph::TrainingProgram;
using rnn::BatchData;
using rnn::CellType;
using rnn::NetworkConfig;
using taskrt::TaskKind;

NetworkConfig odd_config(CellType cell, int layers = 2, int seq = 7,
                         int batch = 5, bool m2m = false) {
  NetworkConfig cfg;
  cfg.cell = cell;
  cfg.input_size = 5;
  cfg.hidden_size = 7;
  cfg.num_layers = layers;
  cfg.seq_length = seq;
  cfg.batch_size = batch;
  cfg.num_classes = 6;
  cfg.many_to_many = m2m;
  cfg.seed = 4242;
  return cfg;
}

BatchData make_batch(const NetworkConfig& cfg, std::uint64_t seed) {
  util::Rng rng(seed);
  BatchData batch;
  batch.x.resize(static_cast<std::size_t>(cfg.seq_length));
  for (auto& m : batch.x) {
    m.resize(cfg.batch_size, cfg.input_size);
    tensor::fill_uniform(m.view(), rng, -1.0F, 1.0F);
  }
  const int labels = cfg.many_to_many ? cfg.seq_length * cfg.batch_size
                                      : cfg.batch_size;
  batch.labels.resize(static_cast<std::size_t>(labels));
  for (auto& l : batch.labels) {
    l = static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(cfg.num_classes)));
  }
  return batch;
}

std::size_t count_kind(const taskrt::TaskGraph& g, TaskKind kind) {
  std::size_t n = 0;
  for (taskrt::TaskId id = 0; id < g.size(); ++id) {
    if (g.task(id).spec.kind == kind) ++n;
  }
  return n;
}

// ---------------------------------------------------------------- registry

TEST(PassRegistry, ParseSpec) {
  namespace gp = graph::passes;
  EXPECT_TRUE(gp::parse_pass_spec("").empty());
  EXPECT_TRUE(gp::parse_pass_spec("none").empty());
  EXPECT_TRUE(gp::parse_pass_spec("off").empty());

  const auto def = gp::parse_pass_spec("default");
  ASSERT_EQ(def.size(), 3U);
  EXPECT_EQ(def[0].name, "gate_fusion");
  EXPECT_EQ(def[1].name, "input_precompute");
  EXPECT_EQ(def[2].name, "coarsen");

  const auto with_param = gp::parse_pass_spec("coarsen:1500,gate_fusion");
  ASSERT_EQ(with_param.size(), 2U);
  EXPECT_EQ(with_param[0].name, "coarsen");
  EXPECT_EQ(with_param[0].param, "1500");
  EXPECT_EQ(with_param[1].name, "gate_fusion");
  EXPECT_TRUE(with_param[1].param.empty());
}

TEST(PassRegistry, KnownPassesCoverBuiltins) {
  const auto names = graph::passes::known_passes();
  auto has = [&](const char* name) {
    for (const auto& n : names) {
      if (n == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("gate_fusion"));
  EXPECT_TRUE(has("input_precompute"));
  EXPECT_TRUE(has("coarsen"));
  EXPECT_EQ(graph::passes::make_pass({"no_such_pass", ""}), nullptr);
}

TEST(PassRegistry, EffectiveSpecResolution) {
  namespace gp = graph::passes;
  ::unsetenv("BPAR_GRAPH_PASSES");
  EXPECT_EQ(gp::effective_pass_spec("none"), "");
  EXPECT_EQ(gp::effective_pass_spec("off"), "");
  EXPECT_EQ(gp::effective_pass_spec("default"),
            std::string(gp::kDefaultPassSpec));
  EXPECT_EQ(gp::effective_pass_spec("gate_fusion"), "gate_fusion");
  // Unknown names warn (once, stderr) and fall back to the default.
  EXPECT_EQ(gp::effective_pass_spec("gate_confusion"),
            std::string(gp::kDefaultPassSpec));
}

TEST(PassRegistry, EnvOverridesDefaultOnly) {
  namespace gp = graph::passes;
  ::setenv("BPAR_GRAPH_PASSES", "gate_fusion", 1);
  EXPECT_EQ(gp::effective_pass_spec("default"), "gate_fusion");
  EXPECT_EQ(gp::effective_pass_spec(""), "gate_fusion");
  // An explicit request beats the env var.
  EXPECT_EQ(gp::effective_pass_spec("coarsen"), "coarsen");
  ::setenv("BPAR_GRAPH_PASSES", "none", 1);
  EXPECT_EQ(gp::effective_pass_spec("default"), "");
  ::unsetenv("BPAR_GRAPH_PASSES");
}

// --------------------------------------------------------------- structure

TEST(PassStructure, GateFusionRewritesGruCells) {
  const NetworkConfig cfg = odd_config(CellType::kGru);
  rnn::Network net(cfg);
  BuildOptions off;
  TrainingProgram base(net, cfg.batch_size, off);
  BuildOptions on;
  on.passes = "gate_fusion";
  TrainingProgram fused(net, cfg.batch_size, on);

  const std::size_t cells = count_kind(base.graph(), TaskKind::kCellForward);
  ASSERT_GT(cells, 0U);
  // Every forward cell is rewritten wide; the graph shape is untouched.
  EXPECT_EQ(count_kind(fused.graph(), TaskKind::kCellForwardFused), cells);
  EXPECT_EQ(count_kind(fused.graph(), TaskKind::kCellForward), 0U);
  EXPECT_EQ(fused.graph().size(), base.graph().size());
  EXPECT_EQ(fused.graph().edge_count(), base.graph().edge_count());
  // GRU: the z,r and h̄ input GEMMs collapse into one 3H-wide launch.
  EXPECT_EQ(fused.gemm_launches(), base.gemm_launches() - cells);
}

TEST(PassStructure, GateFusionKeepsLstmLaunchCount) {
  const NetworkConfig cfg = odd_config(CellType::kLstm);
  rnn::Network net(cfg);
  TrainingProgram base(net, cfg.batch_size, {});
  BuildOptions on;
  on.passes = "gate_fusion";
  TrainingProgram fused(net, cfg.batch_size, on);
  // LSTM input GEMMs are already 4H-wide; the pass only marks the kind.
  EXPECT_EQ(fused.gemm_launches(), base.gemm_launches());
  EXPECT_GT(count_kind(fused.graph(), TaskKind::kCellForwardFused), 0U);
}

TEST(PassStructure, InputPrecomputeHoistsLayerZeroGemms) {
  const NetworkConfig cfg = odd_config(CellType::kLstm, 3, 9, 4);
  rnn::Network net(cfg);
  TrainingProgram base(net, cfg.batch_size, {});
  BuildOptions on;
  on.passes = "input_precompute";
  TrainingProgram hoisted(net, cfg.batch_size, on);

  EXPECT_GT(count_kind(hoisted.graph(), TaskKind::kInputPrecompute), 0U);
  EXPECT_GT(hoisted.graph().size(), base.graph().size());
  // Layer 0's per-timestep input GEMMs leave the cells; the chunked
  // sequence-wide GEMMs add back fewer launches than they remove.
  EXPECT_LT(hoisted.gemm_launches(), base.gemm_launches());
  EXPECT_EQ(hoisted.pass_signature(), "input_precompute");
  ASSERT_EQ(hoisted.pass_report().entries.size(), 1U);
  EXPECT_GT(hoisted.pass_report().entries[0].rewrites, 0U);
}

TEST(PassStructure, CoarseningMergesTinyAdjacentOps) {
  const NetworkConfig cfg = odd_config(CellType::kLstm, 2, 3, 4);
  rnn::Network net(cfg);
  TrainingProgram base(net, cfg.batch_size, {});
  BuildOptions on;
  on.passes = "coarsen:1000000000";  // everything counts as tiny
  TrainingProgram coarse(net, cfg.batch_size, on);
  EXPECT_LT(coarse.graph().size(), base.graph().size());
  EXPECT_GT(count_kind(coarse.graph(), TaskKind::kCoarsened), 0U);
}

TEST(PassStructure, ExecutorEnvVarSelectsPipeline) {
  const NetworkConfig cfg = odd_config(CellType::kLstm, 2, 4, 4);
  const BatchData batch = make_batch(cfg, 31);
  ::setenv("BPAR_GRAPH_PASSES", "gate_fusion", 1);
  rnn::Network net(cfg);
  BParExecutor bpar(net, {.common = {.num_workers = 2}});
  // The executor resolves the spec once, in its constructor: clearing the
  // env var afterwards changes nothing for the programs it builds.
  ::unsetenv("BPAR_GRAPH_PASSES");
  bpar.train_batch(batch);
  EXPECT_EQ(bpar.train_program().pass_signature(), "gate_fusion");
}

// -------------------------------------------------------------- bit-exact

void expect_grads_equal(rnn::NetworkGrads& a, rnn::NetworkGrads& b,
                        const NetworkConfig& cfg) {
  for (int dir = 0; dir < 2; ++dir) {
    for (int l = 0; l < cfg.num_layers; ++l) {
      const auto& ga = a.layers[dir][static_cast<std::size_t>(l)];
      const auto& gb = b.layers[dir][static_cast<std::size_t>(l)];
      EXPECT_EQ(tensor::max_abs_diff(ga.dw.cview(), gb.dw.cview()), 0.0F)
          << "dW dir " << dir << " layer " << l;
      EXPECT_EQ(tensor::max_abs_diff(ga.db.cview(), gb.db.cview()), 0.0F)
          << "db dir " << dir << " layer " << l;
    }
  }
  EXPECT_EQ(tensor::max_abs_diff(a.dw_out.cview(), b.dw_out.cview()), 0.0F);
  EXPECT_EQ(tensor::max_abs_diff(a.db_out.cview(), b.db_out.cview()), 0.0F);
}

struct ParityCase {
  std::string tag;
  NetworkConfig cfg;
};

class PassParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(PassParity, TrainingIsBitExact) {
  const NetworkConfig& cfg = GetParam().cfg;
  const BatchData batch = make_batch(cfg, 555);

  rnn::Network ref_net(cfg);
  BParExecutor ref(ref_net,
                   {.common = {.num_workers = 4, .num_replicas = 2},
                    .passes = "none"});
  const double ref_loss = ref.train_batch(batch).loss;
  EXPECT_EQ(ref.train_program().pass_signature(), "none");

  rnn::Network net(cfg);
  BParExecutor opt(net, {.common = {.num_workers = 4, .num_replicas = 2},
                         .passes = "default"});
  const double opt_loss = opt.train_batch(batch).loss;
  EXPECT_EQ(opt_loss, ref_loss);
  expect_grads_equal(opt.grads(), ref.grads(), cfg);
}

TEST_P(PassParity, InferenceFp32IsBitExact) {
  const NetworkConfig& cfg = GetParam().cfg;
  const BatchData batch = make_batch(cfg, 666);

  rnn::Network ref_net(cfg);
  BParExecutor ref(ref_net,
                   {.common = {.num_workers = 4, .num_replicas = 2},
                    .passes = "none"});
  const auto ref_result = ref.infer(batch, {.want_logits = true});

  rnn::Network net(cfg);
  BParExecutor opt(net, {.common = {.num_workers = 4, .num_replicas = 2},
                         .passes = "default"});
  const auto result = opt.infer(batch, {.want_logits = true});
  EXPECT_EQ(result.loss, ref_result.loss);
  EXPECT_EQ(result.predictions, ref_result.predictions);
  EXPECT_EQ(result.logits, ref_result.logits);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PassParity,
    ::testing::Values(
        ParityCase{"lstm_L2_T7_B5", odd_config(CellType::kLstm, 2, 7, 5)},
        ParityCase{"gru_L2_T7_B5", odd_config(CellType::kGru, 2, 7, 5)},
        ParityCase{"lstm_m2m_L3_T5_B3",
                   odd_config(CellType::kLstm, 3, 5, 3, true)},
        ParityCase{"gru_m2m_L3_T5_B3",
                   odd_config(CellType::kGru, 3, 5, 3, true)},
        ParityCase{"lstm_T1_B1", odd_config(CellType::kLstm, 1, 1, 1)},
        ParityCase{"gru_L4_T3_B7", odd_config(CellType::kGru, 4, 3, 7)}),
    [](const auto& param_info) { return param_info.param.tag; });

TEST(PassServeParity, CachedReplaysMatchUnoptimizedEngine) {
  rnn::NetworkConfig cfg;
  cfg.cell = rnn::CellType::kGru;
  cfg.input_size = 5;
  cfg.hidden_size = 8;
  cfg.num_layers = 2;
  cfg.seq_length = 6;
  cfg.batch_size = 4;
  cfg.num_classes = 4;

  serve::EngineOptions ref_options;
  ref_options.executor.num_workers = 2;
  ref_options.executor.num_replicas = 2;
  ref_options.max_batch = 4;
  ref_options.shed_wait_us = 10'000'000;
  ref_options.passes = "none";
  serve::EngineOptions opt_options = ref_options;
  opt_options.passes = "default";

  // Same config seed → identical weights in both engines.
  serve::InferenceEngine ref(cfg, ref_options);
  serve::InferenceEngine opt(cfg, opt_options);

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    serve::Request request =
        serve::make_request(cfg, cfg.seq_length, seed, /*with_labels=*/true);
    request.want_logits = true;
    const serve::Response a = ref.infer(request);
    // Replay twice so the second optimized call runs the cached program.
    serve::Response b = opt.infer(request);
    b = opt.infer(request);
    ASSERT_EQ(a.status, serve::Status::kOk);
    ASSERT_EQ(b.status, serve::Status::kOk);
    EXPECT_EQ(b.predictions, a.predictions) << "seed " << seed;
    EXPECT_EQ(b.logits, a.logits) << "seed " << seed;
    EXPECT_EQ(b.loss, a.loss) << "seed " << seed;
  }
}

}  // namespace
}  // namespace bpar
