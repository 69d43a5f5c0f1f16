// Executor equivalence suite — the heart of the correctness story.
//
// The paper claims B-Par's barrier-free task scheduling causes no accuracy
// loss versus sequential execution. We verify it directly: for a sweep of
// model shapes, every executor (B-Par with various worker counts, replica
// counts, and scheduler policies, and every named schedule profile — B-Seq
// and the per-layer-barrier baseline among them) must produce the same
// loss and the same gradients as the single-threaded reference.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>

#include "core/bpar.hpp"
#include "exec/bpar_executor.hpp"
#include "exec/sequential.hpp"
#include "graph/brnn_graph.hpp"
#include "util/rng.hpp"

namespace bpar {
namespace {

using exec::BParExecutor;
using exec::SequentialExecutor;
using rnn::BatchData;
using rnn::CellType;
using rnn::MergeOp;
using rnn::NetworkConfig;

BatchData make_batch(const NetworkConfig& cfg, std::uint64_t seed) {
  util::Rng rng(seed);
  BatchData batch;
  batch.x.resize(static_cast<std::size_t>(cfg.seq_length));
  for (auto& m : batch.x) {
    m.resize(cfg.batch_size, cfg.input_size);
    tensor::fill_uniform(m.view(), rng, -1.0F, 1.0F);
  }
  const int label_count = cfg.many_to_many
                              ? cfg.seq_length * cfg.batch_size
                              : cfg.batch_size;
  batch.labels.resize(static_cast<std::size_t>(label_count));
  for (auto& l : batch.labels) {
    l = static_cast<int>(rng.uniform_index(
        static_cast<std::uint64_t>(cfg.num_classes)));
  }
  return batch;
}

void expect_grads_close(rnn::NetworkGrads& a, rnn::NetworkGrads& b,
                        const NetworkConfig& cfg, float tol) {
  for (int dir = 0; dir < 2; ++dir) {
    for (int l = 0; l < cfg.num_layers; ++l) {
      const auto& ga = a.layers[dir][static_cast<std::size_t>(l)];
      const auto& gb = b.layers[dir][static_cast<std::size_t>(l)];
      EXPECT_TRUE(tensor::allclose(ga.dw.cview(), gb.dw.cview(), tol, tol))
          << "dW mismatch dir " << dir << " layer " << l << ": "
          << tensor::max_abs_diff(ga.dw.cview(), gb.dw.cview());
      EXPECT_TRUE(tensor::allclose(ga.db.cview(), gb.db.cview(), tol, tol))
          << "db mismatch dir " << dir << " layer " << l;
    }
  }
  EXPECT_TRUE(tensor::allclose(a.dw_out.cview(), b.dw_out.cview(), tol, tol))
      << "dw_out mismatch: "
      << tensor::max_abs_diff(a.dw_out.cview(), b.dw_out.cview());
  EXPECT_TRUE(tensor::allclose(a.db_out.cview(), b.db_out.cview(), tol, tol));
}

struct EquivCase {
  std::string tag;
  NetworkConfig cfg;
};

EquivCase make_case(CellType cell, MergeOp merge, bool m2m, int layers,
                    int seq, int batch) {
  NetworkConfig cfg;
  cfg.cell = cell;
  cfg.merge = merge;
  cfg.input_size = 5;
  cfg.hidden_size = 7;
  cfg.num_layers = layers;
  cfg.seq_length = seq;
  cfg.batch_size = batch;
  cfg.num_classes = 6;
  cfg.many_to_many = m2m;
  cfg.seed = 321;
  std::string tag = std::string(cell_name(cell)) + "_" + merge_name(merge) +
                    (m2m ? "_m2m" : "_m2o") + "_L" + std::to_string(layers) +
                    "_T" + std::to_string(seq) + "_B" + std::to_string(batch);
  return {tag, cfg};
}

class ExecutorEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(ExecutorEquivalence, AllExecutorsMatchSequential) {
  const NetworkConfig& cfg = GetParam().cfg;
  const BatchData batch = make_batch(cfg, 777);

  rnn::Network ref_net(cfg);
  SequentialExecutor ref(ref_net);
  const double ref_loss = ref.train_batch(batch).loss;
  EXPECT_GT(ref_loss, 0.0);

  struct Candidate {
    std::string name;
    std::unique_ptr<exec::Executor> executor;
    std::unique_ptr<rnn::Network> net;
  };
  std::vector<Candidate> candidates;
  auto add = [&](std::string name, auto make) {
    Candidate c;
    c.name = std::move(name);
    c.net = std::make_unique<rnn::Network>(cfg);  // same seed → same weights
    c.executor = make(*c.net);
    candidates.push_back(std::move(c));
  };

  add("bpar_w1", [](rnn::Network& n) {
    return std::make_unique<BParExecutor>(
        n, exec::BParOptions{.common = {.num_workers = 1}});
  });
  add("bpar_w4", [](rnn::Network& n) {
    return std::make_unique<BParExecutor>(
        n, exec::BParOptions{.common = {.num_workers = 4}});
  });
  if (cfg.batch_size >= 4) {
    add("bpar_w4_mbs4", [](rnn::Network& n) {
      return std::make_unique<BParExecutor>(
          n, exec::BParOptions{.common = {.num_workers = 4,
                                          .num_replicas = 4}});
    });
    add("bseq_r4", [](rnn::Network& n) {
      return make_executor(ExecutorKind::kBSeq, n,
                           {.num_workers = 4, .num_replicas = 4});
    });
  }
  // Every named schedule profile of the one B-Par program.
  for (const char* profile : {"bpar", "fused_merge", "framework", "bseq"}) {
    add(std::string("profile_") + profile, [profile](rnn::Network& n) {
      return std::make_unique<BParExecutor>(
          n, exec::BParOptions{.common = {.num_workers = 4},
                               .schedule_profile = profile});
    });
  }
  add("layer_barrier_w4", [](rnn::Network& n) {
    return make_executor(ExecutorKind::kLayerBarrier, n, {.num_workers = 4});
  });

  for (auto& c : candidates) {
    const auto result = c.executor->train_batch(batch);
    EXPECT_NEAR(result.loss, ref_loss, 1e-4 * std::abs(ref_loss) + 1e-6)
        << c.name;
    expect_grads_close(c.executor->grads(), ref.grads(), cfg, 2e-4F);
  }
}

TEST_P(ExecutorEquivalence, InferencePredictionsMatch) {
  const NetworkConfig& cfg = GetParam().cfg;
  const BatchData batch = make_batch(cfg, 888);
  const int outputs = cfg.many_to_many ? cfg.seq_length : 1;
  const std::size_t pred_count =
      static_cast<std::size_t>(outputs) * cfg.batch_size;

  rnn::Network ref_net(cfg);
  SequentialExecutor ref(ref_net);
  const exec::InferResult ref_result = ref.infer(batch);
  ASSERT_EQ(ref_result.predictions.size(), pred_count);

  rnn::Network net2(cfg);
  BParExecutor bpar(
      net2, {.common = {.num_workers = 4,
                        .num_replicas = cfg.batch_size >= 2 ? 2 : 1}});
  const exec::InferResult result = bpar.infer(batch);
  EXPECT_NEAR(result.loss, ref_result.loss,
              1e-4 * std::abs(ref_result.loss) + 1e-6);
  EXPECT_EQ(result.predictions, ref_result.predictions);
}

TEST_P(ExecutorEquivalence, InferLogitsMatchSequential) {
  const NetworkConfig& cfg = GetParam().cfg;
  const BatchData batch = make_batch(cfg, 888);

  rnn::Network ref_net(cfg);
  SequentialExecutor ref(ref_net);
  const exec::InferResult ref_result =
      ref.infer(batch, {.want_logits = true});
  ASSERT_FALSE(ref_result.logits.empty());
  ASSERT_EQ(ref_result.logits.size(),
            ref_result.predictions.size() *
                static_cast<std::size_t>(cfg.num_classes));

  rnn::Network net2(cfg);
  BParExecutor bpar(
      net2, {.common = {.num_workers = 4,
                        .num_replicas = cfg.batch_size >= 2 ? 2 : 1}});
  const exec::InferResult result = bpar.infer(batch, {.want_logits = true});
  ASSERT_EQ(result.logits.size(), ref_result.logits.size());
  for (std::size_t i = 0; i < result.logits.size(); ++i) {
    EXPECT_NEAR(result.logits[i], ref_result.logits[i], 1e-4F) << i;
  }
}

// B-Seq only adds ordering constraints to the same ops, so with one
// replica it reproduces the sequential reference bit for bit.
TEST_P(ExecutorEquivalence, BSeqIsBitwiseSequential) {
  const NetworkConfig& cfg = GetParam().cfg;
  const BatchData batch = make_batch(cfg, 777);
  rnn::Network ref_net(cfg);
  SequentialExecutor ref(ref_net);
  const double ref_loss = ref.train_batch(batch).loss;

  rnn::Network net(cfg);
  const auto bseq =
      make_executor(ExecutorKind::kBSeq, net, {.num_workers = 4});
  EXPECT_EQ(bseq->train_batch(batch).loss, ref_loss);
  expect_grads_close(bseq->grads(), ref.grads(), cfg, 0.0F);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExecutorEquivalence,
    ::testing::Values(
        make_case(CellType::kLstm, MergeOp::kConcat, false, 3, 4, 6),
        make_case(CellType::kGru, MergeOp::kConcat, false, 3, 4, 6),
        make_case(CellType::kLstm, MergeOp::kSum, false, 2, 5, 4),
        make_case(CellType::kGru, MergeOp::kAverage, false, 2, 3, 4),
        make_case(CellType::kLstm, MergeOp::kMul, false, 2, 3, 4),
        make_case(CellType::kLstm, MergeOp::kConcat, true, 3, 4, 6),
        make_case(CellType::kGru, MergeOp::kConcat, true, 2, 5, 4),
        make_case(CellType::kLstm, MergeOp::kSum, true, 2, 3, 5),
        make_case(CellType::kLstm, MergeOp::kConcat, false, 1, 1, 1),
        make_case(CellType::kGru, MergeOp::kConcat, true, 1, 2, 3),
        make_case(CellType::kLstm, MergeOp::kConcat, false, 6, 2, 8),
        make_case(CellType::kGru, MergeOp::kSum, false, 4, 6, 5),
        make_case(CellType::kLstm, MergeOp::kAverage, true, 3, 3, 4),
        make_case(CellType::kGru, MergeOp::kMul, false, 2, 4, 6),
        make_case(CellType::kLstm, MergeOp::kConcat, true, 1, 6, 2),
        make_case(CellType::kGru, MergeOp::kConcat, false, 5, 1, 7),
        make_case(CellType::kLstm, MergeOp::kSum, false, 2, 8, 3),
        make_case(CellType::kGru, MergeOp::kAverage, true, 4, 2, 5)),
    [](const auto& param_info) { return param_info.param.tag; });

TEST(ExecutorDeterminism, RepeatedBParRunsAreBitwiseIdentical) {
  const NetworkConfig cfg = make_case(CellType::kLstm, MergeOp::kConcat,
                                      false, 3, 4, 6)
                                .cfg;
  const BatchData batch = make_batch(cfg, 12);
  rnn::Network net(cfg);
  BParExecutor bpar(net, {.common = {.num_workers = 4, .num_replicas = 2}});
  const double loss1 = bpar.train_batch(batch).loss;
  const double norm1 = bpar.grads().l2_norm();
  for (int i = 0; i < 3; ++i) {
    const double loss2 = bpar.train_batch(batch).loss;
    const double norm2 = bpar.grads().l2_norm();
    EXPECT_EQ(loss1, loss2);
    EXPECT_EQ(norm1, norm2);
  }
}

// The backward cells read a gate-major copy of the weights that each
// execution rewrites, so a step after an optimizer update must see the new
// weights: B-Par and the sequential reference (which transposes on every
// call) stay bitwise equal at every step. A copy refreshed only on a
// program's first execution drifts from step 2 on.
TEST(ExecutorDeterminism, WeightCopyFollowsOptimizerSteps) {
  for (const CellType cell : {CellType::kLstm, CellType::kGru}) {
    const NetworkConfig cfg =
        make_case(cell, MergeOp::kConcat, false, 3, 4, 6).cfg;
    const BatchData batch = make_batch(cfg, 91);
    rnn::Network ref_net(cfg);
    SequentialExecutor ref(ref_net);
    rnn::Network net(cfg);
    BParExecutor bpar(net, {.common = {.num_workers = 4, .num_replicas = 1}});
    train::Sgd ref_sgd({.learning_rate = 0.5F});
    train::Sgd sgd({.learning_rate = 0.5F});
    for (int step = 0; step < 3; ++step) {
      SCOPED_TRACE(std::string(cell_name(cell)) + " step " +
                   std::to_string(step));
      EXPECT_EQ(bpar.train_batch(batch).loss, ref.train_batch(batch).loss);
      expect_grads_close(bpar.grads(), ref.grads(), cfg, 0.0F);
      ref_sgd.step(ref_net, ref.grads());
      sgd.step(net, bpar.grads());
    }
  }
}

TEST(ExecutorStats, BParReportsTaskCounts) {
  const NetworkConfig cfg = make_case(CellType::kLstm, MergeOp::kConcat,
                                      false, 2, 3, 4)
                                .cfg;
  const BatchData batch = make_batch(cfg, 5);
  rnn::Network net(cfg);
  BParExecutor bpar(net, {.common = {.num_workers = 2}});
  const auto result = bpar.train_batch(batch);
  EXPECT_EQ(result.stats.tasks_executed, bpar.train_program().graph().size());
  EXPECT_GT(result.stats.tasks_executed, 0U);
}

TEST(ModelFacade, TrainReducesLossOverSteps) {
  NetworkConfig cfg = make_case(CellType::kGru, MergeOp::kConcat, false, 2,
                                4, 8)
                          .cfg;
  Model model(cfg);
  model.select_executor(ExecutorKind::kBPar,
                        {.num_workers = 2, .num_replicas = 2});
  model.set_optimizer(
      std::make_unique<train::Sgd>(train::Sgd::Config{.learning_rate = 0.2F}));
  const BatchData batch = make_batch(cfg, 33);
  const double first = model.train_batch(batch).loss;
  double last = first;
  for (int i = 0; i < 20; ++i) last = model.train_batch(batch).loss;
  EXPECT_LT(last, first * 0.9);
}

TEST(ModelFacade, SaveLoadRoundTrip) {
  NetworkConfig cfg = make_case(CellType::kLstm, MergeOp::kConcat, false, 2,
                                3, 4)
                          .cfg;
  Model a(cfg);
  const BatchData batch = make_batch(cfg, 77);
  a.train_batch(batch);  // move weights off their init values
  const std::string path = ::testing::TempDir() + "/bpar_model.bin";
  a.save(path);

  cfg.seed = 999;  // different init
  Model b(cfg);
  const double before = b.infer(batch).loss;
  b.load(path);
  const double after = b.infer(batch).loss;
  const double original = a.infer(batch).loss;
  EXPECT_NE(before, after);
  EXPECT_EQ(after, original);
}

// Satellite check for the options unification: all four executor paths pull
// their shared knobs from the ONE exec::CommonOptions definition, so a
// default cannot silently diverge between them.
TEST(ExecutorOptionsUnification, DefaultsShareOneDefinition) {
  static_assert(std::is_same_v<ExecutorOptions, exec::CommonOptions>,
                "bpar::ExecutorOptions must be exec::CommonOptions");
  const exec::CommonOptions defaults{};
  EXPECT_EQ(exec::BParOptions{}.common, defaults);
  EXPECT_EQ(ExecutorOptions{}, defaults);
}

// Every task-parallel kind is B-Par plus a named schedule profile, and
// keeps its label for logs. The layer-barrier kind runs one replica split
// into intra-op chunks (here 2 workers → 2 chunks of 4 rows).
TEST(ScheduleProfiles, KindsAreBParProfiles) {
  const NetworkConfig cfg = make_case(CellType::kGru, MergeOp::kSum, false,
                                      2, 3, 8)
                                .cfg;
  rnn::Network net(cfg);
  for (const auto& [kind, label] :
       {std::pair{ExecutorKind::kBPar, "b-par"},
        std::pair{ExecutorKind::kBSeq, "b-seq"},
        std::pair{ExecutorKind::kLayerBarrier, "layer-barrier"}}) {
    const auto executor =
        make_executor(kind, net, {.num_workers = 2, .num_replicas = 2});
    auto* bpar = dynamic_cast<BParExecutor*>(executor.get());
    ASSERT_NE(bpar, nullptr) << label;
    EXPECT_STREQ(executor->name(), label);
    EXPECT_STREQ(executor_kind_name(kind), label);
    const graph::TrainingProgram& program = bpar->train_program();
    const bool barrier = kind == ExecutorKind::kLayerBarrier;
    EXPECT_EQ(program.num_replicas(), barrier ? 1 : 2) << label;
    EXPECT_EQ(program.options().intra_op_chunks, barrier ? 2 : 1) << label;
  }
}

// The intra-op split for real: 3 row chunks per cell (with input gradients
// on) and per weight-gradient task (over dW's rows), matching the
// sequential reference — and bitwise stable across runs.
TEST(ScheduleProfiles, IntraOpChunksMatchSequential) {
  for (const CellType cell : {CellType::kLstm, CellType::kGru}) {
    const NetworkConfig cfg =
        make_case(cell, MergeOp::kConcat, cell == CellType::kGru, 3, 4, 7)
            .cfg;
    const BatchData batch = make_batch(cfg, 41);
    rnn::Network ref_net(cfg);
    SequentialExecutor ref(ref_net);
    const double ref_loss = ref.train_batch(batch).loss;

    rnn::Network net(cfg);
    graph::BuildOptions bo;
    bo.schedule_profile = "framework";
    bo.intra_op_chunks = 3;
    bo.compute_input_grads = true;
    graph::TrainingProgram program(net, cfg.batch_size, bo);
    taskrt::Runtime runtime({.num_workers = 4});
    double losses[2] = {};
    double norms[2] = {};
    for (int run = 0; run < 2; ++run) {
      program.load_batch(batch);
      program.prepare();
      runtime.run(program.graph());
      losses[run] = program.loss();
      norms[run] = program.grads().l2_norm();
    }
    EXPECT_NEAR(losses[0], ref_loss, 1e-4 * std::abs(ref_loss) + 1e-6)
        << cell_name(cell);
    expect_grads_close(program.grads(), ref.grads(), cfg, 2e-4F);
    EXPECT_EQ(losses[0], losses[1]);
    EXPECT_EQ(norms[0], norms[1]);
  }
}

void fill_nan(tensor::MatrixView m) {
  tensor::fill_constant(m, std::numeric_limits<float>::quiet_NaN());
}

/// Fills every buffer of `program` that prepare() leaves alone (all but dh,
/// the input slab and the zero state) with NaN.
void poison(graph::TrainingProgram& program) {
  const NetworkConfig& cfg = program.config();
  const int merged_layers =
      cfg.many_to_many ? cfg.num_layers : cfg.num_layers - 1;
  for (int rep = 0; rep < program.num_replicas(); ++rep) {
    rnn::Workspace& ws = program.replica(rep);
    for (int dir = 0; dir < 2; ++dir) {
      for (int l = 0; l < cfg.num_layers; ++l) {
        const rnn::CellTapeViews tape = ws.tape_slab(dir, l);
        for (const tensor::MatrixView m :
             {tape.gates, tape.h, tape.c, tape.tanh_c, tape.rh}) {
          fill_nan(m);
        }
        for (int s = 0; s < cfg.seq_length; ++s) {
          if (cfg.cell == CellType::kLstm) fill_nan(ws.dc(dir, l, s));
        }
      }
      if (ws.has_input_grads()) {
        for (int t = 0; t < cfg.seq_length; ++t) fill_nan(ws.dx(dir, t));
      }
    }
    for (int l = 0; l < merged_layers; ++l) {
      fill_nan(ws.merged_slab(l));
      for (int src = 0; src < cfg.merge_grad_sources(l); ++src) {
        for (int t = 0; t < cfg.seq_length; ++t) {
          fill_nan(ws.dmerged(src, l, t));
        }
      }
    }
    for (int t = 0; t < ws.num_outputs(); ++t) {
      fill_nan(ws.logits(t).view());
      fill_nan(ws.probs(t).view());
    }
    fill_nan(ws.dlogits_slab());
    fill_nan(ws.final_merged.view());
    fill_nan(ws.dfinal.view());
    rnn::NetworkGrads& g = program.replica_grads(rep);
    for (auto& layers : g.layers) {
      for (auto& lg : layers) {
        fill_nan(lg.dw.view());
        fill_nan(lg.db.view());
      }
    }
    fill_nan(g.dw_out.view());
    fill_nan(g.db_out.view());
  }
}

bool same_bits(const tensor::Matrix& a, const tensor::Matrix& b) {
  return a.count() == b.count() &&
         std::memcmp(a.data(), b.data(), a.count() * sizeof(float)) == 0;
}

// prepare() zeroes only dh. Every other buffer has one writer that assigns
// it before anything reads it, so NaN left in all of them by a previous
// call changes no bit of the loss or of any gradient.
TEST(ScheduleProfiles, PoisonedBuffersChangeNoBits) {
  for (const CellType cell : {CellType::kLstm, CellType::kGru}) {
    for (const bool m2m : {false, true}) {
      for (const char* profile : {"bpar", "framework", "bseq"}) {
        const NetworkConfig cfg =
            make_case(cell, MergeOp::kConcat, m2m, 3, 4, 6).cfg;
        SCOPED_TRACE(std::string(cell_name(cell)) + (m2m ? " m2m " : " m2o ") +
                     profile);
        const BatchData batch = make_batch(cfg, 55);
        rnn::Network net(cfg);
        graph::BuildOptions bo;
        bo.num_replicas = 2;
        bo.schedule_profile = profile;
        bo.compute_input_grads = true;
        if (std::string(profile) == "framework") bo.intra_op_chunks = 2;
        graph::TrainingProgram program(net, cfg.batch_size, bo);
        taskrt::Runtime runtime({.num_workers = 4});
        const auto run = [&](bool poisoned) {
          program.load_batch(batch);
          program.prepare();
          if (poisoned) poison(program);
          runtime.run(program.graph());
          return program.loss();
        };
        const double clean_loss = run(false);
        const rnn::NetworkGrads clean = program.grads();
        const double poisoned_loss = run(true);
        EXPECT_EQ(std::memcmp(&clean_loss, &poisoned_loss, sizeof(double)), 0);
        const rnn::NetworkGrads& got = program.grads();
        for (int dir = 0; dir < 2; ++dir) {
          for (std::size_t l = 0; l < got.layers[dir].size(); ++l) {
            EXPECT_TRUE(same_bits(got.layers[dir][l].dw,
                                  clean.layers[dir][l].dw))
                << "dW dir " << dir << " layer " << l;
            EXPECT_TRUE(same_bits(got.layers[dir][l].db,
                                  clean.layers[dir][l].db))
                << "db dir " << dir << " layer " << l;
          }
        }
        EXPECT_TRUE(same_bits(got.dw_out, clean.dw_out));
        EXPECT_TRUE(same_bits(got.db_out, clean.db_out));
      }
    }
  }
}

// An inference program's workspaces hold no backward buffer, and its logits
// are the sequential reference's bit for bit.
TEST(InferencePrograms, HoldNoBackwardBuffers) {
  for (const bool m2m : {false, true}) {
    const NetworkConfig cfg =
        make_case(CellType::kLstm, MergeOp::kConcat, m2m, 3, 4, 6).cfg;
    const BatchData batch = make_batch(cfg, 888);
    rnn::Network ref_net(cfg);
    SequentialExecutor ref(ref_net);
    const exec::InferResult expected = ref.infer(batch, {.want_logits = true});
    rnn::Network net(cfg);
    exec::BParOptions options;
    options.common.num_workers = 4;
    options.common.num_replicas = 2;
    BParExecutor bpar(net, options);
    const exec::InferResult got = bpar.infer(batch, {.want_logits = true});
    graph::TrainingProgram& program = bpar.infer_program();
    for (int rep = 0; rep < program.num_replicas(); ++rep) {
      EXPECT_EQ(program.replica(rep).backward_bytes(), 0U);
    }
    ASSERT_EQ(got.logits.size(), expected.logits.size());
    EXPECT_EQ(std::memcmp(got.logits.data(), expected.logits.data(),
                          got.logits.size() * sizeof(float)),
              0);
    EXPECT_EQ(got.predictions, expected.predictions);
  }
}

}  // namespace
}  // namespace bpar
