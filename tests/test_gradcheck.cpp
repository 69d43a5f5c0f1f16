// End-to-end finite-difference gradient verification through the public
// executors — validates BPTT math and the task-graph wiring together.
#include <gtest/gtest.h>

#include "exec/bpar_executor.hpp"
#include "exec/sequential.hpp"
#include "train/gradient_check.hpp"
#include "util/rng.hpp"

namespace bpar {
namespace {

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
  const int label_count =
      cfg.many_to_many ? cfg.seq_length * cfg.batch_size : cfg.batch_size;
  batch.labels.resize(static_cast<std::size_t>(label_count));
  for (auto& l : batch.labels) {
    l = static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(cfg.num_classes)));
  }
  return batch;
}

struct GcCase {
  std::string tag;
  CellType cell;
  MergeOp merge;
  bool m2m;
};

class GradCheck : public ::testing::TestWithParam<GcCase> {};

TEST_P(GradCheck, SequentialExecutorGradientsMatchFiniteDifferences) {
  const auto& p = GetParam();
  NetworkConfig cfg;
  cfg.cell = p.cell;
  cfg.merge = p.merge;
  cfg.many_to_many = p.m2m;
  cfg.input_size = 4;
  cfg.hidden_size = 6;
  cfg.num_layers = 2;
  cfg.seq_length = 3;
  cfg.batch_size = 3;
  cfg.num_classes = 5;
  cfg.seed = 11;
  rnn::Network net(cfg);
  exec::SequentialExecutor executor(net);
  const BatchData batch = make_batch(cfg, 44);
  const auto result =
      train::check_gradients(net, executor, batch, 60, 1e-2F);
  EXPECT_TRUE(result.ok(0.08)) << "max rel error " << result.max_rel_error
                               << " mean " << result.mean_rel_error;
}

TEST_P(GradCheck, BParExecutorGradientsMatchFiniteDifferences) {
  const auto& p = GetParam();
  NetworkConfig cfg;
  cfg.cell = p.cell;
  cfg.merge = p.merge;
  cfg.many_to_many = p.m2m;
  cfg.input_size = 4;
  cfg.hidden_size = 5;
  cfg.num_layers = 2;
  cfg.seq_length = 3;
  cfg.batch_size = 4;
  cfg.num_classes = 5;
  cfg.seed = 13;
  rnn::Network net(cfg);
  exec::BParExecutor executor(net, {.common = {.num_workers = 4,
                                               .num_replicas = 2}});
  const BatchData batch = make_batch(cfg, 55);
  const auto result =
      train::check_gradients(net, executor, batch, 40, 1e-2F);
  EXPECT_TRUE(result.ok(0.08)) << "max rel error " << result.max_rel_error;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GradCheck,
    ::testing::Values(GcCase{"lstm_concat_m2o", CellType::kLstm,
                             MergeOp::kConcat, false},
                      GcCase{"gru_concat_m2o", CellType::kGru,
                             MergeOp::kConcat, false},
                      GcCase{"lstm_sum_m2m", CellType::kLstm, MergeOp::kSum,
                             true},
                      GcCase{"gru_concat_m2m", CellType::kGru,
                             MergeOp::kConcat, true},
                      GcCase{"lstm_mul_m2o", CellType::kLstm, MergeOp::kMul,
                             false},
                      GcCase{"gru_avg_m2o", CellType::kGru,
                             MergeOp::kAverage, false}),
    [](const auto& param_info) { return param_info.param.tag; });


TEST(InputGradients, MatchFiniteDifferencesAndSequential) {
  NetworkConfig cfg;
  cfg.cell = CellType::kLstm;
  cfg.input_size = 4;
  cfg.hidden_size = 5;
  cfg.num_layers = 2;
  cfg.seq_length = 3;
  cfg.batch_size = 4;
  cfg.num_classes = 3;
  cfg.seed = 21;
  rnn::Network net(cfg);
  exec::BParExecutor bpar(net, {.common = {.num_workers = 3,
                                           .num_replicas = 2},
                                .compute_input_grads = true});
  BatchData batch = make_batch(cfg, 66);
  bpar.train_batch(batch);

  // Reassemble full-batch input gradients from the replica workspaces.
  auto& program = bpar.train_program();
  tensor::Matrix full_dx(cfg.batch_size, cfg.input_size);
  const int check_t = 1;
  for (int rep = 0; rep < program.num_replicas(); ++rep) {
    auto& ws = program.replica(rep);
    ASSERT_TRUE(ws.has_input_grads());
    tensor::Matrix combined(ws.batch(), cfg.input_size);
    ws.input_grad(check_t, combined.view());
    tensor::copy(combined.cview(),
                 full_dx.view().block(program.replica_row_begin(rep), 0,
                                      ws.batch(), cfg.input_size));
  }

  // Finite differences on a few input entries.
  const float eps = 1e-2F;
  util::Rng rng(5);
  for (int i = 0; i < 8; ++i) {
    const int r = static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(cfg.batch_size)));
    const int c = static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(cfg.input_size)));
    float& slot = batch.x[check_t].at(r, c);
    const float saved = slot;
    slot = saved + eps;
    const double plus = bpar.infer(batch).loss;
    slot = saved - eps;
    const double minus = bpar.infer(batch).loss;
    slot = saved;
    const double numeric = (plus - minus) / (2.0 * static_cast<double>(eps));
    const double analytic = full_dx.at(r, c);
    const double denom =
        std::max({std::abs(numeric), std::abs(analytic), 1e-4});
    EXPECT_LT(std::abs(numeric - analytic) / denom, 0.08)
        << "(" << r << "," << c << ") numeric " << numeric << " analytic "
        << analytic;
  }
}

}  // namespace
}  // namespace bpar
