// Checkpointing tests: save/load of weights + optimizer state must make
// resumed training bit-exact with uninterrupted training, and every way a
// crash can corrupt a checkpoint file must be diagnosed at load time with
// a clear util::CheckpointError instead of an abort or garbage weights.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/bpar.hpp"
#include "core/checkpoint.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bpar {
namespace {

using rnn::BatchData;
using rnn::NetworkConfig;

NetworkConfig small_config() {
  NetworkConfig cfg;
  cfg.cell = rnn::CellType::kLstm;
  cfg.input_size = 4;
  cfg.hidden_size = 6;
  cfg.num_layers = 2;
  cfg.seq_length = 4;
  cfg.batch_size = 6;
  cfg.num_classes = 3;
  cfg.seed = 55;
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
  batch.labels.resize(static_cast<std::size_t>(cfg.batch_size));
  for (auto& l : batch.labels) {
    l = static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(cfg.num_classes)));
  }
  return batch;
}

template <typename MakeOptimizer>
void expect_bit_exact_resume(MakeOptimizer make_optimizer) {
  const NetworkConfig cfg = small_config();
  const BatchData batch = make_batch(cfg, 3);
  const std::string path = ::testing::TempDir() + "/bpar_ckpt.bin";

  // Uninterrupted run: 10 steps; checkpoint after step 5.
  Model reference(cfg);
  reference.set_optimizer(make_optimizer());
  std::vector<double> reference_losses;
  for (int i = 0; i < 10; ++i) {
    reference_losses.push_back(reference.train_batch(batch).loss);
    if (i == 4) reference.save_checkpoint(path);
  }

  // Resumed run: fresh model, different seed, load checkpoint, 5 steps.
  NetworkConfig other = cfg;
  other.seed = 999;
  Model resumed(other);
  resumed.set_optimizer(make_optimizer());
  resumed.load_checkpoint(path);
  for (int i = 5; i < 10; ++i) {
    const double loss = resumed.train_batch(batch).loss;
    EXPECT_EQ(loss, reference_losses[static_cast<std::size_t>(i)])
        << "step " << i;
  }
}

TEST(Checkpoint, SgdMomentumResumesBitExactly) {
  expect_bit_exact_resume([] {
    return std::make_unique<train::Sgd>(
        train::Sgd::Config{.learning_rate = 0.1F, .momentum = 0.9F});
  });
}

TEST(Checkpoint, AdamResumesBitExactly) {
  expect_bit_exact_resume([] {
    return std::make_unique<train::Adam>(
        train::Adam::Config{.learning_rate = 3e-3F});
  });

  // The saved moments keep the gate-major file record: each gate matrix
  // reads back with tensor::read_matrix as [gates*H, in + H], element
  // (g, k) holding the moment of w(k, g). One step from zero state makes
  // m = (1 - beta1) g and v = (1 - beta2) g g exactly.
  const NetworkConfig cfg = small_config();
  rnn::Network net(cfg);
  rnn::NetworkGrads grads;
  grads.init_like(net);
  util::Rng rng(8);
  for (auto& dir : grads.layers) {
    for (auto& lg : dir) tensor::fill_uniform(lg.dw.view(), rng, -1.0F, 1.0F);
  }
  const train::Adam::Config config{.learning_rate = 3e-3F};
  train::Adam adam(config);
  adam.step(net, grads);
  std::stringstream state;
  adam.save_state(state);
  char has_state = 0;
  long step_count = 0;
  state.read(&has_state, 1);
  state.read(reinterpret_cast<char*>(&step_count), sizeof step_count);
  ASSERT_EQ(has_state, 1);
  for (int moment = 0; moment < 2; ++moment) {
    for (int dir = 0; dir < 2; ++dir) {
      for (int l = 0; l < cfg.num_layers; ++l) {
        const rnn::LayerParams& p = net.layer(dir, l);
        const tensor::Matrix& g =
            grads.layers[dir][static_cast<std::size_t>(l)].dw;
        const int gate_rows = p.gates() * p.hidden_size;
        const int k_cols = p.input_size + p.hidden_size;
        tensor::Matrix file(gate_rows, k_cols);
        tensor::read_matrix(state, file);
        int mismatches = 0;
        for (int gi = 0; gi < gate_rows; ++gi) {
          for (int k = 0; k < k_cols; ++k) {
            const float gv = g.at(k, gi);
            const float want = moment == 0 ? (1.0F - config.beta1) * gv
                                           : (1.0F - config.beta2) * gv * gv;
            if (file.at(gi, k) != want) ++mismatches;
          }
        }
        EXPECT_EQ(mismatches, 0)
            << "moment " << moment << " dir " << dir << " layer " << l;
        tensor::Matrix db(1, gate_rows);
        tensor::read_matrix(state, db);
      }
    }
    tensor::Matrix dw_out(net.w_out.rows(), net.w_out.cols());
    tensor::read_matrix(state, dw_out);
    tensor::Matrix db_out(net.b_out.rows(), net.b_out.cols());
    tensor::read_matrix(state, db_out);
  }
}

TEST(Checkpoint, AdamWResumesBitExactly) {
  expect_bit_exact_resume([] {
    return std::make_unique<train::Adam>(train::Adam::Config{
        .learning_rate = 3e-3F, .weight_decay = 1e-3F});
  });
}

TEST(Checkpoint, RejectsOptimizerMismatch) {
  const NetworkConfig cfg = small_config();
  const std::string path = ::testing::TempDir() + "/bpar_ckpt_mismatch.bin";
  Model a(cfg);
  a.set_optimizer(std::make_unique<train::Adam>(train::Adam::Config{}));
  a.save_checkpoint(path);

  Model b(cfg);
  b.set_optimizer(std::make_unique<train::Sgd>(train::Sgd::Config{}));
  EXPECT_THROW(
      {
        try {
          b.load_checkpoint(path);
        } catch (const util::CheckpointError& e) {
          EXPECT_NE(std::string(e.what()).find("optimizer"),
                    std::string::npos)
              << e.what();
          throw;
        }
      },
      util::CheckpointError);
}

TEST(Checkpoint, RejectsPlainWeightFile) {
  const NetworkConfig cfg = small_config();
  const std::string path = ::testing::TempDir() + "/bpar_weights_only.bin";
  Model a(cfg);
  a.save(path);  // weight file, not a checkpoint
  Model b(cfg);
  EXPECT_THROW(b.load_checkpoint(path), util::CheckpointError);
}

TEST(Checkpoint, RejectsDimensionMismatchByName) {
  const NetworkConfig cfg = small_config();
  const std::string path = ::testing::TempDir() + "/bpar_ckpt_dims.bin";
  Model a(cfg);
  a.save_checkpoint(path);

  NetworkConfig bigger = cfg;
  bigger.hidden_size = cfg.hidden_size + 2;
  Model b(bigger);
  try {
    b.load_checkpoint(path);
    FAIL() << "expected CheckpointError";
  } catch (const util::CheckpointError& e) {
    // The error must name the mismatched field and both values.
    const std::string what = e.what();
    EXPECT_NE(what.find("hidden_size"), std::string::npos) << what;
    EXPECT_NE(what.find('6'), std::string::npos) << what;
    EXPECT_NE(what.find('8'), std::string::npos) << what;
  }
}

TEST(Checkpoint, RejectsTruncatedFile) {
  const NetworkConfig cfg = small_config();
  const std::string path = ::testing::TempDir() + "/bpar_ckpt_trunc.bin";
  Model a(cfg);
  a.save_checkpoint(path);

  // Chop the file at several points; every prefix must be diagnosed as
  // truncated/corrupt, never loaded or aborted on.
  std::ifstream in(path, std::ios::binary);
  std::string image((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  for (const double frac : {0.1, 0.5, 0.9}) {
    const auto cut = static_cast<std::size_t>(
        static_cast<double>(image.size()) * frac);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(image.data(), static_cast<std::streamsize>(cut));
    out.close();
    Model b(cfg);
    EXPECT_THROW(b.load_checkpoint(path), util::CheckpointError)
        << "prefix of " << cut << " bytes";
  }
}

TEST(Checkpoint, RejectsBitFlippedPayload) {
  const NetworkConfig cfg = small_config();
  const std::string path = ::testing::TempDir() + "/bpar_ckpt_flip.bin";
  Model a(cfg);
  a.save_checkpoint(path);

  // Flip one byte deep in the model payload: the section CRC must trip.
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(f.tellg());
  f.seekp(static_cast<std::streamoff>(size / 2));
  char byte = 0;
  f.seekg(static_cast<std::streamoff>(size / 2));
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(static_cast<std::streamoff>(size / 2));
  f.write(&byte, 1);
  f.close();

  Model b(cfg);
  EXPECT_THROW(b.load_checkpoint(path), util::CheckpointError);
}

TEST(Checkpoint, ManagerRotatesAndPrunes) {
  const NetworkConfig cfg = small_config();
  const std::string prefix = ::testing::TempDir() + "/rot/run";
  CheckpointManager manager(prefix, /*keep=*/2);
  Model model(cfg);
  for (std::uint64_t step : {10ULL, 20ULL, 30ULL, 40ULL}) {
    manager.save(model, step);
  }
  const auto entries = manager.list();
  ASSERT_EQ(entries.size(), 2U);
  EXPECT_EQ(entries[0].first, 40U);  // newest first
  EXPECT_EQ(entries[1].first, 30U);
}

TEST(Checkpoint, ManagerSkipsTornNewestCheckpoint) {
  const NetworkConfig cfg = small_config();
  const BatchData batch = make_batch(cfg, 9);
  const std::string prefix = ::testing::TempDir() + "/torn/run";
  CheckpointManager manager(prefix, /*keep=*/3);

  Model model(cfg);
  model.train_batch(batch);
  manager.save(model, 1);
  model.train_batch(batch);
  manager.save(model, 2);

  // Tear the newest file (simulated crash mid-write after rename — e.g.
  // torn sector): load_latest_good must fall back to step 1.
  const auto entries = manager.list();
  ASSERT_EQ(entries.size(), 2U);
  std::filesystem::resize_file(
      entries[0].second,
      std::filesystem::file_size(entries[0].second) / 2);

  Model restored(cfg);
  const auto step = manager.load_latest_good(restored);
  ASSERT_TRUE(step.has_value());
  EXPECT_EQ(*step, 1U);
}

TEST(Checkpoint, ManagerReturnsNulloptWhenNothingLoads) {
  const NetworkConfig cfg = small_config();
  CheckpointManager manager(::testing::TempDir() + "/empty/run", 3);
  Model model(cfg);
  EXPECT_FALSE(manager.load_latest_good(model).has_value());
}

TEST(Checkpoint, SaveIsAtomicNoPartialFileUnderFinalName) {
  // A .tmp from an interrupted save must not shadow the real checkpoint;
  // the loader only ever sees fully-written files under the final name.
  const NetworkConfig cfg = small_config();
  const std::string prefix = ::testing::TempDir() + "/atomic/run";
  CheckpointManager manager(prefix, 3);
  Model model(cfg);
  const std::string path = manager.save(model, 7);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  Model restored(cfg);
  EXPECT_EQ(manager.load_latest_good(restored), 7U);
}

TEST(Checkpoint, FreshOptimizerStateRoundTrips) {
  // Checkpointing before any step (no moment buffers yet) must also work.
  const NetworkConfig cfg = small_config();
  const std::string path = ::testing::TempDir() + "/bpar_ckpt_fresh.bin";
  Model a(cfg);
  a.set_optimizer(std::make_unique<train::Adam>(train::Adam::Config{}));
  a.save_checkpoint(path);
  Model b(cfg);
  b.set_optimizer(std::make_unique<train::Adam>(train::Adam::Config{}));
  b.load_checkpoint(path);
  const BatchData batch = make_batch(cfg, 4);
  EXPECT_EQ(a.train_batch(batch).loss, b.train_batch(batch).loss);
}

}  // namespace
}  // namespace bpar
