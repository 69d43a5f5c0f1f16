// bpar_dump — writes B-Par's fp32 results as raw bytes, so two builds (or
// two worker counts) can be compared bit for bit with `cmp`.
//
//   ./bpar_dump --out dump.bin                        # every shape, 4 workers
//   ./bpar_dump --shapes small --workers 1 --out a.bin
//   BPAR_KERNEL_BACKEND=scalar ./bpar_dump --out scalar.bin
//
// Shapes, in this order:
//  * small: six odd shapes (input 5, hidden 7; LSTM and GRU, many-to-one
//    and many-to-many, down to T = B = 1), each two training steps with an
//    SGD update between them, then one inference, on 2 replicas;
//  * workload (with --shapes all): one training step each at the
//    train-blstm and train-bgru-m2m shapes, one inference at infer-b1, and
//    inferences at the serve-mixed shape for T in {16, 32, 64} x B in
//    {1, 2, 4, 8}.
//
// Per training step it writes the loss (double) and the gradients (float,
// [dir][layer] dW, db, then dW_out, db_out); per inference the loss
// (double), the logits (float) and the predictions (int32). Inputs, labels
// and weights are fixed by seeds, so the output depends only on the build,
// the kernel backend (BPAR_KERNEL_BACKEND) and, if B-Par is wrong, on the
// worker count. It uses only long-standing executor APIs, so the same
// source also builds against earlier revisions for A/B comparisons.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "exec/bpar_executor.hpp"
#include "rnn/network.hpp"
#include "train/optimizer.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using bpar::exec::BParExecutor;
using bpar::exec::BParOptions;
using bpar::rnn::BatchData;
using bpar::rnn::CellType;
using bpar::rnn::MergeOp;
using bpar::rnn::NetworkConfig;

class Dump {
 public:
  explicit Dump(const std::string& path)
      : os_(path, std::ios::binary | std::ios::trunc) {}
  [[nodiscard]] bool ok() const { return static_cast<bool>(os_); }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

  template <typename T>
  void write(const T* data, std::size_t count) {
    os_.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(count * sizeof(T)));
    bytes_ += count * sizeof(T);
  }
  void write(double v) { write(&v, 1); }
  void write(const bpar::tensor::Matrix& m) { write(m.data(), m.count()); }
  void write(const bpar::rnn::NetworkGrads& g) {
    for (const auto& dir : g.layers) {
      for (const auto& layer : dir) {
        write(layer.dw);
        write(layer.db);
      }
    }
    write(g.dw_out);
    write(g.db_out);
  }

 private:
  std::ofstream os_;
  std::uint64_t bytes_ = 0;
};

BatchData make_batch(const NetworkConfig& cfg, int steps, int rows,
                     std::uint64_t seed) {
  bpar::util::Rng rng(seed);
  BatchData batch;
  batch.x.resize(static_cast<std::size_t>(steps));
  for (auto& m : batch.x) {
    m.resize(rows, cfg.input_size);
    bpar::tensor::fill_uniform(m.view(), rng, -1.0F, 1.0F);
  }
  const int labels = cfg.many_to_many ? steps * rows : rows;
  batch.labels.resize(static_cast<std::size_t>(labels));
  for (auto& l : batch.labels) {
    l = static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(cfg.num_classes)));
  }
  return batch;
}

BParOptions options(int workers, int replicas) {
  BParOptions o;
  o.common.num_workers = workers;
  o.common.num_replicas = replicas;
  return o;
}

void dump_train(Dump& dump, BParExecutor& exec, const BatchData& batch) {
  dump.write(exec.train_batch(batch).loss);
  dump.write(exec.grads());
}

void dump_infer(Dump& dump, BParExecutor& exec, const BatchData& batch) {
  const bpar::exec::InferResult result =
      exec.infer(batch, {.want_logits = true});
  dump.write(result.loss);
  dump.write(result.logits.data(), result.logits.size());
  std::vector<std::int32_t> predictions(result.predictions.begin(),
                                        result.predictions.end());
  dump.write(predictions.data(), predictions.size());
}

NetworkConfig odd_config(CellType cell, int layers, int seq, int batch,
                         bool m2m) {
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

void dump_small(Dump& dump, int workers) {
  const NetworkConfig shapes[] = {
      odd_config(CellType::kLstm, 2, 7, 5, false),
      odd_config(CellType::kGru, 2, 7, 5, false),
      odd_config(CellType::kLstm, 3, 5, 3, true),
      odd_config(CellType::kGru, 3, 5, 3, true),
      odd_config(CellType::kLstm, 1, 1, 1, false),
      odd_config(CellType::kGru, 4, 3, 7, false),
  };
  for (const NetworkConfig& cfg : shapes) {
    bpar::rnn::Network net(cfg);
    BParExecutor exec(net, options(workers, 2));
    bpar::train::Sgd sgd({.learning_rate = 0.1F});
    for (std::uint64_t step = 0; step < 2; ++step) {
      dump_train(dump, exec,
                 make_batch(cfg, cfg.seq_length, cfg.batch_size, 555 + step));
      sgd.step(net, exec.grads());
    }
    dump_infer(dump, exec,
               make_batch(cfg, cfg.seq_length, cfg.batch_size, 666));
  }
}

void dump_workloads(Dump& dump, int workers) {
  constexpr std::uint64_t kWeightSeed = 1234;
  {  // train-blstm
    NetworkConfig c;
    c.cell = CellType::kLstm;
    c.input_size = 64;
    c.hidden_size = 128;
    c.num_layers = 4;
    c.seq_length = 50;
    c.batch_size = 64;
    c.num_classes = 11;
    c.seed = kWeightSeed;
    bpar::rnn::Network net(c);
    BParExecutor exec(net, options(workers, 4));
    dump_train(dump, exec, make_batch(c, c.seq_length, c.batch_size, 11));
  }
  {  // train-bgru-m2m
    NetworkConfig c;
    c.cell = CellType::kGru;
    c.merge = MergeOp::kSum;
    c.input_size = 64;
    c.hidden_size = 32;
    c.num_layers = 3;
    c.seq_length = 100;
    c.batch_size = 16;
    c.num_classes = 64;
    c.many_to_many = true;
    c.seed = kWeightSeed;
    bpar::rnn::Network net(c);
    BParExecutor exec(net, options(workers, 2));
    dump_train(dump, exec, make_batch(c, c.seq_length, c.batch_size, 12));
  }
  {  // infer-b1
    NetworkConfig c;
    c.cell = CellType::kLstm;
    c.input_size = 16;
    c.hidden_size = 64;
    c.num_layers = 4;
    c.seq_length = 40;
    c.batch_size = 1;
    c.num_classes = 11;
    c.seed = kWeightSeed;
    bpar::rnn::Network net(c);
    BParExecutor exec(net, options(workers, 1));
    dump_infer(dump, exec, make_batch(c, c.seq_length, 1, 13));
  }
  {  // serve-mixed: the engine's executor at every (length, rows) bucket
    NetworkConfig c;
    c.cell = CellType::kLstm;
    c.input_size = 16;
    c.hidden_size = 64;
    c.num_layers = 2;
    c.seq_length = 32;
    c.batch_size = 8;
    c.num_classes = 10;
    c.seed = kWeightSeed;
    bpar::rnn::Network net(c);
    BParExecutor exec(net, options(workers, 2));
    std::uint64_t seed = 14;
    for (const int steps : {16, 32, 64}) {
      for (const int rows : {1, 2, 4, 8}) {
        dump_infer(dump, exec, make_batch(c, steps, rows, seed++));
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bpar::util::ArgParser args(
      "bpar_dump", "write B-Par's losses, gradients, logits and predictions "
                   "as raw bytes for bitwise comparison");
  args.add_string("out", "", "output file (required)");
  args.add_string("shapes", "all", "small | all (small + workload shapes)");
  args.add_int("workers", 4, "runtime worker threads for every shape");
  if (!args.parse(argc, argv)) return 1;

  const std::string shapes = args.get_string("shapes");
  const std::int64_t workers_arg = args.get_int("workers");
  if (args.get_string("out").empty() ||
      (shapes != "small" && shapes != "all") || workers_arg < 1 ||
      workers_arg > 256) {
    std::fprintf(stderr,
                 "bpar_dump: need --out FILE, --shapes small|all and "
                 "--workers in [1, 256]\n");
    return 2;
  }
  const auto workers = static_cast<int>(workers_arg);
  Dump dump(args.get_string("out"));
  dump_small(dump, workers);
  if (shapes == "all") dump_workloads(dump, workers);
  if (!dump.ok()) {
    std::fprintf(stderr, "bpar_dump: cannot write %s\n",
                 args.get_string("out").c_str());
    return 1;
  }
  std::printf("bpar_dump: %llu bytes (%s shapes, %d workers) -> %s\n",
              static_cast<unsigned long long>(dump.bytes()), shapes.c_str(),
              workers, args.get_string("out").c_str());
  return 0;
}
