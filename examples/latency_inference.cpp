// Real-time inference latency — the paper's motivating scenario for CPUs
// ("the low latency they display for small batch sizes", §I): stream
// single utterances (batch 1) through a trained BLSTM and report latency
// percentiles for the sequential, per-layer-barrier, and B-Par executors.
//
//   ./latency_inference [--requests N] [--workers N] [--hidden N]
#include <cstdio>
#include <thread>
#include <vector>

#include "core/bpar.hpp"
#include "data/tidigits.hpp"
#include "util/cli.hpp"
#include "util/percentiles.hpp"

int main(int argc, char** argv) {
  bpar::util::ArgParser args("latency_inference",
                             "batch-1 streaming inference latency");
  args.add_int("requests", 200, "inference requests to time");
  args.add_int("workers", 2,
               "worker threads (default 2: a batch-1 BRNN graph is two "
               "chains wide, one per direction; more workers only add "
               "dispatch and stealing, and 4 ran slower than sequential)");
  args.add_int("hidden", 64, "hidden size");
  args.add_int("layers", 4, "BLSTM layers");
  args.add_int("seq", 40, "frames per utterance");
  if (!args.parse(argc, argv)) return 1;

  const int requests = static_cast<int>(args.get_int("requests"));
  bpar::data::TidigitsConfig dcfg;
  dcfg.feature_dim = 16;
  dcfg.seq_length = static_cast<int>(args.get_int("seq"));
  dcfg.num_utterances = requests;
  bpar::data::TidigitsCorpus corpus(dcfg);
  const auto batches = corpus.make_batches(1);  // one utterance per request

  bpar::rnn::NetworkConfig cfg;
  cfg.cell = bpar::rnn::CellType::kLstm;
  cfg.input_size = dcfg.feature_dim;
  cfg.hidden_size = static_cast<int>(args.get_int("hidden"));
  cfg.num_layers = static_cast<int>(args.get_int("layers"));
  cfg.seq_length = dcfg.seq_length;
  cfg.batch_size = 1;
  cfg.num_classes = bpar::data::kTidigitsClasses;

  bpar::Model model(cfg);
  std::printf("model: %zu parameters, %d requests of %d frames\n\n",
              model.network().param_count(), requests, dcfg.seq_length);
  std::printf("%-14s %8s %8s %8s %8s  (ms per utterance)\n", "executor",
              "p50", "p95", "p99", "mean");

  double sequential_p50 = 0.0;
  double bpar_p50 = 0.0;
  for (const auto kind :
       {bpar::ExecutorKind::kSequential, bpar::ExecutorKind::kLayerBarrier,
        bpar::ExecutorKind::kBPar}) {
    model.select_executor(
        kind, {.num_workers = static_cast<int>(args.get_int("workers"))});
    model.infer(batches[0]);  // warm up (graph build, caches)
    std::vector<double> samples;
    samples.reserve(batches.size());
    for (const auto& batch : batches) {
      samples.push_back(model.infer(batch).wall_ms);
    }
    const auto p = bpar::util::percentiles(std::move(samples));
    std::printf("%-14s %8.3f %8.3f %8.3f %8.3f\n",
                bpar::executor_kind_name(kind), p.p50, p.p95, p.p99, p.mean);
    if (kind == bpar::ExecutorKind::kSequential) sequential_p50 = p.p50;
    if (kind == bpar::ExecutorKind::kBPar) bpar_p50 = p.p50;
  }
  std::printf(
      "\nhost: %u hardware threads. B-Par p50 %s sequential in this run "
      "(%.3f vs %.3f ms).\n",
      std::thread::hardware_concurrency(),
      bpar_p50 < sequential_p50 ? "beat" : "did not beat", bpar_p50,
      sequential_p50);
  return 0;
}
