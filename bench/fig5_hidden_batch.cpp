// Fig. 5 — single-batch training time of B-Par, Keras-CPU, PyTorch-CPU and
// B-Seq while varying batch size (128..1024) and hidden size (128, 256) on
// 8- and 12-layer BLSTMs. Each entry is the best time over core counts
// {1, 2, 4, 8, 16, 24, 32, 48}, as in the paper.
//
// Paper shape: B-Par wins every configuration (1.58-6.40x); PyTorch is the
// slowest throughout.
#include <cstdio>

#include "common.hpp"

int main(int argc, char** argv) {
  bpar::util::ArgParser args("fig5_hidden_batch",
                             "batch/hidden sweep, best-over-cores times");
  bench::add_common_flags(args);
  args.add_int("replicas", 8, "B-Par / B-Seq mini-batches");
  if (!args.parse(argc, argv)) return 1;

  bench::SimSetup setup;
  setup.calibration = bench::resolve_calibration(args);
  const int replicas = static_cast<int>(args.get_int("replicas"));
  // The full sweep is 2x2x4 configs x 4 systems x 8 core counts; trim the
  // core sweep in quick mode.
  const std::vector<int> cores = args.flag("full")
                                     ? std::vector<int>{1, 2, 4, 8, 16, 24,
                                                        32, 48}
                                     : std::vector<int>{8, 24, 48};

  bpar::util::Table table({"layers", "hidden", "batch", "Keras", "PyTorch",
                           "B-Seq", "B-Par", "S(K)", "S(P)"});
  for (const int layers : {8, 12}) {
    for (const int hidden : {128, 256}) {
      for (const int batch : {128, 256, 512, 1024}) {
        const auto cfg = bench::table_network(bpar::rnn::CellType::kLstm,
                                              256, hidden, batch, 100,
                                              layers);
        bpar::rnn::Network net(cfg, /*allocate_weights=*/false);
        auto best = [&](auto&& run) {
          return bench::best_over_cores(cores, [&](int c) {
            bench::SimSetup s = setup;
            s.cores = c;
            return run(s);
          });
        };
        const double keras = best([&](const bench::SimSetup& s) {
          return bench::simulate_framework(net, s,
                                           bpar::exec::keras_cpu_profile());
        });
        const double pytorch = best([&](const bench::SimSetup& s) {
          return bench::simulate_framework(
              net, s, bpar::exec::pytorch_cpu_profile());
        });
        const double bseq = best([&](const bench::SimSetup& s) {
          return bench::simulate_bpar(net, s, replicas, nullptr, "bseq");
        });
        const double bpar_ms = best([&](const bench::SimSetup& s) {
          return bench::simulate_bpar(net, s, replicas);
        });
        table.add_row({std::to_string(layers), std::to_string(hidden),
                       std::to_string(batch), bpar::util::fmt_ms(keras),
                       bpar::util::fmt_ms(pytorch), bpar::util::fmt_ms(bseq),
                       bpar::util::fmt_ms(bpar_ms),
                       bpar::util::fmt_speedup(keras / bpar_ms),
                       bpar::util::fmt_speedup(pytorch / bpar_ms)});
      }
    }
  }
  table.print(
      "Fig. 5: best-over-cores batch training time, batch x hidden sweep");
  std::printf(
      "\nExpected shape: B-Par fastest everywhere (paper: 1.58-6.40x vs the\n"
      "frameworks); PyTorch slowest; gaps grow with layer count.\n");
  bench::emit_csv(args, table, "fig5_hidden_batch");
  return 0;
}
