// Fig. 4 — Keras, B-Seq (mbs:8), PyTorch, and B-Par (mbs:8) batch training
// time across core counts {1, 2, 4, 8, 16, 24, 32, 48}.
//
// Paper shape to reproduce: B-Seq flattens at 8 cores (only 8 coarse
// tasks); Keras ≈ B-Seq on 8-16 cores and suffers beyond one socket;
// B-Par keeps improving and is clearly fastest above 16 cores.
#include <cstdio>

#include "common.hpp"

int main(int argc, char** argv) {
  bpar::util::ArgParser args("fig4_core_scaling",
                             "executor comparison across core counts");
  bench::add_common_flags(args);
  args.add_int("layers", 8, "BLSTM layers");
  args.add_int("batch", 128, "batch size");
  args.add_int("seq", 100, "sequence length");
  args.add_int("hidden", 256, "hidden size");
  args.add_int("replicas", 8, "B-Par / B-Seq mini-batches");
  if (!args.parse(argc, argv)) return 1;

  bench::SimSetup setup;
  setup.calibration = bench::resolve_calibration(args);
  const int replicas = static_cast<int>(args.get_int("replicas"));
  const auto cfg = bench::table_network(
      bpar::rnn::CellType::kLstm, 256,
      static_cast<int>(args.get_int("hidden")),
      static_cast<int>(args.get_int("batch")),
      static_cast<int>(args.get_int("seq")),
      static_cast<int>(args.get_int("layers")));
  bpar::rnn::Network net(cfg, /*allocate_weights=*/false);

  bpar::util::Table table(
      {"cores", "Keras(ms)", "B-Seq(ms)", "PyTorch(ms)", "B-Par(ms)"});
  for (const int cores : {1, 2, 4, 8, 16, 24, 32, 48}) {
    bench::SimSetup s = setup;
    s.cores = cores;
    const double keras =
        bench::simulate_framework(net, s, bpar::exec::keras_cpu_profile());
    const double pytorch =
        bench::simulate_framework(net, s, bpar::exec::pytorch_cpu_profile());
    const double bseq =
        bench::simulate_bpar(net, s, replicas, nullptr, "bseq");
    const double bpar_ms =
        bench::simulate_bpar(net, s, replicas);
    table.add_row({std::to_string(cores), bpar::util::fmt_ms(keras),
                   bpar::util::fmt_ms(bseq), bpar::util::fmt_ms(pytorch),
                   bpar::util::fmt_ms(bpar_ms)});
  }
  table.print("Fig. 4: batch training time vs core count (8-layer BLSTM)");
  std::printf(
      "\nExpected shape: B-Seq flat beyond %d cores; B-Par fastest at high\n"
      "core counts (paper: best B-Par 0.44 s at 48 cores vs B-Seq 0.89 s\n"
      "at 8 cores).\n",
      replicas);
  bench::emit_csv(args, table, "fig4_core_scaling");
  return 0;
}
