// Fig. 6 — training AND inference single-batch time while varying the
// number of layers (2, 4, 8, 12) for B-Par, B-Seq, Keras-CPU, PyTorch-CPU.
//
// Paper shape: B-Par scales best with depth — at 12 layers it reaches
// 6.40x (training) and 5.89x (inference) because barrier-free execution
// overlaps cells of many layers; the frameworks serialize layer by layer.
#include <cstdio>

#include "common.hpp"

int main(int argc, char** argv) {
  bpar::util::ArgParser args("fig6_layers",
                             "layer-count sweep, training and inference");
  bench::add_common_flags(args);
  args.add_int("batch", 128, "batch size");
  args.add_int("hidden", 256, "hidden size");
  args.add_int("seq", 100, "sequence length");
  args.add_int("cores", 48, "simulated cores");
  args.add_int("replicas", 8, "B-Par / B-Seq mini-batches");
  if (!args.parse(argc, argv)) return 1;

  bench::SimSetup base;
  base.calibration = bench::resolve_calibration(args);
  base.cores = static_cast<int>(args.get_int("cores"));
  const int replicas = static_cast<int>(args.get_int("replicas"));

  for (const bool training : {true, false}) {
    bpar::util::Table table({"layers", "Keras", "PyTorch", "B-Seq", "B-Par",
                             "S(K)", "S(P)"});
    for (const int layers : {2, 4, 8, 12}) {
      const auto cfg = bench::table_network(
          bpar::rnn::CellType::kLstm, 256,
          static_cast<int>(args.get_int("hidden")),
          static_cast<int>(args.get_int("batch")),
          static_cast<int>(args.get_int("seq")), layers);
      bpar::rnn::Network net(cfg, /*allocate_weights=*/false);
      bench::SimSetup s = base;
      s.training = training;
      const double keras =
          bench::simulate_framework(net, s, bpar::exec::keras_cpu_profile());
      const double pytorch = bench::simulate_framework(
          net, s, bpar::exec::pytorch_cpu_profile());
      const double bseq =
          bench::simulate_bpar(net, s, replicas, nullptr, "bseq");
      const double bpar_ms = bench::simulate_bpar(net, s, replicas);
      table.add_row({std::to_string(layers), bpar::util::fmt_ms(keras),
                     bpar::util::fmt_ms(pytorch), bpar::util::fmt_ms(bseq),
                     bpar::util::fmt_ms(bpar_ms),
                     bpar::util::fmt_speedup(keras / bpar_ms),
                     bpar::util::fmt_speedup(pytorch / bpar_ms)});
    }
    const std::string title = std::string("Fig. 6 (") +
                              (training ? "training" : "inference") +
                              "): time vs layer count, ms per batch";
    table.print(title);
    bench::emit_csv(args, table,
                    training ? "fig6_layers_training"
                             : "fig6_layers_inference");
  }
  std::printf(
      "\nExpected shape: B-Par's advantage grows with depth (paper: 6.40x\n"
      "training / 5.89x inference at 12 layers).\n");
  return 0;
}
