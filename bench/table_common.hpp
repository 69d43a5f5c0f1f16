// Shared driver for Table III (BLSTM) and Table IV (BGRU): simulated
// single-batch training times of Keras-CPU, PyTorch-CPU, B-Seq, and B-Par
// at 48 cores, plus the analytic GPU-model columns, next to the paper's
// reported speedups.
#pragma once

#include <cstdio>
#include <vector>

#include "common.hpp"

namespace bench {

struct TableRow {
  int input;
  int hidden;
  int batch;
  int seq;
  double paper_speedup_keras;    // paper's B-Par speedup vs Keras-CPU
  double paper_speedup_pytorch;  // ... vs PyTorch-CPU
};

inline int run_training_table(int argc, char** argv, bpar::rnn::CellType cell,
                              const std::vector<TableRow>& rows,
                              const char* title, const char* csv_name) {
  bpar::util::ArgParser args(csv_name,
                             "simulated single-batch training times (ms)");
  add_common_flags(args);
  args.add_int("cores", 48, "simulated CPU cores");
  args.add_int("replicas", 8, "B-Par / B-Seq mini-batches (mbs:N)");
  if (!args.parse(argc, argv)) return 1;

  SimSetup setup;
  setup.calibration = resolve_calibration(args);
  setup.cores = static_cast<int>(args.get_int("cores"));
  const int replicas = static_cast<int>(args.get_int("replicas"));

  bpar::util::Table table({"In", "Hid", "B", "T", "Params", "K-CPU", "P-CPU",
                           "BSeq", "BPar", "K-GPU*", "P-GPU*", "S(K)",
                           "S(P)", "paperS(K)", "paperS(P)"});
  for (const TableRow& row : rows) {
    const auto cfg =
        table_network(cell, row.input, row.hidden, row.batch, row.seq);
    bpar::rnn::Network net(cfg, /*allocate_weights=*/false);
    const double keras =
        simulate_framework(net, setup, bpar::exec::keras_cpu_profile());
    const double pytorch =
        simulate_framework(net, setup, bpar::exec::pytorch_cpu_profile());
    const double bseq =
        simulate_bpar(net, setup, replicas, nullptr, "bseq");
    const double bpar_ms = simulate_bpar(net, setup, replicas);
    table.add_row(
        {std::to_string(row.input), std::to_string(row.hidden),
         std::to_string(row.batch), std::to_string(row.seq),
         bpar::util::fmt_params(static_cast<double>(net.param_count())),
         bpar::util::fmt_ms(keras), bpar::util::fmt_ms(pytorch),
         bpar::util::fmt_ms(bseq), bpar::util::fmt_ms(bpar_ms),
         gpu_cell(bpar::perf::keras_v100(), cfg),
         gpu_cell(bpar::perf::pytorch_v100(), cfg),
         bpar::util::fmt_speedup(keras / bpar_ms),
         bpar::util::fmt_speedup(pytorch / bpar_ms),
         bpar::util::fmt_speedup(row.paper_speedup_keras),
         bpar::util::fmt_speedup(row.paper_speedup_pytorch)});
  }
  table.print(title);
  std::printf(
      "\n* GPU columns are analytic-model estimates (DESIGN.md §4); CPU\n"
      "  columns are discrete-event simulations of the real task graphs\n"
      "  with roofline costs. S(K)/S(P) = B-Par speedup vs Keras/PyTorch;\n"
      "  compare against the paper's reported speedups in the last columns.\n");
  emit_csv(args, table, csv_name);
  return 0;
}

}  // namespace bench
