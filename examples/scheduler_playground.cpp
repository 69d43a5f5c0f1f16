// Scheduler playground: builds the B-Par task graph for a configurable
// BRNN, measures real single-core task costs, and replays the graph in the
// discrete-event simulator across core counts and scheduler policies —
// the workflow behind the paper-reproduction benches.
//
//   ./scheduler_playground [--layers N] [--seq N] [--hidden N] [--batch N]
#include <cstdio>

#include "core/bpar.hpp"
#include "graph/brnn_graph.hpp"
#include "sim/cost_model.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  bpar::util::ArgParser args(
      "scheduler_playground",
      "simulate a BRNN task graph across core counts and policies");
  args.add_int("layers", 4, "BLSTM layers");
  args.add_int("seq", 12, "sequence length");
  args.add_int("hidden", 32, "hidden size");
  args.add_int("batch", 16, "batch size");
  args.add_int("replicas", 4, "mini-batches");
  if (!args.parse(argc, argv)) return 1;

  bpar::rnn::NetworkConfig cfg;
  cfg.cell = bpar::rnn::CellType::kLstm;
  cfg.input_size = 16;
  cfg.hidden_size = static_cast<int>(args.get_int("hidden"));
  cfg.num_layers = static_cast<int>(args.get_int("layers"));
  cfg.seq_length = static_cast<int>(args.get_int("seq"));
  cfg.batch_size = static_cast<int>(args.get_int("batch"));
  cfg.num_classes = 8;
  bpar::rnn::Network net(cfg);

  // Build the executable B-Par training graph and run it once for real to
  // measure per-task costs on this machine.
  bpar::graph::BuildOptions bo;
  bo.num_replicas = static_cast<int>(args.get_int("replicas"));
  bpar::graph::TrainingProgram program(net, cfg.batch_size, bo);

  bpar::util::Rng rng(3);
  bpar::rnn::BatchData batch;
  batch.x.resize(static_cast<std::size_t>(cfg.seq_length));
  for (auto& m : batch.x) {
    m.resize(cfg.batch_size, cfg.input_size);
    bpar::tensor::fill_uniform(m.view(), rng, -1.0F, 1.0F);
  }
  batch.labels.assign(static_cast<std::size_t>(cfg.batch_size), 0);
  program.load_batch(batch);
  program.prepare();
  bpar::taskrt::Runtime runtime({.num_workers = 1});
  const auto stats = runtime.run(program.graph());
  std::printf("graph: %zu tasks, %zu edges, critical path %zu tasks\n",
              program.graph().size(), program.graph().edge_count(),
              program.graph().critical_path_length());
  std::printf("real single-core run: %.2f ms\n\n", stats.wall_ms());

  const auto cal = bpar::sim::calibrate();
  const auto costs =
      bpar::sim::measured_costs(program.graph(), stats.task_duration_ns, cal);

  bpar::util::Table table({"cores", "policy", "makespan(ms)", "speedup",
                           "efficiency", "avg-tasks", "locality-hits"});
  double base_ms = 0.0;
  for (const int cores : {1, 2, 4, 8, 16, 24, 32, 48}) {
    for (const auto policy : {bpar::taskrt::SchedulerPolicy::kFifo,
                              bpar::taskrt::SchedulerPolicy::kLocalityAware}) {
      bpar::sim::Simulator simulator({.policy = policy, .cores = cores});
      const auto result = simulator.run(program.graph(), costs);
      if (cores == 1 && policy == bpar::taskrt::SchedulerPolicy::kFifo) {
        base_ms = result.makespan_ms;
      }
      table.add_row({std::to_string(cores),
                     bpar::taskrt::scheduler_policy_name(policy),
                     bpar::util::fmt_ms(result.makespan_ms),
                     bpar::util::fmt_speedup(base_ms / result.makespan_ms),
                     bpar::util::fmt(result.parallel_efficiency, 3),
                     bpar::util::fmt(result.avg_concurrency, 1),
                     bpar::util::fmt(100.0 * result.locality_hit_rate(), 1) +
                         "%"});
    }
  }
  table.print("simulated scaling of the B-Par task graph");
  return 0;
}
