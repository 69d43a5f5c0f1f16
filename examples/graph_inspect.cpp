// Graph inspector: builds the B-Par task graph for a small BRNN, prints a
// per-kind breakdown, exports a Graphviz DOT rendering of the dependency
// structure (the paper's Fig. 2, generated instead of hand-drawn), and —
// after a traced execution — a Chrome-tracing timeline.
//
//   ./graph_inspect [--layers N] [--seq N] [--dot out.dot] [--trace out.json]
#include <cstdio>

#include "core/bpar.hpp"
#include "graph/brnn_graph.hpp"
#include "taskrt/export.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  bpar::util::ArgParser args("graph_inspect",
                             "inspect and export a B-Par task graph");
  args.add_int("layers", 3, "BRNN layers");
  args.add_int("seq", 3, "sequence length");
  args.add_int("hidden", 8, "hidden size");
  args.add_int("batch", 4, "batch size");
  args.add_int("workers", 4, "worker threads for the traced run");
  args.add_string("dot", "bpar_graph.dot", "DOT output path (empty = skip)");
  args.add_string("trace", "bpar_trace.json",
                  "Chrome-tracing output path (empty = skip)");
  args.add_flag("barriers",
                "emulate per-layer barriers (schedule profile 'framework')");
  if (!args.parse(argc, argv)) return 1;

  bpar::rnn::NetworkConfig cfg;
  cfg.cell = bpar::rnn::CellType::kLstm;
  cfg.input_size = 4;
  cfg.hidden_size = static_cast<int>(args.get_int("hidden"));
  cfg.num_layers = static_cast<int>(args.get_int("layers"));
  cfg.seq_length = static_cast<int>(args.get_int("seq"));
  cfg.batch_size = static_cast<int>(args.get_int("batch"));
  cfg.num_classes = 3;
  bpar::rnn::Network net(cfg);

  bpar::graph::BuildOptions bo;
  if (args.flag("barriers")) bo.schedule_profile = "framework";
  bpar::graph::TrainingProgram program(net, cfg.batch_size, bo);
  const auto& graph = program.graph();

  std::printf("graph: %zu tasks, %zu edges, critical path %zu\n",
              graph.size(), graph.edge_count(),
              graph.critical_path_length());
  std::size_t counts[bpar::taskrt::kNumTaskKinds] = {};
  for (bpar::taskrt::TaskId id = 0; id < graph.size(); ++id) {
    ++counts[static_cast<std::size_t>(graph.task(id).spec.kind)];
  }
  for (std::size_t k = 0; k < bpar::taskrt::kNumTaskKinds; ++k) {
    if (counts[k] == 0) continue;
    std::printf("  %-12s %zu\n",
                bpar::taskrt::task_kind_name(
                    static_cast<bpar::taskrt::TaskKind>(k)),
                counts[k]);
  }

  if (!args.get_string("dot").empty()) {
    bpar::taskrt::write_dot_file(graph, args.get_string("dot"));
    std::printf("wrote %s (render with: dot -Tsvg %s -o graph.svg)\n",
                args.get_string("dot").c_str(),
                args.get_string("dot").c_str());
  }

  if (!args.get_string("trace").empty()) {
    // One traced training run with synthetic data.
    bpar::util::Rng rng(1);
    bpar::rnn::BatchData batch;
    batch.x.resize(static_cast<std::size_t>(cfg.seq_length));
    for (auto& m : batch.x) {
      m.resize(cfg.batch_size, cfg.input_size);
      bpar::tensor::fill_uniform(m.view(), rng, -1.0F, 1.0F);
    }
    batch.labels.assign(static_cast<std::size_t>(cfg.batch_size), 1);
    program.load_batch(batch);
    program.prepare();
    bpar::taskrt::Runtime runtime(
        {.num_workers = static_cast<int>(args.get_int("workers")),
         .policy = bpar::taskrt::SchedulerPolicy::kLocalityAware,
         .record_trace = true});
    const auto stats = runtime.run(program.graph());
    bpar::taskrt::write_chrome_trace_file(graph, stats,
                                          args.get_string("trace"));
    std::printf(
        "wrote %s (open in chrome://tracing) — %.2f ms wall, max "
        "concurrency %d, locality hits %zu/%zu\n",
        args.get_string("trace").c_str(), stats.wall_ms(),
        stats.max_concurrency, stats.locality_hits,
        stats.tasks_with_affinity);
  }
  return 0;
}
