// Ablation — FIFO vs locality-aware scheduling across core counts
// (complements Fig. 7, which fixes the core count and looks at cache
// metrics; here we sweep cores and look at makespan and hit rate).
#include <cstdio>

#include "common.hpp"

int main(int argc, char** argv) {
  bpar::util::ArgParser args("ablate_scheduler",
                             "FIFO vs locality-aware across core counts");
  bench::add_common_flags(args);
  args.add_int("replicas", 6, "B-Par mini-batches");
  if (!args.parse(argc, argv)) return 1;

  bench::SimSetup setup;
  setup.calibration = bench::resolve_calibration(args);
  const int replicas = static_cast<int>(args.get_int("replicas"));

  const auto cfg = bench::table_network(bpar::rnn::CellType::kLstm, 64, 512,
                                        126, 100, 8);
  bpar::rnn::Network net(cfg, /*allocate_weights=*/false);

  bpar::util::Table table({"cores", "FIFO(ms)", "locality(ms)", "gain",
                           "FIFO hit%", "locality hit%"});
  for (const int cores : {4, 8, 16, 24, 32, 48}) {
    bpar::sim::SimResult fifo;
    bpar::sim::SimResult locality;
    bench::SimSetup s = setup;
    s.cores = cores;
    s.policy = bpar::sim::SchedulerPolicy::kFifo;
    const double fifo_ms = bench::simulate_bpar(net, s, replicas, &fifo);
    s.policy = bpar::sim::SchedulerPolicy::kLocalityAware;
    const double loc_ms = bench::simulate_bpar(net, s, replicas, &locality);
    table.add_row(
        {std::to_string(cores), bpar::util::fmt_ms(fifo_ms),
         bpar::util::fmt_ms(loc_ms),
         bpar::util::fmt(100.0 * (1.0 - loc_ms / fifo_ms), 1) + "%",
         bpar::util::fmt(100.0 * fifo.locality_hit_rate(), 1),
         bpar::util::fmt(100.0 * locality.locality_hit_rate(), 1)});
  }
  table.print("Scheduler ablation: FIFO vs locality-aware (8-layer BLSTM)");
  std::printf(
      "\nExpected shape: locality-aware wins on few cores (cache reuse) and\n"
      "on two sockets (no NUMA bouncing; paper: ~20%% at 48 cores); in the\n"
      "middle, strict affinity can idle cores and FIFO's load balance can\n"
      "edge ahead — the classic locality/balance trade-off.\n");
  bench::emit_csv(args, table, "ablate_scheduler");
  return 0;
}
