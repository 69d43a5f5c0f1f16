// Discrete-event simulator tests: makespan math on known DAG shapes,
// scheduler-policy effects, NUMA/cache modeling, and stat integrity.
#include <gtest/gtest.h>

#include "sim/cost_model.hpp"
#include "sim/machine.hpp"
#include "sim/simulator.hpp"
#include "taskrt/task_graph.hpp"

namespace bpar::sim {
namespace {

using taskrt::in;
using taskrt::inout;
using taskrt::out;
using taskrt::TaskGraph;

MachineModel ideal_machine() {
  MachineModel m;
  m.dispatch_overhead_ns = 0.0;
  m.numa_remote_penalty = 1.0;
  m.cache_hot_discount = 1.0;
  return m;
}

std::vector<std::uint64_t> uniform_costs(std::size_t n, std::uint64_t c) {
  return std::vector<std::uint64_t>(n, c);
}

TEST(Simulator, ChainMakespanIsSumOfCosts) {
  TaskGraph g;
  int x = 0;
  for (int i = 0; i < 10; ++i) g.add({}, {inout(&x)});
  Simulator sim({.machine = ideal_machine(), .cores = 4});
  const auto result = sim.run(g, uniform_costs(10, 1000000));
  EXPECT_NEAR(result.makespan_ms, 10.0, 1e-6);
  EXPECT_EQ(result.max_concurrency, 1);
}

TEST(Simulator, IndependentTasksScaleWithCores) {
  TaskGraph g;
  std::vector<int> slots(16);
  for (auto& s : slots) g.add({}, {out(&s)});
  for (const int cores : {1, 2, 4, 8, 16}) {
    Simulator sim({.machine = ideal_machine(), .cores = cores});
    const auto result = sim.run(g, uniform_costs(16, 1000000));
    EXPECT_NEAR(result.makespan_ms, 16.0 / cores, 1e-6) << cores << " cores";
    EXPECT_EQ(result.max_concurrency, std::min(cores, 16));
  }
}

TEST(Simulator, ForkJoinRespectsDependencies) {
  TaskGraph g;
  int a = 0;
  std::vector<int> mid(4);
  int z = 0;
  g.add({}, {out(&a)});
  std::vector<taskrt::Access> join_ins;
  for (auto& m : mid) {
    g.add({}, {in(&a), out(&m)});
    join_ins.push_back(in(&m));
  }
  join_ins.push_back(out(&z));
  g.add({}, std::span<const taskrt::Access>(join_ins.data(), join_ins.size()));
  Simulator sim({.machine = ideal_machine(), .cores = 4});
  const auto result = sim.run(g, uniform_costs(6, 1000000));
  // 1 (root) + 1 (4 parallel on 4 cores) + 1 (join) = 3 ms.
  EXPECT_NEAR(result.makespan_ms, 3.0, 1e-6);
}

TEST(Simulator, ParallelEfficiencyAndConcurrencyStats) {
  TaskGraph g;
  std::vector<int> slots(8);
  for (auto& s : slots) g.add({}, {out(&s)});
  Simulator sim({.machine = ideal_machine(), .cores = 8});
  const auto result = sim.run(g, uniform_costs(8, 2000000));
  EXPECT_NEAR(result.parallel_efficiency, 1.0, 1e-9);
  EXPECT_NEAR(result.avg_concurrency, 8.0, 1e-9);
  EXPECT_NEAR(result.total_busy_ms, 16.0, 1e-9);
}

TEST(Simulator, DispatchOverheadExtendsTasks) {
  TaskGraph g;
  int x = 0;
  g.add({}, {out(&x)});
  MachineModel m = ideal_machine();
  m.dispatch_overhead_ns = 500000.0;  // 0.5 ms
  Simulator sim({.machine = m, .cores = 1});
  const auto result = sim.run(g, uniform_costs(1, 1000000));
  EXPECT_NEAR(result.makespan_ms, 1.5, 1e-6);
}

TEST(Simulator, LocalityPolicyKeepsChainsCacheHot) {
  // Many parallel chains with heterogeneous task costs on a dual-socket
  // machine: FIFO reassigns successors to whichever core frees first
  // (bouncing data across sockets), while the locality-aware policy pins
  // each chain to its producer's core — higher hit rate, better IPC,
  // lower MPKI, shorter makespan. This is the Fig. 7 mechanism.
  TaskGraph g;
  constexpr int kChains = 48;
  constexpr int kLinks = 20;
  std::vector<int> anchors(kChains);
  std::vector<std::uint64_t> costs;
  for (int link = 0; link < kLinks; ++link) {
    for (int chain = 0; chain < kChains; ++chain) {
      taskrt::TaskSpec spec;
      spec.working_set_bytes = 8U << 20;  // 8 MB — pressures the 33 MB L3
      g.add({}, {inout(&anchors[static_cast<std::size_t>(chain)])}, spec);
      costs.push_back(500000 + 350000 * ((chain * 7 + link * 13) % 5));
    }
  }

  MachineModel m;  // realistic defaults (discount + penalties on)
  Simulator fifo(
      {.machine = m, .policy = SchedulerPolicy::kFifo, .cores = 16});
  Simulator locality(
      {.machine = m, .policy = SchedulerPolicy::kLocalityAware, .cores = 16});
  const auto rf = fifo.run(g, costs);
  const auto rl = locality.run(g, costs);
  EXPECT_GT(rl.locality_hit_rate(), 0.9);
  EXPECT_GT(rl.locality_hit_rate(), rf.locality_hit_rate());
  EXPECT_LE(rl.makespan_ms, rf.makespan_ms * 1.001);
  EXPECT_GE(rl.avg_ipc, rf.avg_ipc);
  EXPECT_LE(rl.avg_mpki, rf.avg_mpki);
}

TEST(Simulator, WorkingSetPeakTracksConcurrentTasks) {
  TaskGraph g;
  std::vector<int> slots(4);
  taskrt::TaskSpec spec;
  spec.working_set_bytes = 1000;
  for (auto& s : slots) g.add({}, {out(&s)}, spec);
  Simulator wide({.machine = ideal_machine(), .cores = 4});
  Simulator narrow({.machine = ideal_machine(), .cores = 1});
  EXPECT_NEAR(wide.run(g, uniform_costs(4, 1000)).peak_working_set_bytes,
              4000.0, 1e-9);
  EXPECT_NEAR(narrow.run(g, uniform_costs(4, 1000)).peak_working_set_bytes,
              1000.0, 1e-9);
}

TEST(Simulator, DeterministicAcrossRuns) {
  TaskGraph g;
  std::vector<int> slots(32);
  int joint = 0;
  for (auto& s : slots) g.add({}, {out(&s)});
  for (auto& s : slots) g.add({}, {in(&s), inout(&joint)});
  Simulator sim({.cores = 6});
  std::vector<std::uint64_t> costs;
  for (std::size_t i = 0; i < g.size(); ++i) {
    costs.push_back(100000 + 13337 * (i % 7));
  }
  const auto r1 = sim.run(g, costs);
  const auto r2 = sim.run(g, costs);
  EXPECT_EQ(r1.makespan_ms, r2.makespan_ms);
  EXPECT_EQ(r1.locality_hits, r2.locality_hits);
}

TEST(Simulator, KindBreakdownSumsToAllTasks) {
  TaskGraph g;
  int x = 0;
  taskrt::TaskSpec cell;
  cell.kind = taskrt::TaskKind::kCellForward;
  taskrt::TaskSpec merge;
  merge.kind = taskrt::TaskKind::kMerge;
  g.add({}, {out(&x)}, cell);
  g.add({}, {inout(&x)}, cell);
  g.add({}, {inout(&x)}, merge);
  Simulator sim({.cores = 2});
  const auto result = sim.run(g, uniform_costs(3, 1000));
  std::size_t total = 0;
  for (const auto& kb : result.by_kind) total += kb.count;
  EXPECT_EQ(total, 3U);
  EXPECT_EQ(
      result.by_kind[static_cast<std::size_t>(taskrt::TaskKind::kCellForward)]
          .count,
      2U);
}

TEST(CostModel, RooflineTakesMaxOfComputeAndMemory) {
  Calibration cal{
      .gflops = 10.0, .mem_gbps = 5.0, .cache_gbps = 5.0, .fixed_ns = 100.0};
  // Compute-bound: 1e6 flops at 10 Gflop/s = 1e5 ns >> bytes term.
  EXPECT_EQ(roofline_cost_ns(1e6, 1000, cal), 100100U);
  // Memory-bound: 1e6 bytes at 5 GB/s (cache-resident rate) = 2e5 ns.
  EXPECT_EQ(roofline_cost_ns(1000, 1000000, cal), 200100U);
}

TEST(CostModel, CalibrationProducesSaneRates) {
  const Calibration cal = calibrate();
  EXPECT_GT(cal.gflops, 0.1);
  EXPECT_LT(cal.gflops, 1000.0);
  EXPECT_GT(cal.mem_gbps, 0.1);
}

TEST(CostModel, ModeledCostsUseSpecs) {
  TaskGraph g;
  int x = 0;
  taskrt::TaskSpec heavy;
  heavy.flops = 1e9;
  taskrt::TaskSpec hint_only;
  hint_only.cost_hint_ns = 12345;
  g.add({}, {out(&x)}, heavy);
  g.add({}, {inout(&x)}, hint_only);
  Calibration cal{.gflops = 1.0, .mem_gbps = 10.0, .fixed_ns = 0.0};
  const auto costs = modeled_costs(g, cal);
  EXPECT_EQ(costs[0], 1000000000U);
  EXPECT_EQ(costs[1], 12345U);
}

TEST(CostModel, MeasuredCostsFillZeroesFromModel) {
  TaskGraph g;
  int x = 0;
  taskrt::TaskSpec spec;
  spec.flops = 1e6;
  g.add({}, {out(&x)}, spec);
  g.add({}, {inout(&x)}, spec);
  const std::vector<std::uint64_t> durations = {555, 0};
  Calibration cal{.gflops = 1.0, .mem_gbps = 1.0, .fixed_ns = 0.0};
  const auto costs = measured_costs(g, durations, cal);
  EXPECT_EQ(costs[0], 555U);
  EXPECT_EQ(costs[1], 1000000U);
}

TEST(Machine, SocketMapping) {
  const MachineModel m = xeon8160_dual_socket();
  EXPECT_EQ(m.cores, 48);
  EXPECT_EQ(m.socket_of(0), 0);
  EXPECT_EQ(m.socket_of(23), 0);
  EXPECT_EQ(m.socket_of(24), 1);
  EXPECT_EQ(m.sockets_used(24), 1);
  EXPECT_EQ(m.sockets_used(25), 2);
}



TEST(Simulator, RecordedTraceIsConsistentSchedule) {
  TaskGraph g;
  int x = 0;
  taskrt::TaskSpec spec;
  for (int i = 0; i < 6; ++i) g.add({}, {inout(&x)}, spec);
  Simulator sim({.machine = ideal_machine(),
                 .cores = 2,
                 .record_trace = true});
  const auto result = sim.run(g, uniform_costs(6, 1000000));
  ASSERT_EQ(result.trace.size(), 6U);
  for (std::size_t i = 1; i < result.trace.size(); ++i) {
    // Chain: each task starts when the previous finished.
    EXPECT_EQ(result.trace[i].start_ns, result.trace[i - 1].end_ns);
    EXPECT_GT(result.trace[i].end_ns, result.trace[i].start_ns);
    EXPECT_GE(result.trace[i].worker, 0);
    EXPECT_LT(result.trace[i].worker, 2);
  }
}

TEST(Simulator, BandwidthContentionSlowsOversubscribedSockets) {
  // 24 independent tasks on one socket: with contention enabled beyond 8
  // concurrent tasks, the makespan grows versus the uncontended model.
  TaskGraph g;
  std::vector<int> slots(24);
  for (auto& s : slots) g.add({}, {out(&s)});
  const auto costs = uniform_costs(24, 1000000);

  MachineModel plain = ideal_machine();
  MachineModel contended = ideal_machine();
  contended.bw_contention_factor = 0.5;
  contended.bw_saturation_cores = 8;

  Simulator fast({.machine = plain, .cores = 24});
  Simulator slow({.machine = contended, .cores = 24});
  const double fast_ms = fast.run(g, costs).makespan_ms;
  const double slow_ms = slow.run(g, costs).makespan_ms;
  EXPECT_GT(slow_ms, fast_ms * 1.2);

  // Below the saturation point the model changes nothing.
  Simulator few({.machine = contended, .cores = 4});
  Simulator few_plain({.machine = plain, .cores = 4});
  EXPECT_EQ(few.run(g, costs).makespan_ms,
            few_plain.run(g, costs).makespan_ms);
}

}  // namespace
}  // namespace bpar::sim
