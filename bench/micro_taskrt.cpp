// google-benchmark microbenchmarks of the task runtime: graph construction
// (dependency resolution) throughput and per-task execution overhead — the
// quantities behind the paper's claim that B-Par's runtime overhead is 10x
// smaller than useful task time. The runtime benchmarks re-run one prebuilt
// graph per iteration, the way executors re-run a cached program, and time
// wall clock (UseRealTime): the calling thread's CPU time leaves out the
// workers that run the tasks.
#include <benchmark/benchmark.h>

#include <vector>

#include "obs/trace.hpp"
#include "taskrt/runtime.hpp"
#include "taskrt/task_graph.hpp"

namespace {

using bpar::taskrt::inout;
using bpar::taskrt::out;
using bpar::taskrt::Runtime;
using bpar::taskrt::SchedulerPolicy;
using bpar::taskrt::TaskGraph;

void BM_GraphBuildIndependent(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<int> slots(n);
  for (auto _ : state) {
    TaskGraph g;
    for (auto& s : slots) g.add([] {}, {out(&s)});
    benchmark::DoNotOptimize(g.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_GraphBuildIndependent)->Arg(1000)->Arg(10000);

void BM_GraphBuildChained(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  int x = 0;
  for (auto _ : state) {
    TaskGraph g;
    for (std::size_t i = 0; i < n; ++i) g.add([] {}, {inout(&x)});
    benchmark::DoNotOptimize(g.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_GraphBuildChained)->Arg(1000)->Arg(10000);

void BM_RuntimeEmptyTasks(benchmark::State& state) {
  const auto workers = static_cast<int>(state.range(0));
  Runtime rt({.num_workers = workers});
  std::vector<int> slots(1000);
  TaskGraph g;
  for (auto& s : slots) g.add([] {}, {out(&s)});
  for (auto _ : state) rt.run(g);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_RuntimeEmptyTasks)
    ->Arg(1)->Arg(4)->Arg(8)->Arg(16)
    ->UseRealTime();

// Per-task dispatch overhead with every worker contending for the
// scheduler: one prebuilt graph of tiny independent tasks. This is the
// quantity the Fig. 4 core-scaling claim rests on.
constexpr int kDispatchTasks = 2000;

TaskGraph dispatch_graph() {
  TaskGraph g;
  for (int i = 0; i < kDispatchTasks; ++i) {
    g.add(
        [] {
          volatile int spin = 0;
          for (int j = 0; j < 64; ++j) spin = spin + j;
        },
        {});
  }
  return g;
}

void BM_DispatchOverhead(benchmark::State& state) {
  Runtime rt({.num_workers = static_cast<int>(state.range(0)),
              .policy = SchedulerPolicy::kLocalityAware});
  TaskGraph g = dispatch_graph();
  for (auto _ : state) rt.run(g);
  state.SetItemsProcessed(state.iterations() * kDispatchTasks);
}
BENCHMARK(BM_DispatchOverhead)
    ->Arg(1)->Arg(4)->Arg(8)->Arg(16)
    ->UseRealTime();

// Same workload with span tracing armed: the delta against the benchmark
// above is the telemetry layer's dispatch-path cost (budget: <5%).
void BM_DispatchOverheadTraced(benchmark::State& state) {
  bpar::obs::set_tracing_enabled(true);
  Runtime rt({.num_workers = static_cast<int>(state.range(0)),
              .policy = SchedulerPolicy::kLocalityAware});
  TaskGraph g = dispatch_graph();
  for (auto _ : state) rt.run(g);
  bpar::obs::set_tracing_enabled(false);
  state.SetItemsProcessed(state.iterations() * kDispatchTasks);
}
BENCHMARK(BM_DispatchOverheadTraced)
    ->Arg(1)->Arg(4)->Arg(8)->Arg(16)
    ->UseRealTime();

void BM_RuntimeChainLatency(benchmark::State& state) {
  Runtime rt({.num_workers = 2,
              .policy = static_cast<SchedulerPolicy>(state.range(0))});
  int x = 0;
  TaskGraph g;
  for (int i = 0; i < 500; ++i) g.add([] {}, {inout(&x)});
  for (auto _ : state) rt.run(g);
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_RuntimeChainLatency)->Arg(0)->Arg(1)->UseRealTime();

}  // namespace
