// Property-based (randomized) tests over the task runtime and simulator:
// for fuzzed dependency graphs,
//  * the threaded runtime must never execute a task before a predecessor
//    (checked with logical completion clocks), and must run every task,
//  * the simulator's makespan must respect lower bounds (critical-path
//    cost, total-work/cores) and the serial upper bound under both of its
//    scheduler policies.
#include <gtest/gtest.h>

#include <atomic>

#include "sim/simulator.hpp"
#include "taskrt/runtime.hpp"
#include "util/rng.hpp"

namespace bpar::taskrt {
namespace {

struct FuzzGraph {
  TaskGraph graph;
  // Addresses: a pool of integer cells tasks read/write.
  std::vector<int> cells;
};

// Builds a random graph of `n` tasks over `n_cells` addresses with random
// access modes. Each task records a logical timestamp when it runs;
// the validation lambda checks every predecessor finished first.
struct FuzzRun {
  std::unique_ptr<FuzzGraph> fg = std::make_unique<FuzzGraph>();
  std::vector<std::atomic<int>> done;  // logical clock per task
  std::atomic<int> clock{0};
  std::atomic<bool> violation{false};

  explicit FuzzRun(int n, int n_cells, std::uint64_t seed)
      : done(static_cast<std::size_t>(n)) {
    fg->cells.assign(static_cast<std::size_t>(n_cells), 0);
    util::Rng rng(seed);
    for (int i = 0; i < n; ++i) {
      std::vector<Access> acc;
      const int n_access = 1 + static_cast<int>(rng.uniform_index(3));
      for (int a = 0; a < n_access; ++a) {
        const auto cell = rng.uniform_index(
            static_cast<std::uint64_t>(n_cells));
        const auto mode = rng.uniform_index(3);
        const void* addr = &fg->cells[cell];
        if (mode == 0) {
          acc.push_back(in(addr));
        } else if (mode == 1) {
          acc.push_back(out(addr));
        } else {
          acc.push_back(inout(addr));
        }
      }
      // Capture the graph pointer (stable) and this run's state.
      FuzzGraph* fgp = fg.get();
      auto* self = this;
      const TaskId id = static_cast<TaskId>(fg->graph.size());
      fg->graph.add(
          [self, fgp, id] {
            // Every predecessor must have completed (non-zero clock).
            for (TaskId pred = 0; pred < fgp->graph.size(); ++pred) {
              for (const TaskId succ : fgp->graph.task(pred).successors) {
                if (succ == id &&
                    self->done[pred].load(std::memory_order_acquire) == 0) {
                  self->violation = true;
                }
              }
            }
            self->done[id].store(
                1 + self->clock.fetch_add(1, std::memory_order_acq_rel),
                std::memory_order_release);
          },
          std::span<const Access>(acc.data(), acc.size()));
    }
  }
};

class FuzzedGraphs
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(FuzzedGraphs, RuntimeNeverViolatesDependencies) {
  const auto [seed, workers] = GetParam();
  FuzzRun fuzz(120, 10, seed);
  Runtime rt({.num_workers = workers});
  const RunStats stats = rt.run(fuzz.fg->graph);
  EXPECT_EQ(stats.tasks_executed, 120U);
  EXPECT_FALSE(fuzz.violation.load());
  for (const auto& d : fuzz.done) EXPECT_GT(d.load(), 0);
}

TEST_P(FuzzedGraphs, SimulatorMakespanRespectsBounds) {
  const auto [seed, cores] = GetParam();
  FuzzRun fuzz(150, 8, seed);
  const TaskGraph& g = fuzz.fg->graph;
  util::Rng rng(seed ^ 0xabcdULL);
  std::vector<std::uint64_t> costs;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    costs.push_back(1000 + rng.uniform_index(100000));
    total += costs.back();
  }
  const std::uint64_t critical = g.critical_path_cost(costs);

  for (const auto policy : {sim::SchedulerPolicy::kFifo,
                            sim::SchedulerPolicy::kLocalityAware}) {
    sim::MachineModel ideal;
    ideal.dispatch_overhead_ns = 0.0;
    ideal.numa_remote_penalty = 1.0;
    ideal.cache_hot_discount = 1.0;
    sim::Simulator simulator(
        {.machine = ideal, .policy = policy, .cores = cores});
    const auto result = simulator.run(g, costs);
    const double makespan_ns = result.makespan_ms * 1e6;
    EXPECT_GE(makespan_ns, static_cast<double>(critical) * 0.999);
    EXPECT_GE(makespan_ns,
              static_cast<double>(total) / cores * 0.999);
    EXPECT_LE(makespan_ns, static_cast<double>(total) * 1.001);
    EXPECT_EQ(result.tasks, g.size());
    EXPECT_LE(result.max_concurrency, cores);
    EXPECT_GE(result.parallel_efficiency, 0.0);
    EXPECT_LE(result.parallel_efficiency, 1.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FuzzedGraphs,
    ::testing::Combine(::testing::Values(1ULL, 17ULL, 255ULL, 4096ULL,
                                         99999ULL),
                       ::testing::Values(1, 3, 4)),
    [](const auto& param_info) {
      return "seed" + std::to_string(std::get<0>(param_info.param)) +
             "_w" + std::to_string(std::get<1>(param_info.param));
    });

TEST(SimulatorProperty, MoreCoresNeverHurtIdealMachines) {
  FuzzRun fuzz(200, 12, 42);
  std::vector<std::uint64_t> costs(fuzz.fg->graph.size(), 50000);
  sim::MachineModel ideal;
  ideal.dispatch_overhead_ns = 0.0;
  ideal.numa_remote_penalty = 1.0;
  ideal.cache_hot_discount = 1.0;
  double prev = 1e300;
  for (const int cores : {1, 2, 4, 8, 16, 32}) {
    sim::Simulator simulator({.machine = ideal,
                              .policy = sim::SchedulerPolicy::kFifo,
                              .cores = cores});
    const double ms = simulator.run(fuzz.fg->graph, costs).makespan_ms;
    EXPECT_LE(ms, prev * 1.0001) << cores << " cores";
    prev = ms;
  }
}

}  // namespace
}  // namespace bpar::taskrt
