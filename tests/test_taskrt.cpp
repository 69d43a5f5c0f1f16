// Task runtime tests: OpenMP/OmpSs dependency semantics (RAW, WAR, WAW),
// graph introspection, threaded execution correctness under both scheduler
// policies, stress tests, and exception propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "taskrt/runtime.hpp"
#include "taskrt/task_graph.hpp"
#include "util/rng.hpp"

namespace bpar::taskrt {
namespace {

TEST(TaskGraph, RawDependency) {
  TaskGraph g;
  int x = 0;
  const TaskId writer = g.add([] {}, {out(&x)});
  const TaskId reader = g.add([] {}, {in(&x)});
  EXPECT_EQ(g.task(reader).num_deps, 1U);
  ASSERT_EQ(g.task(writer).successors.size(), 1U);
  EXPECT_EQ(g.task(writer).successors[0], reader);
}

TEST(TaskGraph, MultipleReadersShareOneWriter) {
  TaskGraph g;
  int x = 0;
  const TaskId writer = g.add([] {}, {out(&x)});
  for (int i = 0; i < 5; ++i) g.add([] {}, {in(&x)});
  EXPECT_EQ(g.task(writer).successors.size(), 5U);
  EXPECT_EQ(g.edge_count(), 5U);
}

TEST(TaskGraph, WarDependency) {
  // A writer after readers must wait for all of them.
  TaskGraph g;
  int x = 0;
  g.add([] {}, {out(&x)});
  const TaskId r1 = g.add([] {}, {in(&x)});
  const TaskId r2 = g.add([] {}, {in(&x)});
  const TaskId w2 = g.add([] {}, {out(&x)});
  EXPECT_EQ(g.task(w2).num_deps, 3U);  // writer + both readers (WAW + WAR)
  EXPECT_TRUE(g.reaches(r1, w2));
  EXPECT_TRUE(g.reaches(r2, w2));
}

TEST(TaskGraph, WawDependency) {
  TaskGraph g;
  int x = 0;
  const TaskId w1 = g.add([] {}, {out(&x)});
  const TaskId w2 = g.add([] {}, {out(&x)});
  EXPECT_TRUE(g.reaches(w1, w2));
}

TEST(TaskGraph, InoutChainsSerialize) {
  TaskGraph g;
  int x = 0;
  TaskId prev = g.add([] {}, {inout(&x)});
  for (int i = 0; i < 4; ++i) {
    const TaskId next = g.add([] {}, {inout(&x)});
    EXPECT_TRUE(g.reaches(prev, next));
    prev = next;
  }
  // A chain of 5 inout tasks has critical path 5.
  EXPECT_EQ(g.critical_path_length(), 5U);
}

TEST(TaskGraph, ReaderAfterInoutDependsOnlyOnLastWriter) {
  TaskGraph g;
  int x = 0;
  g.add([] {}, {inout(&x)});
  g.add([] {}, {inout(&x)});
  const TaskId reader = g.add([] {}, {in(&x)});
  EXPECT_EQ(g.task(reader).num_deps, 1U);  // transitively covers both
}

TEST(TaskGraph, IndependentAddressesCreateNoEdges) {
  TaskGraph g;
  int x = 0;
  int y = 0;
  g.add([] {}, {out(&x)});
  g.add([] {}, {out(&y)});
  EXPECT_EQ(g.edge_count(), 0U);
  EXPECT_EQ(g.task(0).num_deps, 0U);
  EXPECT_EQ(g.task(1).num_deps, 0U);
  EXPECT_EQ(g.critical_path_length(), 1U);
}

TEST(TaskGraph, DuplicatePredecessorsDeduplicated) {
  TaskGraph g;
  int x = 0;
  int y = 0;
  const TaskId producer = g.add([] {}, {out(&x), out(&y)});
  const TaskId consumer = g.add([] {}, {in(&x), in(&y)});
  EXPECT_EQ(g.task(consumer).num_deps, 1U);
  EXPECT_EQ(g.task(producer).successors.size(), 1U);
}

TEST(TaskGraph, AffinityPredIsFirstInputProducer) {
  TaskGraph g;
  int x = 0;
  int y = 0;
  const TaskId px = g.add([] {}, {out(&x)});
  g.add([] {}, {out(&y)});
  const TaskId c = g.add([] {}, {in(&x), in(&y)});
  EXPECT_EQ(g.task(c).affinity_pred, px);
}

TEST(TaskGraph, CriticalPathWithCosts) {
  TaskGraph g;
  int x = 0;
  int y = 0;
  g.add([] {}, {out(&x)});            // id 0
  g.add([] {}, {out(&y)});            // id 1
  g.add([] {}, {in(&x), in(&y)});     // id 2
  const std::vector<std::uint64_t> costs = {10, 100, 5};
  EXPECT_EQ(g.critical_path_cost(costs), 105U);
}

class RuntimePolicies
    : public ::testing::TestWithParam<std::tuple<SchedulerPolicy, int>> {};

TEST_P(RuntimePolicies, ChainExecutesInOrder) {
  const auto [policy, workers] = GetParam();
  Runtime rt({.num_workers = workers, .policy = policy});
  TaskGraph g;
  std::vector<int> order;
  int x = 0;
  for (int i = 0; i < 20; ++i) {
    g.add([&order, i] { order.push_back(i); }, {inout(&x)});
  }
  const RunStats stats = rt.run(g);
  EXPECT_EQ(stats.tasks_executed, 20U);
  std::vector<int> expected(20);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // chain is fully serialized → no race
}

TEST_P(RuntimePolicies, DiamondRespectsDependencies) {
  const auto [policy, workers] = GetParam();
  Runtime rt({.num_workers = workers, .policy = policy});
  TaskGraph g;
  int a = 0;
  int b = 0;
  int c = 0;
  std::atomic<int> top_done{0};
  std::atomic<bool> violated{false};
  g.add([&] { top_done.fetch_add(1); }, {out(&a)});
  g.add(
      [&] {
        if (top_done.load() < 1) violated = true;
      },
      {in(&a), out(&b)});
  g.add(
      [&] {
        if (top_done.load() < 1) violated = true;
      },
      {in(&a), out(&c)});
  std::atomic<bool> join_ok{false};
  g.add([&] { join_ok = !violated.load(); }, {in(&b), in(&c)});
  rt.run(g);
  EXPECT_TRUE(join_ok.load());
}

TEST_P(RuntimePolicies, StressManySmallTasks) {
  const auto [policy, workers] = GetParam();
  Runtime rt({.num_workers = workers, .policy = policy});
  TaskGraph g;
  // 40 independent accumulation chains of 25 tasks each.
  constexpr int kChains = 40;
  constexpr int kLinks = 25;
  std::vector<std::int64_t> sums(kChains, 0);
  for (int chain = 0; chain < kChains; ++chain) {
    for (int link = 0; link < kLinks; ++link) {
      g.add([&sums, chain, link] { sums[static_cast<std::size_t>(chain)] += link; },
            {inout(&sums[static_cast<std::size_t>(chain)])});
    }
  }
  const RunStats stats = rt.run(g);
  EXPECT_EQ(stats.tasks_executed, static_cast<std::size_t>(kChains * kLinks));
  for (const auto sum : sums) EXPECT_EQ(sum, kLinks * (kLinks - 1) / 2);
}

TEST_P(RuntimePolicies, RunIsRepeatable) {
  const auto [policy, workers] = GetParam();
  Runtime rt({.num_workers = workers, .policy = policy});
  TaskGraph g;
  int counter = 0;
  for (int i = 0; i < 10; ++i) {
    g.add([&counter] { ++counter; }, {inout(&counter)});
  }
  rt.run(g);
  rt.run(g);
  EXPECT_EQ(counter, 20);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, RuntimePolicies,
    ::testing::Combine(::testing::Values(SchedulerPolicy::kFifo,
                                         SchedulerPolicy::kLocalityAware),
                       ::testing::Values(1, 2, 4, 8)),
    [](const auto& param_info) {
      const SchedulerPolicy policy = std::get<0>(param_info.param);
      return std::string(scheduler_policy_name(policy)) + "_w" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(Runtime, ExceptionPropagates) {
  Runtime rt({.num_workers = 2});
  TaskGraph g;
  int x = 0;
  g.add([] { throw std::runtime_error("task failed"); }, {out(&x)});
  g.add([] {}, {in(&x)});
  EXPECT_THROW(rt.run(g), std::runtime_error);
}

TEST(Runtime, EmptyGraphIsNoop) {
  Runtime rt({.num_workers = 2});
  TaskGraph g;
  const RunStats stats = rt.run(g);
  EXPECT_EQ(stats.tasks_executed, 0U);
}

TEST(Runtime, StatsTrackDurationsAndBusyTime) {
  Runtime rt({.num_workers = 4});
  TaskGraph g;
  std::vector<int> slots(8);
  for (auto& s : slots) {
    g.add(
        [] {
          volatile double x = 0;
          for (int i = 0; i < 50000; ++i) x = x + i;
        },
        {out(&s)});
  }
  const RunStats stats = rt.run(g);
  EXPECT_EQ(stats.task_duration_ns.size(), 8U);
  for (const auto d : stats.task_duration_ns) EXPECT_GT(d, 0U);
  EXPECT_GT(stats.wall_ns, 0U);
  EXPECT_GT(stats.total_busy_ns(), 0U);
}

TEST(Runtime, TraceRecordsWorkerAndTimes) {
  Runtime rt({.num_workers = 2, .record_trace = true});
  TaskGraph g;
  int x = 0;
  g.add([] {}, {out(&x)});
  g.add([] {}, {in(&x)});
  const RunStats stats = rt.run(g);
  ASSERT_EQ(stats.trace.size(), 2U);
  EXPECT_GE(stats.trace[0].worker, 0);
  EXPECT_LE(stats.trace[0].end_ns, stats.trace[1].end_ns);
  EXPECT_GE(stats.trace[1].start_ns, stats.trace[0].end_ns);
}

TEST(Runtime, LocalityPolicyReportsAffinityStats) {
  Runtime rt({.num_workers = 2, .policy = SchedulerPolicy::kLocalityAware});
  TaskGraph g;
  int x = 0;
  g.add([] {}, {out(&x)});
  for (int i = 0; i < 10; ++i) g.add([] {}, {inout(&x)});
  const RunStats stats = rt.run(g);
  EXPECT_EQ(stats.tasks_with_affinity, 10U);
  // A pure chain scheduled locality-aware should mostly stay on one worker.
  EXPECT_GE(stats.locality_hits, 5U);
}

TEST(TaskGraph, SealKeepsGraphExecutable) {
  Runtime rt({.num_workers = 2});
  TaskGraph g;
  int counter = 0;
  for (int i = 0; i < 5; ++i) g.add([&] { ++counter; }, {inout(&counter)});
  g.seal();
  rt.run(g);
  EXPECT_EQ(counter, 5);
}

TEST(TaskKindNames, AllDistinct) {
  EXPECT_STREQ(task_kind_name(TaskKind::kCellForward), "cell_fwd");
  EXPECT_STREQ(task_kind_name(TaskKind::kMerge), "merge");
  EXPECT_STREQ(task_kind_name(TaskKind::kBarrier), "barrier");
}

// ---- scheduler stress & regression tests -----------------------------------

class RuntimeStress : public ::testing::TestWithParam<int> {};

// Wide diamond DAG: fan-out of kWidth independent tiny tasks between two
// serialization points, stacked kLayers deep — >10k tasks total. Exercises
// the steal path, the parking lot, and the dependency counters under the
// worst task granularity. Each task bumps its own slot so any double or
// missed execution is caught exactly.
TEST_P(RuntimeStress, WideDiamondExecutesEveryTaskOnce) {
  const int workers = GetParam();
  Runtime rt({.num_workers = workers, .policy = SchedulerPolicy::kLocalityAware});
  constexpr int kLayers = 26;
  constexpr int kWidth = 400;
  constexpr int kTotal = kLayers * (kWidth + 1);  // 10426 tasks
  TaskGraph g;
  int gate = 0;
  std::vector<int> slots(kLayers * kWidth);
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(kTotal));
  std::size_t id = 0;
  for (int layer = 0; layer < kLayers; ++layer) {
    for (int i = 0; i < kWidth; ++i) {
      int* slot = &slots[static_cast<std::size_t>(layer * kWidth + i)];
      g.add([&hits, id] { hits[id].fetch_add(1, std::memory_order_relaxed); },
            {in(&gate), out(slot)});
      ++id;
    }
    // Join + re-fork point: writes the gate all next-layer tasks read.
    g.add([&hits, id] { hits[id].fetch_add(1, std::memory_order_relaxed); },
          {inout(&gate)});
    ++id;
  }
  // Repeated runs reuse the same runtime (and its parked workers).
  for (int rep = 0; rep < 2; ++rep) {
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    const RunStats stats = rt.run(g);
    EXPECT_EQ(stats.tasks_executed, static_cast<std::size_t>(kTotal));
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, RuntimeStress,
                         ::testing::Values(2, 4, 8, 16),
                         [](const auto& param_info) {
                           return "w" + std::to_string(param_info.param);
                         });

TEST(Runtime, StressExceptionPropagatesOutOfRun) {
  Runtime rt({.num_workers = 4});
  std::atomic<int> ran{0};
  TaskGraph g;
  for (int i = 0; i < 2000; ++i) {
    if (i == 997) {
      g.add([] { throw std::runtime_error("boom"); }, {});
    } else {
      g.add([&ran] { ran.fetch_add(1, std::memory_order_relaxed); }, {});
    }
  }
  // Each failed run still drains, so the same runtime runs the graph again.
  for (int rep = 0; rep < 3; ++rep) {
    ran.store(0, std::memory_order_relaxed);
    EXPECT_THROW(rt.run(g), std::runtime_error);
    EXPECT_EQ(ran.load(), 1999);  // independent tasks still all ran
  }
}

// Task states live in one array that run() grows to the largest graph so
// far: a small graph after a large one must reuse the array without
// leaking the large run's counters or stats into its own.
TEST(Runtime, StateArrayGrowsAcrossGraphSizes) {
  Runtime rt({.num_workers = 4,
              .policy = SchedulerPolicy::kLocalityAware,
              .record_trace = true});
  struct Sized {
    TaskGraph graph;
    std::vector<std::atomic<int>> hits;
    std::vector<int> slots;
  };
  // Chains of inout tasks over `lanes` slots, so every task but the
  // first of each lane has a dependency counter to reset between runs.
  const auto build = [](Sized& s, std::size_t lanes, std::size_t length) {
    s.hits = std::vector<std::atomic<int>>(lanes * length);
    s.slots.assign(lanes, 0);
    for (std::size_t i = 0; i < lanes * length; ++i) {
      s.graph.add(
          [&s, i] { s.hits[i].fetch_add(1, std::memory_order_relaxed); },
          {inout(&s.slots[i % lanes])});
    }
  };
  Sized small;
  Sized large;
  build(small, 4, 8);     // 32 tasks
  build(large, 64, 150);  // 9600 tasks
  for (Sized* s : {&small, &large, &small}) {
    for (auto& h : s->hits) h.store(0, std::memory_order_relaxed);
    const RunStats stats = rt.run(s->graph);
    const std::size_t n = s->graph.size();
    EXPECT_EQ(stats.tasks_executed, n);
    EXPECT_EQ(stats.task_duration_ns.size(), n);
    EXPECT_EQ(stats.trace.size(), n);
    for (const auto& h : s->hits) ASSERT_EQ(h.load(), 1);
    for (const TaskTrace& t : stats.trace) EXPECT_GE(t.worker, 0);
  }
}

// Satellite regression: a thief stealing from a victim's deque must take the
// cold (oldest) end, so the victim's freshly-pushed chain successor — the
// cache-hot task — stays local. Two workers, one 120-link inout chain plus
// independent filler the second worker can chew on: the chain should stay on
// its producer's worker almost every hop even with an active thief around.
TEST(Runtime, LocalityHitsSurviveActiveThief) {
  Runtime rt({.num_workers = 2, .policy = SchedulerPolicy::kLocalityAware});
  TaskGraph g;
  int x = 0;
  g.add([] {}, {out(&x)});
  constexpr std::size_t kChain = 120;
  for (std::size_t i = 0; i < kChain; ++i) {
    g.add(
        [] {
          volatile int spin = 0;
          for (int j = 0; j < 400; ++j) spin = spin + j;
        },
        {inout(&x)});
  }
  std::vector<int> filler(256);
  for (auto& f : filler) {
    g.add(
        [] {
          volatile int spin = 0;
          for (int j = 0; j < 400; ++j) spin = spin + j;
        },
        {out(&f)});
  }
  const RunStats stats = rt.run(g);
  EXPECT_EQ(stats.tasks_with_affinity, kChain);
  // Steal-from-top plus the owner's min-keep reservation should keep nearly
  // the whole chain local; the old steal-from-front code collapses this.
  EXPECT_GE(stats.locality_hits, kChain * 9 / 10);
}

TEST(Runtime, IndependentTasksCreateNoEdgesOrAliases) {
  Runtime rt({.num_workers = 4});
  TaskGraph g;
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    g.add([&ran] { ran.fetch_add(1, std::memory_order_relaxed); }, {});
  }
  // One real dependency pair sharing the graph: must still link, and the
  // independent tasks must not have polluted the address table around it.
  int x = 0;
  g.add([&ran] { ran.fetch_add(1, std::memory_order_relaxed); }, {out(&x)});
  g.add([&ran] { ran.fetch_add(1, std::memory_order_relaxed); }, {in(&x)});
  rt.run(g);
  EXPECT_EQ(ran.load(), 66);
  EXPECT_EQ(g.edge_count(), 1U);
  for (TaskId id = 0; id < 64U; ++id) {
    EXPECT_EQ(g.task(id).num_deps, 0U);
    EXPECT_TRUE(g.task(id).successors.empty());
  }
}

}  // namespace
}  // namespace bpar::taskrt
