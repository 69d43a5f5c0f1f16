// Task runtime tests: OpenMP/OmpSs dependency semantics (RAW, WAR, WAW),
// graph introspection, the work-stealing deque's last-entry race, threaded
// execution correctness at 1-16 workers, locality placement decided by
// explicit handshakes, stress tests, and exception propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "taskrt/runtime.hpp"
#include "taskrt/task_graph.hpp"
#include "taskrt/work_steal_deque.hpp"
#include "util/rng.hpp"

namespace bpar::taskrt {
namespace {

// Waits for a flag another task sets. Tests whose outcome must follow
// from synchronisation, not timing, share one deadline across their waits,
// so a scheduler bug fails the test in seconds instead of hanging it.
bool await(const std::atomic<bool>& flag,
           std::chrono::steady_clock::time_point deadline) {
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

std::chrono::steady_clock::time_point in_10s() {
  return std::chrono::steady_clock::now() + std::chrono::seconds(10);
}

TEST(WorkStealingDeque, ThiefTakesTheOnlyEntry) {
  WorkStealingDeque deque;
  deque.push(7);
  EXPECT_EQ(deque.steal(), 7U);
  EXPECT_EQ(deque.pop(), kInvalidTask);
  EXPECT_EQ(deque.steal(), kInvalidTask);
  EXPECT_TRUE(deque.empty_approx());
  // Two entries: the thief takes the oldest, the owner the newest.
  deque.push(1);
  deque.push(2);
  EXPECT_EQ(deque.steal(), 1U);
  EXPECT_EQ(deque.pop(), 2U);
}

// 100k rounds of a race for a one-element deque: the owner pushes id i,
// opens round i, and pops, while the thief, released by the same round,
// steals. pop()'s last-entry CAS and steal()'s meet head on; each id
// must be taken exactly once. The owner waits for the thief to finish a
// round before pushing the next id.
TEST(WorkStealingDeque, OwnerAndThiefRaceForTheLastEntry) {
  constexpr TaskId kRounds = 100000;
  WorkStealingDeque deque;
  std::vector<std::uint8_t> owner_took(kRounds, 0);
  std::vector<std::uint8_t> thief_took(kRounds, 0);
  std::atomic<TaskId> opened{0};  // rounds the owner has started
  std::atomic<TaskId> closed{0};  // rounds the thief has finished
  std::thread thief([&] {
    for (TaskId i = 0; i < kRounds; ++i) {
      for (int spins = 0; opened.load(std::memory_order_acquire) <= i;) {
        sync::spin_pause(spins++);
      }
      const TaskId id = deque.steal();
      if (id != kInvalidTask) ++thief_took[id];
      closed.store(i + 1, std::memory_order_release);
    }
  });
  for (TaskId i = 0; i < kRounds; ++i) {
    deque.push(i);
    opened.store(i + 1, std::memory_order_release);
    // A delay that cycles through 0-15 pause hints sweeps the pop across
    // the thief's wake-up latency, so either side may come first.
    for (TaskId k = 0; k < i % 16; ++k) sync::spin_pause(0);
    const TaskId id = deque.pop();
    if (id != kInvalidTask) ++owner_took[id];
    for (int spins = 0; closed.load(std::memory_order_acquire) <= i;) {
      sync::spin_pause(spins++);
    }
  }
  thief.join();
  for (TaskId i = 0; i < kRounds; ++i) {
    ASSERT_EQ(owner_took[i] + thief_took[i], 1) << "id " << i;
  }
}

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

class RuntimeWorkers : public ::testing::TestWithParam<int> {};

TEST_P(RuntimeWorkers, ChainExecutesInOrder) {
  Runtime rt({.num_workers = GetParam()});
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

TEST_P(RuntimeWorkers, DiamondRespectsDependencies) {
  Runtime rt({.num_workers = GetParam()});
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

TEST_P(RuntimeWorkers, StressManySmallTasks) {
  Runtime rt({.num_workers = GetParam()});
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

TEST_P(RuntimeWorkers, RunIsRepeatable) {
  Runtime rt({.num_workers = GetParam()});
  TaskGraph g;
  int counter = 0;
  for (int i = 0; i < 10; ++i) {
    g.add([&counter] { ++counter; }, {inout(&counter)});
  }
  rt.run(g);
  rt.run(g);
  EXPECT_EQ(counter, 20);
}

INSTANTIATE_TEST_SUITE_P(Workers, RuntimeWorkers,
                         ::testing::Values(1, 2, 4, 8),
                         [](const auto& param_info) {
                           return "w" + std::to_string(param_info.param);
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

// Every link of a chain is a locality hit when nothing can take it from
// its producer: on 1 worker trivially, and on 2 workers when the second
// worker sits in a blocker task from before the chain's first link until
// its last.
TEST(Runtime, LocalityPolicyReportsAffinityStats) {
  {
    Runtime rt({.num_workers = 1});
    TaskGraph g;
    int x = 0;
    g.add([] {}, {out(&x)});
    for (int i = 0; i < 10; ++i) g.add([] {}, {inout(&x)});
    const RunStats stats = rt.run(g);
    EXPECT_EQ(stats.tasks_with_affinity, 10U);
    EXPECT_EQ(stats.locality_hits, stats.tasks_with_affinity);
  }
  Runtime rt({.num_workers = 2});
  TaskGraph g;
  const auto deadline = in_10s();
  std::atomic<bool> blocker_running{false};
  std::atomic<bool> chain_done{false};
  g.add(
      [&] {
        blocker_running = true;
        EXPECT_TRUE(await(chain_done, deadline));
      },
      {});
  int x = 0;
  g.add([&] { EXPECT_TRUE(await(blocker_running, deadline)); }, {out(&x)});
  for (int i = 0; i < 9; ++i) g.add([] {}, {inout(&x)});
  g.add([&] { chain_done = true; }, {inout(&x)});
  const RunStats stats = rt.run(g);
  EXPECT_EQ(stats.tasks_with_affinity, 10U);
  EXPECT_EQ(stats.locality_hits, 10U);
  EXPECT_EQ(stats.steals, 0U);
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
  Runtime rt({.num_workers = workers});
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
  Runtime rt({.num_workers = 4, .record_trace = true});
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

// A thief takes the cold top of a victim's deque, never the hot entry
// below it, and it may take a deque's last entry. Each link of a 2-worker
// chain also feeds a cold task, made ready just before the next link, so
// the cold task sits above that link on the producer's deque. The next
// link waits until the cold task has started, and the cold task waits
// until the next link has started: they must run at once, so the idle
// worker has to steal every cold task (often as the deque's only entry,
// once the owner has popped the link) while every link stays on the
// root's worker.
TEST(Runtime, LocalityHitsSurviveActiveThief) {
  constexpr std::size_t kChain = 64;
  Runtime rt({.num_workers = 2, .record_trace = true});
  TaskGraph g;
  const auto deadline = in_10s();
  std::vector<std::atomic<bool>> link_started(kChain + 1);
  std::vector<std::atomic<bool>> cold_started(kChain);
  std::vector<int> cold(kChain);
  int x = 0;
  std::vector<TaskId> links;
  std::vector<TaskId> colds;
  for (std::size_t i = 0; i <= kChain; ++i) {
    std::vector<Access> accesses = {i == 0 ? out(&x) : inout(&x)};
    if (i < kChain) accesses.push_back(out(&cold[i]));
    links.push_back(g.add(
        [&, i] {
          link_started[i] = true;
          EXPECT_TRUE(i == 0 || await(cold_started[i - 1], deadline));
        },
        accesses));
    if (i < kChain) {
      colds.push_back(g.add(
          [&, i] {
            cold_started[i] = true;
            EXPECT_TRUE(await(link_started[i + 1], deadline));
          },
          {in(&cold[i])}));
    }
  }
  const RunStats stats = rt.run(g);
  EXPECT_EQ(stats.tasks_with_affinity, 2 * kChain);
  EXPECT_EQ(stats.locality_hits, kChain);  // every link, no cold task
  EXPECT_EQ(stats.steals, kChain);         // every cold task, nothing else
  const std::int32_t owner = stats.trace[links[0]].worker;
  for (const TaskId id : links) EXPECT_EQ(stats.trace[id].worker, owner);
  for (const TaskId id : colds) EXPECT_NE(stats.trace[id].worker, owner);
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
