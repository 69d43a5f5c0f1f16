// Fault-injection tests: deterministic fault plans, injected throws
// propagating cleanly out of graphs at several worker counts, and the
// watchdog turning a stalled graph into a diagnostic instead of a hang.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "taskrt/fault.hpp"
#include "taskrt/runtime.hpp"
#include "taskrt/task_graph.hpp"

namespace bpar::taskrt {
namespace {

TEST(FaultSpec, ParsesFullSpec) {
  const auto spec = FaultSpec::parse(
      "seed=42,throw=0.01,delay=0.005,delay_us=350,stall=0.001,"
      "stall_tasks=7:19,throw_tasks=3");
  EXPECT_EQ(spec.seed, 42U);
  EXPECT_DOUBLE_EQ(spec.throw_rate, 0.01);
  EXPECT_DOUBLE_EQ(spec.delay_rate, 0.005);
  EXPECT_DOUBLE_EQ(spec.stall_rate, 0.001);
  EXPECT_EQ(spec.delay_us, 350U);
  EXPECT_EQ(spec.stall_tasks, (std::vector<TaskId>{7, 19}));
  EXPECT_EQ(spec.throw_tasks, (std::vector<TaskId>{3}));
  EXPECT_TRUE(spec.enabled());
}

TEST(FaultSpec, EmptySpecIsDisabled) {
  const auto spec = FaultSpec::parse("");
  EXPECT_FALSE(spec.enabled());
}

TEST(FaultSpec, MalformedSpecThrows) {
  EXPECT_THROW((void)FaultSpec::parse("throw=abc"), util::Error);
  EXPECT_THROW((void)FaultSpec::parse("nonsense=1"), util::Error);
  EXPECT_THROW((void)FaultSpec::parse("throw"), util::Error);
}

TEST(FaultInjector, DisabledSpecCreatesNoInjector) {
  unsetenv("BPAR_FAULTS");  // an empty spec falls back to the environment
  RuntimeOptions opts;
  opts.num_workers = 2;
  Runtime rt(opts);
  EXPECT_EQ(rt.fault_injector(), nullptr);
}

// Runs `tasks` no-op tasks through a fresh runtime and returns how many
// throws were injected.
std::uint64_t run_and_count_throws(const FaultSpec& spec, int tasks,
                                   int workers, int* completed = nullptr) {
  RuntimeOptions opts;
  opts.num_workers = workers;
  opts.faults = spec;
  Runtime rt(opts);
  TaskGraph g;
  std::atomic<int> ran{0};
  for (int i = 0; i < tasks; ++i) {
    g.add([&ran] { ran.fetch_add(1, std::memory_order_relaxed); }, {});
  }
  try {
    rt.run(g);
  } catch (const InjectedFault&) {
  }
  if (completed != nullptr) *completed = ran.load();
  return rt.fault_injector()->throws_injected();
}

TEST(FaultInjector, ScheduleIsDeterministicPerSeed) {
  FaultSpec spec;
  spec.seed = 7;
  spec.throw_rate = 0.05;
  const auto a = run_and_count_throws(spec, 400, 4);
  const auto b = run_and_count_throws(spec, 400, 4);
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 0U);

  FaultSpec other = spec;
  other.seed = 8;
  // A different seed picks a different (deterministic) schedule. The
  // counts could coincide; the expectation documents the common case.
  const auto c = run_and_count_throws(other, 400, 4);
  const auto d = run_and_count_throws(other, 400, 4);
  EXPECT_EQ(c, d);
}

TEST(FaultInjector, SessionsDecorrelateSchedules) {
  // The same graph run twice in one runtime sees different sessions, so a
  // retried batch is not doomed to the identical fault forever.
  FaultSpec spec;
  spec.seed = 3;
  spec.throw_rate = 0.15;
  RuntimeOptions opts;
  opts.num_workers = 2;
  opts.faults = spec;
  Runtime rt(opts);
  TaskGraph g;
  for (int i = 0; i < 5; ++i) g.add([] {}, {});
  int failed_sessions = 0;
  for (int s = 0; s < 12; ++s) {
    try {
      rt.run(g);
    } catch (const InjectedFault&) {
      ++failed_sessions;
    }
  }
  // The schedule is a pure function of (seed, session, task id), so this
  // outcome is deterministic. With p=0.15 over 5 tasks a session fails
  // slightly more than half the time; all-fail or none-fail would mean
  // sessions reuse one schedule.
  EXPECT_GT(failed_sessions, 0);
  EXPECT_LT(failed_sessions, 12);
}

TEST(FaultMatrix, PinnedThrowPropagatesAcrossWorkerCounts) {
  for (const int workers : {2, 4, 8, 16}) {
    FaultSpec spec;
    spec.throw_tasks = {10};  // mid-graph, every session
    RuntimeOptions opts;
    opts.num_workers = workers;
    opts.faults = spec;
    Runtime rt(opts);
    TaskGraph g;
    std::atomic<int> ran{0};
    for (int i = 0; i < 40; ++i) {
      g.add([&ran] { ran.fetch_add(1, std::memory_order_relaxed); }, {});
    }
    EXPECT_THROW(rt.run(g), InjectedFault) << workers << " workers";
    EXPECT_EQ(rt.fault_injector()->throws_injected(), 1U);

    // The failed session drained; the runtime stays usable. A smaller
    // graph avoids the pinned id.
    TaskGraph g2;
    std::atomic<int> reran{0};
    for (int i = 0; i < 5; ++i) {
      g2.add([&reran] { reran.fetch_add(1, std::memory_order_relaxed); },
             {});
    }
    rt.run(g2);
    EXPECT_EQ(reran.load(), 5) << workers << " workers";
  }
}

TEST(Watchdog, StalledTaskYieldsDiagnosticNotHang) {
  FaultSpec spec;
  spec.stall_tasks = {2};
  RuntimeOptions opts;
  opts.num_workers = 4;
  opts.faults = spec;
  opts.watchdog_ms = 150;
  Runtime rt(opts);
  TaskGraph g;
  for (int i = 0; i < 8; ++i) g.add([] {}, {});
  try {
    rt.run(g);
    FAIL() << "expected WatchdogError";
  } catch (const WatchdogError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("watchdog"), std::string::npos) << what;
    EXPECT_NE(what.find("ready-fifo"), std::string::npos) << what;
    EXPECT_NE(what.find("deque"), std::string::npos) << what;
    EXPECT_NE(what.find("pending histogram"), std::string::npos) << what;
    EXPECT_NE(what.find("oldest unfinished"), std::string::npos) << what;
  }

  // The watchdog released the stall and the graph drained within the
  // grace period, so the runtime is reusable.
  TaskGraph g2;
  std::atomic<int> ran{0};
  g2.add([&ran] { ran.fetch_add(1, std::memory_order_relaxed); }, {});
  rt.run(g2);
  EXPECT_EQ(ran.load(), 1);
}

TEST(Watchdog, QuietGraphDoesNotTrip) {
  unsetenv("BPAR_FAULTS");
  RuntimeOptions opts;
  opts.num_workers = 4;
  opts.watchdog_ms = 2000;
  Runtime rt(opts);
  TaskGraph g;
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    g.add([&ran] { ran.fetch_add(1, std::memory_order_relaxed); }, {});
  }
  rt.run(g);
  EXPECT_EQ(ran.load(), 64);
}

TEST(Watchdog, SchedulerDumpAvailableWhenIdle) {
  unsetenv("BPAR_FAULTS");
  RuntimeOptions opts;
  opts.num_workers = 2;
  Runtime rt(opts);
  EXPECT_NE(rt.scheduler_state_dump().find("idle"), std::string::npos);
}

}  // namespace
}  // namespace bpar::taskrt
