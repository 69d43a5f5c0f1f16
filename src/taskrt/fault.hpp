// Deterministic fault injection for the task runtime.
//
// A FaultSpec describes *which* tasks misbehave and *how*: throw an
// InjectedFault, sleep for a fixed delay, or stall (block until released —
// the watchdog's prey). Decisions are a pure hash of
// (seed, session index, task id), so a fault schedule is reproducible
// run-to-run yet *differs across sessions*: a batch that hits an injected
// throw can be retried (a new runtime session) without hitting the same
// fault forever, which is exactly what the trainer's recovery loop needs.
// Explicit task lists (`stall_tasks`, `throw_tasks`) fire in every session
// — use them to pin a fault to a known task, e.g. to trip the watchdog.
//
// Wiring: RuntimeOptions::faults, or the BPAR_FAULTS environment variable
// (same spec syntax) picked up by any Runtime whose options leave the spec
// empty. When the spec is disabled the runtime's dispatch hot path pays a
// single null-pointer test. Spec syntax (comma-separated key=value):
//
//   seed=42,throw=0.01,delay=0.005,delay_us=200,stall=0.001,stall_tasks=7:19
//
//   seed        hash seed (default 1)
//   throw       per-task probability of throwing InjectedFault
//   delay       per-task probability of sleeping delay_us before running
//   delay_us    delay duration in microseconds (default 200)
//   stall       per-task probability of stalling until released
//   throw_tasks / stall_tasks  colon-separated task ids, every session
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "taskrt/task_graph.hpp"
#include "util/error.hpp"

namespace bpar::taskrt {

/// Thrown by a task into which a `throw` fault was injected. Derives from
/// util::Error so recovery layers can distinguish injected (transient)
/// failures from genuine ones in tests.
class InjectedFault : public util::Error {
 public:
  using util::Error::Error;
};

/// Thrown out of Runtime::run() when the watchdog detects a stalled
/// graph; what() carries the scheduler-state diagnostic.
class WatchdogError : public util::Error {
 public:
  using util::Error::Error;
};

struct FaultSpec {
  std::uint64_t seed = 1;
  double throw_rate = 0.0;
  double delay_rate = 0.0;
  double stall_rate = 0.0;
  std::uint32_t delay_us = 200;
  std::vector<TaskId> throw_tasks;  // fire in every session
  std::vector<TaskId> stall_tasks;  // fire in every session

  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;

  [[nodiscard]] bool enabled() const {
    return throw_rate > 0.0 || delay_rate > 0.0 || stall_rate > 0.0 ||
           !throw_tasks.empty() || !stall_tasks.empty();
  }

  /// Parses the spec syntax documented above. Throws util::Error on
  /// malformed input. An empty string parses to a disabled spec.
  [[nodiscard]] static FaultSpec parse(std::string_view text);
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultSpec spec) : spec_(std::move(spec)) {}

  /// Called by the runtime when a session begins: advances the session
  /// index that decorrelates fault schedules across retries.
  void begin_session();

  /// Called by a worker immediately before running task `id`. May throw
  /// InjectedFault, sleep, or block until release_stalls().
  void before_execute(TaskId id);

  /// Wakes every stalled task; stalls injected afterwards no longer block.
  /// Called by the watchdog after capturing diagnostics, and by ~Runtime.
  void release_stalls();
  /// Re-arms stalling after release_stalls() (new session, fresh watchdog).
  void rearm_stalls();

  [[nodiscard]] const FaultSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint64_t throws_injected() const {
    return throws_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t delays_injected() const {
    return delays_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t stalls_injected() const {
    return stalls_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t faults_injected() const {
    return throws_injected() + delays_injected() + stalls_injected();
  }
  /// Tasks currently blocked in an injected stall.
  [[nodiscard]] int active_stalls() const {
    return active_stalls_.load(std::memory_order_relaxed);
  }

 private:
  /// Uniform in [0, 1), pure in (seed, session, id, salt).
  [[nodiscard]] double roll(TaskId id, std::uint64_t salt) const;
  void stall();

  FaultSpec spec_;
  std::atomic<std::uint64_t> session_{0};
  std::atomic<std::uint64_t> throws_{0};
  std::atomic<std::uint64_t> delays_{0};
  std::atomic<std::uint64_t> stalls_{0};

  std::mutex stall_mu_;
  std::condition_variable stall_cv_;
  bool stalls_released_ = false;  // guarded by stall_mu_
  std::atomic<int> active_stalls_{0};
};

}  // namespace bpar::taskrt
