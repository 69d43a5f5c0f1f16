// Sampling span-stack profiler (DESIGN.md §5j).
//
// Answers "where do cycles go *inside* a task body" without per-event
// cost: while a SpanProfiler runs, every BPAR_SPAN also pushes its
// interned name onto a per-thread stack of plain atomics guarded by a
// seqlock version word, and a background thread sweeps all stacks at a
// fixed period, folding each consistent sample into
// `parent;child;leaf -> count` aggregates — the collapsed-flamegraph
// format flamegraph.pl and speedscope consume.
//
// Cost model:
//  * profiler off: one relaxed load + branch per span (same as the
//    tracing gate);
//  * profiler on: ~4 relaxed atomic stores per span push/pop — no locks,
//    no allocation on the instrumented thread;
//  * the sampler never blocks writers: a torn read (seqlock version moved
//    or odd) is simply discarded and retried next sweep.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace bpar::obs {

struct ProfilerOptions {
  /// Sampling period. 0 = no background thread: start() only enables
  /// span-stack maintenance and the caller drives sample_now() by hand
  /// (deterministic tests).
  std::uint32_t period_us = 2000;
};

class SpanProfiler {
 public:
  /// Frames kept per thread stack; deeper nesting is counted in
  /// truncations() and folded into the deepest retained frame.
  static constexpr std::size_t kMaxDepth = 48;

  struct Fold {
    std::string stack;  // "parent;child;leaf" resolved span names
    std::uint64_t count = 0;
  };

  explicit SpanProfiler(ProfilerOptions options = {});
  ~SpanProfiler();  // stop()

  SpanProfiler(const SpanProfiler&) = delete;
  SpanProfiler& operator=(const SpanProfiler&) = delete;

  /// Enables span-stack maintenance process-wide (refcounted, so nested
  /// profilers compose) and spawns the sampling thread when period_us > 0.
  /// Idempotent.
  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  /// One sweep over every registered thread's span stack — what the
  /// background thread does each period. Empty stacks contribute nothing.
  void sample_now();

  /// Aggregated folded stacks, heaviest first (ties by name). Names are
  /// resolved from the intern table at call time.
  [[nodiscard]] std::vector<Fold> folded() const;
  /// Collapsed-flamegraph text: one "a;b;c count" line per unique stack.
  [[nodiscard]] std::string folded_text() const;

  [[nodiscard]] std::uint64_t samples() const;  // non-empty stacks kept
  [[nodiscard]] std::uint64_t sweeps() const;   // sampling passes run
  [[nodiscard]] std::uint64_t torn() const;     // samples discarded as torn
  /// Drops aggregated counts (keeps sampling if running).
  void clear();

 private:
  void loop();

  ProfilerOptions options_;
  mutable std::mutex mu_;  // guards counts_
  // Key: the stack as packed little-endian u16 interned ids (2 bytes per
  // frame) — name resolution is deferred to folded().
  std::map<std::string, std::uint64_t> counts_;
  std::atomic<std::uint64_t> samples_{0};
  std::atomic<std::uint64_t> sweeps_{0};
  std::atomic<std::uint64_t> torn_{0};

  std::mutex thread_mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
  bool running_ = false;
};

/// `after` minus `before` per stack, dropping non-positive rows; heaviest
/// first. How /profilez renders a bounded window of a continuously
/// running profiler.
[[nodiscard]] std::vector<SpanProfiler::Fold> fold_delta(
    const std::vector<SpanProfiler::Fold>& before,
    const std::vector<SpanProfiler::Fold>& after);
[[nodiscard]] std::string folded_to_text(
    const std::vector<SpanProfiler::Fold>& folds);

/// Total pushes dropped because a thread nested deeper than kMaxDepth.
[[nodiscard]] std::uint64_t span_stack_truncations();
/// Registered per-thread stack slots (live + reusable); tests.
[[nodiscard]] std::size_t span_stack_slots();

}  // namespace bpar::obs
