// Admission control and micro-batch formation for the serving engine
// (DESIGN.md §5f, §5h), decided on an explicit clock: a Batcher owns the
// per-class request queues and makes every admission, shedding, flush and
// seal decision, each at a `now` its caller passes in. It reads no clock
// and takes no lock, so tests drive it on virtual time with no engine or
// executor; the engine's dispatcher drives it with steady-clock time under
// the engine's lock and answers what it decides.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <optional>
#include <vector>

#include "serve/engine.hpp"

namespace bpar::serve {

/// A validated request with the promise that answers it.
struct Pending {
  Request request;
  std::promise<Response> promise;
  std::chrono::steady_clock::time_point enqueued{};  // set by admit()
  std::uint64_t id = 0;
};

class Batcher {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;
  static constexpr TimePoint kNever = TimePoint::max();

  /// What one step() decided. A request leaves the queues through exactly
  /// one of the three lists.
  struct Step {
    std::vector<Pending> shed;     // overdue under backlog: answer kShed
    std::vector<Pending> expired;  // sealed past its deadline
    std::vector<Pending> batch;    // sealed live group, all one length
    TimePoint wake = kNever;       // step again by then if nothing arrives
  };

  /// Reads max_batch, max_delay_us, max_queue, class_quota, shed_wait_us.
  explicit Batcher(const EngineOptions& options);

  /// Admits a validated request at `now`, checking in order: a passed
  /// deadline (kDeadlineExceeded, no slot taken), close() (kShutdown), a
  /// full shared queue or class quota (kRejected). Otherwise queues it,
  /// moving from `pending` and stamping `enqueued = now`, and returns kOk.
  [[nodiscard]] Status admit(Pending& pending, TimePoint now);

  /// Decides what happens at `now`. With no open group, picks a head (the
  /// oldest request of the highest non-empty class) after shedding, and
  /// the head's length fixes the group until it seals. The group seals
  /// once max_batch requests of that length are queued, at
  /// `head.enqueued + max_delay_us`, or at once after close().
  [[nodiscard]] Step step(TimePoint now);

  /// Stops admission; every later step() seals at once (draining).
  void close() { closed_ = true; }
  [[nodiscard]] bool closed() const { return closed_; }
  [[nodiscard]] std::size_t queued() const;
  [[nodiscard]] std::size_t queued(Priority cls) const;

 private:
  struct Group {
    int steps = 0;
    TimePoint flush_at{};
  };

  /// Sheds overdue kNormal/kBatch requests, lowest class and oldest first,
  /// while the backlog exceeds one micro-batch.
  void shed_overdue(TimePoint now, std::vector<Pending>& shed);
  [[nodiscard]] std::size_t matching(int steps) const;

  std::size_t max_batch_;
  std::chrono::microseconds max_delay_;
  std::chrono::microseconds shed_wait_;
  std::size_t max_queue_;
  std::array<std::size_t, kNumPriorities> quota_{};
  /// Per-class FIFO queues, indexed by Priority.
  std::array<std::deque<Pending>, kNumPriorities> queues_;
  std::optional<Group> group_;  // the open group, until it seals
  bool closed_ = false;
};

}  // namespace bpar::serve
