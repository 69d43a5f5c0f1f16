// SLO tracking for the serving plane (DESIGN.md §5i): latency-target
// attainment and multi-window error-budget burn rate.
//
// Model (the standard SRE formulation):
//  * every terminal response that is SLO-eligible (served, shed, expired,
//    or internally failed — admission rejects are the client's backpressure
//    signal, not an SLO event) records one observation: ok or error;
//  * availability SLO: good = ok. With objective O, the error budget over
//    any window is (1 - O) of the eligible traffic; the burn rate is
//    error_ratio / (1 - O) — burn 1.0 consumes the budget exactly at the
//    sustainable rate, burn N exhausts an N-times-shorter period's budget;
//  * latency SLO: among ok responses, the fraction answered within
//    latency_target_us, tracked as its own attainment number;
//  * multi-window alerting: the tracker reports the burn rate over a short
//    and a long trailing window; `alerting` is set when BOTH exceed
//    alert_burn_threshold, the classic guard against paging on blips
//    (short window only) or stale incidents (long window only).
//
// Implementation: one-second buckets in a fixed ring covering the long
// window, mutex-guarded (recording happens once per response, not per
// task). record_at()/snapshot_at() take explicit timestamps so burn-rate
// math is testable against hand-computed fixtures.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

namespace bpar::obs {

struct SloOptions {
  /// Availability objective: target fraction of eligible responses that
  /// are served ok. 0.999 = "three nines".
  double availability_objective = 0.999;
  /// Latency SLO: ok responses should complete within this (microseconds,
  /// measured submit -> response).
  double latency_target_us = 50'000.0;
  std::uint32_t short_window_s = 10;
  std::uint32_t long_window_s = 300;
  /// Both windows burning faster than this sets Snapshot::alerting.
  double alert_burn_threshold = 10.0;
};

class SloTracker {
 public:
  explicit SloTracker(SloOptions options = {});

  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  /// Records one eligible response. `ok` = answered kOk; `latency_us` is
  /// only read when ok (submit -> response delivery).
  void record(bool ok, double latency_us);
  /// Deterministic-time variant for tests.
  void record_at(std::uint64_t ts_ns, bool ok, double latency_us);

  struct Snapshot {
    std::uint64_t eligible = 0;  // lifetime observations
    std::uint64_t errors = 0;
    std::uint64_t latency_misses = 0;  // ok but over the latency target
    double availability = 1.0;         // lifetime good fraction
    double latency_attainment = 1.0;   // lifetime ok-within-target fraction
    /// Lifetime errors over the lifetime budget (eligible * (1 - O));
    /// > 1.0 means the budget is spent.
    double budget_consumed = 0.0;
    double burn_short = 0.0;  // burn rate over the short window
    double burn_long = 0.0;   // burn rate over the long window
    bool alerting = false;    // both windows over alert_burn_threshold
  };
  [[nodiscard]] Snapshot snapshot() const;
  [[nodiscard]] Snapshot snapshot_at(std::uint64_t ts_ns) const;

  [[nodiscard]] const SloOptions& options() const { return options_; }

 private:
  struct Bucket {
    std::uint64_t second = 0;  // absolute second this bucket covers
    std::uint64_t eligible = 0;
    std::uint64_t errors = 0;
  };

  /// Error ratio over the trailing `window_s` ending at `now_s`; 0 when no
  /// eligible traffic fell inside the window. Caller holds mu_.
  [[nodiscard]] double window_error_ratio_locked(std::uint64_t now_s,
                                                 std::uint32_t window_s) const;

  SloOptions options_;
  mutable std::mutex mu_;
  std::vector<Bucket> buckets_;  // ring indexed by second % size
  std::uint64_t eligible_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t ok_ = 0;
  std::uint64_t latency_misses_ = 0;
};

}  // namespace bpar::obs
