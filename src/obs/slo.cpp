#include "obs/slo.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace bpar::obs {

SloTracker::SloTracker(SloOptions options) : options_(options) {
  if (options_.short_window_s == 0) options_.short_window_s = 1;
  if (options_.long_window_s < options_.short_window_s) {
    options_.long_window_s = options_.short_window_s;
  }
  options_.availability_objective =
      std::clamp(options_.availability_objective, 0.0, 1.0 - 1e-9);
  buckets_.assign(options_.long_window_s, Bucket{});
}

void SloTracker::record(bool ok, double latency_us) {
  record_at(now_ns(), ok, latency_us);
}

void SloTracker::record_at(std::uint64_t ts_ns, bool ok, double latency_us) {
  const std::uint64_t second = ts_ns / 1'000'000'000ULL;
  const std::lock_guard<std::mutex> lock(mu_);
  Bucket& bucket = buckets_[second % buckets_.size()];
  if (bucket.second != second) {
    // The ring slot last covered a second at least long_window_s ago;
    // recycle it for the current second.
    bucket = Bucket{};
    bucket.second = second;
  }
  ++bucket.eligible;
  ++eligible_;
  if (ok) {
    ++ok_;
    if (latency_us > options_.latency_target_us) ++latency_misses_;
  } else {
    ++bucket.errors;
    ++errors_;
  }
}

double SloTracker::window_error_ratio_locked(std::uint64_t now_s,
                                             std::uint32_t window_s) const {
  std::uint64_t eligible = 0;
  std::uint64_t errors = 0;
  const std::uint64_t lo_s =
      now_s >= window_s - 1 ? now_s - (window_s - 1) : 0;
  for (const Bucket& bucket : buckets_) {
    if (bucket.eligible == 0) continue;
    if (bucket.second < lo_s || bucket.second > now_s) continue;
    eligible += bucket.eligible;
    errors += bucket.errors;
  }
  if (eligible == 0) return 0.0;
  return static_cast<double>(errors) / static_cast<double>(eligible);
}

SloTracker::Snapshot SloTracker::snapshot() const {
  return snapshot_at(now_ns());
}

SloTracker::Snapshot SloTracker::snapshot_at(std::uint64_t ts_ns) const {
  const std::uint64_t now_s = ts_ns / 1'000'000'000ULL;
  const std::lock_guard<std::mutex> lock(mu_);
  Snapshot out;
  out.eligible = eligible_;
  out.errors = errors_;
  out.latency_misses = latency_misses_;
  if (eligible_ > 0) {
    out.availability = static_cast<double>(ok_) /
                       static_cast<double>(eligible_);
    const double budget = static_cast<double>(eligible_) *
                          (1.0 - options_.availability_objective);
    out.budget_consumed =
        budget > 0.0 ? static_cast<double>(errors_) / budget : 0.0;
  }
  if (ok_ > 0) {
    out.latency_attainment =
        static_cast<double>(ok_ - latency_misses_) /
        static_cast<double>(ok_);
  }
  const double budget_ratio = 1.0 - options_.availability_objective;
  out.burn_short =
      window_error_ratio_locked(now_s, options_.short_window_s) /
      budget_ratio;
  out.burn_long =
      window_error_ratio_locked(now_s, options_.long_window_s) /
      budget_ratio;
  out.alerting = out.burn_short >= options_.alert_burn_threshold &&
                 out.burn_long >= options_.alert_burn_threshold;
  return out;
}

}  // namespace bpar::obs
