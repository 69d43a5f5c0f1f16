#include "obs/sampler.hpp"

#include <algorithm>
#include <chrono>

#include "obs/histogram.hpp"
#include "obs/memory.hpp"
#include "obs/trace.hpp"

namespace bpar::obs {

MetricsSampler::MetricsSampler(SamplerOptions options)
    : options_(std::move(options)) {
  if (options_.period_ms == 0) options_.period_ms = 1;
  if (options_.capacity == 0) options_.capacity = 1;
}

MetricsSampler::~MetricsSampler() { stop(); }

void MetricsSampler::start() {
  const std::lock_guard<std::mutex> lock(thread_mu_);
  if (thread_.joinable()) return;
  stopping_.store(false, std::memory_order_relaxed);
  sample_now();  // the first tick, so windows have a baseline at once
  thread_ = std::thread([this] { thread_loop(); });
}

void MetricsSampler::stop() {
  {
    const std::lock_guard<std::mutex> lock(thread_mu_);
    if (!thread_.joinable()) return;
    stopping_.store(true, std::memory_order_relaxed);
  }
  cv_.notify_all();
  thread_.join();
  {
    const std::lock_guard<std::mutex> lock(thread_mu_);
    thread_ = std::thread();
  }
}

void MetricsSampler::thread_loop() {
  std::unique_lock<std::mutex> lock(thread_mu_);
  // start() took the first tick; each later one follows a full period.
  const auto period = std::chrono::milliseconds(options_.period_ms);
  const auto stopping = [&] {
    return stopping_.load(std::memory_order_relaxed);
  };
  while (!cv_.wait_for(lock, period, stopping)) {
    // Sample while NOT holding thread_mu_ (registry + ring have their own
    // locks; stop() only needs thread_mu_ to flip the flag).
    lock.unlock();
    sample_now();
    lock.lock();
  }
}

void MetricsSampler::sample_now() { sample_at(now_ns()); }

void MetricsSampler::sample_at(std::uint64_t ts_ns) {
  Registry::instance().counter("obs.sampler.ticks").add();
  // Refresh memory/proc gauges before snapshotting so they are part of
  // this tick, not one tick stale.
  if (options_.sample_proc) publish_memory_metrics();
  Sample sample;
  sample.ts_ns = ts_ns;
  sample.snap = Registry::instance().snapshot(/*include_series=*/false);

  const std::lock_guard<std::mutex> lock(mu_);
  // Per-tick counter rates into registry ring series: the sparkline feed.
  if (!ring_.empty() && !options_.rate_series.empty()) {
    const Sample& prev = ring_.back();
    const double dt =
        static_cast<double>(ts_ns - prev.ts_ns) / 1e9;
    if (dt > 0.0) {
      for (const std::string& name : options_.rate_series) {
        const auto now_it = sample.snap.counters.find(name);
        const auto prev_it = prev.snap.counters.find(name);
        if (now_it == sample.snap.counters.end() ||
            prev_it == prev.snap.counters.end()) {
          continue;
        }
        const double delta = static_cast<double>(now_it->second) -
                             static_cast<double>(prev_it->second);
        Registry::instance()
            .ring_series(name + ".rate", options_.capacity)
            .append(delta / dt);
      }
    }
  }
  while (ring_.size() >= options_.capacity) ring_.pop_front();
  ring_.push_back(std::move(sample));
  ++ticks_;
}

bool MetricsSampler::window_locked(double window_s, const Sample** oldest,
                                   const Sample** newest) const {
  if (ring_.size() < 2) return false;
  *newest = &ring_.back();
  const double lo_ts =
      static_cast<double>((*newest)->ts_ns) - window_s * 1e9;
  // Earliest sample still inside the window; fall back to the second-newest
  // so a too-large window degrades to "whatever coverage we have".
  const Sample* first_inside = nullptr;
  for (const Sample& s : ring_) {
    if (static_cast<double>(s.ts_ns) >= lo_ts) {
      first_inside = &s;
      break;
    }
  }
  if (first_inside == nullptr || first_inside == *newest) {
    first_inside = &ring_[ring_.size() - 2];
  }
  *oldest = first_inside;
  return (*newest)->ts_ns > (*oldest)->ts_ns;
}

MetricsSampler::CounterWindow MetricsSampler::counter_window(
    std::string_view name, double window_s) const {
  const std::lock_guard<std::mutex> lock(mu_);
  CounterWindow out;
  const Sample* oldest = nullptr;
  const Sample* newest = nullptr;
  if (!window_locked(window_s, &oldest, &newest)) return out;
  const auto now_it = newest->snap.counters.find(std::string(name));
  if (now_it == newest->snap.counters.end()) return out;
  // A counter absent from the older snapshot had not been created yet —
  // counters start at zero, so zero is the correct baseline (without this,
  // any metric born after the sampler's first tick would never roll up).
  const auto old_it = oldest->snap.counters.find(std::string(name));
  const double old_value =
      old_it != oldest->snap.counters.end()
          ? static_cast<double>(old_it->second)
          : 0.0;
  out.seconds = static_cast<double>(newest->ts_ns - oldest->ts_ns) / 1e9;
  out.delta = static_cast<double>(now_it->second) - old_value;
  out.rate_per_s = out.seconds > 0.0 ? out.delta / out.seconds : 0.0;
  out.valid = true;
  return out;
}

MetricsSampler::GaugeWindow MetricsSampler::gauge_window(
    std::string_view name, double window_s) const {
  const std::lock_guard<std::mutex> lock(mu_);
  GaugeWindow out;
  const Sample* oldest = nullptr;
  const Sample* newest = nullptr;
  if (!window_locked(window_s, &oldest, &newest)) return out;
  const std::string key(name);
  double sum = 0.0;
  std::size_t n = 0;
  for (const Sample& s : ring_) {
    if (s.ts_ns < oldest->ts_ns) continue;
    const auto it = s.snap.gauges.find(key);
    if (it == s.snap.gauges.end()) continue;
    if (n == 0) {
      out.min = out.max = it->second;
    } else {
      out.min = std::min(out.min, it->second);
      out.max = std::max(out.max, it->second);
    }
    out.last = it->second;
    sum += it->second;
    ++n;
  }
  if (n == 0) return out;
  out.mean = sum / static_cast<double>(n);
  out.valid = true;
  return out;
}

MetricsSampler::HistogramWindow MetricsSampler::histogram_window(
    std::string_view name, double window_s) const {
  const std::lock_guard<std::mutex> lock(mu_);
  HistogramWindow out;
  const Sample* oldest = nullptr;
  const Sample* newest = nullptr;
  if (!window_locked(window_s, &oldest, &newest)) return out;
  const std::string key(name);
  const auto now_it = newest->snap.histograms.find(key);
  if (now_it == newest->snap.histograms.end()) return out;
  const Registry::HistoSnapshot& now = now_it->second;
  if (now.edges.empty()) return out;
  // A histogram absent from the older snapshot had not been created yet:
  // its baseline is all-zero weights (same reasoning as counter_window).
  static const Registry::HistoSnapshot kEmpty{};
  const auto old_it = oldest->snap.histograms.find(key);
  const Registry::HistoSnapshot& old =
      old_it != oldest->snap.histograms.end() ? old_it->second : kEmpty;
  const bool old_empty = old.weights.empty();
  if (!old_empty && now.weights.size() != old.weights.size()) return out;
  std::vector<double> delta(now.weights.size(), 0.0);
  for (std::size_t b = 0; b < delta.size(); ++b) {
    delta[b] = std::max(0.0, now.weights[b] -
                                 (old_empty ? 0.0 : old.weights[b]));
  }
  out.seconds = static_cast<double>(newest->ts_ns - oldest->ts_ns) / 1e9;
  for (const double w : delta) out.count += w;
  // Delta-weighted mean from the running sums: mean_now*total_now -
  // mean_old*total_old over the delta weight.
  if (out.count > 0.0) {
    out.mean =
        (now.mean * now.total - old.mean * old.total) / out.count;
    out.p50 = quantile_from_bins(now.edges, delta, 0.50);
    out.p95 = quantile_from_bins(now.edges, delta, 0.95);
    out.p99 = quantile_from_bins(now.edges, delta, 0.99);
  }
  out.valid = true;
  return out;
}

std::vector<std::string> MetricsSampler::counter_names() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  if (ring_.empty()) return out;
  for (const auto& [name, value] : ring_.back().snap.counters) {
    out.push_back(name);
  }
  return out;
}

std::vector<std::string> MetricsSampler::histogram_names() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  if (ring_.empty()) return out;
  for (const auto& [name, value] : ring_.back().snap.histograms) {
    out.push_back(name);
  }
  return out;
}

std::size_t MetricsSampler::samples() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::uint64_t MetricsSampler::ticks() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return ticks_;
}

}  // namespace bpar::obs
