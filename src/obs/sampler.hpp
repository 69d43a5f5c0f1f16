// Live time-series sampling of the metrics registry (DESIGN.md §5i).
//
// A MetricsSampler is a background thread that snapshots the process-wide
// obs::Registry every `period_ms` into a bounded drop-oldest ring of
// timestamped snapshots, so "throughput over the last 10 seconds" is a
// first-class query on a *running* system instead of an end-of-run report:
//
//  * counter_window()   — delta and rate-per-second of a counter over the
//    trailing window (clamped to the coverage the ring actually holds);
//  * gauge_window()     — last / min / max / mean of a gauge's samples;
//  * histogram_window() — count, mean, and interpolated p50/p95/p99 of the
//    *delta* weights an obs::Histogram accumulated inside the window, so a
//    forever-growing latency histogram still yields rolling percentiles.
//
// Each tick also publishes the instantaneous rate of the counters named in
// SamplerOptions::rate_series into Registry ring series ("<name>.rate"),
// giving /statz and bpar_top a ready-made sparkline without a second
// collection path. Snapshots exclude Series values (they can be large and
// the sampler publishes into them).
//
// All query methods are thread-safe; sample_at() exists so tests can drive
// deterministic timestamps without a thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace bpar::obs {

struct SamplerOptions {
  std::uint32_t period_ms = 1000;
  /// Ring capacity in snapshots (drop-oldest): 600 ticks at the default
  /// 1 s period is a 10-minute window.
  std::size_t capacity = 600;
  /// Counters whose per-tick rate is published as a Registry ring series
  /// named "<counter>.rate" (same capacity as the snapshot ring).
  std::vector<std::string> rate_series;
  /// Publish subsystem memory trackers + a /proc/self sample (`mem.*` /
  /// `proc.*` gauges, obs/memory.hpp) ahead of each tick's snapshot, so
  /// RSS / fault / ctx-switch history rides the same rollup machinery.
  bool sample_proc = true;
};

class MetricsSampler {
 public:
  explicit MetricsSampler(SamplerOptions options = {});
  ~MetricsSampler();  // stop()

  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  /// Takes the first snapshot, then spawns the sampling thread, which
  /// takes one more every period (idempotent).
  void start();
  /// Stops and joins the sampling thread (idempotent).
  void stop();

  /// Takes one snapshot now (also what the thread calls each tick).
  void sample_now();
  /// Test hook: takes one snapshot stamped with the given timestamp, so
  /// window math is exact under deterministic clocks.
  void sample_at(std::uint64_t ts_ns);

  struct CounterWindow {
    bool valid = false;    // >= 2 samples and the counter was present
    double seconds = 0.0;  // actual covered span (<= requested window)
    double delta = 0.0;
    double rate_per_s = 0.0;
  };
  struct GaugeWindow {
    bool valid = false;
    double last = 0.0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
  };
  struct HistogramWindow {
    bool valid = false;
    double seconds = 0.0;
    double count = 0.0;  // delta total weight inside the window
    double mean = 0.0;   // delta-weighted mean
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };

  [[nodiscard]] CounterWindow counter_window(std::string_view name,
                                             double window_s) const;
  [[nodiscard]] GaugeWindow gauge_window(std::string_view name,
                                         double window_s) const;
  [[nodiscard]] HistogramWindow histogram_window(std::string_view name,
                                                 double window_s) const;

  /// Names present in the newest snapshot (for generic /statz emission).
  [[nodiscard]] std::vector<std::string> counter_names() const;
  [[nodiscard]] std::vector<std::string> histogram_names() const;

  [[nodiscard]] std::size_t samples() const;  // snapshots currently held
  [[nodiscard]] std::uint64_t ticks() const;  // snapshots ever taken
  [[nodiscard]] std::uint32_t period_ms() const {
    return options_.period_ms;
  }

 private:
  struct Sample {
    std::uint64_t ts_ns = 0;
    Registry::Snapshot snap;
  };

  void thread_loop();
  /// Newest sample + the earliest sample still inside [newest - window];
  /// false when fewer than two samples exist. Caller holds mu_.
  [[nodiscard]] bool window_locked(double window_s, const Sample** oldest,
                                   const Sample** newest) const;

  SamplerOptions options_;
  mutable std::mutex mu_;
  std::deque<Sample> ring_;
  std::uint64_t ticks_ = 0;

  std::mutex thread_mu_;  // guards start/stop + the cv
  std::condition_variable cv_;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace bpar::obs
