// Weighted fixed-bin histogram — the one binning implementation shared by
// the Fig. 7 IPC / MPKI distributions (sim::SimResult) and the obs metrics
// registry's HistogramCells.
#pragma once

#include <string>
#include <vector>

namespace bpar::obs {

/// Estimated q-quantile from binned weights over `edges` (the Histogram
/// binning convention: bin 0 is (-inf, edges[0]), bin i is
/// [edges[i-1], edges[i]), the last bin is [edges.back(), inf)), linearly
/// interpolated within the containing bin with the open-ended outer bins
/// clamped to their finite edge. Shared by Histogram::quantile and the
/// MetricsSampler's windowed (delta-weight) rollups.
[[nodiscard]] double quantile_from_bins(const std::vector<double>& edges,
                                        const std::vector<double>& weights,
                                        double q);

class Histogram {
 public:
  /// `edges` are ascending inner bin boundaries; values below edges.front()
  /// land in bin 0, values >= edges.back() land in the last bin. With E
  /// edges there are E+1 bins.
  explicit Histogram(std::vector<double> edges);

  void add(double value, double weight = 1.0);

  [[nodiscard]] std::size_t bins() const { return weights_.size(); }
  [[nodiscard]] double bin_weight(std::size_t bin) const;
  /// Fraction of total weight in `bin` (0 if empty histogram).
  [[nodiscard]] double bin_fraction(std::size_t bin) const;
  [[nodiscard]] double total_weight() const { return total_; }
  /// Weighted mean of added values.
  [[nodiscard]] double mean() const;
  /// Estimated q-quantile (q in [0, 1]) from the binned weights, linearly
  /// interpolated within the containing bin. The open-ended outer bins
  /// clamp to their finite edge, so tail quantiles are conservative lower
  /// bounds there; use util::percentiles on raw samples for exact values.
  [[nodiscard]] double quantile(double q) const;
  /// Human-readable bin label, e.g. "1.5-2.0" or ">=30".
  [[nodiscard]] std::string bin_label(std::size_t bin, int digits = 1) const;
  /// The inner bin boundaries this histogram was built with.
  [[nodiscard]] const std::vector<double>& edges() const { return edges_; }

 private:
  std::vector<double> edges_;
  std::vector<double> weights_;
  double total_ = 0.0;
  double weighted_sum_ = 0.0;
};

}  // namespace bpar::obs
