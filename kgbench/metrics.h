// Metric math of the chart benchmark: percentiles, the convergence rule
// that ends a chart request, chart quality against ground truth, and the
// behaviour digest. Pure functions over the library's public types, so
// metrics_test.cc checks them on hand-built inputs.
#ifndef KGBENCH_METRICS_H_
#define KGBENCH_METRICS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/join/result.h"
#include "src/ola/estimator.h"

namespace kgbench {

// Bars shown to the analyst: the largest estimates of a chart.
inline constexpr std::size_t kDisplayedBars = 10;

// Linear-interpolation percentile (q in [0, 1]) of `values`; the
// "inclusive" definition of numpy and Python's statistics module.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

// Samples strictly above the q-th percentile. A percentile is reported
// only when at least ten samples lie beyond it.
inline std::size_t SamplesBeyond(const std::vector<double>& values, double q) {
  const double cut = Percentile(values, q);
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [cut](double v) { return v > cut; }));
}

struct Bar {
  kgoa::TermId group = 0;
  double estimate = 0;
  double ci = 0;
};

// The displayed chart: the `k` largest positive estimates, ties broken by
// group id so the display is a pure function of the estimates.
inline std::vector<Bar> DisplayedBars(const kgoa::GroupedEstimates& estimates,
                                      std::size_t k = kDisplayedBars) {
  std::vector<Bar> bars;
  for (const auto& [group, estimate] : estimates.Estimates()) {
    if (estimate > 0) bars.push_back(Bar{group, estimate, 0.0});
  }
  auto larger = [](const Bar& a, const Bar& b) {
    return a.estimate != b.estimate ? a.estimate > b.estimate
                                    : a.group < b.group;
  };
  const std::size_t shown = std::min(k, bars.size());
  std::partial_sort(bars.begin(), bars.begin() + static_cast<long>(shown),
                    bars.end(), larger);
  bars.resize(shown);
  for (Bar& bar : bars) bar.ci = estimates.CiHalfWidth(bar.group);
  return bars;
}

// The stopping rule of a chart request: at least `min_walks` walks, a
// non-empty display, and every displayed bar's 0.95 CI half-width at most
// `target` times the largest displayed estimate.
inline bool Converged(const std::vector<Bar>& displayed, uint64_t walks,
                      double target, uint64_t min_walks = 1024) {
  if (walks < min_walks || displayed.empty()) return false;
  const double limit = target * displayed.front().estimate;
  return std::all_of(displayed.begin(), displayed.end(),
                     [limit](const Bar& bar) { return bar.ci <= limit; });
}

// Quality of one chart at stop, over the `k` largest exact groups (ties by
// group id): the summed absolute error relative to the summed exact count,
// and how many of those bars' CIs cover the exact count.
struct ChartQuality {
  double rel_err = 0;
  uint64_t bars = 0;
  uint64_t covered = 0;
};

inline ChartQuality ScoreChart(const kgoa::GroupedEstimates& estimates,
                               const kgoa::GroupedResult& exact,
                               std::size_t k = kDisplayedBars) {
  std::vector<std::pair<kgoa::TermId, uint64_t>> groups(exact.counts.begin(),
                                                        exact.counts.end());
  auto larger = [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  };
  const std::size_t shown = std::min(k, groups.size());
  std::partial_sort(groups.begin(), groups.begin() + static_cast<long>(shown),
                    groups.end(), larger);
  groups.resize(shown);

  ChartQuality quality;
  double abs_err = 0;
  double total = 0;
  for (const auto& [group, count] : groups) {
    const double truth = static_cast<double>(count);
    const double estimate = estimates.Estimate(group);
    abs_err += std::abs(estimate - truth);
    total += truth;
    ++quality.bars;
    if (std::abs(estimate - truth) <= estimates.CiHalfWidth(group)) {
      ++quality.covered;
    }
  }
  quality.rel_err = total > 0 ? abs_err / total : 0.0;
  return quality;
}

// FNV-1a over 64-bit words; doubles enter by bit pattern, so the digest
// changes if any estimate changes in any bit.
class Digest {
 public:
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (word >> (8 * i)) & 0xffu;
      state_ *= 0x100000001b3ull;
    }
  }
  void AddDouble(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  // Every group's estimate and CI half-width in group-id order, then the
  // walks the chart needed.
  void AddChart(const kgoa::GroupedEstimates& estimates, uint64_t walks) {
    std::vector<std::pair<kgoa::TermId, double>> groups;
    for (const auto& entry : estimates.Estimates()) groups.push_back(entry);
    std::sort(groups.begin(), groups.end());
    Add(groups.size());
    for (const auto& [group, estimate] : groups) {
      Add(group);
      AddDouble(estimate);
      AddDouble(estimates.CiHalfWidth(group));
    }
    Add(walks);
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(state_));
    return buf;
  }

 private:
  uint64_t state_ = 0xcbf29ce484222325ull;
};

}  // namespace kgbench

#endif  // KGBENCH_METRICS_H_
