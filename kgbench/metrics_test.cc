// Tests of the benchmark's metric math (kgbench/metrics.h) on hand-built
// inputs. kgbench/run.py runs this before every benchmark run; it exits
// non-zero on the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "kgbench/metrics.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

bool Near(double a, double b) { return std::abs(a - b) < 1e-9; }

// One group's contribution on every `every`-th walk.
struct Contribution {
  kgoa::TermId group;
  double value;
  uint64_t every;  // contributes on walks i with i % every == 0
};

// `walks` walks; a walk no contribution lands on counts as rejected.
kgoa::GroupedEstimates Build(uint64_t walks,
                             const std::vector<Contribution>& contributions) {
  kgoa::GroupedEstimates estimates;
  for (uint64_t i = 0; i < walks; ++i) {
    bool any = false;
    for (const Contribution& c : contributions) {
      if (i % c.every == 0) {
        estimates.AddContribution(c.group, c.value);
        any = true;
      }
    }
    estimates.EndWalk(!any);
  }
  return estimates;
}

void TestPercentiles() {
  CHECK(Near(kgbench::Percentile({4, 1, 3, 2}, 0.5), 2.5));
  CHECK(Near(kgbench::Percentile({1, 2, 3, 4}, 0.9), 3.7));
  CHECK(Near(kgbench::Percentile({7}, 0.9), 7));
  CHECK(Near(kgbench::Median({5, 1, 3}), 3));
  CHECK(Near(kgbench::Percentile({}, 0.5), 0));
  // 101 distinct samples: the 90th percentile is the 91st smallest, with
  // exactly ten samples beyond it; 100 samples leave ten beyond too, 90
  // only nine.
  std::vector<double> values;
  for (int i = 1; i <= 101; ++i) values.push_back(i);
  CHECK(Near(kgbench::Percentile(values, 0.9), 91));
  CHECK(kgbench::SamplesBeyond(values, 0.9) == 10);
  values.pop_back();
  CHECK(kgbench::SamplesBeyond(values, 0.9) == 10);
  values.resize(90);
  CHECK(kgbench::SamplesBeyond(values, 0.9) == 9);
}

void TestConvergence() {
  // Group 1: 100 on every walk (CI 0). Group 2: 100000 on one walk in
  // 2000 (estimate 50, CI far above 40% of 100).
  const kgoa::GroupedEstimates wide =
      Build(2000, {{1, 100, 1}, {2, 100000, 2000}});
  std::vector<kgbench::Bar> bars = kgbench::DisplayedBars(wide);
  CHECK(bars.size() == 2);
  CHECK(bars[0].group == 1 && Near(bars[0].estimate, 100));
  CHECK(bars[1].group == 2 && Near(bars[1].estimate, 50));
  CHECK(bars[0].ci == 0 && bars[1].ci > 40);
  CHECK(!kgbench::Converged(bars, wide.walks(), 0.4));

  // Group 2 at 20 on every other walk: estimate 10, CI well under 40.
  const kgoa::GroupedEstimates tight =
      Build(2000, {{1, 100, 1}, {2, 20, 2}});
  bars = kgbench::DisplayedBars(tight);
  CHECK(bars.size() == 2 && bars[1].ci > 0 && bars[1].ci < 1);
  CHECK(kgbench::Converged(bars, tight.walks(), 0.4));
  // The same bars fail a target below their relative width, and any
  // target before the minimum walk count.
  CHECK(!kgbench::Converged(bars, tight.walks(), bars[1].ci / 100 / 2));
  CHECK(!kgbench::Converged(bars, 1023, 0.4));
  CHECK(!kgbench::Converged({}, 5000, 0.4));

  // Only the ten largest bars are displayed; ties break by group id.
  std::vector<Contribution> many;
  for (kgoa::TermId g = 1; g <= 12; ++g) many.push_back({g, 5.0 + (g % 6), 1});
  bars = kgbench::DisplayedBars(Build(1500, many));
  CHECK(bars.size() == 10);
  CHECK(bars[0].group == 5 && bars[1].group == 11);
  CHECK(bars[8].group == 1 && bars[9].group == 7);
}

void TestQuality() {
  kgoa::GroupedResult exact;
  exact.counts = {{1, 100}, {2, 50}, {3, 10}, {4, 1}};
  // Estimates: group 1 at 110, group 2 at 50 (both CI 0), group 3 unseen.
  const kgoa::GroupedEstimates estimates =
      Build(1500, {{1, 110, 1}, {2, 50, 1}, {4, 1, 1}});
  kgbench::ChartQuality q = kgbench::ScoreChart(estimates, exact, 3);
  CHECK(q.bars == 3);
  CHECK(Near(q.rel_err, (10.0 + 0.0 + 10.0) / 160.0));
  CHECK(q.covered == 1);  // only group 2's (zero-width) CI covers

  // A CI wide enough covers: group 1 alternating 0/220 has estimate 110
  // and a CI of about 1.96 * 110 / sqrt(1500), i.e. under 10 — a miss;
  // at 40 walks the CI is about 34 — a cover.
  const kgoa::GroupedEstimates noisy = Build(40, {{1, 220, 2}});
  q = kgbench::ScoreChart(noisy, exact, 1);
  CHECK(q.bars == 1 && q.covered == 1);
  CHECK(Near(q.rel_err, 0.1));

  kgoa::GroupedResult empty;
  q = kgbench::ScoreChart(estimates, empty);
  CHECK(q.bars == 0 && q.rel_err == 0);
}

void TestDigest() {
  const std::vector<Contribution> input = {{3, 1.5, 1}, {9, 2.25, 3}};
  kgbench::Digest a;
  a.AddChart(Build(2048, input), 2048);
  kgbench::Digest b;
  b.AddChart(Build(2048, input), 2048);
  CHECK(a.Hex() == b.Hex());
  // Group insertion order does not matter; any changed bit does.
  kgbench::Digest reordered;
  reordered.AddChart(Build(2048, {{9, 2.25, 3}, {3, 1.5, 1}}), 2048);
  CHECK(reordered.Hex() == a.Hex());
  kgbench::Digest changed;
  changed.AddChart(Build(2048, {{3, 1.5, 1}, {9, 2.2500000000000004, 3}}),
                   2048);
  CHECK(changed.Hex() != a.Hex());
  kgbench::Digest walks;
  walks.AddChart(Build(2048, input), 2049);
  CHECK(walks.Hex() != a.Hex());
  // Pinned value (64-bit FNV-1a over the little-endian bytes of 1 and of
  // the bit pattern of 0.5): the digest of a fixed input never changes.
  kgbench::Digest pinned;
  pinned.Add(1);
  pinned.AddDouble(0.5);
  CHECK(pinned.Hex() == "38b530f14d8dbc89");
}

}  // namespace

int main() {
  TestPercentiles();
  TestConvergence();
  TestQuality();
  TestDigest();
  if (failures > 0) {
    std::fprintf(stderr, "kgbench_metrics_test: %d check(s) failed\n",
                 failures);
    return 1;
  }
  std::fprintf(stderr, "kgbench_metrics_test: all checks passed\n");
  return 0;
}
