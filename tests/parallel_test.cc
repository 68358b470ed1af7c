// Tests for estimator merging and parallel serving through ServingCore.
//
// The convergence tests use the deterministic walk-budget mode rather than
// wall-clock deadlines, so they are reproducible and independent of machine
// load — and they double as the tier-1 check of the serving core's
// guarantee: a budgeted run is a pure function of (query, seed, budget,
// workers), bit-identical across thread counts and equal to a sequential
// run over the union of the per-worker seeds. Batch width and kernel
// dispatch level are checked one layer down, on the walk engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/core/audit.h"
#include "src/ola/parallel.h"
#include "src/ola/wander.h"
#include "src/util/simd.h"
#include "tests/test_util.h"

namespace kgoa {
namespace {

Slot V(VarId v) { return Slot::MakeVar(v); }
Slot C(TermId t) { return Slot::MakeConst(t); }

TEST(EstimatorMerge, EqualsSequentialAccumulation) {
  GroupedEstimates a, b, whole;
  const double values_a[] = {3, 0, 7};
  const double values_b[] = {5, 11};
  for (double v : values_a) {
    if (v > 0) {
      a.AddContribution(1, v);
      whole.AddContribution(1, v);
    }
    a.EndWalk(v == 0);
    whole.EndWalk(v == 0);
  }
  for (double v : values_b) {
    b.AddContribution(1, v);
    whole.AddContribution(1, v);
    b.EndWalk(false);
    whole.EndWalk(false);
  }
  GroupedEstimates merged;
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_EQ(merged.walks(), whole.walks());
  EXPECT_EQ(merged.rejected_walks(), whole.rejected_walks());
  EXPECT_DOUBLE_EQ(merged.Estimate(1), whole.Estimate(1));
  EXPECT_DOUBLE_EQ(merged.CiHalfWidth(1), whole.CiHalfWidth(1));
}

// Regression for the CI half-width against the closed form, with rejected
// walks counted as zero contributions in the denominator: contributions
// {10, 0 (rejected), 20, 0 (rejected)} give mean 30/4 = 7.5,
// sum of squares 500, SAMPLE variance (500 - 4 * 7.5^2) / (4 - 1)
// = 275/3, and half-width z * sqrt(variance / n). (The population form —
// dividing by n — was a bug: it made the interval systematically too
// tight at low walk counts.)
TEST(EstimatorCi, ClosedFormIncludesRejectedWalks) {
  GroupedEstimates est;
  est.AddContribution(1, 10.0);
  est.EndWalk(false);
  est.EndWalk(true);  // rejected: zero contribution, still a walk
  est.AddContribution(1, 20.0);
  est.EndWalk(false);
  est.EndWalk(true);

  EXPECT_EQ(est.walks(), 4u);
  EXPECT_EQ(est.rejected_walks(), 2u);
  EXPECT_DOUBLE_EQ(est.RejectionRate(), 0.5);
  EXPECT_DOUBLE_EQ(est.Estimate(1), 7.5);

  const double z = 1.959963984540054;
  const double variance = (500.0 - 4.0 * 7.5 * 7.5) / 3.0;  // 275/3
  EXPECT_DOUBLE_EQ(est.CiHalfWidth(1), z * std::sqrt(variance / 4.0));
  // Custom z values scale linearly.
  EXPECT_DOUBLE_EQ(est.CiHalfWidth(1, 1.0), std::sqrt(variance / 4.0));
  // Unknown group and tiny samples report no interval.
  EXPECT_DOUBLE_EQ(est.CiHalfWidth(99), 0.0);
  GroupedEstimates one_walk;
  one_walk.AddContribution(1, 5.0);
  one_walk.EndWalk(false);
  EXPECT_DOUBLE_EQ(one_walk.CiHalfWidth(1), 0.0);
}

// A second hand-computed sequence without rejections: {2, 4, 9} gives
// mean 5, sum of squares 101, sample variance (101 - 3 * 25) / 2 = 13,
// half-width z * sqrt(13 / 3) — and the sample variance must agree with
// the textbook sum-of-squared-deviations form.
TEST(EstimatorCi, ClosedFormSampleVariance) {
  GroupedEstimates est;
  for (double v : {2.0, 4.0, 9.0}) {
    est.AddContribution(7, v);
    est.EndWalk(false);
  }
  EXPECT_DOUBLE_EQ(est.Estimate(7), 5.0);
  const double deviations =
      (2.0 - 5.0) * (2.0 - 5.0) + (4.0 - 5.0) * (4.0 - 5.0) +
      (9.0 - 5.0) * (9.0 - 5.0);  // 26
  const double variance = deviations / 2.0;  // 13
  EXPECT_DOUBLE_EQ(est.CiHalfWidth(7, 1.0), std::sqrt(variance / 3.0));
  EXPECT_DOUBLE_EQ(est.CiHalfWidth(7),
                   1.959963984540054 * std::sqrt(variance / 3.0));
}

class ParallelTest : public ::testing::Test {
 protected:
  ParallelTest() : graph_(testing::PaperExampleGraph()), indexes_(graph_) {}

  TermId Id(const char* term) { return graph_.dict().Lookup(term); }

  ChainQuery Fig5(bool distinct) {
    auto q = ChainQuery::Create(
        {MakePattern(V(0), C(graph_.rdf_type()), C(Id("Person"))),
         MakePattern(V(0), C(Id("birthPlace")), V(1)),
         MakePattern(V(1), C(graph_.rdf_type()), V(2))},
        2, 1, distinct);
    EXPECT_TRUE(q.has_value());
    return *q;
  }

  Graph graph_;
  IndexSet indexes_;
};

// The satellite check: a 4-worker budgeted parallel run merges to exactly
// the same estimate as one sequential pass over the union of the per-worker
// seeds — GroupedEstimates::Merge is exact, not approximate.
TEST_F(ParallelTest, WalkBudgetEqualsSequentialUnionOfSeeds) {
  const ChainQuery query = Fig5(true);
  constexpr uint64_t kBudget = 2002;  // not divisible by 4: remainder path

  ChartJobOptions job;
  job.walk_budget = kBudget;
  job.workers = 4;
  job.seed = 17;
  job.tipping_threshold = 2.0;
  const ParallelOlaResult parallel = testing::ServeOnce(
      GraphSnapshot::Unowned(indexes_), query, job, /*threads=*/2);
  EXPECT_EQ(parallel.estimates.walks(), kBudget);

  // Sequential reference: the same logical workers, run one after another
  // on this thread and merged in the same order.
  GroupedEstimates sequential;
  for (uint64_t w = 0; w < 4; ++w) {
    AuditJoin::Options aj;
    aj.seed = job.seed + w;
    aj.tipping_threshold = job.tipping_threshold;
    AuditJoin engine(indexes_, query, aj);
    engine.RunWalks(kBudget / 4 + (w < kBudget % 4 ? 1 : 0));
    sequential.Merge(engine.estimates());
  }
  testing::ExpectBitIdentical(parallel.estimates, sequential);
}

// A budget smaller than the worker count leaves the trailing slots with a
// zero share: they never build an engine, and the merge skips them.
TEST_F(ParallelTest, WalkBudgetBelowWorkerCountSkipsEmptySlots) {
  const ChainQuery query = Fig5(true);
  ChartJobOptions job;
  job.walk_budget = 3;
  job.workers = 8;
  job.seed = 17;
  job.tipping_threshold = 2.0;
  const ParallelOlaResult run = testing::ServeOnce(
      GraphSnapshot::Unowned(indexes_), query, job, /*threads=*/2);

  GroupedEstimates sequential;
  for (uint64_t w = 0; w < 3; ++w) {
    AuditJoin::Options aj;
    aj.seed = job.seed + w;
    aj.tipping_threshold = job.tipping_threshold;
    AuditJoin engine(indexes_, query, aj);
    engine.RunWalks(1);
    sequential.Merge(engine.estimates());
  }
  testing::ExpectBitIdentical(run.estimates, sequential);
}

TEST_F(ParallelTest, WalkBudgetBitIdenticalAcrossThreadCounts) {
  const ChainQuery query = Fig5(true);
  constexpr uint64_t kBudget = 3000;

  ChartJobOptions job;
  job.walk_budget = kBudget;
  job.workers = 4;
  job.tipping_threshold = 2.0;
  GroupedEstimates reference;
  for (int threads : {1, 2, 4}) {
    const ParallelOlaResult run = testing::ServeOnce(
        GraphSnapshot::Unowned(indexes_), query, job, threads);
    EXPECT_EQ(run.estimates.walks(), kBudget);
    if (threads == 1) {
      reference = run.estimates;
    } else {
      testing::ExpectBitIdentical(reference, run.estimates);
    }
  }
}

// Runs `budget` walks in calls of at most one serving quantum, so batches
// cut short at a call boundary are exercised too.
template <typename Engine>
void RunInQuanta(Engine& engine, uint64_t budget) {
  constexpr uint64_t kQuantum = ServingCore::kQuantumWalks;
  for (uint64_t done = 0; done < budget; done += kQuantum) {
    engine.RunWalks(std::min(kQuantum, budget - done));
  }
}

// The batching and kernel contracts, at the engine level: walk RNG is
// counter-derived per walk index, so the SoA batched path (any width)
// produces bit-identical estimates to the unbatched path, and forcing a
// lower kernel dispatch level reproduces the vectorized run bit for bit —
// for both walk-sampling engines. Widths bracket the default (32) and
// include a non-divisor of the quantum (the final short batch).
TEST_F(ParallelTest, BatchWidthsAndSimdLevelsBitIdentical) {
  constexpr uint64_t kBudget = 3000;
  const SimdLevel entry_level = CurrentSimdLevel();
  for (const bool audit_join : {true, false}) {
    const ChainQuery query = Fig5(/*distinct=*/audit_join);
    GroupedEstimates reference;
    bool have_reference = false;
    for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
      SetSimdLevel(level);  // clamped to what the CPU supports
      for (const uint32_t batch : {1u, 2u, 32u, 101u}) {
        SCOPED_TRACE(::testing::Message()
                     << (audit_join ? "audit" : "wander") << " batch=" << batch
                     << " simd=" << SimdLevelName(CurrentSimdLevel()));
        GroupedEstimates estimates;
        uint64_t batched = 0;
        if (audit_join) {
          AuditJoin::Options options;
          options.seed = 17;
          options.tipping_threshold = 2.0;
          options.batch_walks = batch;
          AuditJoin audit(indexes_, query, options);
          RunInQuanta(audit, kBudget);
          estimates = audit.estimates();
          batched = audit.batched_walks();
        } else {
          WanderJoin::Options options;
          options.seed = 17;
          options.batch_walks = batch;
          WanderJoin wander(indexes_, query, options);
          RunInQuanta(wander, kBudget);
          estimates = wander.estimates();
          batched = wander.batched_walks();
        }
        EXPECT_EQ(estimates.walks(), kBudget);
        EXPECT_EQ(batched, batch > 1 ? kBudget : 0u);
        if (!have_reference) {
          reference = estimates;
          have_reference = true;
        } else {
          testing::ExpectBitIdentical(reference, estimates);
        }
      }
    }
  }
  SetSimdLevel(entry_level);
}

TEST_F(ParallelTest, AuditWorkersConvergeMerged) {
  const ChainQuery query = Fig5(true);
  const GroupedResult exact = testing::BruteForce(graph_, query);

  ChartJobOptions job;
  job.walk_budget = 30000;
  job.workers = 3;
  job.tipping_threshold = 2.0;  // stochastic mode
  const ParallelOlaResult run = testing::ServeOnce(
      GraphSnapshot::Unowned(indexes_), query, job, /*threads=*/3);

  EXPECT_EQ(run.estimates.walks(), 30000u);
  for (const auto& [group, count] : exact.counts) {
    EXPECT_NEAR(run.estimates.Estimate(group), static_cast<double>(count),
                0.1 * static_cast<double>(count) + 0.1);
  }
}

// Snapshot publishing: the callback observes monotonically growing partial
// merges while workers run, and one final snapshot with the exact budget.
TEST_F(ParallelTest, WalkBudgetSnapshotsPublishPartials) {
  const ChainQuery query = Fig5(true);
  constexpr uint64_t kBudget = 20000;

  ServingCore::Options core_options;
  core_options.threads = 4;
  ServingCore core(GraphSnapshot::Unowned(indexes_), core_options);

  int snapshots = 0;
  int finals = 0;
  uint64_t last_walks = 0;
  ChartJobOptions job;
  job.walk_budget = kBudget;
  job.workers = 4;
  job.tipping_threshold = 2.0;
  job.snapshot_period = 1e-4;  // as fast as the loop allows
  job.on_snapshot = [&](const OlaSnapshot& snapshot) {
    ++snapshots;
    ASSERT_NE(snapshot.estimates, nullptr);
    EXPECT_GE(snapshot.walks, last_walks);
    EXPECT_LE(snapshot.walks, kBudget);
    EXPECT_EQ(snapshot.walks, snapshot.estimates->walks());
    last_walks = snapshot.walks;
    if (snapshot.final_snapshot) {
      ++finals;
      EXPECT_EQ(snapshot.walks, kBudget);
    }
  };
  const ParallelOlaResult run = core.Submit(query, job).Await();
  EXPECT_GE(snapshots, 1);
  EXPECT_EQ(finals, 1);
  EXPECT_EQ(run.estimates.walks(), kBudget);
}

TEST_F(ParallelTest, DeadlineModeDeliversOneFinalSnapshot) {
  const ChainQuery query = Fig5(true);
  int finals = 0;
  ChartJobOptions job;
  job.deadline_seconds = 0.05;
  job.workers = 2;
  job.on_snapshot = [&](const OlaSnapshot& snapshot) {
    if (snapshot.final_snapshot) ++finals;
  };
  const ParallelOlaResult run = testing::ServeOnce(
      GraphSnapshot::Unowned(indexes_), query, job, /*threads=*/2);
  EXPECT_GT(run.estimates.walks(), 0u);
  EXPECT_EQ(finals, 1);
  EXPECT_GE(run.elapsed_seconds, 0.05);
}

}  // namespace
}  // namespace kgoa
