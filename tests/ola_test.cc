// Tests for src/ola: walk plans, grouped estimators, Wander Join.
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "src/join/ctj.h"
#include "src/ola/estimator.h"
#include "src/ola/walk_plan.h"
#include "src/ola/wander.h"
#include "tests/test_util.h"

namespace kgoa {
namespace {

Slot V(VarId v) { return Slot::MakeVar(v); }
Slot C(TermId t) { return Slot::MakeConst(t); }

ChainQuery ThreeChain(bool distinct = false) {
  // (?0 #1 ?1)(?1 #2 ?2)(?2 #3 ?3), alpha=3, beta=2.
  auto q = ChainQuery::Create({MakePattern(V(0), C(1), V(1)),
                               MakePattern(V(1), C(2), V(2)),
                               MakePattern(V(2), C(3), V(3))},
                              3, 2, distinct);
  EXPECT_TRUE(q.has_value());
  return *q;
}

TEST(WalkPlan, ForwardOrder) {
  const ChainQuery q = ThreeChain();
  const WalkPlan plan = WalkPlan::Compile(q);
  ASSERT_EQ(plan.NumSteps(), 3);
  EXPECT_EQ(plan.steps()[0].in_var, kNoVar);
  EXPECT_EQ(plan.steps()[1].in_var, 1u);
  EXPECT_EQ(plan.steps()[2].in_var, 2u);
  EXPECT_EQ(plan.ParentStepOf(1), 0);
  EXPECT_EQ(plan.ParentStepOf(2), 1);
  EXPECT_TRUE(plan.SingleSegmentFrom(0));
  EXPECT_TRUE(plan.SingleSegmentFrom(2));
  EXPECT_EQ(plan.StepOf(0), 0);
  EXPECT_EQ(plan.StepOf(2), 2);
  EXPECT_GE(plan.alpha_slot(), 0);
  EXPECT_GE(plan.beta_slot(), 0);
  EXPECT_NE(plan.alpha_slot(), plan.beta_slot());
}

TEST(WalkPlan, MiddleStartBindsBothSides) {
  const ChainQuery q = ThreeChain();
  const WalkPlan plan = WalkPlan::Compile(q, {1, 0, 2});
  EXPECT_EQ(plan.steps()[0].pattern_index, 1);
  EXPECT_EQ(plan.steps()[1].pattern_index, 0);
  EXPECT_EQ(plan.steps()[1].in_var, 1u);
  EXPECT_EQ(plan.steps()[2].in_var, 2u);
  // Both later steps hang off the start step.
  EXPECT_EQ(plan.ParentStepOf(1), 0);
  EXPECT_EQ(plan.ParentStepOf(2), 0);
  EXPECT_FALSE(plan.SingleSegmentFrom(1));
  EXPECT_TRUE(plan.SingleSegmentFrom(2));
}

// Property test over n = 1..6: every candidate order is a complete
// permutation of 0..n-1, every prefix covers a contiguous span of the
// chain (the Wander Join walk-order requirement), no order repeats, and
// the count matches the directional-order closed form (2n - 2 for n >= 2).
TEST(WalkPlan, CandidateOrdersAreContiguousCompleteAndUnique) {
  for (int n = 1; n <= 6; ++n) {
    const auto orders = CandidateWalkOrders(n);
    const std::size_t expected =
        n == 1 ? 1 : static_cast<std::size_t>(2 * n - 2);
    EXPECT_EQ(orders.size(), expected) << "n=" << n;
    for (const auto& order : orders) {
      ASSERT_EQ(static_cast<int>(order.size()), n);
      // Complete permutation: each pattern exactly once.
      std::vector<bool> seen(static_cast<std::size_t>(n), false);
      for (int p : order) {
        ASSERT_GE(p, 0);
        ASSERT_LT(p, n);
        EXPECT_FALSE(seen[static_cast<std::size_t>(p)]);
        seen[static_cast<std::size_t>(p)] = true;
      }
      // Chain contiguity: every prefix covers an interval [lo, hi] of the
      // chain, so each new pattern is adjacent to the span walked so far.
      int lo = order[0];
      int hi = order[0];
      for (std::size_t i = 1; i < order.size(); ++i) {
        const int p = order[i];
        EXPECT_TRUE(p == lo - 1 || p == hi + 1)
            << "order step " << i << " (pattern " << p
            << ") not adjacent to span [" << lo << ", " << hi << "]";
        lo = std::min(lo, p);
        hi = std::max(hi, p);
      }
    }
    // Uniqueness.
    for (std::size_t i = 0; i < orders.size(); ++i) {
      for (std::size_t j = i + 1; j < orders.size(); ++j) {
        EXPECT_NE(orders[i], orders[j]);
      }
    }
  }
  // Every n=3 candidate compiles against a real chain without aborting.
  const ChainQuery q = ThreeChain();
  for (const auto& order : CandidateWalkOrders(3)) {
    WalkPlan::Compile(q, order);
  }
}

// Compile must reject a pattern order that is a permutation but not
// chain-contiguous: after {0} the pattern 2 is not adjacent to the span.
TEST(WalkPlanDeathTest, RejectsNonChainContiguousOrder) {
  const ChainQuery q = ThreeChain();
  EXPECT_DEATH(WalkPlan::Compile(q, {0, 2, 1}), "contiguous");
  EXPECT_DEATH(WalkPlan::Compile(q, {2, 0, 1}), "contiguous");
}

TEST(Estimator, MeanOverAllWalks) {
  GroupedEstimates est;
  est.AddContribution(1, 10.0);
  est.EndWalk(false);
  est.EndWalk(true);  // rejected, contributes nothing
  est.AddContribution(1, 20.0);
  est.EndWalk(false);
  EXPECT_EQ(est.walks(), 3u);
  EXPECT_EQ(est.rejected_walks(), 1u);
  EXPECT_DOUBLE_EQ(est.Estimate(1), 10.0);
  EXPECT_DOUBLE_EQ(est.Estimate(99), 0.0);
  EXPECT_NEAR(est.RejectionRate(), 1.0 / 3, 1e-12);
}

TEST(Estimator, CiShrinksWithSamples) {
  GroupedEstimates est;
  Rng rng(5);
  double ci_at_100 = 0;
  for (int i = 1; i <= 10000; ++i) {
    est.AddContribution(1, 50.0 + static_cast<double>(rng.Below(100)));
    est.EndWalk(false);
    if (i == 100) ci_at_100 = est.CiHalfWidth(1);
  }
  EXPECT_GT(ci_at_100, 0.0);
  EXPECT_LT(est.CiHalfWidth(1), ci_at_100);
}

TEST(Estimator, ZeroVarianceHasZeroCi) {
  GroupedEstimates est;
  for (int i = 0; i < 10; ++i) {
    est.AddContribution(2, 7.0);
    est.EndWalk(false);
  }
  EXPECT_NEAR(est.CiHalfWidth(2), 0.0, 1e-9);
}

class WanderTest : public ::testing::Test {
 protected:
  WanderTest() : graph_(testing::PaperExampleGraph()), indexes_(graph_) {}

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

// Deterministic unbiasedness: sum of Pr(walk) * contribution over ALL
// possible walks equals the exact non-distinct count, per group.
TEST_F(WanderTest, ExhaustiveExpectationEqualsExactCount) {
  const ChainQuery query = Fig5(false);
  const GroupedResult exact = testing::BruteForce(graph_, query);

  for (const auto& order : CandidateWalkOrders(query.NumPatterns())) {
    WanderJoin::Options options;
    options.walk_order = order;
    WanderJoin wj(indexes_, query, options);
    std::unordered_map<TermId, double> expectation;
    double total_probability = 0;
    wj.EnumerateAllWalks([&](double prob, TermId group, double contrib) {
      total_probability += prob;
      if (contrib > 0) expectation[group] += prob * contrib;
    });
    EXPECT_NEAR(total_probability, 1.0, 1e-9);
    ASSERT_EQ(expectation.size(), exact.counts.size());
    for (const auto& [group, count] : exact.counts) {
      EXPECT_NEAR(expectation[group], static_cast<double>(count), 1e-6)
          << "group " << group;
    }
  }
}

// Same property on random graphs/queries (parameterized sweep).
class WanderUnbiased : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WanderUnbiased, ExhaustiveExpectationMatches) {
  Rng rng(GetParam());
  Graph graph = testing::RandomGraph(rng);
  IndexSet indexes(graph);
  int tested = 0;
  for (int attempt = 0; attempt < 30 && tested < 3; ++attempt) {
    const int length = 1 + static_cast<int>(rng.Below(4));
    auto query = testing::RandomChainQuery(rng, graph, length, false);
    if (!query.has_value()) continue;
    ++tested;
    const GroupedResult exact = testing::BruteForce(graph, *query);
    WanderJoin wj(indexes, *query);
    std::unordered_map<TermId, double> expectation;
    wj.EnumerateAllWalks([&](double prob, TermId group, double contrib) {
      if (contrib > 0) expectation[group] += prob * contrib;
    });
    for (const auto& [group, count] : exact.counts) {
      ASSERT_NEAR(expectation[group], static_cast<double>(count),
                  1e-6 * (1 + count))
          << query->ToSparql();
    }
    for (const auto& [group, value] : expectation) {
      ASSERT_NEAR(value, static_cast<double>(exact.CountFor(group)),
                  1e-6 * (1 + value));
    }
  }
  EXPECT_GT(tested, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WanderUnbiased,
                         ::testing::Range<uint64_t>(100, 112));

TEST_F(WanderTest, ConvergesOnNonDistinct) {
  const ChainQuery query = Fig5(false);
  const GroupedResult exact = testing::BruteForce(graph_, query);
  WanderJoin wj(indexes_, query);
  wj.RunWalks(200000);
  for (const auto& [group, count] : exact.counts) {
    EXPECT_NEAR(wj.estimates().Estimate(group), static_cast<double>(count),
                0.05 * static_cast<double>(count) + 0.05);
  }
}

TEST_F(WanderTest, DistinctSeenSetRejectsDuplicates) {
  const ChainQuery query = Fig5(true);
  WanderJoin wj(indexes_, query);
  wj.RunWalks(50000);
  // The graph has few (class, place) groups with few distinct objects; the
  // seen-set saturates quickly so duplicates must occur.
  EXPECT_GT(wj.duplicate_walks(), 0u);
  // Duplicates are counted separately from dead-end rejections, and the
  // two never overlap.
  EXPECT_LE(wj.duplicate_walks() + wj.estimates().rejected_walks(),
            wj.estimates().walks());
}

TEST_F(WanderTest, RejectionsOnDeadEndWalks) {
  // (?x type Person)(?x influencedBy ?y): socrates and parmenides have no
  // outgoing influencedBy edge, so forward walks through them die.
  auto q = ChainQuery::Create(
      {MakePattern(V(0), C(graph_.rdf_type()), C(Id("Person"))),
       MakePattern(V(0), C(Id("influencedBy")), V(1))},
      1, 0, false);
  ASSERT_TRUE(q.has_value());
  WanderJoin wj(indexes_, *q);
  wj.RunWalks(20000);
  EXPECT_GT(wj.estimates().rejected_walks(), 0u);
  const GroupedResult exact = testing::BruteForce(graph_, *q);
  for (const auto& [group, count] : exact.counts) {
    EXPECT_NEAR(wj.estimates().Estimate(group), static_cast<double>(count),
                0.1 * static_cast<double>(count));
  }
}

TEST_F(WanderTest, SeededRunsAreReproducible) {
  const ChainQuery query = Fig5(false);
  WanderJoin::Options options;
  options.seed = 77;
  WanderJoin a(indexes_, query, options);
  WanderJoin b(indexes_, query, options);
  a.RunWalks(1000);
  b.RunWalks(1000);
  const TermId city = Id("City");
  EXPECT_DOUBLE_EQ(a.estimates().Estimate(city),
                   b.estimates().Estimate(city));
}

}  // namespace
}  // namespace kgoa
