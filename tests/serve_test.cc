// Tests for the persistent serving core: cancellation latency, multi-job
// fairness, background-task ordering, session auto-cancel, top-K
// self-finish under concurrency, and — the load-bearing guarantee —
// walk-budget bit-identity of a job run solo vs. run alongside competing
// jobs on pools of 1, 2, and 8 threads.
//
// Runs under TSan in tier-1 (scripts/tier1.sh): the scheduler state, the
// per-slot publish handoff, and the callback serialization are all exercised
// with real concurrency here.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/explorer.h"
#include "src/ola/parallel.h"
#include "src/util/sync.h"
#include "tests/test_util.h"

namespace kgoa {
namespace {

Slot V(VarId v) { return Slot::MakeVar(v); }
Slot C(TermId t) { return Slot::MakeConst(t); }

constexpr uint64_t kHugeBudget = 1ull << 40;  // never finishes on its own

class ServeTest : public ::testing::Test {
 protected:
  ServeTest() : graph_(testing::PaperExampleGraph()), indexes_(graph_) {}

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

// Cancellation is observed within ONE walk quantum. The job cancels itself
// from its own snapshot callback (which runs at a quantum boundary, right
// after that quantum's partial was published); on a 1-thread pool nothing
// else of the job can be in flight, so the final result must contain
// exactly the walks the cancelling snapshot saw — not one walk more.
TEST_F(ServeTest, CancelObservedWithinOneQuantumNoLeakedPartials) {
  ServingCore::Options core_options;
  core_options.threads = 1;
  ServingCore core(GraphSnapshot::Unowned(indexes_), core_options);

  struct Shared {
    Mutex mutex;
    ChartHandle handle KGOA_GUARDED_BY(mutex);
    std::atomic<bool> armed{false};
    std::atomic<bool> fired{false};
    std::atomic<uint64_t> walks_at_cancel{0};
  };
  auto shared = std::make_shared<Shared>();

  ChartJobOptions options;
  options.walk_budget = kHugeBudget;
  options.workers = 4;
  options.seed = 11;
  options.snapshot_period = 0.0;  // every quantum
  options.on_snapshot = [shared](const OlaSnapshot& snapshot) {
    if (snapshot.final_snapshot) return;
    if (!shared->armed.load(std::memory_order_acquire)) return;
    if (shared->fired.exchange(true)) return;
    shared->walks_at_cancel.store(snapshot.walks);
    ChartHandle handle;
    {
      MutexLock lock(shared->mutex);
      handle = shared->handle;
    }
    handle.Cancel();
  };

  ChartHandle handle = core.Submit(Fig5(true), options);
  {
    MutexLock lock(shared->mutex);
    shared->handle = handle;
  }
  shared->armed.store(true, std::memory_order_release);

  const ParallelOlaResult& result = handle.Await();
  EXPECT_EQ(handle.state(), ChartJobState::kCancelled);
  EXPECT_TRUE(handle.finished());
  const uint64_t at_cancel = shared->walks_at_cancel.load();
  EXPECT_GT(at_cancel, 0u);
  // No partials leak past the token: the retired result IS the partial at
  // the cancellation quantum, and nothing ran after it.
  EXPECT_EQ(result.estimates.walks(), at_cancel);
  EXPECT_LT(result.estimates.walks(), kHugeBudget);

  // The pool survives the cancellation without joining/respawning: the
  // same core immediately serves another job to completion.
  ChartJobOptions follow_up;
  follow_up.walk_budget = 1024;
  follow_up.workers = 2;
  const ParallelOlaResult& done = core.Submit(Fig5(true), follow_up).Await();
  EXPECT_EQ(done.estimates.walks(), 1024u);

  const ServeStats stats = core.stats();
  EXPECT_EQ(stats.threads, 1u);
  EXPECT_EQ(stats.jobs_submitted, 2u);
  EXPECT_EQ(stats.jobs_cancelled, 1u);
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_EQ(stats.live_jobs, 0u);
  EXPECT_GE(stats.last_cancel_latency_seconds, 0.0);
  // Cancel is idempotent and a no-op on finished jobs.
  handle.Cancel();
  EXPECT_EQ(handle.state(), ChartJobState::kCancelled);
}

// Two jobs share a 1-thread pool round-robin: when the finite job
// completes, the competing job must have advanced to within a comparable
// walk count — not been starved behind it.
TEST_F(ServeTest, TwoJobsShareThePoolFairly) {
  ServingCore::Options core_options;
  core_options.threads = 1;
  ServingCore core(GraphSnapshot::Unowned(indexes_), core_options);

  constexpr uint64_t kBudget = 40 * 256;

  ChartJobOptions finite;
  finite.walk_budget = kBudget;
  finite.workers = 1;
  finite.seed = 3;
  ChartJobOptions competing;
  competing.walk_budget = kHugeBudget;
  competing.workers = 1;
  competing.seed = 4;

  const ChainQuery query = Fig5(true);
  // The unbounded competitor is submitted FIRST: the finite job then
  // joins a busy pool, and every one of its quanta is interleaved with
  // the competitor's. (Submitting the competitor second would race its
  // construction — plan compilation, reach-cache setup — against the
  // finite job's entire 40-quantum run.)
  ChartHandle b = core.Submit(query, competing);
  ChartHandle a = core.Submit(query, finite);
  const ParallelOlaResult& done = a.Await();
  EXPECT_EQ(done.estimates.walks(), kBudget);

  b.Cancel();
  const ParallelOlaResult& partial = b.Await();
  // Strict alternation keeps b at least abreast of a (it started first);
  // allow half as slack for in-flight quanta around the probes.
  EXPECT_GE(partial.estimates.walks(), kBudget / 2);

  const ServeStats stats = core.stats();
  EXPECT_GE(stats.preemptions, 10u);  // the worker really time-sliced
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_EQ(stats.jobs_cancelled, 1u);
}

// The acceptance criterion: a budgeted job's estimate is a pure function
// of (query, seed, budget, workers) — bit-identical across pool sizes
// {1, 2, 8} AND across running solo vs. alongside a competing job.
TEST_F(ServeTest, WalkBudgetBitIdenticalSoloVsConcurrentAcrossPools) {
  const ChainQuery query = Fig5(true);
  constexpr uint64_t kBudget = 2002;  // not divisible by 4: remainder path

  ChartJobOptions measured;
  measured.walk_budget = kBudget;
  measured.workers = 4;
  measured.seed = 17;
  measured.tipping_threshold = 2.0;  // stochastic mode

  // Reference: the job alone on a fresh 1-thread core (equal to the
  // sequential union of its slots' seeds, locked in by parallel_test).
  const ParallelOlaResult reference = testing::ServeOnce(
      GraphSnapshot::Unowned(indexes_), query, measured, /*threads=*/1);
  ASSERT_EQ(reference.estimates.walks(), kBudget);

  for (int threads : {1, 2, 8}) {
    ServingCore::Options core_options;
    core_options.threads = threads;
    ServingCore core(GraphSnapshot::Unowned(indexes_), core_options);

    // Solo.
    const ParallelOlaResult solo = core.Submit(query, measured).Await();
    testing::ExpectBitIdentical(reference.estimates, solo.estimates);

    // Alongside a competing job contending for every worker.
    ChartJobOptions competing;
    competing.walk_budget = kHugeBudget;
    competing.workers = threads;
    competing.seed = 99;
    ChartHandle competitor = core.Submit(query, competing);
    const ParallelOlaResult crowded = core.Submit(query, measured).Await();
    testing::ExpectBitIdentical(reference.estimates, crowded.estimates);
    competitor.Cancel();
  }
}

// Deadline mode through the core: the job retires on its own once the
// wall clock passes the deadline fixed at submit.
TEST_F(ServeTest, DeadlineJobRetiresOnItsOwn) {
  ServingCore::Options core_options;
  core_options.threads = 2;
  ServingCore core(GraphSnapshot::Unowned(indexes_), core_options);

  ChartJobOptions options;
  options.walk_budget = 0;
  options.deadline_seconds = 0.05;
  options.workers = 2;
  ChartHandle handle = core.Submit(Fig5(true), options);
  const ParallelOlaResult& result = handle.Await();
  EXPECT_EQ(handle.state(), ChartJobState::kDone);
  EXPECT_GE(result.elapsed_seconds, 0.05);
  EXPECT_GT(result.estimates.walks(), 0u);
  EXPECT_EQ(core.stats().jobs_completed, 1u);
}

// The Explorer/session wiring: SubmitChart returns a live handle wired to
// the explorer's warm reach caches, and navigating away from the current
// selection (ExpandAndSelect / GoBack) auto-cancels superseded jobs.
TEST_F(ServeTest, SessionAutoCancelsSupersededJobs) {
  Explorer explorer(testing::PaperExampleGraph());
  ExplorationSession session = explorer.NewSession();
  const TermId birth_place =
      explorer.graph().dict().Lookup("birthPlace");
  ASSERT_NE(birth_place, kInvalidTerm);

  ChartJobOptions options;
  options.walk_budget = kHugeBudget;
  options.workers = 2;

  ChartHandle first =
      explorer.SubmitChart(session.BuildQuery(ExpansionKind::kOutProperty),
                           options);
  session.TrackJob(first);
  EXPECT_EQ(session.tracked_jobs().size(), 1u);

  session.ExpandAndSelect(ExpansionKind::kOutProperty, birth_place);
  first.Await();  // cancellation is observed within one quantum
  EXPECT_EQ(first.state(), ChartJobState::kCancelled);
  EXPECT_EQ(session.jobs_auto_cancelled(), 1u);
  EXPECT_TRUE(session.tracked_jobs().empty());

  ChartHandle second =
      explorer.SubmitChart(session.BuildQuery(ExpansionKind::kObject),
                           options);
  session.TrackJob(second);
  ASSERT_TRUE(session.GoBack());
  second.Await();
  EXPECT_EQ(second.state(), ChartJobState::kCancelled);
  EXPECT_EQ(session.jobs_auto_cancelled(), 2u);

  // Finished jobs are not counted as auto-cancelled.
  ChartJobOptions small;
  small.walk_budget = 512;
  small.workers = 2;
  ChartHandle done =
      explorer.SubmitChart(session.BuildQuery(ExpansionKind::kOutProperty),
                           small);
  done.Await();
  session.TrackJob(done);
  session.ExpandAndSelect(ExpansionKind::kOutProperty, birth_place);
  EXPECT_EQ(session.jobs_auto_cancelled(), 2u);

  // The explorer's shared pool served everything without respawning.
  const ServeStats stats = explorer.serve_stats();
  EXPECT_EQ(stats.jobs_submitted, 3u);
  EXPECT_EQ(stats.jobs_cancelled, 2u);
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_GT(explorer.metrics().Counter("serve.jobs_submitted"), 0u);
}

// Graceful finish: like Cancel, Finish stops a live job within one
// quantum — but the job retires as COMPLETED with its partials, so
// serving a chart to a quality target no longer shows up as a
// cancellation in the job-lifecycle stats.
TEST_F(ServeTest, FinishStopsJobQuicklyAndRetiresAsCompleted) {
  ServingCore::Options core_options;
  core_options.threads = 1;
  ServingCore core(GraphSnapshot::Unowned(indexes_), core_options);

  ChartJobOptions options;
  options.walk_budget = kHugeBudget;
  options.workers = 4;
  options.seed = 31;
  ChartHandle handle = core.Submit(Fig5(true), options);
  // Let it make some progress so the finish gathers real partials.
  while (handle.Snapshot().estimates.walks() == 0) {
  }
  handle.Finish();
  const ParallelOlaResult& result = handle.Await();
  EXPECT_TRUE(handle.finished());
  EXPECT_EQ(handle.state(), ChartJobState::kDone);
  EXPECT_GT(result.estimates.walks(), 0u);
  EXPECT_LT(result.estimates.walks(), kHugeBudget);

  const ServeStats stats = core.stats();
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_EQ(stats.jobs_cancelled, 0u);
  // Idempotent, also after retirement.
  handle.Finish();
  EXPECT_EQ(handle.state(), ChartJobState::kDone);
}

// Top-K serving in deadline mode: with a heavily skewed group
// distribution and K = 1, the tracker's K-th lower bound separates the
// tail groups, walks bound to them are pruned, the displayed chart
// converges, and (with finish_on_displayed_convergence) the job retires
// itself as completed long before the deadline.
Graph SkewedGraph() {
  GraphBuilder b;
  for (int i = 0; i < 400; ++i) {
    b.AddSpelled("s" + std::to_string(i), "p", "big");
  }
  for (int t = 0; t < 20; ++t) {
    for (int j = 0; j < 5; ++j) {
      b.AddSpelled("t" + std::to_string(t) + "_" + std::to_string(j), "p",
                   "tiny" + std::to_string(t));
    }
  }
  return std::move(b).Build();
}

// One pattern, grouped by object: "big" dwarfs every "tiny" group.
ChainQuery SkewedQuery(const Graph& graph) {
  auto q = ChainQuery::Create(
      {MakePattern(Slot::MakeVar(0), Slot::MakeConst(graph.dict().Lookup("p")),
                   Slot::MakeVar(1))},
      1, 0, /*distinct=*/false);
  EXPECT_TRUE(q.has_value());
  return *q;
}

TEST(TopKServeTest, DeadlineModePrunesTailAndSelfFinishesOnConvergence) {
  const Graph graph = SkewedGraph();
  IndexSet indexes(graph);
  const ChainQuery query = SkewedQuery(graph);

  ServingCore::Options core_options;
  core_options.threads = 2;
  ServingCore core(GraphSnapshot::Unowned(indexes), core_options);

  ChartJobOptions options;
  options.walk_budget = 0;
  options.deadline_seconds = 0.3;
  options.workers = 2;
  options.seed = 7;
  options.tipping_threshold = 2.0;  // stochastic mode: real CIs
  options.top_k.k = 1;
  options.top_k.ci_target = 0.005;

  // Run the full deadline (no self-finish) so walks keep flowing after
  // the first top-K refresh activates the filter.
  ChartHandle handle = core.Submit(query, options);
  const ParallelOlaResult& result = handle.Await();
  EXPECT_EQ(handle.state(), ChartJobState::kDone);
  EXPECT_TRUE(result.displayed_converged);
  // Walks landing on separated tail groups were pruned...
  EXPECT_GT(result.counters.pruned_walks, 0u);
  // ...and the displayed group's estimate is still in the right place
  // (pruned walks decay only the pruned groups).
  const TermId big = graph.dict().Lookup("big");
  EXPECT_NEAR(result.estimates.Estimate(big), 400.0, 80.0);
  // Every pruned tail group decayed below the K-th lower bound.
  for (const auto& [group, estimate] : result.estimates.Estimates()) {
    if (group == big) continue;
    EXPECT_LT(estimate + result.estimates.CiHalfWidth(group),
              result.estimates.Estimate(big));
  }

  // The converged flag survives into post-completion snapshots.
  EXPECT_TRUE(handle.Snapshot().displayed_converged);

  // Self-finish: the same job with finish_on_displayed_convergence stops
  // itself far before a long deadline and retires as COMPLETED.
  options.deadline_seconds = 30.0;
  options.finish_on_displayed_convergence = true;
  ChartHandle self = core.Submit(query, options);
  const ParallelOlaResult& early = self.Await();
  EXPECT_EQ(self.state(), ChartJobState::kDone);
  EXPECT_TRUE(early.displayed_converged);
  EXPECT_LT(early.elapsed_seconds, 5.0);
  EXPECT_EQ(core.stats().jobs_completed, 2u);
  EXPECT_EQ(core.stats().jobs_cancelled, 0u);
}

// Regression: a top-K self-finish requested mid-quantum leaves its job in
// the run queue as a stale entry, and the scheduler's pick once read past
// the end of the queue after dropping such entries. Many concurrent
// self-finishing jobs on a multi-thread pool hit that path every round;
// the contracts build's container bounds checks turn the read into an
// abort.
TEST(TopKServeTest, ConcurrentSelfFinishingJobsAllComplete) {
  const Graph graph = SkewedGraph();
  IndexSet indexes(graph);
  const ChainQuery query = SkewedQuery(graph);

  ServingCore::Options core_options;
  core_options.threads = 3;
  ServingCore core(GraphSnapshot::Unowned(indexes), core_options);

  ChartJobOptions options;
  options.deadline_seconds = 30.0;
  options.tipping_threshold = 2.0;
  options.top_k.k = 1;
  options.top_k.ci_target = 0.5;  // loose: converges within a few quanta
  options.finish_on_displayed_convergence = true;
  constexpr int kRounds = 20;
  constexpr int kJobsPerRound = 4;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<ChartHandle> handles;
    for (int j = 0; j < kJobsPerRound; ++j) {
      options.seed = static_cast<uint64_t>(round * kJobsPerRound + j);
      handles.push_back(core.Submit(query, options));
    }
    for (const ChartHandle& handle : handles) {
      const ParallelOlaResult result = handle.Await();
      EXPECT_EQ(handle.state(), ChartJobState::kDone);
      EXPECT_TRUE(result.displayed_converged);
    }
  }
  EXPECT_EQ(core.stats().jobs_completed,
            static_cast<uint64_t>(kRounds * kJobsPerRound));
  EXPECT_EQ(core.stats().live_jobs, 0u);
}

// Budget mode keeps the bit-identity contract: enabling top-K tracking
// must not change the estimate (pruning is forced off — observe-only),
// and no walks are ever counted as pruned. The skewed chart separates its
// tail well within kTopKMinWalks walks, and the first live snapshot past
// that count holds its worker for two top-K refresh periods, so the
// tracker refreshes past the threshold with quanta left to run: a budget
// job wired to prune would prune them.
TEST_F(ServeTest, BudgetModeTopKIsObserveOnly) {
  const Graph graph = SkewedGraph();
  IndexSet indexes(graph);
  const ChainQuery query = SkewedQuery(graph);
  ServingCore::Options core_options;
  core_options.threads = 2;
  ServingCore core(GraphSnapshot::Unowned(indexes), core_options);

  ChartJobOptions plain;
  plain.walk_budget = 64 * ServingCore::kQuantumWalks;
  plain.workers = 4;
  plain.seed = 17;
  plain.tipping_threshold = 2.0;
  ChartJobOptions tracked = plain;
  tracked.top_k.k = 1;
  tracked.snapshot_period = 1e-4;
  std::atomic<bool> held{false};
  tracked.on_snapshot = [&held](const OlaSnapshot& snapshot) {
    if (snapshot.final_snapshot || snapshot.walks < kTopKMinWalks ||
        held.exchange(true)) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };

  const ParallelOlaResult without = core.Submit(query, plain).Await();
  const ParallelOlaResult with = core.Submit(query, tracked).Await();
  ASSERT_TRUE(held.load());
  // The tracker ran past kTopKMinWalks: it saw the display converge.
  EXPECT_TRUE(with.displayed_converged);
  testing::ExpectBitIdentical(without.estimates, with.estimates);
  EXPECT_EQ(with.counters.pruned_walks, 0u);
}

// Destroying a core with live jobs cancels them and wakes Await-ers with
// well-formed partial results (handles outlive the core).
TEST_F(ServeTest, CoreDestructionCancelsLiveJobs) {
  ChartHandle orphan;
  {
    ServingCore core(GraphSnapshot::Unowned(indexes_), ServingCore::Options());
    ChartJobOptions options;
    options.walk_budget = kHugeBudget;
    options.workers = 2;
    orphan = core.Submit(Fig5(true), options);
  }
  EXPECT_TRUE(orphan.finished());
  EXPECT_EQ(orphan.state(), ChartJobState::kCancelled);
  const ParallelOlaResult& result = orphan.Await();
  EXPECT_LT(result.estimates.walks(), kHugeBudget);
  orphan.Snapshot();  // still answerable after the core is gone
}

// The two SubmitTask guarantees compaction relies on, checked on a
// 1-thread core kept busy by an unbounded job. A runnable job always wins
// PickWork, so both checks are deterministic: (1) chart quanta take
// precedence — the task waits while the job keeps advancing, and runs once
// the job is cancelled; (2) a task submitted before destruction always
// runs — exactly once, inline in the destructor when the pool never got
// to it.
TEST_F(ServeTest, BackgroundTasksYieldToChartsAndAlwaysRun) {
  ServingCore::Options core_options;
  core_options.threads = 1;
  ChartJobOptions busy;
  busy.walk_budget = kHugeBudget;
  busy.workers = 1;

  std::atomic<int> runs{0};
  {
    ServingCore core(GraphSnapshot::Unowned(indexes_), core_options);
    const ChartHandle job = core.Submit(Fig5(true), busy);
    core.SubmitTask([&runs] { runs.fetch_add(1); });
    const uint64_t quanta_at_submit = core.stats().quanta;
    while (core.stats().quanta < quanta_at_submit + 8) {
      std::this_thread::yield();
    }
    EXPECT_EQ(runs.load(), 0);
    EXPECT_EQ(core.stats().tasks_run, 0u);

    job.Cancel();
    while (runs.load() == 0) std::this_thread::yield();
    EXPECT_EQ(core.stats().tasks_run, 1u);
    EXPECT_EQ(job.state(), ChartJobState::kCancelled);
  }
  EXPECT_EQ(runs.load(), 1);

  std::atomic<int> late_runs{0};
  ChartHandle orphan;
  {
    ServingCore core(GraphSnapshot::Unowned(indexes_), core_options);
    orphan = core.Submit(Fig5(true), busy);
    core.SubmitTask([&late_runs] { late_runs.fetch_add(1); });
  }
  EXPECT_EQ(late_runs.load(), 1);
  EXPECT_EQ(orphan.state(), ChartJobState::kCancelled);
}

// The explorer's metrics dump shows whether a background compaction ran:
// `serve.tasks_run` is republished with the other serving counters on
// the next chart submission.
TEST_F(ServeTest, ExplorerExportsBackgroundTasksRun) {
  Explorer explorer(testing::PaperExampleGraph());
  explorer.CompactAsync().Await();
  ExplorationSession session = explorer.NewSession();
  ChartJobOptions options;
  options.walk_budget = 512;
  explorer.SubmitChart(session.BuildQuery(ExpansionKind::kOutProperty),
                       options)
      .Await();
  EXPECT_EQ(explorer.metrics().Counter("serve.tasks_run"), 1u);
}

TEST(ChartJobStateNames, AreStable) {
  EXPECT_STREQ(ChartJobStateName(ChartJobState::kQueued), "queued");
  EXPECT_STREQ(ChartJobStateName(ChartJobState::kRunning), "running");
  EXPECT_STREQ(ChartJobStateName(ChartJobState::kDone), "done");
  EXPECT_STREQ(ChartJobStateName(ChartJobState::kCancelled), "cancelled");
}

}  // namespace
}  // namespace kgoa
