// Tests for the persistent serving core: cancellation latency, multi-job
// fairness, background-task ordering, session auto-cancel, self-cancelling
// jobs under concurrency, and — the load-bearing guarantee — walk-budget
// bit-identity of a job run solo vs. run alongside competing jobs on pools
// of 1, 2, and 8 threads.
//
// Runs under TSan in tier-1 (scripts/tier1.sh): the scheduler state, the
// per-slot publish handoff, and the callback serialization are all exercised
// with real concurrency here.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
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

// Concurrent stops: many jobs on a multi-thread pool cancel themselves from
// their own snapshot callbacks, so every cancel lands while sibling slots
// are mid-quantum. Each job must retire exactly once, as cancelled, with
// the walks it ran, and leave nothing live behind.
TEST_F(ServeTest, ConcurrentSelfCancellingJobsAllRetire) {
  ServingCore::Options core_options;
  core_options.threads = 3;
  ServingCore core(GraphSnapshot::Unowned(indexes_), core_options);

  constexpr uint64_t kQuantaBeforeCancel = 4;
  constexpr uint64_t kWalksBeforeCancel =
      kQuantaBeforeCancel * ServingCore::kQuantumWalks;
  struct Shared {
    Mutex mutex;
    ChartHandle handle KGOA_GUARDED_BY(mutex);
    std::atomic<bool> armed{false};
  };

  constexpr int kRounds = 20;
  constexpr int kJobsPerRound = 4;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<ChartHandle> handles;
    for (int j = 0; j < kJobsPerRound; ++j) {
      auto job_shared = std::make_shared<Shared>();
      ChartJobOptions options;
      options.walk_budget = kHugeBudget;
      options.seed = static_cast<uint64_t>(round * kJobsPerRound + j);
      options.snapshot_period = 0.0;  // every quantum
      options.on_snapshot = [job_shared](const OlaSnapshot& snapshot) {
        if (snapshot.final_snapshot || snapshot.walks < kWalksBeforeCancel ||
            !job_shared->armed.load(std::memory_order_acquire)) {
          return;
        }
        ChartHandle handle;
        {
          MutexLock lock(job_shared->mutex);
          handle = job_shared->handle;
        }
        handle.Cancel();
      };
      ChartHandle handle = core.Submit(Fig5(true), options);
      {
        MutexLock lock(job_shared->mutex);
        job_shared->handle = handle;
      }
      job_shared->armed.store(true, std::memory_order_release);
      handles.push_back(std::move(handle));
    }
    for (const ChartHandle& handle : handles) {
      const ParallelOlaResult result = handle.Await();
      EXPECT_EQ(handle.state(), ChartJobState::kCancelled);
      EXPECT_GE(result.estimates.walks(), kWalksBeforeCancel);
    }
  }
  const ServeStats stats = core.stats();
  EXPECT_EQ(stats.jobs_cancelled,
            static_cast<uint64_t>(kRounds * kJobsPerRound));
  EXPECT_EQ(stats.jobs_completed, 0u);
  EXPECT_EQ(stats.live_jobs, 0u);
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
