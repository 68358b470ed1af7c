// Tests for the annotated synchronization wrappers (src/util/sync.h) and
// the lock-discipline contracts the thread-safety-analysis PR pinned
// down:
//
//  * kgoa::Mutex / MutexLock / CondVar behave like the std primitives
//    they wrap (scoped release, adopt-after-TryLock, mid-scope
//    unlock/relock, predicate waits absorbing spurious wakeups);
//  * concurrent Submit calls on one ServingCore race only on the
//    scheduler lock, and every caller still gets the budget-mode result
//    of a solo run (ConcurrentSubmitsMatchSoloRun, which tier-1 also runs
//    under TSan);
//  * the documented lock ordering (DESIGN.md §11): the serving core's
//    scheduler mutex is never held across user callbacks, and the
//    reach-registry mutex is a leaf — so a snapshot callback may re-enter
//    stats(), Snapshot(), even a whole Submit+Await on another explorer's
//    pool, without deadlock (CallbackRunsOutsideSchedulerLock).
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

// ---------------------------------------------------------------------------
// Wrapper behavior
// ---------------------------------------------------------------------------

TEST(SyncTest, MutexLockSerializesIncrements) {
  Mutex mutex;
  int counter = 0;  // guarded by mutex (by convention in this test)
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;  // kgoa-lint: allow(raw-thread) clients
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        MutexLock lock(mutex);
        ++counter;
      }
    });
  }
  // kgoa-lint: allow(raw-thread) joining the client harness
  for (std::thread& t : threads) t.join();
  MutexLock lock(mutex);
  EXPECT_EQ(counter, kThreads * kPerThread);
}

TEST(SyncTest, TryLockAdoptAndContention) {
  Mutex mutex;
  ASSERT_TRUE(mutex.TryLock());
  {
    // Adopt the TryLock acquisition; scope exit releases it.
    MutexLock lock(mutex, kAdoptLock);
    // Another thread must see the mutex held. (try_lock on the owning
    // thread would be UB, hence the hop.)
    std::atomic<bool> other_got_it{true};
    // kgoa-lint: allow(raw-thread) cross-thread TryLock probe
    std::thread prober([&] {
      if (mutex.TryLock()) {
        mutex.Unlock();
      } else {
        other_got_it.store(false, std::memory_order_release);
      }
    });
    prober.join();
    EXPECT_FALSE(other_got_it.load(std::memory_order_acquire));
  }
  // Released by the adopt guard: acquirable again.
  ASSERT_TRUE(mutex.TryLock());
  mutex.Unlock();
}

TEST(SyncTest, MidScopeUnlockRelock) {
  Mutex mutex;
  {
    MutexLock lock(mutex);
    lock.Unlock();
    // The long-computation window: the mutex must be free here.
    ASSERT_TRUE(mutex.TryLock());
    mutex.Unlock();
    lock.Lock();
  }
  // The re-acquired lock was released by the destructor.
  ASSERT_TRUE(mutex.TryLock());
  mutex.Unlock();
}

TEST(SyncTest, CondVarPredicateWaitAndTimeout) {
  Mutex mutex;
  CondVar cv;
  bool ready = false;  // guarded by mutex

  {
    // WaitFor with a predicate that never turns true: times out false.
    MutexLock lock(mutex);
    EXPECT_FALSE(cv.WaitFor(mutex, std::chrono::milliseconds(5),
                            [&] { return ready; }));
  }

  // kgoa-lint: allow(raw-thread) producer side of the handshake
  std::thread producer([&] {
    MutexLock lock(mutex);
    ready = true;
    cv.NotifyAll();
  });
  {
    MutexLock lock(mutex);
    cv.Wait(mutex, [&] { return ready; });
    EXPECT_TRUE(ready);
  }
  producer.join();
}

// ---------------------------------------------------------------------------
// Concurrent submitters on one core
// ---------------------------------------------------------------------------

// Four client threads submit the same budget job to one ServingCore at
// once (under TSan in tier-1). Submission touches only the scheduler
// lock, and the budget-mode contract holds for every caller: each result
// is bit-identical to a solo run with the same (query, seed, budget,
// workers), however the four jobs' quanta interleave.
TEST(SyncTest, ConcurrentSubmitsMatchSoloRun) {
  Graph graph = testing::PaperExampleGraph();
  IndexSet indexes(graph);
  auto query = ChainQuery::Create(
      {MakePattern(V(0), C(graph.rdf_type()),
                   C(graph.dict().Lookup("Person"))),
       MakePattern(V(0), C(graph.dict().Lookup("birthPlace")), V(1)),
       MakePattern(V(1), C(graph.rdf_type()), V(2))},
      2, 1, /*distinct=*/true);
  ASSERT_TRUE(query.has_value());

  ChartJobOptions job;
  job.walk_budget = 20000;
  job.workers = 4;
  job.seed = 7;
  const ParallelOlaResult solo = testing::ServeOnce(
      GraphSnapshot::Unowned(indexes), *query, job, /*threads=*/2);

  ServingCore::Options core_options;
  core_options.threads = 2;
  ServingCore shared(GraphSnapshot::Unowned(indexes), core_options);
  constexpr int kCallers = 4;
  std::vector<ParallelOlaResult> results(kCallers);
  std::vector<std::thread> callers;  // kgoa-lint: allow(raw-thread)
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] =
          shared.Submit(*query, job).Await();
    });
  }
  // kgoa-lint: allow(raw-thread) joining the concurrent submitters
  for (std::thread& t : callers) t.join();

  for (const ParallelOlaResult& result : results) {
    testing::ExpectBitIdentical(solo.estimates, result.estimates);
  }
  EXPECT_EQ(shared.stats().jobs_completed, static_cast<uint64_t>(kCallers));
}

// ---------------------------------------------------------------------------
// Lock-order pinning (DESIGN.md §11)
// ---------------------------------------------------------------------------

// The capability model's ordering rules, each of which this test would
// turn into a deadlock if regressed:
//   * the serving core's scheduler mutex is NEVER held across user code —
//     so a snapshot callback may call stats() and Snapshot() on its own
//     core/job;
//   * the reach-registry mutex is a leaf, never nested with a scheduler
//     mutex — so a callback may even run a whole SubmitChart + Await on
//     a second explorer (its registry and its own pool's scheduler).
TEST(SyncTest, CallbackRunsOutsideSchedulerLock) {
  Graph graph = testing::PaperExampleGraph();
  IndexSet indexes(graph);
  auto query = ChainQuery::Create(
      {MakePattern(V(0), C(graph.rdf_type()),
                   C(graph.dict().Lookup("Person"))),
       MakePattern(V(0), C(graph.dict().Lookup("birthPlace")), V(1)),
       MakePattern(V(1), C(graph.rdf_type()), V(2))},
      2, 1, /*distinct=*/true);
  ASSERT_TRUE(query.has_value());

  // A second explorer over the same graph (PaperExampleGraph interns
  // deterministically, so the query's term ids carry over).
  const Explorer other(testing::PaperExampleGraph());

  ServingCore::Options core_options;
  core_options.threads = 1;  // one worker: any held-lock re-entry deadlocks
  ServingCore core(GraphSnapshot::Unowned(indexes), core_options);

  struct Shared {
    Mutex mutex;
    ChartHandle handle KGOA_GUARDED_BY(mutex);
    std::atomic<bool> armed{false};
    std::atomic<bool> fired{false};
  };
  auto shared = std::make_shared<Shared>();

  ChartJobOptions job;
  job.walk_budget = 1ull << 40;  // runs until the callback cancels it
  job.workers = 2;
  job.seed = 3;
  job.snapshot_period = 0.0;  // every quantum
  job.on_snapshot = [&, shared](const OlaSnapshot& snapshot) {
    if (snapshot.final_snapshot) return;
    if (!shared->armed.load(std::memory_order_acquire)) return;
    if (shared->fired.exchange(true, std::memory_order_acq_rel)) return;
    // Scheduler-lock re-entry: both take the core's state mutex.
    const ServeStats stats = core.stats();
    EXPECT_GE(stats.jobs_submitted, 1u);
    ChartHandle handle;
    {
      MutexLock lock(shared->mutex);
      handle = shared->handle;
    }
    EXPECT_GE(handle.Snapshot().estimates.walks(), 0u);
    // Leaf-mutex ordering: a full distinct-chart serve on the second
    // explorer from inside this callback (its reach-registry mutex and
    // another scheduler mutex — neither nested with ours).
    ChartJobOptions nested;
    nested.walk_budget = 512;
    nested.workers = 2;
    nested.seed = 5;
    const ParallelOlaResult served =
        other.SubmitChart(*query, nested).Await();
    EXPECT_EQ(served.estimates.walks(), 512u);
    EXPECT_EQ(other.serve_stats().jobs_completed, 1u);
    handle.Cancel();
  };

  ChartHandle handle = core.Submit(*query, job);
  {
    MutexLock lock(shared->mutex);
    shared->handle = handle;
  }
  shared->armed.store(true, std::memory_order_release);

  const ParallelOlaResult result = handle.Await();
  EXPECT_TRUE(shared->fired.load(std::memory_order_acquire));
  EXPECT_EQ(handle.state(), ChartJobState::kCancelled);
  EXPECT_GT(result.estimates.walks(), 0u);
}

}  // namespace
}  // namespace kgoa
