// Tests for the snapshot-epoch model (src/core/mutable_graph.h,
// src/index/snapshot.h — DESIGN.md §13).
//
// The keystone is version isolation under writes: a budget-mode run
// pinned on epoch N must be BIT-IDENTICAL to the same run against an
// immutable build of epoch N's triple set, no matter how many batches
// land or compactions publish while it runs. The matrix below checks
// that across thread counts and both storage tiers, with a concurrent
// writer and a racing compaction (this file runs under
// ThreadSanitizer in tier 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/explorer.h"
#include "src/core/mutable_graph.h"
#include "src/eval/runner.h"
#include "src/explore/cache.h"
#include "src/index/snapshot.h"
#include "src/ola/parallel.h"
#include "src/rdf/graph.h"
#include "tests/test_util.h"

namespace kgoa {
namespace {

Slot V(VarId v) { return Slot::MakeVar(v); }
Slot C(TermId t) { return Slot::MakeConst(t); }

class MutableGraphTest : public ::testing::Test {
 protected:
  MutableGraphTest() : graph_(testing::PaperExampleGraph()) {}

  TermId Id(const char* term) const { return graph_.dict().Lookup(term); }

  ChainQuery Fig5(bool distinct = true) const {
    auto q = ChainQuery::Create(
        {MakePattern(V(0), C(graph_.rdf_type()), C(Id("Person"))),
         MakePattern(V(0), C(Id("birthPlace")), V(1)),
         MakePattern(V(1), C(graph_.rdf_type()), V(2))},
        2, 1, distinct);
    EXPECT_TRUE(q.has_value());
    return *q;
  }

  // A write batch touching the Fig5 query's footprint: a new person with
  // a birth place, plus a retraction of an existing birthPlace edge.
  std::vector<Triple> BatchInserts(MutableGraph& m) const {
    const TermId zeno = m.Intern("zeno");
    const TermId elea = m.Intern("elea");
    return {Triple{zeno, graph_.rdf_type(), Id("Person")},
            Triple{zeno, Id("birthPlace"), elea},
            Triple{elea, graph_.rdf_type(), Id("City")},
            Triple{elea, graph_.rdf_type(), Id("Place")}};
  }
  std::vector<Triple> BatchDeletes() const {
    return {Triple{Id("socrates"), Id("birthPlace"), Id("athens")}};
  }

  Graph graph_;  // template copied into each MutableGraph under test
};

// ---------------------------------------------------------------------------
// Canonical apply semantics
// ---------------------------------------------------------------------------

TEST_F(MutableGraphTest, ApplyCountsLiveSetFlipsAndSkipsNoOps) {
  MutableGraph m(testing::PaperExampleGraph());
  EXPECT_EQ(m.epoch(), 0u);
  const Triple existing{Id("plato"), Id("birthPlace"), Id("athens")};
  const TermId zeno = m.Intern("zeno");
  const Triple fresh{zeno, graph_.rdf_type(), Id("Person")};

  // Inserting a present triple and deleting an absent one are no-ops: no
  // flip, no epoch.
  EXPECT_EQ(m.Insert({existing}), 0u);
  EXPECT_EQ(m.Delete({fresh}), 0u);
  EXPECT_EQ(m.epoch(), 0u);

  // An effective insert flips once and publishes.
  EXPECT_EQ(m.Insert({fresh}), 1u);
  EXPECT_EQ(m.epoch(), 1u);
  EXPECT_TRUE(m.snapshot().Contains(fresh));

  // Deleting the pending add retracts it before any base ever holds it.
  EXPECT_EQ(m.Delete({fresh}), 1u);
  EXPECT_FALSE(m.snapshot().Contains(fresh));
  EXPECT_EQ(m.stats().overlay_adds, 0u);

  // Deleting a base triple, then re-inserting it, round-trips through the
  // tombstone (the overlay ends empty again).
  EXPECT_EQ(m.Delete({existing}), 1u);
  EXPECT_FALSE(m.snapshot().Contains(existing));
  EXPECT_EQ(m.Insert({existing}), 1u);
  EXPECT_TRUE(m.snapshot().Contains(existing));
  EXPECT_EQ(m.stats().overlay_adds, 0u);
  EXPECT_EQ(m.stats().overlay_dels, 0u);
}

TEST_F(MutableGraphTest, InsertsApplyBeforeDeletesWithinOneBatch) {
  MutableGraph m(testing::PaperExampleGraph());
  const TermId zeno = m.Intern("zeno");
  const Triple fresh{zeno, graph_.rdf_type(), Id("Person")};
  // The same triple in both lists of one batch ends up absent (insert
  // lands first, the delete retracts it): two flips.
  EXPECT_EQ(m.Apply({fresh}, {fresh}), 2u);
  EXPECT_FALSE(m.snapshot().Contains(fresh));
}

TEST_F(MutableGraphTest, SnapshotPinsItsEpochWhileWritesLand) {
  MutableGraph m(testing::PaperExampleGraph());
  const GraphSnapshot before = m.snapshot();
  const uint64_t triples_before = before.NumTriples();

  m.Insert(BatchInserts(m));
  m.Delete(BatchDeletes());

  // The pinned snapshot still answers for epoch 0.
  EXPECT_EQ(before.epoch(), 0u);
  EXPECT_EQ(before.NumTriples(), triples_before);
  EXPECT_TRUE(before.Contains(
      Triple{Id("socrates"), Id("birthPlace"), Id("athens")}));

  // A fresh snapshot sees the writes.
  const GraphSnapshot after = m.snapshot();
  EXPECT_EQ(after.epoch(), 2u);
  EXPECT_EQ(after.NumTriples(), triples_before + 4 - 1);
  EXPECT_FALSE(after.Contains(
      Triple{Id("socrates"), Id("birthPlace"), Id("athens")}));
}

// ---------------------------------------------------------------------------
// Compaction
// ---------------------------------------------------------------------------

TEST_F(MutableGraphTest, CompactionFoldMatchesIndependentMerge) {
  for (const StorageTier tier : {StorageTier::kRaw, StorageTier::kBlock}) {
    SCOPED_TRACE(tier == StorageTier::kRaw ? "raw" : "block");
    MutableGraph::Options options;
    options.index_options.tier = tier;
    MutableGraph m(testing::PaperExampleGraph(), options);
    const std::vector<Triple> inserts = BatchInserts(m);
    const std::vector<Triple> deletes = BatchDeletes();
    m.Apply(inserts, deletes);

    // Independent expectation: (base - deletes + adds), (s,p,o)-sorted
    // the way Graph stores its triple array.
    std::vector<Triple> expected = m.snapshot().graph().triples();
    expected.erase(std::remove_if(expected.begin(), expected.end(),
                                  [&](const Triple& t) {
                                    return std::find(deletes.begin(),
                                                     deletes.end(),
                                                     t) != deletes.end();
                                  }),
                   expected.end());
    expected.insert(expected.end(), inserts.begin(), inserts.end());
    std::sort(expected.begin(), expected.end(), SpoLess);

    const uint64_t epoch = m.Compact();
    EXPECT_EQ(epoch, 2u);  // one applied batch, then the compaction
    const GraphSnapshot compacted = m.snapshot();
    EXPECT_EQ(compacted.graph().triples(), expected);
    EXPECT_EQ(m.stats().overlay_adds, 0u);
    EXPECT_EQ(m.stats().overlay_dels, 0u);
    EXPECT_EQ(m.stats().compactions, 1u);

    // Compacting a clean graph is a no-op at the same epoch.
    EXPECT_EQ(m.Compact(), epoch);
    EXPECT_EQ(m.stats().compactions, 1u);
  }
}

// The overlay view and the compacted rebuild present the SAME triple set
// through rank-identical position spaces, so a budget run is bit-identical
// across the representation change — on both storage tiers.
TEST_F(MutableGraphTest, OverlayViewEstimatesMatchCompactedRebuild) {
  const ChainQuery query = Fig5();
  constexpr uint64_t kBudget = 2000;
  for (const StorageTier tier : {StorageTier::kRaw, StorageTier::kBlock}) {
    SCOPED_TRACE(tier == StorageTier::kRaw ? "raw" : "block");
    MutableGraph::Options options;
    options.index_options.tier = tier;
    MutableGraph m(testing::PaperExampleGraph(), options);
    m.Apply(BatchInserts(m), BatchDeletes());

    ChartJobOptions job;
    job.walk_budget = kBudget;
    job.workers = 4;
    job.seed = 17;
    job.tipping_threshold = 2.0;
    job.walk_order = DefaultAuditOrder(query);

    const GraphSnapshot overlay = m.snapshot();
    ASSERT_NE(overlay.overlay(), nullptr);
    const GroupedEstimates via_view =
        testing::ServeOnce(overlay, query, job, /*threads=*/2).estimates;

    m.Compact();
    const GraphSnapshot rebuilt = m.snapshot();
    ASSERT_EQ(rebuilt.overlay(), nullptr);
    const GroupedEstimates via_base =
        testing::ServeOnce(rebuilt, query, job, /*threads=*/2).estimates;

    testing::ExpectBitIdentical(via_view, via_base);
  }
}

// ---------------------------------------------------------------------------
// View lookups and statistics against a rebuilt index
// ---------------------------------------------------------------------------

// Compares every range lookup and statistic of the overlay view `view`
// with `rebuilt`, an IndexSet built from scratch over the same live
// triples: Depth1 and Ndv2 for every term, Ndv1, Depth2 for every (v0, v1)
// prefix of `probes` in every order, and CountMatches / CountDistinctVar
// for every constant mask of every probe. Non-empty ranges must be equal;
// the view may place an empty range anywhere.
void ExpectViewMatchesRebuilt(const IndexSet& view, const IndexSet& rebuilt,
                              uint32_t num_terms,
                              const std::vector<Triple>& probes) {
  ASSERT_FALSE(view.has_hash());
  ASSERT_EQ(view.NumTriples(), rebuilt.NumTriples());
  auto expect_same = [](Range got, Range want) {
    if (want.empty()) {
      EXPECT_TRUE(got.empty()) << got.begin << ".." << got.end;
    } else {
      EXPECT_EQ(got, want) << got.begin << ".." << got.end << " vs "
                           << want.begin << ".." << want.end;
    }
  };
  for (IndexOrder order : kAllIndexOrders) {
    SCOPED_TRACE(OrderName(order));
    EXPECT_EQ(view.Ndv1(order), rebuilt.Ndv1(order));
    for (TermId v = 0; v < num_terms; ++v) {
      SCOPED_TRACE(::testing::Message() << "v0=" << v);
      expect_same(view.Depth1(order, v), rebuilt.Depth1(order, v));
      EXPECT_EQ(view.Ndv2(order, v), rebuilt.Ndv2(order, v));
    }
    for (const Triple& t : probes) {
      const TermId v0 = t[OrderComponent(order, 0)];
      const TermId v1 = t[OrderComponent(order, 1)];
      SCOPED_TRACE(::testing::Message() << "v0=" << v0 << " v1=" << v1);
      expect_same(view.Depth2(order, v0, v1), rebuilt.Depth2(order, v0, v1));
    }
    if (::testing::Test::HasFailure()) return;
  }
  for (const Triple& t : probes) {
    for (uint32_t mask = 0; mask < 8; ++mask) {
      auto slot = [&](int c) {
        return (mask >> c & 1) != 0 ? C(t[c]) : V(static_cast<VarId>(c));
      };
      const TriplePattern pattern = MakePattern(slot(0), slot(1), slot(2));
      SCOPED_TRACE(::testing::Message() << "(" << t.s << " " << t.p << " "
                                        << t.o << ") mask=" << mask);
      EXPECT_EQ(view.CountMatches(pattern), rebuilt.CountMatches(pattern));
      for (int c = 0; c < 3; ++c) {
        if ((mask >> c & 1) != 0) continue;
        const VarId var = static_cast<VarId>(c);
        EXPECT_EQ(view.CountDistinctVar(pattern, var),
                  rebuilt.CountDistinctVar(pattern, var));
      }
    }
    if (::testing::Test::HasFailure()) return;
  }
}

// Seeded batches aimed at the overlay's translation cases: level-0 keys
// and (v0, v1) prefixes only adds carry, a term interned after the base
// was built, a base level-0 block deleted entirely, tombstones on the
// first and last position of blocks, and adds that sort before and after
// every base triple of their block. After every batch the view must
// answer every lookup and statistic as a rebuilt index does.
TEST_F(MutableGraphTest, ViewLookupsMatchRebuiltIndex) {
  constexpr int kEntities = 150;
  constexpr int kPredicates = 5;
  GraphBuilder builder;
  std::vector<TermId> entities;
  std::vector<TermId> preds;
  for (int i = 0; i < kPredicates; ++i) {
    preds.push_back(builder.Intern("p" + std::to_string(i)));
  }
  for (int i = 0; i < kEntities; ++i) {
    entities.push_back(builder.Intern("e" + std::to_string(i)));
  }
  // Base triples avoid the two smallest and two largest entities, so
  // adds using them sort before or after whole base blocks. Entity 10 is
  // a hub: deleting its block crowds one directory bucket with over a
  // hundred tombstones, past the directory's scan limit.
  Rng rng(3);
  auto inner = [&]() { return entities[2 + rng.Below(kEntities - 4)]; };
  for (int i = 0; i < 2500; ++i) {
    builder.Add(inner(), preds[rng.Below(kPredicates)], inner());
  }
  const TermId hub = entities[10];
  for (int i = 0; i < 100; ++i) {
    builder.Add(hub, preds[rng.Below(kPredicates)], inner());
  }
  const Graph base_graph = std::move(builder).Build();
  const std::vector<Triple> base_triples = base_graph.triples();

  for (const StorageTier tier : {StorageTier::kRaw, StorageTier::kBlock}) {
    SCOPED_TRACE(StorageTierName(tier));
    MutableGraph::Options options;
    options.index_options.tier = tier;
    MutableGraph m(Graph::Rebase(base_graph, base_triples), options);
    const TermId fresh = m.Intern("fresh");  // after the base was built
    std::vector<Triple> live = base_triples;  // (s, p, o)-sorted
    std::vector<Triple> probes = base_triples;
    Rng batch_rng(7);
    auto any_entity = [&]() {
      return batch_rng.Below(10) == 0
                 ? fresh
                 : entities[batch_rng.Below(kEntities)];
    };

    auto apply = [&](const std::vector<Triple>& inserts,
                     const std::vector<Triple>& deletes) {
      m.Apply(inserts, deletes);
      for (const Triple& t : inserts) {
        auto it = std::lower_bound(live.begin(), live.end(), t, SpoLess);
        if (it == live.end() || !(*it == t)) live.insert(it, t);
        probes.push_back(t);
      }
      for (const Triple& t : deletes) {
        auto it = std::lower_bound(live.begin(), live.end(), t, SpoLess);
        if (it != live.end() && *it == t) live.erase(it);
      }
      const GraphSnapshot snapshot = m.snapshot();
      ASSERT_NE(snapshot.overlay(), nullptr);
      const Graph rebuilt_graph = Graph::Rebase(snapshot.graph(), live);
      const IndexSet rebuilt(rebuilt_graph);
      const uint32_t num_terms =
          static_cast<uint32_t>(snapshot.graph().dict().size());
      ExpectViewMatchesRebuilt(snapshot.indexes(), rebuilt, num_terms,
                               probes);
      for (IndexOrder order : kAllIndexOrders) {
        snapshot.indexes().Index(order).CheckInvariants();
      }
    };

    // Batch 1: the structural cases.
    std::vector<Triple> inserts;
    std::vector<Triple> deletes;
    for (const Triple& t : base_triples) {
      if (t.s == hub) deletes.push_back(t);  // whole SPO block
    }
    // First and last triple of a subject's SPO block, of a predicate's
    // PSO block and of an object's OPS block.
    const TermId edge_subject = entities[20];
    const Range subject_block =
        m.snapshot().indexes().Depth1(IndexOrder::kSpo, edge_subject);
    ASSERT_GE(subject_block.size(), 3u);
    const TrieIndex& spo = m.snapshot().indexes().Index(IndexOrder::kSpo);
    deletes.push_back(spo.TripleAt(subject_block.begin));
    deletes.push_back(spo.TripleAt(subject_block.end - 1));
    for (IndexOrder order : {IndexOrder::kPso, IndexOrder::kOps}) {
      const IndexSet& indexes = m.snapshot().indexes();
      const TermId key = order == IndexOrder::kPso ? preds[2] : entities[30];
      const Range block = indexes.Depth1(order, key);
      ASSERT_GE(block.size(), 3u);
      deletes.push_back(indexes.Index(order).TripleAt(block.begin));
      deletes.push_back(indexes.Index(order).TripleAt(block.end - 1));
    }
    // Adds before and after every base triple of their block, in each
    // order's level-0 block: the smallest / largest entities and
    // predicates sort first / last.
    const TermId low = entities[0];
    const TermId high = entities[kEntities - 1];
    for (const TermId key : {entities[40], entities[41]}) {
      inserts.push_back(Triple{key, preds[0], low});     // SPO before
      inserts.push_back(Triple{key, preds.back(), high});  // SPO after
      inserts.push_back(Triple{low, preds[0], key});     // OPS before
      inserts.push_back(Triple{high, preds.back(), key});  // OPS after
    }
    inserts.push_back(Triple{low, preds[1], entities[50]});   // PSO before
    inserts.push_back(Triple{high, preds[1], entities[50]});  // PSO after
    // Fresh level-0 keys and prefixes, many at one insertion point.
    for (int i = 0; i < 80; ++i) {
      inserts.push_back(Triple{fresh, preds[static_cast<std::size_t>(i) %
                                            kPredicates],
                               entities[static_cast<std::size_t>(i) + 2]});
      inserts.push_back(Triple{entities[static_cast<std::size_t>(i) + 60],
                               preds[3], fresh});
    }
    for (int i = 0; i < 60; ++i) {
      inserts.push_back(Triple{inner(), preds[batch_rng.Below(kPredicates)],
                               inner()});
    }
    apply(inserts, deletes);
    if (HasFailure()) return;

    // Batch 2: seeded random writes, including the fresh term.
    const std::vector<Triple> first_deletes = deletes;
    const std::vector<Triple> first_inserts = inserts;
    inserts.clear();
    deletes.clear();
    for (int i = 0; i < 150; ++i) {
      inserts.push_back(Triple{any_entity(),
                               preds[batch_rng.Below(kPredicates)],
                               any_entity()});
    }
    for (int i = 0; i < 75; ++i) {
      deletes.push_back(base_triples[batch_rng.Below(base_triples.size())]);
    }
    apply(inserts, deletes);
    if (HasFailure()) return;

    // Batch 3: undo half of the first batch (revived tombstones and
    // retracted adds) and delete a second whole block.
    inserts.clear();
    deletes.clear();
    for (std::size_t i = 0; i < first_deletes.size(); i += 2) {
      inserts.push_back(first_deletes[i]);
    }
    for (std::size_t i = 0; i < first_inserts.size(); i += 2) {
      deletes.push_back(first_inserts[i]);
    }
    for (const Triple& t : live) {
      if (t.s == entities[12]) deletes.push_back(t);
    }
    apply(inserts, deletes);
  }
}

TEST_F(MutableGraphTest, WritesLandingDuringCompactionAreReplayed) {
  MutableGraph m(testing::PaperExampleGraph());
  // Pre-intern every term the writer thread uses (Intern is writer-locked
  // but concurrent Spell is not a safe race — src/rdf/dictionary.h).
  std::vector<Triple> batches;
  for (int i = 0; i < 64; ++i) {
    const TermId s = m.Intern("wave" + std::to_string(i));
    batches.push_back(Triple{s, graph_.rdf_type(), Id("Person")});
  }
  m.Insert({batches[0]});  // make the first compaction non-trivial

  // kgoa-lint: allow(raw-thread) writer racing the pool is the scenario under test
  std::thread writer([&]() {
    for (int i = 1; i < 64; ++i) {
      m.Insert({batches[static_cast<std::size_t>(i)]});
      if (i % 16 == 0) {
        m.Delete({batches[static_cast<std::size_t>(i)]});
      }
    }
  });
  // Race several folds against the writer: each fold's journal replay
  // must preserve every batch that landed mid-fold.
  for (int i = 0; i < 4; ++i) m.Compact();
  writer.join();
  m.Compact();

  const GraphSnapshot final_snapshot = m.snapshot();
  EXPECT_EQ(final_snapshot.overlay(), nullptr);
  for (int i = 0; i < 64; ++i) {
    const bool deleted = i > 0 && i % 16 == 0;
    EXPECT_EQ(final_snapshot.graph().Contains(
                  batches[static_cast<std::size_t>(i)]),
              !deleted)
        << "wave" << i;
  }
}

TEST_F(MutableGraphTest, CompactAsyncPublishesThroughTheServingPool) {
  MutableGraph m(testing::PaperExampleGraph());
  m.Insert(BatchInserts(m));
  {
    ServingCore::Options core_options;
    core_options.threads = 2;
    ServingCore core(m.snapshot(), core_options);
    MutableGraph::CompactTicket ticket = m.CompactAsync(core);
    ASSERT_TRUE(ticket.valid());
    EXPECT_EQ(ticket.Await(), 2u);
    EXPECT_TRUE(ticket.done());
    EXPECT_GT(core.stats().tasks_run, 0u);
  }
  EXPECT_EQ(m.stats().compactions, 1u);
  EXPECT_EQ(m.stats().overlay_adds, 0u);
}

// ---------------------------------------------------------------------------
// The acceptance matrix: pinned-epoch bit-identity under racing writes
// ---------------------------------------------------------------------------

// A budget job pinned on epoch N keeps producing epoch N's exact estimate
// while a writer thread lands batches and a compaction publishes N+1
// concurrently. The reference is an immutable build of the SAME triple
// set (a second MutableGraph compacted before serving — its base is the
// from-scratch build of the merged set, with identical TermIds because
// PaperExampleGraph interning is deterministic).
TEST_F(MutableGraphTest, PinnedEstimatesBitIdenticalAcrossThreadsAndTiers) {
  const ChainQuery query = Fig5();
  constexpr uint64_t kBudget = 1501;

  for (const StorageTier tier : {StorageTier::kRaw, StorageTier::kBlock}) {
    SCOPED_TRACE(tier == StorageTier::kRaw ? "raw" : "block");
    MutableGraph::Options options;
    options.index_options.tier = tier;

    // The reference: same batch, compacted to an immutable base BEFORE
    // serving (so its snapshot is a plain from-scratch IndexSet).
    MutableGraph reference_graph(testing::PaperExampleGraph(), options);
    reference_graph.Apply(BatchInserts(reference_graph), BatchDeletes());
    reference_graph.Compact();
    const GraphSnapshot reference_snapshot = reference_graph.snapshot();

    // The system under test: same batch pinned as an overlay view, with
    // a writer + compaction racing every serving below.
    MutableGraph m(testing::PaperExampleGraph(), options);
    m.Apply(BatchInserts(m), BatchDeletes());
    const GraphSnapshot pinned = m.snapshot();
    const uint64_t pinned_epoch = pinned.epoch();

    std::vector<Triple> noise;
    for (int i = 0; i < 32; ++i) {
      noise.push_back(Triple{m.Intern("noise" + std::to_string(i)),
                             graph_.rdf_type(), Id("Person")});
    }
    // kgoa-lint: allow(raw-thread) writer racing the pool is the scenario under test
    std::thread writer([&]() {
      for (const Triple& t : noise) {
        m.Insert({t});
      }
      m.Compact();
    });

    ChartJobOptions job;
    job.walk_budget = kBudget;
    job.workers = 8;  // fixed logical split: threads don't change it
    job.seed = 17;
    job.tipping_threshold = 2.0;
    job.walk_order = DefaultAuditOrder(query);
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads);
      const GroupedEstimates expected =
          testing::ServeOnce(reference_snapshot, query, job, threads)
              .estimates;
      const GroupedEstimates pinned_run =
          testing::ServeOnce(pinned, query, job, threads).estimates;
      testing::ExpectBitIdentical(pinned_run, expected);
    }
    writer.join();

    // The pinned snapshot is still epoch N even though the writer
    // published far past it.
    EXPECT_EQ(pinned.epoch(), pinned_epoch);
    EXPECT_GT(m.epoch(), pinned_epoch);
  }
}

// ---------------------------------------------------------------------------
// Explorer facade + epoch-aware caches
// ---------------------------------------------------------------------------

TEST_F(MutableGraphTest, ExplorerWritePathPublishesEpochsAndEvictsCaches) {
  Explorer explorer(testing::PaperExampleGraph());
  const ChainQuery query = Fig5();
  EXPECT_EQ(explorer.epoch(), 0u);

  // Warm an epoch-0 reach cache.
  (void)explorer.ApproximateChart(query, /*seconds=*/0.005, BarKind::kClass);
  EXPECT_EQ(explorer.metrics().Counter("explorer.reach.plans"), 1u);

  // A write publishes epoch 1 and evicts the superseded plan cache.
  const TermId zeno = explorer.Intern("zeno");
  EXPECT_EQ(explorer.Insert({Triple{zeno, graph_.rdf_type(), Id("Person")}}),
            1u);
  EXPECT_EQ(explorer.epoch(), 1u);
  EXPECT_EQ(explorer.metrics().Counter("epoch.current"), 1u);
  EXPECT_EQ(explorer.metrics().Counter("epoch.overlay_adds"), 1u);
  EXPECT_GT(explorer.metrics().Counter("epoch.overlay_bytes"), 0u);
  EXPECT_EQ(explorer.metrics().Counter("explorer.reach.stale_evictions"),
            1u);

  // Serving after the write sees the new epoch (fresh plan cache) and the
  // inserted triple's contribution flows into the estimate path.
  (void)explorer.ApproximateChart(query, /*seconds=*/0.005, BarKind::kClass);
  EXPECT_EQ(explorer.metrics().Counter("explorer.reach.plans"), 1u);
  EXPECT_EQ(explorer.metrics().Counter("explorer.reach.plan_misses"), 2u);

  // Compaction folds the overlay and bumps the epoch again.
  const uint64_t compacted_epoch = explorer.Compact();
  EXPECT_EQ(compacted_epoch, 2u);
  EXPECT_EQ(explorer.metrics().Counter("epoch.compactions"), 1u);
  EXPECT_EQ(explorer.metrics().Counter("epoch.overlay_adds"), 0u);
  EXPECT_EQ(explorer.metrics().Counter("epoch.overlay_bytes"), 0u);
  EXPECT_TRUE(explorer.graph().Contains(
      Triple{zeno, graph_.rdf_type(), Id("Person")}));

  // Exact evaluation answers for the current version.
  const GroupedResult exact = explorer.Evaluate(query);
  const GroupedResult brute =
      testing::BruteForce(explorer.graph(), query);
  EXPECT_EQ(exact.counts, brute.counts);
}

TEST_F(MutableGraphTest, ExplorerCompactAsyncTicketCompletes) {
  Explorer explorer(testing::PaperExampleGraph());
  const TermId zeno = explorer.Intern("zeno");
  explorer.Insert({Triple{zeno, graph_.rdf_type(), Id("Person")}});
  MutableGraph::CompactTicket ticket = explorer.CompactAsync();
  ASSERT_TRUE(ticket.valid());
  EXPECT_EQ(ticket.Await(), 2u);
  EXPECT_EQ(explorer.graph_stats().compactions, 1u);
}

TEST_F(MutableGraphTest, ChartCacheKeysOnEpoch) {
  ChartCache cache;
  const ChainQuery query = Fig5();
  GroupedResult epoch0;
  epoch0.counts[1] = 10;
  GroupedResult epoch1;
  epoch1.counts[1] = 11;
  cache.Insert(query, epoch0, /*epoch=*/0);
  cache.Insert(query, epoch1, /*epoch=*/1);
  ASSERT_NE(cache.Lookup(query, 0), nullptr);
  ASSERT_NE(cache.Lookup(query, 1), nullptr);
  EXPECT_EQ(cache.Lookup(query, 0)->counts.at(1), 10u);
  EXPECT_EQ(cache.Lookup(query, 1)->counts.at(1), 11u);
  EXPECT_EQ(cache.Lookup(query, 2), nullptr);
}

TEST_F(MutableGraphTest, ReachRegistryKeysOnEpochAndEvictsStale) {
  MutableGraph m(testing::PaperExampleGraph());
  const ChainQuery query = Fig5();
  ReachCacheRegistry registry;

  const GraphSnapshot epoch0 = m.snapshot();
  AcquiredReach first = registry.Acquire(query, {}, epoch0);
  ASSERT_NE(first.reach, nullptr);
  EXPECT_EQ(first.epoch, 0u);

  m.Insert(BatchInserts(m));
  const GraphSnapshot epoch1 = m.snapshot();
  AcquiredReach second = registry.Acquire(query, {}, epoch1);
  EXPECT_NE(second.reach, first.reach);  // distinct epoch, distinct memos
  EXPECT_EQ(registry.plans(), 2u);

  // Evicting for the current epoch drops only the superseded entry; the
  // keepalive keeps the handed-out cache (and its pinned version) valid.
  EXPECT_EQ(registry.EvictStale(epoch1.epoch()), 1u);
  EXPECT_EQ(registry.plans(), 1u);
  EXPECT_GE(first.reach->stats().entries, 0u);  // still safe to probe
}

// ---------------------------------------------------------------------------
// Contracts
// ---------------------------------------------------------------------------

using MutableGraphDeathTest = MutableGraphTest;

TEST_F(MutableGraphDeathTest, ReleasedSnapshotTripsTheContract) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MutableGraph m(testing::PaperExampleGraph());
  GraphSnapshot snapshot = m.snapshot();
  snapshot.Release();
  EXPECT_FALSE(snapshot.valid());
  EXPECT_DEATH((void)snapshot.epoch(),
               "use of an invalid or released GraphSnapshot");
  EXPECT_DEATH((void)snapshot.indexes(),
               "use of an invalid or released GraphSnapshot");
}

TEST_F(MutableGraphTest, SnapshotCountersTrackPinnedVersions) {
  MutableGraph m(testing::PaperExampleGraph());
  EXPECT_EQ(m.stats().snapshots_pinned, 1u);  // the current version
  GraphSnapshot pinned = m.snapshot();
  m.Insert(BatchInserts(m));
  EXPECT_EQ(m.stats().snapshots_pinned, 2u);  // epoch 0 pinned + current
  pinned.Release();
  EXPECT_EQ(m.stats().snapshots_pinned, 1u);
  EXPECT_EQ(m.stats().batches_applied, 1u);
}

}  // namespace
}  // namespace kgoa
