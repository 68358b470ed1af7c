// Differential fuzz harness for the snapshot-epoch overlay machinery
// (DESIGN.md §13).
//
// Decodes the input bytes into a small random base graph plus a sequence
// of insert/delete batches, then maintains the live triple set three
// ways: (1) through MutableGraph's canonical overlay (serving through a
// merged view IndexSet), (2) through MutableGraph::Compact's fold, and
// (3) through an independent from-scratch rebuild (Graph::Rebase over a
// reference set the harness tracks itself). All three must agree on
// membership, on every range lookup and statistic the view answers from
// the base hash tables (Depth1, Depth2, Ndv1, Ndv2, CountMatches,
// CountDistinctVar), on exact join results (the full
// SeekGE/Narrow/BlockEnd iterator contract through LFTJ and CTJ), and
// BIT-IDENTICALLY on seeded walk estimates. Any disagreement aborts via
// KGOA_CHECK.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/audit.h"
#include "src/core/mutable_graph.h"
#include "src/index/index_set.h"
#include "src/index/snapshot.h"
#include "src/join/ctj.h"
#include "src/join/leapfrog.h"
#include "src/query/chain_query.h"
#include "src/rdf/graph.h"
#include "src/util/contract.h"

namespace {

// Exact (bit-level) agreement between two estimate sets.
void CheckEstimatesIdentical(const kgoa::GroupedEstimates& a,
                             const kgoa::GroupedEstimates& b) {
  KGOA_CHECK_MSG(a.walks() == b.walks(),
                 "overlay and rebuild walk counts diverge");
  const auto ea = a.Estimates();
  const auto eb = b.Estimates();
  KGOA_CHECK_MSG(ea.size() == eb.size(),
                 "overlay and rebuild group sets diverge");
  for (const auto& [group, estimate] : ea) {
    const auto it = eb.find(group);
    KGOA_CHECK_MSG(it != eb.end(), "group missing from rebuild estimates");
    KGOA_CHECK_MSG(estimate == it->second,
                   "overlay estimate not bit-identical to rebuild");
    KGOA_CHECK_MSG(a.CiHalfWidth(group) == b.CiHalfWidth(group),
                   "overlay CI not bit-identical to rebuild");
  }
}

// The view's lookups and statistics against the rebuilt index: equal
// non-empty ranges (an empty range may sit anywhere on the view), equal
// distinct counts, and equal pattern statistics for every constant mask
// of every probe triple.
void CheckViewLookups(const kgoa::IndexSet& view,
                      const kgoa::IndexSet& rebuilt, uint32_t num_terms,
                      const std::vector<kgoa::Triple>& probes) {
  auto same = [](kgoa::Range got, kgoa::Range want) {
    return want.empty() ? got.empty() : got == want;
  };
  for (kgoa::IndexOrder order : kgoa::kAllIndexOrders) {
    KGOA_CHECK_MSG(view.Ndv1(order) == rebuilt.Ndv1(order),
                   "view Ndv1 diverges from the rebuild");
    for (kgoa::TermId v = 0; v < num_terms; ++v) {
      KGOA_CHECK_MSG(same(view.Depth1(order, v), rebuilt.Depth1(order, v)),
                     "view Depth1 diverges from the rebuild");
      KGOA_CHECK_MSG(view.Ndv2(order, v) == rebuilt.Ndv2(order, v),
                     "view Ndv2 diverges from the rebuild");
    }
    for (const kgoa::Triple& t : probes) {
      const kgoa::TermId v0 = t[kgoa::OrderComponent(order, 0)];
      const kgoa::TermId v1 = t[kgoa::OrderComponent(order, 1)];
      KGOA_CHECK_MSG(
          same(view.Depth2(order, v0, v1), rebuilt.Depth2(order, v0, v1)),
          "view Depth2 diverges from the rebuild");
    }
  }
  for (const kgoa::Triple& t : probes) {
    for (uint32_t mask = 0; mask < 8; ++mask) {
      auto slot = [&](int c) {
        return (mask >> c & 1) != 0
                   ? kgoa::Slot::MakeConst(t[c])
                   : kgoa::Slot::MakeVar(static_cast<kgoa::VarId>(c));
      };
      const kgoa::TriplePattern pattern =
          kgoa::MakePattern(slot(0), slot(1), slot(2));
      KGOA_CHECK_MSG(view.CountMatches(pattern) ==
                         rebuilt.CountMatches(pattern),
                     "view CountMatches diverges from the rebuild");
      for (int c = 0; c < 3; ++c) {
        if ((mask >> c & 1) != 0) continue;
        const kgoa::VarId var = static_cast<kgoa::VarId>(c);
        KGOA_CHECK_MSG(view.CountDistinctVar(pattern, var) ==
                           rebuilt.CountDistinctVar(pattern, var),
                       "view CountDistinctVar diverges from the rebuild");
      }
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, std::size_t size) {
  if (size < 8) return 0;
  std::size_t pos = 0;
  auto byte = [&]() -> uint32_t {
    return pos < size ? static_cast<uint32_t>(data[pos++]) : 0u;
  };

  const uint32_t num_entities = 2 + byte() % 12;
  const uint32_t num_preds = 1 + byte() % 3;
  const uint32_t num_triples = byte() % 48;

  kgoa::GraphBuilder builder;
  std::vector<kgoa::TermId> entities;
  std::vector<kgoa::TermId> preds;
  for (uint32_t i = 0; i < num_entities; ++i) {
    entities.push_back(builder.Intern("<e" + std::to_string(i) + ">"));
  }
  for (uint32_t i = 0; i < num_preds; ++i) {
    preds.push_back(builder.Intern("<p" + std::to_string(i) + ">"));
  }
  for (uint32_t i = 0; i < num_triples; ++i) {
    builder.Add(entities[byte() % num_entities], preds[byte() % num_preds],
                entities[byte() % num_entities]);
  }

  kgoa::MutableGraph mutable_graph(std::move(builder).Build());
  const kgoa::GraphSnapshot base = mutable_graph.snapshot();

  // The harness's own reference: the live set as a sorted triple vector,
  // maintained with plain membership flips (no overlay code involved).
  std::vector<kgoa::Triple> reference = base.graph().triples();
  auto ref_find = [&](const kgoa::Triple& t) {
    return std::lower_bound(reference.begin(), reference.end(), t,
                            kgoa::SpoLess);
  };
  auto ref_contains = [&](const kgoa::Triple& t) {
    const auto it = ref_find(t);
    return it != reference.end() && *it == t;
  };

  // A few fresh entities interned mid-stream, so batches can introduce
  // terms the base dictionary never saw.
  std::vector<kgoa::TermId> universe = entities;
  const uint32_t num_fresh = byte() % 3;
  for (uint32_t i = 0; i < num_fresh; ++i) {
    universe.push_back(
        mutable_graph.Intern("<fresh" + std::to_string(i) + ">"));
  }

  auto decode_triple = [&]() {
    return kgoa::Triple{universe[byte() % universe.size()],
                        preds[byte() % num_preds],
                        universe[byte() % universe.size()]};
  };

  const uint32_t num_batches = 1 + byte() % 4;
  for (uint32_t b = 0; b < num_batches; ++b) {
    std::vector<kgoa::Triple> inserts;
    std::vector<kgoa::Triple> deletes;
    const uint32_t n_ins = byte() % 8;
    const uint32_t n_del = byte() % 8;
    for (uint32_t i = 0; i < n_ins; ++i) inserts.push_back(decode_triple());
    for (uint32_t i = 0; i < n_del; ++i) deletes.push_back(decode_triple());

    uint64_t expected_changes = 0;
    for (const kgoa::Triple& t : inserts) {
      if (!ref_contains(t)) {
        reference.insert(ref_find(t), t);
        ++expected_changes;
      }
    }
    for (const kgoa::Triple& t : deletes) {
      const auto it = ref_find(t);
      if (it != reference.end() && *it == t) {
        reference.erase(it);
        ++expected_changes;
      }
    }

    const uint64_t changes = mutable_graph.Apply(inserts, deletes);
    KGOA_CHECK_MSG(changes == expected_changes,
                   "canonical apply flip count diverges from reference");
    KGOA_CHECK_MSG(mutable_graph.snapshot().NumTriples() == reference.size(),
                   "overlay live count diverges from reference");
  }

  const kgoa::GraphSnapshot overlay = mutable_graph.snapshot();

  // From-scratch rebuild of the reference set (shared dictionary, so
  // TermIds line up across all three structures).
  const kgoa::Graph rebuilt =
      kgoa::Graph::Rebase(base.graph(), reference);
  const kgoa::IndexSet rebuilt_indexes(rebuilt);

  // Membership sweep over the whole (s, p, o) universe.
  for (const kgoa::TermId s : universe) {
    for (const kgoa::TermId p : preds) {
      for (const kgoa::TermId o : universe) {
        const kgoa::Triple t{s, p, o};
        KGOA_CHECK_MSG(overlay.Contains(t) == ref_contains(t),
                       "overlay membership diverges from reference");
      }
    }
  }

  if (overlay.overlay() != nullptr) {
    std::vector<kgoa::Triple> probes = base.graph().triples();
    probes.insert(probes.end(), reference.begin(), reference.end());
    CheckViewLookups(overlay.indexes(), rebuilt_indexes,
                     static_cast<uint32_t>(rebuilt.dict().size()), probes);
  }

  // Exact joins drive the merged iterators through the full position-
  // space contract; both engines must match the from-scratch build.
  const kgoa::Slot v0 = kgoa::Slot::MakeVar(0);
  const kgoa::Slot v1 = kgoa::Slot::MakeVar(1);
  const kgoa::Slot pred =
      kgoa::Slot::MakeConst(preds[byte() % num_preds]);
  const bool distinct = (byte() & 1) != 0;
  const auto query = kgoa::ChainQuery::Create(
      {kgoa::MakePattern(v0, pred, v1)}, 0, 1, distinct);
  KGOA_CHECK_MSG(query.has_value(), "harness built an invalid chain query");

  const kgoa::GroupedResult via_view =
      kgoa::EvaluateWithLftj(overlay.indexes(), *query);
  const kgoa::GroupedResult via_rebuild =
      kgoa::EvaluateWithLftj(rebuilt_indexes, *query);
  KGOA_CHECK_MSG(via_view == via_rebuild,
                 "LFTJ over the overlay view diverges from the rebuild");
  const kgoa::GroupedResult ctj_view =
      kgoa::CtjEngine(overlay.indexes()).Evaluate(*query);
  KGOA_CHECK_MSG(ctj_view == via_rebuild,
                 "CTJ over the overlay view diverges from the rebuild");

  // Seeded walk estimates must be bit-identical: the merged position
  // space is rank-identical to the rebuilt index, so every sampled
  // position maps to the same triple.
  if (overlay.NumTriples() > 0) {
    kgoa::AuditJoin::Options walk_options;
    walk_options.seed = 99;
    kgoa::AuditJoin via_overlay(overlay.indexes(), *query, walk_options);
    via_overlay.RunWalks(256);
    kgoa::AuditJoin via_scratch(rebuilt_indexes, *query, walk_options);
    via_scratch.RunWalks(256);
    CheckEstimatesIdentical(via_overlay.estimates(),
                            via_scratch.estimates());
  }

  // Compaction must fold to EXACTLY the reference set...
  mutable_graph.Compact();
  const kgoa::GraphSnapshot compacted = mutable_graph.snapshot();
  KGOA_CHECK_MSG(compacted.overlay() == nullptr,
                 "compaction left a non-empty overlay behind");
  KGOA_CHECK_MSG(compacted.graph().triples() == reference,
                 "compacted triple array diverges from the reference set");

  // ...and the retired overlay snapshot stays fully valid and unchanged.
  KGOA_CHECK_MSG(overlay.NumTriples() == reference.size(),
                 "retired snapshot changed after compaction");
  const kgoa::GroupedResult after_compaction =
      kgoa::EvaluateWithLftj(overlay.indexes(), *query);
  KGOA_CHECK_MSG(after_compaction == via_rebuild,
                 "retired snapshot's iterators changed after compaction");
  return 0;
}
