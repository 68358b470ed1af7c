// MutableGraph: the write side of the snapshot-epoch model (DESIGN.md §13).
//
// The paper's structures are all built over an immutable triple set; this
// layer makes the SET mutable while keeping every reader's world immutable.
// Writers apply insert/delete batches into a canonical pending-write pair
// (adds not in the base, deletes present in it); each applied batch builds
// a fresh DeltaOverlay + view IndexSet and publishes them as a new
// GraphVersion (epoch + 1) with an RCU-style shared_ptr swap. Readers pin
// a GraphSnapshot and never see a version change mid-query; retired
// versions stay fully valid until their last pin drops.
//
// Compaction folds the overlay into a rebuilt base: one linear merge of
// (base − deletes) with the adds, Graph::Rebase (shared dictionary, so
// TermIds are stable across generations), and a from-scratch IndexSet
// build — the same chained radix derivation as an initial load, so the
// compacted index is byte-identical to building the merged triple set
// directly. The heavy fold runs WITHOUT the writer lock: batches landing
// mid-compaction keep publishing live epochs against the old base and are
// additionally journaled; when the fold finishes, the journal is replayed
// canonically against the new base so no interleaved write is lost (in
// particular a delete of an add the fold already absorbed). CompactAsync
// schedules exactly that on a ServingCore's pool (background tasks yield
// to chart quanta).
//
// Thread safety: Apply/Insert/Delete/Compact may be called from any
// thread (writer_mutex_ serializes them); snapshot()/stats() are wait-free
// for writers (leaf publish_mutex_). Intern is writer-locked but NOT safe
// against concurrent readers spelling terms — intern query terms before
// submitting jobs that race writes (see src/rdf/dictionary.h).
#ifndef KGOA_CORE_MUTABLE_GRAPH_H_
#define KGOA_CORE_MUTABLE_GRAPH_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "src/index/delta.h"
#include "src/index/index_set.h"
#include "src/index/snapshot.h"
#include "src/rdf/graph.h"
#include "src/util/sync.h"

namespace kgoa {

class ServingCore;

class MutableGraph {
 public:
  struct Options {
    // Storage tier for the base IndexSet (initial build and every
    // compaction). Overlay views always serve through the base's tier.
    IndexSetOptions index_options;
  };

  // Takes ownership of the graph and builds its base indexes; publishes
  // epoch 0 (clean).
  explicit MutableGraph(Graph graph, Options options = {});

  MutableGraph(const MutableGraph&) = delete;
  MutableGraph& operator=(const MutableGraph&) = delete;

  // Pins the current version. Wait-free for writers; the returned
  // snapshot stays valid (and bit-stable) forever, no matter how many
  // epochs are published after it.
  GraphSnapshot snapshot() const;

  // Epoch of the current version (0 after construction; +1 per publish —
  // applied batch or compaction).
  uint64_t epoch() const;

  // Applies one batch: inserts first, then deletes (so a triple in both
  // lists ends up absent). Already-present inserts and absent deletes are
  // no-ops. Publishes a new epoch unless the batch was a complete no-op.
  // Returns the number of live-set changes (triples added + removed).
  uint64_t Apply(const std::vector<Triple>& inserts,
                 const std::vector<Triple>& deletes);

  uint64_t Insert(const std::vector<Triple>& triples) {
    return Apply(triples, {});
  }
  uint64_t Delete(const std::vector<Triple>& triples) {
    return Apply({}, triples);
  }

  // Interns a term in the shared dictionary (stable across compactions).
  TermId Intern(std::string_view term);

  // Folds the overlay into a rebuilt base and publishes the compacted
  // version; returns its epoch. No-op (returns the current epoch) when
  // the overlay is empty. Concurrent Compact calls serialize; concurrent
  // Apply calls proceed against the old base and are journal-replayed
  // onto the new one.
  uint64_t Compact();

  // Completion handle for a background compaction.
  class CompactTicket {
   public:
    CompactTicket() = default;

    bool valid() const { return shared_ != nullptr; }
    bool done() const;
    // Blocks until the compaction published; returns its epoch.
    uint64_t Await() const;

   private:
    friend class MutableGraph;
    struct Shared;
    std::shared_ptr<Shared> shared_;
  };

  // Schedules Compact() as a background task on `core`'s pool (chart
  // quanta take precedence; the core's destructor runs unstarted tasks
  // inline, so the ticket always completes). `this` must outlive `core`.
  CompactTicket CompactAsync(ServingCore& core);

  // Epoch/overlay gauges for the metrics registry and the REPL.
  struct Stats {
    uint64_t epoch = 0;
    uint64_t base_triples = 0;      // triples in the compacted base
    uint64_t live_triples = 0;      // base − deletes + adds
    uint64_t overlay_adds = 0;
    uint64_t overlay_dels = 0;
    // Resident size of the current version's overlay (0 when clean).
    uint64_t overlay_bytes = 0;
    uint64_t batches_applied = 0;   // Apply calls that published
    uint64_t compactions = 0;
    // Published versions still pinned by at least one snapshot, job or
    // cache entry (the current version counts as one).
    uint64_t snapshots_pinned = 0;
  };
  Stats stats() const;

 private:
  struct Journal {
    std::vector<Triple> inserts;
    std::vector<Triple> deletes;
  };

  // Builds and publishes the next version from the writer's current base
  // + pending state. Requires writer_mutex_.
  uint64_t PublishLocked() KGOA_REQUIRES(writer_mutex_);

  const Options options_;

  // Serializes writers (Apply/Compact/Intern). Never held across the
  // compaction fold itself — only across canonical-apply bookkeeping,
  // overlay builds and the publish swap.
  mutable Mutex writer_mutex_;
  std::shared_ptr<const Graph> base_graph_ KGOA_GUARDED_BY(writer_mutex_);
  std::shared_ptr<const IndexSet> base_indexes_
      KGOA_GUARDED_BY(writer_mutex_);
  PendingWrites pending_ KGOA_GUARDED_BY(writer_mutex_);
  // Compaction-in-progress state: batches applied while a fold runs are
  // appended here and replayed against the new base at swap time.
  bool compacting_ KGOA_GUARDED_BY(writer_mutex_) = false;
  std::vector<Journal> journal_ KGOA_GUARDED_BY(writer_mutex_);
  CondVar compact_cv_;  // signalled when a fold finishes
  uint64_t batches_applied_ KGOA_GUARDED_BY(writer_mutex_) = 0;
  uint64_t compactions_ KGOA_GUARDED_BY(writer_mutex_) = 0;

  // Leaf lock: the RCU publish point. snapshot() only ever takes this.
  mutable Mutex publish_mutex_;
  std::shared_ptr<const GraphVersion> current_
      KGOA_GUARDED_BY(publish_mutex_);
  // Every published version, weakly: stats() counts the still-alive ones
  // (the snapshots_pinned gauge) and prunes expired entries.
  mutable std::vector<std::weak_ptr<const GraphVersion>> versions_
      KGOA_GUARDED_BY(publish_mutex_);
};

}  // namespace kgoa

#endif  // KGOA_CORE_MUTABLE_GRAPH_H_
