#include "src/core/mutable_graph.h"

#include <algorithm>
#include <utility>

#include "src/ola/parallel.h"
#include "src/util/contract.h"

namespace kgoa {

namespace {

// Sorted-vector (SpoLess) set primitives for the canonical pending sets.
// Batches are small next to the base, so O(n) vector splices beat a tree.
bool SortedInsert(std::vector<Triple>& v, const Triple& t) {
  auto it = std::lower_bound(v.begin(), v.end(), t, SpoLess);
  if (it != v.end() && *it == t) return false;
  v.insert(it, t);
  return true;
}

bool SortedErase(std::vector<Triple>& v, const Triple& t) {
  auto it = std::lower_bound(v.begin(), v.end(), t, SpoLess);
  if (it == v.end() || !(*it == t)) return false;
  v.erase(it);
  return true;
}

// The canonical apply: folds one batch (inserts first, then deletes) into
// `pending`, keeping its invariants against `base` — adds absent from the
// base, deletes present in it, sets disjoint. Every effective operation
// flips exactly one triple's live-set membership; the return value counts
// those flips.
uint64_t CanonicalApply(const Graph& base,
                        const std::vector<Triple>& inserts,
                        const std::vector<Triple>& deletes,
                        PendingWrites& pending) {
  const TermId num_terms = static_cast<TermId>(base.dict().size());
  uint64_t changes = 0;
  for (const Triple& t : inserts) {
    KGOA_DCHECK_MSG(t.s < num_terms && t.p < num_terms && t.o < num_terms,
                    "insert of a triple with uninterned TermIds");
    if (SortedErase(pending.dels, t)) {
      ++changes;  // un-delete: the triple is back in the live set
    } else if (!base.Contains(t) && SortedInsert(pending.adds, t)) {
      ++changes;
    }
  }
  for (const Triple& t : deletes) {
    if (SortedErase(pending.adds, t)) {
      ++changes;  // retract a pending add before it ever hit a base
    } else if (base.Contains(t) && SortedInsert(pending.dels, t)) {
      ++changes;
    }
  }
  return changes;
}

}  // namespace

MutableGraph::MutableGraph(Graph graph, Options options)
    : options_(options) {
  auto base = std::make_shared<const Graph>(std::move(graph));
  auto indexes =
      std::make_shared<const IndexSet>(*base, options_.index_options);
  MutexLock lock(writer_mutex_);
  base_graph_ = std::move(base);
  base_indexes_ = std::move(indexes);
  PublishLocked();  // epoch 0, clean
}

GraphSnapshot MutableGraph::snapshot() const {
  MutexLock lock(publish_mutex_);
  return GraphSnapshot(current_);
}

uint64_t MutableGraph::epoch() const {
  MutexLock lock(publish_mutex_);
  return current_->epoch;
}

uint64_t MutableGraph::Apply(const std::vector<Triple>& inserts,
                             const std::vector<Triple>& deletes) {
  MutexLock lock(writer_mutex_);
  if (compacting_) {
    // A fold is running against a frozen copy of the old pending set:
    // record the raw batch so the fold's epilogue can replay it against
    // the NEW base (this is what keeps "delete an add the fold already
    // absorbed" correct). The batch ALSO lands in pending_ below, so the
    // epoch published right now still reflects it.
    journal_.push_back(Journal{inserts, deletes});
  }
  const uint64_t changes =
      CanonicalApply(*base_graph_, inserts, deletes, pending_);
  if (changes == 0) return 0;  // no-op batch: nothing new to publish
  ++batches_applied_;
  PublishLocked();
  return changes;
}

TermId MutableGraph::Intern(std::string_view term) {
  MutexLock lock(writer_mutex_);
  return base_graph_->dict_ptr()->Intern(term);
}

uint64_t MutableGraph::Compact() {
  std::shared_ptr<const Graph> old_graph;
  PendingWrites folded;
  {
    MutexLock lock(writer_mutex_);
    // One fold at a time: a second Compact waits for the in-flight one,
    // then folds whatever writes replayed on top of its result.
    compact_cv_.Wait(writer_mutex_,
                     [this]() KGOA_NO_THREAD_SAFETY_ANALYSIS {
                       return !compacting_;
                     });
    if (pending_.empty()) {
      MutexLock publish_lock(publish_mutex_);
      return current_->epoch;
    }
    compacting_ = true;
    journal_.clear();
    old_graph = base_graph_;
    folded = pending_;
  }

  // The heavy fold, off-lock: writers keep landing batches (journaled
  // above) and readers keep serving pinned versions. One linear merge —
  // all three sequences are (s,p,o)-sorted — then the exact same build
  // path as an initial load, so the result is byte-identical to indexing
  // the merged triple set from scratch.
  std::vector<Triple> merged;
  const std::vector<Triple>& base = old_graph->triples();
  merged.reserve(base.size() + folded.adds.size() - folded.dels.size());
  auto del_it = folded.dels.cbegin();
  auto add_it = folded.adds.cbegin();
  for (const Triple& t : base) {
    while (add_it != folded.adds.cend() && SpoLess(*add_it, t)) {
      merged.push_back(*add_it++);
    }
    if (del_it != folded.dels.cend() && *del_it == t) {
      ++del_it;
      continue;
    }
    merged.push_back(t);
  }
  merged.insert(merged.end(), add_it, folded.adds.cend());
  KGOA_CHECK_MSG(del_it == folded.dels.cend(),
                 "pending delete missing from the base it was taken against");
  auto new_graph = std::make_shared<const Graph>(
      Graph::Rebase(*old_graph, std::move(merged)));
  auto new_indexes =
      std::make_shared<const IndexSet>(*new_graph, options_.index_options);

  uint64_t published = 0;
  {
    MutexLock lock(writer_mutex_);
    // Swap epilogue: re-derive the pending set by replaying every batch
    // that landed mid-fold against the new base (the old-base pending_ is
    // superseded — its folded prefix is IN the new base).
    PendingWrites replayed;
    for (const Journal& batch : journal_) {
      CanonicalApply(*new_graph, batch.inserts, batch.deletes, replayed);
    }
    journal_.clear();
    base_graph_ = std::move(new_graph);
    base_indexes_ = std::move(new_indexes);
    pending_ = std::move(replayed);
    ++compactions_;
    published = PublishLocked();
    compacting_ = false;
  }
  compact_cv_.NotifyAll();
  return published;
}

uint64_t MutableGraph::PublishLocked() {
  auto version = std::make_shared<GraphVersion>();
  version->graph = base_graph_;
  version->base_indexes = base_indexes_;
  if (!pending_.empty()) {
    auto overlay =
        std::make_shared<const DeltaOverlay>(*base_indexes_, pending_);
    version->view = std::shared_ptr<const IndexSet>(
        IndexSet::MakeView(*base_indexes_, *overlay));
    version->overlay = std::move(overlay);
  } else {
    version->view = base_indexes_;
  }
  MutexLock lock(publish_mutex_);
  version->epoch = current_ == nullptr ? 0 : current_->epoch + 1;
  current_ = version;
  versions_.push_back(version);
  return version->epoch;
}

// ---------------------------------------------------------------------------
// Background compaction
// ---------------------------------------------------------------------------

struct MutableGraph::CompactTicket::Shared {
  Mutex mutex;
  CondVar cv;
  bool done KGOA_GUARDED_BY(mutex) = false;
  uint64_t epoch KGOA_GUARDED_BY(mutex) = 0;
};

bool MutableGraph::CompactTicket::done() const {
  KGOA_CHECK(valid());
  MutexLock lock(shared_->mutex);
  return shared_->done;
}

uint64_t MutableGraph::CompactTicket::Await() const {
  KGOA_CHECK(valid());
  Shared& shared = *shared_;
  MutexLock lock(shared.mutex);
  shared.cv.Wait(shared.mutex, [&shared]() KGOA_NO_THREAD_SAFETY_ANALYSIS {
    return shared.done;
  });
  return shared.epoch;
}

MutableGraph::CompactTicket MutableGraph::CompactAsync(ServingCore& core) {
  CompactTicket ticket;
  ticket.shared_ = std::make_shared<CompactTicket::Shared>();
  std::shared_ptr<CompactTicket::Shared> shared = ticket.shared_;
  core.SubmitTask([this, shared]() {
    const uint64_t epoch = Compact();
    {
      MutexLock lock(shared->mutex);
      shared->done = true;
      shared->epoch = epoch;
    }
    shared->cv.NotifyAll();
  });
  return ticket;
}

MutableGraph::Stats MutableGraph::stats() const {
  Stats stats;
  {
    MutexLock lock(writer_mutex_);
    stats.base_triples = base_graph_->NumTriples();
    stats.overlay_adds = pending_.adds.size();
    stats.overlay_dels = pending_.dels.size();
    stats.live_triples =
        stats.base_triples - stats.overlay_dels + stats.overlay_adds;
    stats.batches_applied = batches_applied_;
    stats.compactions = compactions_;
  }
  MutexLock lock(publish_mutex_);
  stats.epoch = current_->epoch;
  stats.overlay_bytes =
      current_->overlay == nullptr ? 0 : current_->overlay->MemoryBytes();
  versions_.erase(
      std::remove_if(versions_.begin(), versions_.end(),
                     [](const std::weak_ptr<const GraphVersion>& v) {
                       return v.expired();
                     }),
      versions_.end());
  stats.snapshots_pinned = versions_.size();
  return stats;
}

}  // namespace kgoa
