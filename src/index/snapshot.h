// Versioned graph access: the read side of the snapshot-epoch model
// (DESIGN.md §13).
//
// A GraphVersion is one immutable published state of a mutable graph: an
// epoch number, the base Graph and IndexSet, and (when writes are pending)
// the DeltaOverlay plus the view IndexSet that merges it in. MutableGraph
// publishes versions RCU-style — writers build the next version off to the
// side and swap one shared_ptr under a leaf mutex; readers never block.
//
// A GraphSnapshot is a pinned, copyable handle on one version. Everything
// a reader dereferences (view indexes, overlay, base arrays, dictionary)
// is reachable from the pinned shared_ptr, so a retired version stays
// fully valid until the LAST snapshot, in-flight ChartJob, warm reach
// cache entry or CTJ memo that pinned it lets go — there is no epoch
// fence to wait on and no reader-side locking. Jobs pin their snapshot at
// submit; a budget-mode estimate is therefore a pure function of
// (version, query, seed, budget, workers) no matter how many epochs are
// published while it runs.
//
// Unowned() adapters wrap externally owned structures in a no-op-deleter
// version at epoch 0. They are the one seam that lets tests and benches
// serve immutable indexes they own on the stack through the only serving
// path (ServingCore on a GraphSnapshot) without going through
// MutableGraph; library serving code pins MutableGraph snapshots instead.
#ifndef KGOA_INDEX_SNAPSHOT_H_
#define KGOA_INDEX_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/index/delta.h"
#include "src/index/index_set.h"
#include "src/rdf/graph.h"
#include "src/util/contract.h"

namespace kgoa {

// One published state. `view` is the IndexSet readers use: the base set
// itself when the version is clean (overlay == nullptr), else a view
// IndexSet merging base + overlay. Declared last so it is destroyed first
// (it holds raw pointers into base_indexes and overlay).
struct GraphVersion {
  uint64_t epoch = 0;
  std::shared_ptr<const Graph> graph;            // null for Unowned(IndexSet)
  std::shared_ptr<const IndexSet> base_indexes;
  std::shared_ptr<const DeltaOverlay> overlay;   // null when clean
  std::shared_ptr<const IndexSet> view;
};

class GraphSnapshot {
 public:
  // Invalid handle; every accessor below contracts on valid().
  GraphSnapshot() = default;

  explicit GraphSnapshot(std::shared_ptr<const GraphVersion> version)
      : version_(std::move(version)) {}

  // Epoch-0 wrappers over externally owned structures (no-op deleters).
  // The wrapped objects must outlive every copy of the snapshot.
  static GraphSnapshot Unowned(const IndexSet& indexes);
  // Graph-only wrapper for consumers that never touch indexes()
  // (exploration sessions translate interactions; serving layers require
  // an index-carrying snapshot).
  static GraphSnapshot Unowned(const Graph& graph);

  bool valid() const { return version_ != nullptr; }
  uint64_t epoch() const {
    KGOA_CHECK_MSG(valid(), "use of an invalid or released GraphSnapshot");
    return version_->epoch;
  }

  // The index structure serving this version (view or base). Valid for
  // the snapshot's lifetime.
  const IndexSet& indexes() const {
    KGOA_CHECK_MSG(valid(), "use of an invalid or released GraphSnapshot");
    KGOA_DCHECK(version_->view != nullptr);
    return *version_->view;
  }

  bool has_graph() const { return valid() && version_->graph != nullptr; }
  // The BASE graph (pending adds are not in its triple array — use
  // Contains/Properties/Classes below for merged answers).
  const Graph& graph() const {
    KGOA_CHECK_MSG(has_graph(), "snapshot carries no Graph");
    return *version_->graph;
  }

  const DeltaOverlay* overlay() const {
    KGOA_CHECK_MSG(valid(), "use of an invalid or released GraphSnapshot");
    return version_->overlay.get();
  }

  // Live triple count of this version (base minus deletes plus adds).
  uint64_t NumTriples() const { return indexes().NumTriples(); }

  // Merged membership / vocabulary scans (overlay-adjusted). Cold,
  // interactive paths — O(log) / O(n) like their Graph counterparts.
  bool Contains(const Triple& t) const;
  std::vector<TermId> Properties() const;
  std::vector<TermId> Classes() const;

  // Drops the pin. The handle becomes invalid; any further access trips
  // the contracts above (the released-snapshot death test exercises this
  // under KGOA_CONTRACTS).
  void Release() { version_.reset(); }

  // The pinned version, e.g. to keep a cache entry alive past this handle.
  const std::shared_ptr<const GraphVersion>& version() const {
    return version_;
  }

 private:
  std::shared_ptr<const GraphVersion> version_;
};

}  // namespace kgoa

#endif  // KGOA_INDEX_SNAPSHOT_H_
