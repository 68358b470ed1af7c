#include "src/index/snapshot.h"

#include <algorithm>

namespace kgoa {

namespace {

// Aliases an externally owned object as a shared_ptr that never deletes.
template <typename T>
std::shared_ptr<const T> NoOpShared(const T& object) {
  return std::shared_ptr<const T>(&object, [](const T*) {});
}

}  // namespace

GraphSnapshot GraphSnapshot::Unowned(const IndexSet& indexes) {
  auto version = std::make_shared<GraphVersion>();
  version->base_indexes = NoOpShared(indexes);
  version->view = version->base_indexes;
  return GraphSnapshot(std::move(version));
}

GraphSnapshot GraphSnapshot::Unowned(const Graph& graph) {
  auto version = std::make_shared<GraphVersion>();
  version->graph = NoOpShared(graph);
  return GraphSnapshot(std::move(version));
}

bool GraphSnapshot::Contains(const Triple& t) const {
  const Graph& base = graph();
  const DeltaOverlay* delta = overlay();
  if (delta == nullptr) return base.Contains(t);
  if (base.Contains(t)) return !delta->IsDeleted(t);
  return delta->IsAdded(t);
}

std::vector<TermId> GraphSnapshot::Properties() const {
  const Graph& base = graph();
  const DeltaOverlay* delta = overlay();
  if (delta == nullptr) return base.Properties();
  std::vector<TermId> props;
  for (const Triple& t : base.triples()) {
    if (!delta->IsDeleted(t)) props.push_back(t.p);
  }
  for (const Triple& t : delta->pending().adds) props.push_back(t.p);
  std::sort(props.begin(), props.end());
  props.erase(std::unique(props.begin(), props.end()), props.end());
  return props;
}

std::vector<TermId> GraphSnapshot::Classes() const {
  const Graph& base = graph();
  const DeltaOverlay* delta = overlay();
  if (delta == nullptr) return base.Classes();
  const TermId rdf_type = base.rdf_type();
  std::vector<TermId> classes;
  for (const Triple& t : base.triples()) {
    if (t.p == rdf_type && !delta->IsDeleted(t)) classes.push_back(t.o);
  }
  for (const Triple& t : delta->pending().adds) {
    if (t.p == rdf_type) classes.push_back(t.o);
  }
  std::sort(classes.begin(), classes.end());
  classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
  return classes;
}

}  // namespace kgoa
