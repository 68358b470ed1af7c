#include "src/explore/session.h"

#include <sstream>

#include "src/util/contract.h"

namespace kgoa {

ExplorationSession::ExplorationSession(GraphSnapshot snapshot,
                                       TermId root_class)
    : snapshot_(std::move(snapshot)) {
  KGOA_CHECK_MSG(snapshot_.has_graph(),
                 "an exploration session needs a Graph-carrying snapshot");
  category_ = root_class == kInvalidTerm ? graph().owl_thing() : root_class;
  kind_ = BarKind::kClass;
  focus_ = 0;
  next_var_ = 1;
  patterns_.push_back(MakePattern(Slot::MakeVar(focus_),
                                  Slot::MakeConst(graph().rdf_type()),
                                  Slot::MakeConst(category_)));
  filters_.push_back({});
  tail_type_pattern_ = 0;
}

ExplorationSession::ExplorationSession(const Graph& graph, TermId root_class)
    : ExplorationSession(GraphSnapshot::Unowned(graph), root_class) {}

std::vector<ExpansionKind> ExplorationSession::LegalExpansions() const {
  switch (kind_) {
    case BarKind::kClass:
      return {ExpansionKind::kSubclass, ExpansionKind::kOutProperty,
              ExpansionKind::kInProperty};
    case BarKind::kOutProperty:
      return {ExpansionKind::kObject};
    case BarKind::kInProperty:
      return {ExpansionKind::kSubject};
  }
  return {};
}

bool ExplorationSession::IsLegal(ExpansionKind expansion) const {
  for (ExpansionKind legal : LegalExpansions()) {
    if (legal == expansion) return true;
  }
  return false;
}

namespace {

// Number of patterns in `patterns` containing variable `v`.
int Occurrences(const std::vector<TriplePattern>& patterns, VarId v) {
  int count = 0;
  for (const TriplePattern& p : patterns) {
    if (p.HasVar(v)) ++count;
  }
  return count;
}

}  // namespace

ExplorationSession::QueryParts ExplorationSession::BuildParts(
    ExpansionKind expansion) const {
  KGOA_CHECK_MSG(IsLegal(expansion), "expansion illegal for current bar");
  QueryParts parts;
  parts.patterns = patterns_;
  parts.filters = filters_;

  const VarId fresh1 = next_var_;
  const VarId fresh2 = next_var_ + 1;

  switch (expansion) {
    case ExpansionKind::kSubclass: {
      // Replace the trailing (focus type c) by (focus type ?c') and
      // restrict ?c' to the direct subclasses of c.
      KGOA_CHECK(tail_type_pattern_ >= 0);
      const TermId parent = category_;
      std::vector<TypeFilter> tail_filters =
          parts.filters[tail_type_pattern_];
      parts.patterns.erase(parts.patterns.begin() + tail_type_pattern_);
      parts.filters.erase(parts.filters.begin() + tail_type_pattern_);
      parts.patterns.push_back(MakePattern(
          Slot::MakeVar(focus_), Slot::MakeConst(graph().rdf_type()),
          Slot::MakeVar(fresh1)));
      parts.filters.push_back(std::move(tail_filters));
      parts.patterns.push_back(MakePattern(
          Slot::MakeVar(fresh1), Slot::MakeConst(graph().subclass_of()),
          Slot::MakeConst(parent)));
      parts.filters.push_back({});
      parts.alpha = fresh1;
      parts.beta = focus_;
      break;
    }
    case ExpansionKind::kOutProperty:
    case ExpansionKind::kInProperty: {
      std::vector<TypeFilter> new_filters;
      if (Occurrences(parts.patterns, focus_) >= 2) {
        // The focus variable is saturated: fuse the trailing class
        // restriction into the new pattern's extent.
        KGOA_CHECK(tail_type_pattern_ >= 0);
        const TriplePattern& tail = parts.patterns[tail_type_pattern_];
        new_filters = parts.filters[tail_type_pattern_];
        const int component =
            expansion == ExpansionKind::kOutProperty ? kSubject : kObject;
        new_filters.push_back(
            TypeFilter{component, tail[kPredicate].term(),
                       tail[kObject].term()});
        parts.patterns.erase(parts.patterns.begin() + tail_type_pattern_);
        parts.filters.erase(parts.filters.begin() + tail_type_pattern_);
      }
      if (expansion == ExpansionKind::kOutProperty) {
        parts.patterns.push_back(MakePattern(Slot::MakeVar(focus_),
                                             Slot::MakeVar(fresh1),
                                             Slot::MakeVar(fresh2)));
      } else {
        parts.patterns.push_back(MakePattern(Slot::MakeVar(fresh2),
                                             Slot::MakeVar(fresh1),
                                             Slot::MakeVar(focus_)));
      }
      parts.filters.push_back(std::move(new_filters));
      parts.alpha = fresh1;
      parts.beta = focus_;
      break;
    }
    case ExpansionKind::kObject:
    case ExpansionKind::kSubject: {
      // The property bar's last pattern is (focus p ?z) / (?z p focus);
      // the new chart classifies the ?z side.
      const TriplePattern& last = parts.patterns.back();
      const int z_component =
          expansion == ExpansionKind::kObject ? kObject : kSubject;
      KGOA_CHECK(last[z_component].is_var());
      const VarId z = last[z_component].var();
      parts.patterns.push_back(MakePattern(
          Slot::MakeVar(z), Slot::MakeConst(graph().rdf_type()),
          Slot::MakeVar(fresh1)));
      parts.filters.push_back({});
      parts.alpha = fresh1;
      parts.beta = z;
      break;
    }
  }
  return parts;
}

ChainQuery ExplorationSession::BuildQuery(ExpansionKind expansion) const {
  QueryParts parts = BuildParts(expansion);
  std::string error;
  auto query =
      ChainQuery::Create(std::move(parts.patterns), std::move(parts.filters),
                         parts.alpha, parts.beta, /*distinct=*/true, &error);
  KGOA_CHECK_MSG(query.has_value(), error.c_str());
  ++queries_built_;
  return *query;
}

void ExplorationSession::TrackJob(ChartHandle handle) {
  if (handle.valid()) jobs_.push_back(std::move(handle));
}

int ExplorationSession::CancelLiveJobs() {
  int cancelled = 0;
  for (const ChartHandle& job : jobs_) {
    if (!job.finished()) {
      job.Cancel();
      ++cancelled;
    }
  }
  jobs_.clear();
  jobs_auto_cancelled_ += static_cast<uint64_t>(cancelled);
  return cancelled;
}

bool ExplorationSession::GoBack() {
  if (history_.empty()) return false;
  // The selection changes: any chart still converging for the old
  // selection is superseded.
  CancelLiveJobs();
  Snapshot& snapshot = history_.back();
  patterns_ = std::move(snapshot.patterns);
  filters_ = std::move(snapshot.filters);
  focus_ = snapshot.focus;
  next_var_ = snapshot.next_var;
  kind_ = snapshot.kind;
  category_ = snapshot.category;
  tail_type_pattern_ = snapshot.tail_type_pattern;
  depth_ = snapshot.depth;
  history_.pop_back();
  ++back_navigations_;
  return true;
}

void ExplorationSession::ExpandAndSelect(ExpansionKind expansion,
                                         TermId category) {
  // The selection changes: any chart still converging for the old
  // selection is superseded.
  CancelLiveJobs();
  history_.push_back(Snapshot{patterns_, filters_, focus_, next_var_, kind_,
                              category_, tail_type_pattern_, depth_});
  QueryParts parts = BuildParts(expansion);
  // Fresh variables BuildParts drew from next_var_ for this expansion:
  // property expansions bind two (the property variable and the new ?z
  // endpoint); subclass/object/subject expansions bind one. Advancing by
  // a flat 2 leaked an id on every one-variable step of a deep session.
  int fresh_vars_used = 1;
  switch (expansion) {
    case ExpansionKind::kSubclass: {
      // Drop the grounded (category subClassOf parent) pattern and fix the
      // type pattern to the selected subclass.
      parts.patterns.pop_back();
      parts.filters.pop_back();
      TriplePattern& tail = parts.patterns.back();
      tail[kObject] = Slot::MakeConst(category);
      tail_type_pattern_ = static_cast<int>(parts.patterns.size()) - 1;
      kind_ = BarKind::kClass;
      break;
    }
    case ExpansionKind::kOutProperty:
    case ExpansionKind::kInProperty: {
      // Fix the property variable to the selected property.
      fresh_vars_used = 2;
      TriplePattern& tail = parts.patterns.back();
      tail[kPredicate] = Slot::MakeConst(category);
      tail_type_pattern_ = -1;
      kind_ = expansion == ExpansionKind::kOutProperty
                  ? BarKind::kOutProperty
                  : BarKind::kInProperty;
      break;
    }
    case ExpansionKind::kObject:
    case ExpansionKind::kSubject: {
      // Fix the class and move the focus to the classified variable.
      TriplePattern& tail = parts.patterns.back();
      focus_ = tail[kSubject].var();
      tail[kObject] = Slot::MakeConst(category);
      tail_type_pattern_ = static_cast<int>(parts.patterns.size()) - 1;
      kind_ = BarKind::kClass;
      break;
    }
  }
  patterns_ = std::move(parts.patterns);
  filters_ = std::move(parts.filters);
  category_ = category;
  next_var_ += static_cast<VarId>(fresh_vars_used);
  ++depth_;
  ++expansions_applied_;
}

std::string ExplorationSession::Describe() const {
  std::ostringstream out;
  out << BarKindName(kind_) << " bar <" << graph().dict().Spell(category_)
      << ">, chain:";
  for (std::size_t i = 0; i < patterns_.size(); ++i) {
    out << "\n  " << patterns_[i].ToString(&graph().dict());
    for (const TypeFilter& f : filters_[i]) {
      out << "  [filter: component " << f.component << " has <"
          << graph().dict().Spell(f.value) << ">]";
    }
  }
  return out.str();
}

}  // namespace kgoa
