#include "src/cyclic/cyclic.h"

#include <algorithm>

#include "src/core/tipping.h"
#include "src/util/contract.h"

namespace kgoa {

namespace {

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

}  // namespace

// ---------------------------------------------------------------------------
// CyclicQuery
// ---------------------------------------------------------------------------

std::optional<CyclicQuery> CyclicQuery::Create(
    std::vector<TriplePattern> patterns, VarId alpha, std::string* error) {
  if (patterns.empty()) {
    SetError(error, "query must have at least one pattern");
    return std::nullopt;
  }
  std::unordered_map<VarId, int> occurrences;
  for (const TriplePattern& pattern : patterns) {
    std::vector<VarId> here;
    for (int c = 0; c < 3; ++c) {
      if (!pattern[c].is_var()) continue;
      const VarId v = pattern[c].var();
      if (std::count(here.begin(), here.end(), v) > 0) {
        SetError(error, "variable repeated within a pattern");
        return std::nullopt;
      }
      here.push_back(v);
      ++occurrences[v];
    }
  }
  for (const auto& [v, n] : occurrences) {
    if (n > 2) {
      SetError(error, "a variable appears in more than two patterns");
      return std::nullopt;
    }
  }
  if (occurrences.find(alpha) == occurrences.end()) {
    SetError(error, "alpha does not occur in the query");
    return std::nullopt;
  }

  // Connectivity over the pattern-share graph.
  const int n = static_cast<int>(patterns.size());
  std::vector<bool> reached(n, false);
  std::vector<int> stack{0};
  reached[0] = true;
  while (!stack.empty()) {
    const int cur = stack.back();
    stack.pop_back();
    for (int other = 0; other < n; ++other) {
      if (reached[other]) continue;
      for (VarId v : patterns[cur].Vars()) {
        if (patterns[other].HasVar(v)) {
          reached[other] = true;
          stack.push_back(other);
          break;
        }
      }
    }
  }
  if (std::count(reached.begin(), reached.end(), true) != n) {
    SetError(error, "patterns must be connected");
    return std::nullopt;
  }

  CyclicQuery query;
  query.patterns_ = std::move(patterns);
  query.alpha_ = alpha;
  for (const TriplePattern& pattern : query.patterns_) {
    for (VarId v : pattern.Vars()) {
      if (std::count(query.vars_.begin(), query.vars_.end(), v) == 0) {
        query.vars_.push_back(v);
      }
    }
  }
  return query;
}

// ---------------------------------------------------------------------------
// MultiBoundAccess
// ---------------------------------------------------------------------------

bool MultiBoundAccess::TryCompile(const TriplePattern& pattern,
                                  const std::vector<VarId>& bound_vars,
                                  MultiBoundAccess* access) {
  uint32_t mask = 0;
  std::array<int, 3> bound_of_component{{-1, -1, -1}};
  for (int c = 0; c < 3; ++c) {
    if (!pattern[c].is_var()) {
      mask |= 1u << c;
      continue;
    }
    for (std::size_t b = 0; b < bound_vars.size(); ++b) {
      if (pattern[c].var() == bound_vars[b]) {
        mask |= 1u << c;
        bound_of_component[c] = static_cast<int>(b);
      }
    }
  }
  if (!IndexSet::ChooseOrder(mask, &access->order_, &access->depth_)) {
    return false;
  }
  access->bound_index_ = {-1, -1, -1};
  for (int level = 0; level < access->depth_; ++level) {
    const int c = OrderComponent(access->order_, level);
    if (bound_of_component[c] >= 0) {
      access->bound_index_[level] = bound_of_component[c];
    } else {
      access->key_[level] = pattern[c].term();
    }
  }
  return true;
}

Range MultiBoundAccess::Resolve(
    const IndexSet& indexes, const std::array<TermId, 3>& bound_values) const {
  std::array<TermId, 3> key = key_;
  for (int level = 0; level < depth_; ++level) {
    if (bound_index_[level] >= 0) key[level] = bound_values[bound_index_[level]];
  }
  const TrieIndex& index = indexes.Index(order_);
  switch (depth_) {
    case 0:
      return index.Root();
    case 1:
      return indexes.Depth1(order_, key[0]);
    case 2:
      return indexes.Depth2(order_, key[0], key[1]);
    default:
      return index.Narrow(indexes.Depth2(order_, key[0], key[1]), 2,
                          key[2]);
  }
}

// ---------------------------------------------------------------------------
// CyclicWalkPlan
// ---------------------------------------------------------------------------

int CyclicWalkPlan::SlotOf(VarId v) const {
  for (std::size_t i = 0; i < slot_vars_.size(); ++i) {
    if (slot_vars_[i] == v) return static_cast<int>(i);
  }
  return -1;
}

CyclicWalkPlan CyclicWalkPlan::Compile(const CyclicQuery& query,
                                       std::vector<int> pattern_order) {
  const int n = query.NumPatterns();
  if (pattern_order.empty()) {
    for (int i = 0; i < n; ++i) pattern_order.push_back(i);
  }
  KGOA_CHECK(static_cast<int>(pattern_order.size()) == n);

  CyclicWalkPlan plan;
  plan.query_ = &query;
  plan.slot_vars_ = query.vars();
  plan.alpha_slot_ = plan.SlotOf(query.alpha());
  KGOA_CHECK(plan.alpha_slot_ >= 0);

  std::vector<bool> bound(plan.slot_vars_.size(), false);
  std::vector<bool> used(n, false);
  for (int pi : pattern_order) {
    KGOA_CHECK_MSG(!used[pi], "pattern repeated in walk order");
    used[pi] = true;
    const TriplePattern& pattern = query.patterns()[pi];

    Step step;
    step.pattern_index = pi;
    for (VarId v : pattern.Vars()) {
      const int slot = plan.SlotOf(v);
      if (bound[slot]) {
        step.bound_slots[step.bound_vars.size()] =
            static_cast<TermId>(slot);
        step.bound_vars.push_back(v);
      }
    }
    KGOA_CHECK_MSG(
        plan.steps_.empty() || !step.bound_vars.empty(),
        "walk order must keep the pattern graph connected step by step");
    KGOA_CHECK_MSG(
        MultiBoundAccess::TryCompile(pattern, step.bound_vars, &step.access),
        "no index order covers this cyclic access path; try another walk "
        "order");
    for (VarId v : pattern.Vars()) {
      const int slot = plan.SlotOf(v);
      if (bound[slot]) continue;
      step.records.push_back(Step::Record{pattern.ComponentOf(v), slot});
      bound[slot] = true;
    }
    plan.steps_.push_back(std::move(step));
  }
  return plan;
}

namespace {

std::array<TermId, 3> BoundValues(const CyclicWalkPlan::Step& step,
                                  const std::vector<TermId>& state) {
  std::array<TermId, 3> values{};
  for (std::size_t b = 0; b < step.bound_vars.size(); ++b) {
    values[b] = state[step.bound_slots[b]];
  }
  return values;
}

}  // namespace

// ---------------------------------------------------------------------------
// CyclicWanderJoin
// ---------------------------------------------------------------------------

CyclicWanderJoin::CyclicWanderJoin(const IndexSet& indexes,
                                   const CyclicQuery& query, Options options)
    : indexes_(indexes),
      query_(query),
      plan_(CyclicWalkPlan::Compile(query_, options.pattern_order)),
      rng_(options.seed),
      state_(plan_.num_slots(), kInvalidTerm) {}

void CyclicWanderJoin::RunOneWalk() {
  double weight = 1.0;
  for (const CyclicWalkPlan::Step& step : plan_.steps()) {
    const Range range =
        step.access.Resolve(indexes_, BoundValues(step, state_));
    if (range.empty()) {
      estimates_.EndWalk(/*rejected=*/true);
      return;
    }
    weight *= static_cast<double>(range.size());
    const uint32_t pos =
        range.begin + static_cast<uint32_t>(rng_.Below(range.size()));
    const Triple& t = indexes_.Index(step.access.order()).TripleAt(pos);
    for (const auto& record : step.records) {
      state_[record.slot] = t[record.component];
    }
  }
  estimates_.AddContribution(state_[plan_.alpha_slot()], weight);
  estimates_.EndWalk(/*rejected=*/false);
}

void CyclicWanderJoin::RunWalks(uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) RunOneWalk();
}

void CyclicWanderJoin::EnumerateAllWalks(
    const std::function<void(double, TermId, double)>& callback) const {
  std::vector<TermId> state(plan_.num_slots(), kInvalidTerm);
  auto walk = [&](auto&& self, int q, double probability,
                  double weight) -> void {
    if (q == plan_.NumSteps()) {
      callback(probability, state[plan_.alpha_slot()], weight);
      return;
    }
    const CyclicWalkPlan::Step& step = plan_.steps()[q];
    const Range range =
        step.access.Resolve(indexes_, BoundValues(step, state));
    if (range.empty()) {
      callback(probability, kInvalidTerm, 0.0);
      return;
    }
    const double d = static_cast<double>(range.size());
    const TrieIndex& index = indexes_.Index(step.access.order());
    for (uint32_t pos = range.begin; pos < range.end; ++pos) {
      const Triple& t = index.TripleAt(pos);
      for (const auto& record : step.records) {
        state[record.slot] = t[record.component];
      }
      self(self, q + 1, probability / d, weight * d);
    }
  };
  walk(walk, 0, 1.0, 1.0);
}

// ---------------------------------------------------------------------------
// CyclicAuditJoin
// ---------------------------------------------------------------------------

CyclicAuditJoin::CyclicAuditJoin(const IndexSet& indexes,
                                 const CyclicQuery& query, Options options)
    : indexes_(indexes),
      query_(query),
      options_(options),
      plan_(CyclicWalkPlan::Compile(query_, options_.pattern_order)),
      rng_(options_.seed),
      state_(plan_.num_slots(), kInvalidTerm) {
  // Composed static estimates: per step, |G| divided by the product over
  // bound variables of the max distinct count on either side.
  const int n = plan_.NumSteps();
  std::vector<double> fanout(n, 1.0);
  for (int q = 0; q < n; ++q) {
    const CyclicWalkPlan::Step& step = plan_.steps()[q];
    const TriplePattern& pattern = query_.patterns()[step.pattern_index];
    double estimate =
        static_cast<double>(indexes_.CountMatches(pattern));
    for (VarId v : step.bound_vars) {
      uint64_t ndv = indexes_.CountDistinctVar(pattern, v);
      for (const TriplePattern& other : query_.patterns()) {
        if (&other == &pattern || !other.HasVar(v)) continue;
        ndv = std::max(ndv, indexes_.CountDistinctVar(other, v));
      }
      estimate = ndv == 0 ? 0.0 : estimate / static_cast<double>(ndv);
    }
    fanout[q] = estimate;
  }
  static_suffix_.assign(n + 1, 1.0);
  for (int q = n - 1; q >= 0; --q) {
    static_suffix_[q] = static_suffix_[q + 1] * fanout[q];
  }
}

bool CyclicAuditJoin::EnumerateRemaining(
    int q, std::vector<TermId>& state, uint64_t* budget,
    std::unordered_map<TermId, double>* acc) {
  if (q == plan_.NumSteps()) {
    (*acc)[state[plan_.alpha_slot()]] += 1.0;
    return true;
  }
  const CyclicWalkPlan::Step& step = plan_.steps()[q];
  const Range range = step.access.Resolve(indexes_, BoundValues(step, state));
  const TrieIndex& index = indexes_.Index(step.access.order());
  for (uint32_t pos = range.begin; pos < range.end; ++pos) {
    if (*budget == 0) return false;
    --*budget;
    const Triple& t = index.TripleAt(pos);
    for (const auto& record : step.records) {
      state[record.slot] = t[record.component];
    }
    if (!EnumerateRemaining(q + 1, state, budget, acc)) return false;
  }
  return true;
}

bool CyclicAuditJoin::TippedContributions(
    int q, std::vector<TermId>& state, double weight,
    std::unordered_map<TermId, double>* out) {
  std::unordered_map<TermId, double> counts;
  uint64_t budget = kMaxTipEnumeration;
  if (!EnumerateRemaining(q, state, &budget, &counts)) return false;
  for (const auto& [group, count] : counts) {
    (*out)[group] += weight * count;
  }
  return true;
}

void CyclicAuditJoin::RunOneWalk() {
  double weight = 1.0;
  for (int q = 0; q < plan_.NumSteps(); ++q) {
    const CyclicWalkPlan::Step& step = plan_.steps()[q];

    if (options_.enable_tipping &&
        static_suffix_[q] <= options_.tipping_threshold) {
      std::unordered_map<TermId, double> contributions;
      if (TippedContributions(q, state_, weight, &contributions)) {
        for (const auto& [group, value] : contributions) {
          if (value > 0) estimates_.AddContribution(group, value);
        }
        ++tipped_;
        estimates_.EndWalk(/*rejected=*/false);
        return;
      }
    }

    const Range range =
        step.access.Resolve(indexes_, BoundValues(step, state_));
    if (range.empty()) {
      estimates_.EndWalk(/*rejected=*/true);
      return;
    }
    weight *= static_cast<double>(range.size());
    const uint32_t pos =
        range.begin + static_cast<uint32_t>(rng_.Below(range.size()));
    const Triple& t = indexes_.Index(step.access.order()).TripleAt(pos);
    for (const auto& record : step.records) {
      state_[record.slot] = t[record.component];
    }
  }
  estimates_.AddContribution(state_[plan_.alpha_slot()], weight);
  estimates_.EndWalk(/*rejected=*/false);
}

void CyclicAuditJoin::RunWalks(uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) RunOneWalk();
}

void CyclicAuditJoin::EnumerateAllWalks(
    const std::function<void(double, const std::unordered_map<TermId, double>&)>&
        callback) {
  std::vector<TermId> state(plan_.num_slots(), kInvalidTerm);
  const std::unordered_map<TermId, double> kEmpty;

  auto walk = [&](auto&& self, int q, double probability,
                  double weight) -> void {
    if (q == plan_.NumSteps()) {
      std::unordered_map<TermId, double> contributions;
      contributions[state[plan_.alpha_slot()]] = weight;
      callback(probability, contributions);
      return;
    }
    if (options_.enable_tipping &&
        static_suffix_[q] <= options_.tipping_threshold) {
      std::unordered_map<TermId, double> contributions;
      if (TippedContributions(q, state, weight, &contributions)) {
        callback(probability, contributions);
        return;
      }
    }
    const CyclicWalkPlan::Step& step = plan_.steps()[q];
    const Range range =
        step.access.Resolve(indexes_, BoundValues(step, state));
    if (range.empty()) {
      callback(probability, kEmpty);
      return;
    }
    const double d = static_cast<double>(range.size());
    const TrieIndex& index = indexes_.Index(step.access.order());
    for (uint32_t pos = range.begin; pos < range.end; ++pos) {
      const Triple& t = index.TripleAt(pos);
      for (const auto& record : step.records) {
        state[record.slot] = t[record.component];
      }
      self(self, q + 1, probability / d, weight * d);
    }
  };
  walk(walk, 0, 1.0, 1.0);
}

}  // namespace kgoa
