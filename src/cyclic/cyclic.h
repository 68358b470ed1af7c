// Cyclic-query extension for the random-walk engines — the future-work
// direction the paper names explicitly (sections IV-D "Limitations" and
// VI): "Like WJ, the AJ algorithm is based on random walks and could
// utilize similar methods to support online aggregation for cyclic
// queries".
//
// A cyclic query is a set of triple patterns whose join graph may contain
// cycles (e.g. triangles), still with every variable in at most two
// patterns (binary joins). The walk visits the patterns in an order where
// each step may have ZERO, ONE or TWO (or all three) positions already
// bound: a cycle-closing step samples among the tuples matching all bound
// positions, whose count is the step's fan-out d_i — exactly Wander
// Join's cyclic recipe. The Horvitz-Thompson estimator prod d_i stays
// unbiased for grouped COUNT.
//
// Audit Join's hybrid transfers too: the static PostgreSQL-style estimate
// composes over the remaining steps and, below the threshold, the suffix
// space is enumerated exactly. COUNT DISTINCT is not supported here (the
// reach-probability decomposition of src/core/reach.h relies on the chain
// shape); engines CHECK against it.
#ifndef KGOA_CYCLIC_CYCLIC_H_
#define KGOA_CYCLIC_CYCLIC_H_

#include <array>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/index/index_set.h"
#include "src/ola/estimator.h"
#include "src/query/pattern.h"
#include "src/util/rng.h"

namespace kgoa {

// A grouped COUNT query over a connected set of triple patterns, possibly
// cyclic. Variables appear at most once per pattern and at most twice
// overall.
class CyclicQuery {
 public:
  static std::optional<CyclicQuery> Create(
      std::vector<TriplePattern> patterns, VarId alpha,
      std::string* error = nullptr);

  const std::vector<TriplePattern>& patterns() const { return patterns_; }
  int NumPatterns() const { return static_cast<int>(patterns_.size()); }
  VarId alpha() const { return alpha_; }
  const std::vector<VarId>& vars() const { return vars_; }

 private:
  CyclicQuery() = default;

  std::vector<TriplePattern> patterns_;
  VarId alpha_ = kNoVar;
  std::vector<VarId> vars_;
};

// Access path for a pattern with any subset of positions fixed at runtime
// (constants plus up to three bound variables). Generalizes PatternAccess.
class MultiBoundAccess {
 public:
  // `bound_vars`: variables whose values arrive at Resolve time, in the
  // order the values will be passed. Returns false when no maintained
  // index order covers the fixed prefix.
  static bool TryCompile(const TriplePattern& pattern,
                         const std::vector<VarId>& bound_vars,
                         MultiBoundAccess* access);

  Range Resolve(const IndexSet& indexes,
                const std::array<TermId, 3>& bound_values) const;

  IndexOrder order() const { return order_; }
  int depth() const { return depth_; }

 private:
  IndexOrder order_ = IndexOrder::kSpo;
  int depth_ = 0;
  // Per fixed level: constant value, or (when bound_index >= 0) index into
  // the Resolve-time bound value array.
  std::array<TermId, 3> key_{};
  std::array<int, 3> bound_index_{{-1, -1, -1}};
};

// Compiled walk over a cyclic query in a fixed pattern order (default:
// the order given in the query).
class CyclicWalkPlan {
 public:
  static CyclicWalkPlan Compile(const CyclicQuery& query,
                                std::vector<int> pattern_order = {});

  struct Step {
    int pattern_index = 0;
    MultiBoundAccess access;
    std::vector<VarId> bound_vars;          // bound before this step
    std::array<TermId, 3> bound_slots{};    // tracked slots of those vars
    struct Record {
      int component;
      int slot;
    };
    std::vector<Record> records;            // vars first bound here
  };

  const CyclicQuery& query() const { return *query_; }
  const std::vector<Step>& steps() const { return steps_; }
  int NumSteps() const { return static_cast<int>(steps_.size()); }
  int num_slots() const { return static_cast<int>(slot_vars_.size()); }
  int alpha_slot() const { return alpha_slot_; }

 private:
  int SlotOf(VarId v) const;

  const CyclicQuery* query_ = nullptr;
  std::vector<Step> steps_;
  std::vector<VarId> slot_vars_;
  int alpha_slot_ = -1;
};

// Wander Join over cyclic queries (grouped COUNT).
class CyclicWanderJoin {
 public:
  struct Options {
    uint64_t seed = 1;
    std::vector<int> pattern_order;
  };

  CyclicWanderJoin(const IndexSet& indexes, const CyclicQuery& query)
      : CyclicWanderJoin(indexes, query, Options()) {}
  CyclicWanderJoin(const IndexSet& indexes, const CyclicQuery& query,
                   Options options);

  CyclicWanderJoin(const CyclicWanderJoin&) = delete;
  CyclicWanderJoin& operator=(const CyclicWanderJoin&) = delete;

  void RunOneWalk();
  void RunWalks(uint64_t count);
  const GroupedEstimates& estimates() const { return estimates_; }
  const CyclicWalkPlan& plan() const { return plan_; }

  // Verification hook (cf. WanderJoin::EnumerateAllWalks).
  void EnumerateAllWalks(
      const std::function<void(double probability, TermId group,
                               double contribution)>& callback) const;

 private:
  // kgoa-lint: allow(raw-graph-retention) query-scoped engine; caller's snapshot outlives it
  const IndexSet& indexes_;
  CyclicQuery query_;
  CyclicWalkPlan plan_;
  GroupedEstimates estimates_;
  Rng rng_;
  std::vector<TermId> state_;
};

// Audit Join over cyclic queries (grouped COUNT): static tipping point +
// budgeted exact suffix enumeration.
class CyclicAuditJoin {
 public:
  struct Options {
    uint64_t seed = 1;
    std::vector<int> pattern_order;
    double tipping_threshold = 64.0;
    bool enable_tipping = true;
  };

  CyclicAuditJoin(const IndexSet& indexes, const CyclicQuery& query)
      : CyclicAuditJoin(indexes, query, Options()) {}
  CyclicAuditJoin(const IndexSet& indexes, const CyclicQuery& query,
                  Options options);

  CyclicAuditJoin(const CyclicAuditJoin&) = delete;
  CyclicAuditJoin& operator=(const CyclicAuditJoin&) = delete;

  void RunOneWalk();
  void RunWalks(uint64_t count);
  const GroupedEstimates& estimates() const { return estimates_; }
  uint64_t tipped_walks() const { return tipped_; }

  void EnumerateAllWalks(
      const std::function<void(double probability,
                               const std::unordered_map<TermId, double>&)>&
          callback);

 private:
  // Exact per-group completion counts of steps q..n-1 from `state`;
  // returns false on budget exhaustion.
  bool EnumerateRemaining(int q, std::vector<TermId>& state,
                          uint64_t* budget,
                          std::unordered_map<TermId, double>* acc);
  bool TippedContributions(int q, std::vector<TermId>& state, double weight,
                           std::unordered_map<TermId, double>* out);

  // kgoa-lint: allow(raw-graph-retention) query-scoped engine; caller's snapshot outlives it
  const IndexSet& indexes_;
  CyclicQuery query_;
  Options options_;
  CyclicWalkPlan plan_;
  std::vector<double> static_suffix_;  // composed estimates per step
  GroupedEstimates estimates_;
  Rng rng_;
  std::vector<TermId> state_;
  uint64_t tipped_ = 0;
};

}  // namespace kgoa

#endif  // KGOA_CYCLIC_CYCLIC_H_
