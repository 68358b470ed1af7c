#include "src/ola/engine.h"

#include <algorithm>
#include <utility>

#include "src/core/audit.h"
#include "src/core/reach.h"
#include "src/ola/ripple.h"
#include "src/ola/wander.h"

namespace kgoa {
namespace {

class AuditEngine final : public OlaEngine {
 public:
  AuditEngine(const IndexSet& indexes, const ChainQuery& query,
              const OlaEngineOptions& options) {
    AuditJoin::Options aj;
    aj.seed = options.seed;
    aj.walk_order = options.walk_order;
    aj.tipping_threshold = options.tipping_threshold;
    aj.shared_reach = options.shared_reach;
    audit_ = std::make_unique<AuditJoin>(indexes, query, aj);
  }

  void RunWalks(uint64_t count) override { audit_->RunWalks(count); }

  const GroupedEstimates& estimates() const override {
    return audit_->estimates();
  }

  void FillCounters(OlaCounters* out) const override {
    out->tipped_walks += audit_->tipped_walks();
    out->full_walks += audit_->full_walks();
    out->tip_aborts += audit_->tip_aborts();
    out->ctj_cache_hits += audit_->suffix_cache_hits();
    out->pruned_walks += audit_->pruned_walks();
    out->batched_walks += audit_->batched_walks();
    if (audit_->owns_reach()) {
      // Private cache: this engine's stats are its own to report. A
      // shared cache is reported once by the serving core instead (as a
      // per-job delta), so the slot merge cannot multiply it.
      const ShardedTableStats reach = audit_->reach().stats();
      out->reach_hits += reach.hits;
      out->reach_misses += reach.misses;
      out->reach_contention += reach.insert_contention;
      out->reach_entries = std::max(out->reach_entries, reach.entries);
    }
  }

  bool mergeable() const override { return true; }
  OlaEngineKind kind() const override { return OlaEngineKind::kAudit; }

  void SetGroupFilter(std::shared_ptr<const GroupFilter> filter) override {
    audit_->SetGroupFilter(std::move(filter));
  }

 private:
  std::unique_ptr<AuditJoin> audit_;
};

class WanderEngine final : public OlaEngine {
 public:
  WanderEngine(const IndexSet& indexes, const ChainQuery& query,
               const OlaEngineOptions& options) {
    WanderJoin::Options wj;
    wj.seed = options.seed;
    wj.walk_order = options.walk_order;
    wander_ = std::make_unique<WanderJoin>(indexes, query, wj);
  }

  void RunWalks(uint64_t count) override { wander_->RunWalks(count); }

  const GroupedEstimates& estimates() const override {
    return wander_->estimates();
  }

  void FillCounters(OlaCounters* out) const override {
    out->full_walks += wander_->estimates().walks() -
                       wander_->estimates().rejected_walks();
    out->duplicate_walks += wander_->duplicate_walks();
    out->pruned_walks += wander_->pruned_walks();
    out->batched_walks += wander_->batched_walks();
  }

  void SetGroupFilter(std::shared_ptr<const GroupFilter> filter) override {
    wander_->SetGroupFilter(std::move(filter));
  }

  // Caveat, worth keeping in the merge-capable bucket with eyes open: the
  // distinct mode's Ripple seen-set is engine-local, so duplicates across
  // workers are double-counted — the merged distinct estimate is more
  // biased than a sequential one (demonstrating that is part of the
  // paper's motivation for Audit Join). Non-distinct merges are exact.
  bool mergeable() const override { return true; }
  OlaEngineKind kind() const override { return OlaEngineKind::kWander; }

 private:
  std::unique_ptr<WanderJoin> wander_;
};

class RippleEngine final : public OlaEngine {
 public:
  RippleEngine(const IndexSet& indexes, const ChainQuery& query,
               const OlaEngineOptions& options) {
    RippleJoin::Options rj;
    rj.seed = options.seed;
    rj.batch_per_round = options.ripple_batch;
    ripple_ = std::make_unique<RippleJoin>(indexes, query, rj);
  }

  void RunWalks(uint64_t count) override {
    for (uint64_t i = 0; i < count && !ripple_->exhausted(); ++i) {
      ripple_->RunRound();
    }
    // Re-synthesize the snapshot: Ripple keeps per-group point estimates
    // (no per-walk variance), so the GroupedEstimates view carries each
    // estimate as a single contribution over one pseudo-walk — Estimate()
    // reproduces the point estimate exactly and CiHalfWidth() reports 0
    // (the honest value: Ripple's classic CI construction is not
    // implemented here).
    snapshot_ = GroupedEstimates();
    for (const auto& [group, estimate] : ripple_->Estimates()) {
      if (estimate > 0) snapshot_.AddContribution(group, estimate);
    }
    snapshot_.EndWalk(false);
  }

  const GroupedEstimates& estimates() const override { return snapshot_; }

  void FillCounters(OlaCounters* out) const override {
    out->full_walks += ripple_->rounds();
  }

  bool mergeable() const override { return false; }
  OlaEngineKind kind() const override { return OlaEngineKind::kRipple; }

 private:
  std::unique_ptr<RippleJoin> ripple_;
  GroupedEstimates snapshot_;
};

}  // namespace

OlaEngine::~OlaEngine() = default;

const char* OlaEngineName(OlaEngineKind kind) {
  switch (kind) {
    case OlaEngineKind::kAudit:
      return "audit";
    case OlaEngineKind::kWander:
      return "wander";
    case OlaEngineKind::kRipple:
      return "ripple";
  }
  return "unknown";
}

bool OlaEngineKindMergeable(OlaEngineKind kind) {
  return kind != OlaEngineKind::kRipple;
}

std::unique_ptr<OlaEngine> MakeOlaEngine(const IndexSet& indexes,
                                         const ChainQuery& query,
                                         const OlaEngineOptions& options) {
  switch (options.kind) {
    case OlaEngineKind::kAudit:
      return std::make_unique<AuditEngine>(indexes, query, options);
    case OlaEngineKind::kWander:
      return std::make_unique<WanderEngine>(indexes, query, options);
    case OlaEngineKind::kRipple:
      return std::make_unique<RippleEngine>(indexes, query, options);
  }
  return nullptr;
}

}  // namespace kgoa
