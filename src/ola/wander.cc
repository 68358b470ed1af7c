#include "src/ola/wander.h"

#include <algorithm>
#include <span>

#include "src/index/kernels.h"
#include "src/util/contract.h"

namespace kgoa {

WanderJoin::WanderJoin(const IndexSet& indexes, const ChainQuery& query,
                       Options options)
    : indexes_(indexes),
      query_(query),
      options_(options),
      plan_(WalkPlan::Compile(query_, options.walk_order)),
      rng_(options.seed),
      state_(plan_.num_slots(), kInvalidTerm) {}

void WanderJoin::RunOneWalk() {
  rng_.Seed(WalkSeed(options_.seed, walk_counter_++));
  double weight = 1.0;  // prod d_i = 1 / Pr(walk so far)
  for (int q = 0; q < plan_.NumSteps(); ++q) {
    const WalkStep& step = plan_.steps()[q];
    const TermId bound =
        step.in_slot >= 0 ? state_[step.in_slot] : kInvalidTerm;
    const Range range = step.access.Resolve(indexes_, bound);
    if (range.empty()) {
      estimates_.EndWalk(/*rejected=*/true);
      return;
    }
    weight *= static_cast<double>(range.size());
    const uint32_t pos =
        range.begin + static_cast<uint32_t>(rng_.Below(range.size()));
    const Triple& t = indexes_.Index(step.access.order()).TripleAt(pos);
    if (!step.filter.empty() && !step.filter.Pass(indexes_, t)) {
      estimates_.EndWalk(/*rejected=*/true);
      return;
    }
    for (const WalkStep::Record& record : step.records) {
      state_[record.slot] = t[record.component];
    }
  }

  // A completed walk's weight is a product of non-empty fan-outs, so the
  // inverse sampling probability is at least one.
  KGOA_DCHECK_GE(weight, 1.0);
  const TermId group = state_[plan_.alpha_slot()];
  if (query_.distinct()) {
    // Ripple-Join style: duplicates of an already-seen (group, beta) pair
    // are rejected (contribute zero).
    const uint64_t pair = PackPair(group, state_[plan_.beta_slot()]);
    bool inserted = false;
    seen_pairs_.FindOrInsert(pair, &inserted);
    if (inserted) {
      estimates_.AddContribution(group, weight);
    } else {
      ++duplicates_;
    }
  } else {
    estimates_.AddContribution(group, weight);
  }
  estimates_.EndWalk(/*rejected=*/false);
}

void WanderJoin::RunWalks(uint64_t count) {
  const uint32_t batch =
      options_.batch_walks == 0 ? kDefaultWalkBatch : options_.batch_walks;
  if (batch <= 1) {
    for (uint64_t i = 0; i < count; ++i) RunOneWalk();
    return;
  }
  uint64_t remaining = count;
  while (remaining > 0) {
    const uint32_t b =
        static_cast<uint32_t>(std::min<uint64_t>(batch, remaining));
    RunWalkBatch(b);
    remaining -= b;
  }
}

// Level-synchronous batch execution — the Wander Join specialization of
// AuditJoin::RunWalkBatch's phase structure (no tipping phases):
//   1. scalar prolog, walk order: bound extraction;
//   2. batched range resolve, hash probes prefetch-pipelined;
//   3. rejection + per-walk RNG position draw, walk order;
//   4. batched triple fetch + filter + record.
// Bit-identity with batch = 1: every walk draws from its own
// counter-derived stream (WalkSeed), and the only cross-walk state — the
// distinct mode's Ripple seen-set and the estimator — is touched solely in
// the completion loop at batch end, in walk order, so FindOrInsert and
// AddContribution sequences match the unbatched path exactly.
void WanderJoin::RunWalkBatch(uint32_t batch) {
  const int num_slots = plan_.num_slots();
  batch_rng_.resize(batch);
  batch_state_.assign(static_cast<std::size_t>(batch) * num_slots,
                      kInvalidTerm);
  batch_weight_.assign(batch, 1.0);
  batch_bound_.assign(batch, kInvalidTerm);
  batch_range_.assign(batch, Range{});
  batch_pos_.assign(batch, 0);
  batch_done_.assign(batch, kLaneAlive);
  for (uint32_t b = 0; b < batch; ++b) {
    batch_rng_[b].Seed(WalkSeed(options_.seed, walk_counter_ + b));
  }
  walk_counter_ += batch;
  batched_walks_ += batch;

  const auto lane_state = [&](uint32_t b) {
    return std::span<TermId>(batch_state_.data() +
                                 static_cast<std::size_t>(b) * num_slots,
                             static_cast<std::size_t>(num_slots));
  };

  uint32_t alive = batch;
  for (int q = 0; q < plan_.NumSteps() && alive > 0; ++q) {
    const WalkStep& step = plan_.steps()[q];

    // Phase 1: bound extraction, walk order.
    batch_live_.clear();
    for (uint32_t b = 0; b < batch; ++b) {
      if (batch_done_[b] != kLaneAlive) continue;
      const std::span<TermId> state = lane_state(b);
      batch_bound_[b] = step.in_slot >= 0 ? state[step.in_slot] : kInvalidTerm;
      batch_live_.push_back(b);
    }

    // Phase 2: batched resolve.
    kernels::PrefetchPipeline(
        batch_live_.size(),
        [&](std::size_t i) {
          step.access.Prefetch(indexes_, batch_bound_[batch_live_[i]]);
        },
        [&](std::size_t i) {
          const uint32_t b = batch_live_[i];
          batch_range_[b] = step.access.Resolve(indexes_, batch_bound_[b]);
        });

    // Phase 3: rejection + position draw, walk order.
    for (const uint32_t b : batch_live_) {
      const Range range = batch_range_[b];
      if (range.empty()) {
        batch_done_[b] = kLaneRejected;
        --alive;
        continue;
      }
      batch_weight_[b] *= static_cast<double>(range.size());
      batch_pos_[b] = range.begin +
                      static_cast<uint32_t>(batch_rng_[b].Below(range.size()));
    }
    if (alive == 0) break;

    // Phase 4: batched triple fetch + filter + record.
    batch_live_.clear();
    for (uint32_t b = 0; b < batch; ++b) {
      if (batch_done_[b] == kLaneAlive) batch_live_.push_back(b);
    }
    const TrieIndex& index = indexes_.Index(step.access.order());
    kernels::PrefetchPipeline(
        batch_live_.size(),
        [&](std::size_t i) { index.PrefetchTriple(batch_pos_[batch_live_[i]]); },
        [&](std::size_t i) {
          const uint32_t b = batch_live_[i];
          const Triple t = index.TripleAt(batch_pos_[b]);
          if (!step.filter.empty() && !step.filter.Pass(indexes_, t)) {
            batch_done_[b] = kLaneRejected;
            --alive;
            return;
          }
          const std::span<TermId> state = lane_state(b);
          for (const WalkStep::Record& record : step.records) {
            state[record.slot] = t[record.component];
          }
        });
  }

  // Completion loop, walk order: seen-set probes, contributions and
  // EndWalk in exactly the unbatched sequence.
  for (uint32_t b = 0; b < batch; ++b) {
    if (batch_done_[b] == kLaneRejected) {
      estimates_.EndWalk(/*rejected=*/true);
      continue;
    }
    const std::span<TermId> state = lane_state(b);
    KGOA_DCHECK_GE(batch_weight_[b], 1.0);
    const TermId group = state[plan_.alpha_slot()];
    if (query_.distinct()) {
      const uint64_t pair = PackPair(group, state[plan_.beta_slot()]);
      bool inserted = false;
      seen_pairs_.FindOrInsert(pair, &inserted);
      if (inserted) {
        estimates_.AddContribution(group, batch_weight_[b]);
      } else {
        ++duplicates_;
      }
    } else {
      estimates_.AddContribution(group, batch_weight_[b]);
    }
    estimates_.EndWalk(/*rejected=*/false);
  }
}

void WanderJoin::EnumerateAllWalks(
    const std::function<void(double, TermId, double)>& callback) const {
  KGOA_CHECK_MSG(!query_.distinct(),
                 "exhaustive expectation is defined for the non-distinct "
                 "estimator only (the distinct seen-set is stateful)");
  std::vector<TermId> state(plan_.num_slots(), kInvalidTerm);

  auto walk = [&](auto&& self, int step_idx, double probability,
                  double weight) -> void {
    KGOA_DCHECK_PROB_POS(probability);
    if (step_idx == plan_.NumSteps()) {
      callback(probability, state[plan_.alpha_slot()], weight);
      return;
    }
    const WalkStep& step = plan_.steps()[step_idx];
    const TermId bound =
        step.in_slot >= 0 ? state[step.in_slot] : kInvalidTerm;
    const Range range = step.access.Resolve(indexes_, bound);
    if (range.empty()) {
      // Rejected walk: contributes zero with this probability mass.
      callback(probability, kInvalidTerm, 0.0);
      return;
    }
    const double d = static_cast<double>(range.size());
    const TrieIndex& index = indexes_.Index(step.access.order());
    for (uint32_t pos = range.begin; pos < range.end; ++pos) {
      const Triple& t = index.TripleAt(pos);
      if (!step.filter.empty() && !step.filter.Pass(indexes_, t)) {
        callback(probability / d, kInvalidTerm, 0.0);  // rejected branch
        continue;
      }
      for (const WalkStep::Record& record : step.records) {
        state[record.slot] = t[record.component];
      }
      self(self, step_idx + 1, probability / d, weight * d);
    }
  };
  walk(walk, 0, 1.0, 1.0);
}

}  // namespace kgoa
