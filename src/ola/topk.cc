#include "src/ola/topk.h"

#include <algorithm>
#include <vector>

namespace kgoa {

namespace {

struct GroupBound {
  TermId group;
  double estimate;
  double ci;  // half-width
};

}  // namespace

void TopKTracker::Update(const GroupedEstimates& merged) {
  if (!enabled()) return;
  if (merged.walks() < kTopKMinWalks) return;

  std::vector<GroupBound> bounds;
  {
    const auto estimates = merged.Estimates();
    bounds.reserve(estimates.size());
    for (const auto& [group, estimate] : estimates) {
      bounds.push_back({group, estimate, merged.CiHalfWidth(group)});
    }
  }
  // Estimates() iterates an unordered map; the (estimate desc, group asc)
  // sort makes the displayed set and every bound independent of that
  // order.
  std::sort(bounds.begin(), bounds.end(),
            [](const GroupBound& a, const GroupBound& b) {
              if (a.estimate != b.estimate) return a.estimate > b.estimate;
              return a.group < b.group;
            });

  const std::size_t displayed =
      std::min<std::size_t>(static_cast<std::size_t>(options_.k),
                            bounds.size());
  // Lower bound on the K-th displayed estimate. Negative lower bounds
  // clamp to 0: estimates are sums of non-negative contributions, so no
  // group can finish below 0 and a negative bound prunes nothing.
  double kth_lower = 0;
  if (displayed == static_cast<std::size_t>(options_.k)) {
    kth_lower = std::max(
        0.0, bounds[displayed - 1].estimate - bounds[displayed - 1].ci);
  }

  bool converged = displayed > 0;
  for (std::size_t i = 0; i < displayed; ++i) {
    converged = converged && bounds[i].estimate > 0 &&
                bounds[i].ci <= options_.ci_target * bounds[i].estimate;
  }

  std::shared_ptr<GroupFilter> filter;
  uint64_t pruned = 0;
  for (std::size_t i = displayed; i < bounds.size(); ++i) {
    const double hi = bounds[i].estimate + bounds[i].ci;
    if (kth_lower > 0 && hi < kth_lower) {
      ++pruned;
      if (prune_) {
        if (filter == nullptr) filter = std::make_shared<GroupFilter>();
        filter->pruned_.FindOrAdd(bounds[i].group) = 1;
      }
    } else {
      // A seen non-displayed group still overlapping the K-th lower
      // bound: the displayed chart is not yet settled.
      converged = false;
    }
  }

  {
    MutexLock lock(mutex_);
    kth_lower_ = kth_lower;
    pruned_count_ = pruned;
    if (prune_) {
      // Keep the previous filter when this round prunes nothing new —
      // engines hold snapshots, and an empty swap would only churn them.
      if (filter != nullptr) filter_ = std::move(filter);
    }
  }
  converged_.store(converged, std::memory_order_release);
}

}  // namespace kgoa
