// Metrics registry: named monotonic counters and point-in-time gauges
// with deterministic text and JSON dumps.
//
// The engines expose their work counters as plain accessors (tipped
// walks, tip aborts, CTJ cache hits, full walks, ...); the registry is
// the sink they are exported into so the REPL and every bench harness can
// emit one machine-readable block instead of ad-hoc printf lines. Names
// are dotted lowercase paths ("aj.tipped_walks", "explorer.charts");
// dumps are sorted by name, so diffs of two runs line up.
//
// The registry itself is not synchronized: the serving core merges
// per-slot counters first (src/ola/parallel.h) and a single thread
// exports the result.
#ifndef KGOA_EVAL_REGISTRY_H_
#define KGOA_EVAL_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "src/ola/parallel.h"

namespace kgoa {

class AuditJoin;
class IndexSet;
class MutableGraph;

class MetricsRegistry {
 public:
  // Counters: monotonic event counts.
  void Add(std::string_view name, uint64_t delta);
  void SetCounter(std::string_view name, uint64_t value);
  uint64_t Counter(std::string_view name) const;  // 0 when absent

  // Gauges: last-written point-in-time values.
  void SetGauge(std::string_view name, double value);
  double Gauge(std::string_view name) const;  // 0.0 when absent

  bool empty() const { return counters_.empty() && gauges_.empty(); }
  void Clear();

  // "name value\n" per metric, counters then gauges, sorted by name.
  std::string ToText() const;

  // {"counters":{"name":value,...},"gauges":{...}}, sorted by name.
  std::string ToJson() const;

 private:
  std::map<std::string, uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
};

// Engine exports. `prefix` is prepended verbatim ("aj.", ...). The
// AuditJoin form adds the walk counts to AuditJoin::counters().
void ExportMetrics(const AuditJoin& engine, std::string_view prefix,
                   MetricsRegistry* registry);
void ExportMetrics(const OlaCounters& counters, std::string_view prefix,
                   MetricsRegistry* registry);

// Serving-core export ("serve." by convention): queue depth, job
// lifecycle and background tasks run as counters, cancellation latency
// as a gauge. Cumulative values are republished with SetCounter, so
// repeated exports of the same core do not double-count.
void ExportMetrics(const ServeStats& stats, std::string_view prefix,
                   MetricsRegistry* registry);

// Index-layer export: per-order build times (sort + CSR offsets, flat hash
// tables) as gauges, entry counts / triples / resident bytes as counters.
void ExportMetrics(const IndexSet& indexes, std::string_view prefix,
                   MetricsRegistry* registry);

// Snapshot-epoch export ("epoch." by convention): current epoch, overlay
// sizes (adds, deletes and the overlay's resident `overlay_bytes`),
// live/base triple counts, applied batches, compactions, and the
// published-versions-still-pinned gauge. Cumulative values are
// republished with SetCounter.
void ExportMetrics(const MutableGraph& mutable_graph, std::string_view prefix,
                   MetricsRegistry* registry);

// Exports the calling thread's flat-table probe counters
// (src/index/hash_range.h) — Depth1/Depth2/Ndv2 lookups issued since the
// thread's last Reset. Counters are thread-local so the sampling hot path
// never touches a shared cache line.
void ExportIndexProbeCounters(std::string_view prefix,
                              MetricsRegistry* registry);

// Kernel-layer export ("simd." by convention): the resolved dispatch
// level (`level` = 0 scalar / 2 avx2, with the name mirrored as
// `level.<name>` = 1 so text dumps stay self-describing), the probe
// pipeline's software-prefetch depth, and the calling thread's block
// decode-cache hits/misses (src/index/block_codec.h — thread-local for
// the same reason as the probe counters).
void ExportSimdMetrics(std::string_view prefix, MetricsRegistry* registry);

// One-line JSON form of a live parallel-run snapshot — one line per
// snapshot makes a convergence trace (the benches prefix each line with
// "trace "). Includes elapsed time, walk totals and rates, the merged
// engine counters, and per-group {"estimate","ci"} sorted by group id.
std::string SnapshotJson(const OlaSnapshot& snapshot);

}  // namespace kgoa

#endif  // KGOA_EVAL_REGISTRY_H_
