// Micro-benchmarks for the claims of sections IV-D and V-C: per-walk
// sample time of Wander Join and Audit Join (paper: ~2.5us average for
// both), the amortized cost of the online Pr(a, b) computation (paper:
// ~2.5us average thanks to caching), and the underlying index operations
// (flat-table hash-range probes, CSR level-0 narrow, galloping seeks).
// BM_AuditJoinWalkOverlay prices the delta overlay: Audit Join walks and
// engine construction on a version with pending writes against a rebuilt
// index of the same triples (EXPERIMENTS.md, write load).
//
// Besides the google-benchmark table, the binary ends with two
// machine-readable JSON lines (the PR 1 convention):
//
//  * `trace {...}` — ns/op for the Depth1/Depth2/Ndv2 probe and SeekGE
//    paths, the per-order index build times, resident bytes, and the
//    thread's probe counters (scrape with `grep '^trace '`);
//  * `reach_trace {...}` — the reach-probability cache ablation: cold
//    first-touch cost, warm shared-cache probe cost (with and without
//    concurrent readers), the per-thread private-memo path the shared
//    cache replaced, and the cache's own counters (scrape with
//    `grep '^reach_trace '`; scripts/bench_json.sh turns it into
//    BENCH_reach.json). Set KGOA_BENCH_QUICK=1 for a smoke-sized run.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include <benchmark/benchmark.h>

#include "src/core/audit.h"
#include "src/core/mutable_graph.h"
#include "src/core/reach.h"
#include "src/eval/registry.h"
#include "src/eval/runner.h"
#include "src/explore/session.h"
#include "src/gen/kg_gen.h"
#include "src/gen/workload.h"
#include "src/index/index_set.h"
#include "src/index/snapshot.h"
#include "src/join/ctj.h"
#include "src/ola/wander.h"
#include "src/util/rng.h"
#include "src/util/stopwatch.h"

namespace kgoa {
namespace {

// One mid-size graph shared by every benchmark in this binary.
struct Fixture {
  Fixture() : graph(GenerateKg(DbpediaLikeSpec(0.1))), indexes(graph) {
    ExplorationSession session(graph);
    // Root out-property expansion: the paper's marquee query.
    root_out_property = std::make_unique<ChainQuery>(
        session.BuildQuery(ExpansionKind::kOutProperty));
  }
  Graph graph;
  IndexSet indexes;
  std::unique_ptr<ChainQuery> root_out_property;
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

void BM_WanderJoinWalk(benchmark::State& state) {
  Fixture& f = GetFixture();
  WanderJoin wj(f.indexes, *f.root_out_property);
  for (auto _ : state) {
    wj.RunOneWalk();
  }
  state.counters["rejection_rate"] = wj.estimates().RejectionRate();
}
BENCHMARK(BM_WanderJoinWalk);

void BM_AuditJoinWalk(benchmark::State& state) {
  Fixture& f = GetFixture();
  AuditJoin::Options options;
  options.tipping_threshold = static_cast<double>(state.range(0));
  options.enable_tipping = state.range(0) > 0;
  AuditJoin aj(f.indexes, *f.root_out_property, options);
  for (auto _ : state) {
    aj.RunOneWalk();
  }
  state.counters["tipped_fraction"] =
      static_cast<double>(aj.tipped_walks()) /
      static_cast<double>(aj.estimates().walks());
}
BENCHMARK(BM_AuditJoinWalk)->Arg(0)->Arg(16)->Arg(64)->Arg(256);

// Audit Join on an overlay view against a rebuilt index. The state is
// write_mix's: the scale-0.5 graph, the seed-7 DISTINCT exploration
// charts, and versions after 0, 1, 16 and 128 write batches of 256
// changes, two inserts per delete (about 0, 256, 4,096 and 32,768 pending
// changes; the `pending` counter reports the exact count). Each version's
// triples are also rebuilt into a plain IndexSet. Built on first use, so
// runs that filter this benchmark out (the quick bench smoke) never pay
// for it.
constexpr int kOverlayChanges[] = {0, 256, 4096, 32768};

struct OverlayFixture {
  struct Version {
    GraphSnapshot view;
    uint64_t pending = 0;
    std::unique_ptr<Graph> rebuilt_graph;     // null for the clean version
    std::unique_ptr<IndexSet> rebuilt;
  };

  OverlayFixture() : mutable_graph(GenerateKg(DbpediaLikeSpec(0.5))) {
    const GraphSnapshot clean = mutable_graph.snapshot();
    const std::vector<Triple>& base = clean.graph().triples();
    WorkloadOptions options;
    options.seed = 7;
    options.num_paths = 10;
    for (ExplorationQuery& eq :
         GenerateWorkload(clean.graph(), clean.indexes(), options)) {
      charts.push_back(eq.query.WithDistinct(true));
    }
    int batch = 0;
    for (const int changes : kOverlayChanges) {
      for (; batch < changes / 256; ++batch) {
        Rng rng(static_cast<uint64_t>(batch));
        std::vector<Triple> inserts;
        std::vector<Triple> deletes;
        for (int i = 0; i < 256; ++i) {
          if (i % 3 == 2) {
            deletes.push_back(base[rng.Below(base.size())]);
          } else {
            inserts.push_back(Triple{base[rng.Below(base.size())].s,
                                     base[rng.Below(base.size())].p,
                                     base[rng.Below(base.size())].o});
          }
        }
        mutable_graph.Apply(inserts, deletes);
      }
      Version& version = versions[changes];
      version.view = mutable_graph.snapshot();
      const MutableGraph::Stats stats = mutable_graph.stats();
      version.pending = stats.overlay_adds + stats.overlay_dels;
      if (version.view.overlay() == nullptr) continue;
      const PendingWrites& pending = version.view.overlay()->pending();
      std::vector<Triple> live;
      std::set_difference(base.begin(), base.end(), pending.dels.begin(),
                          pending.dels.end(), std::back_inserter(live),
                          SpoLess);
      live.insert(live.end(), pending.adds.begin(), pending.adds.end());
      std::sort(live.begin(), live.end(), SpoLess);
      version.rebuilt_graph = std::make_unique<Graph>(
          Graph::Rebase(version.view.graph(), std::move(live)));
      version.rebuilt = std::make_unique<IndexSet>(*version.rebuilt_graph);
    }
  }

  MutableGraph mutable_graph;
  std::vector<ChainQuery> charts;
  std::map<int, Version> versions;
};

OverlayFixture& GetOverlayFixture() {
  static OverlayFixture* fixture = new OverlayFixture();
  return *fixture;
}

// Args: pending changes, then 0 = walk the view, 1 = walk the rebuilt
// index (the clean version is its own rebuild). Each iteration is one walk
// of the next chart in turn; construct_us is the mean AuditJoin
// construction time per chart (plan, tipping estimator, reach memo).
void BM_AuditJoinWalkOverlay(benchmark::State& state) {
  OverlayFixture& f = GetOverlayFixture();
  const OverlayFixture::Version& version =
      f.versions.at(static_cast<int>(state.range(0)));
  const IndexSet& indexes = state.range(1) == 0 || version.rebuilt == nullptr
                                ? version.view.indexes()
                                : *version.rebuilt;
  std::vector<std::unique_ptr<AuditJoin>> engines;
  Stopwatch clock;
  for (const ChainQuery& chart : f.charts) {
    AuditJoin::Options options;
    options.walk_order = DefaultAuditOrder(chart);
    engines.push_back(std::make_unique<AuditJoin>(indexes, chart, options));
  }
  const double construct_us =
      clock.ElapsedMillis() * 1e3 / static_cast<double>(engines.size());
  std::size_t next = 0;
  for (auto _ : state) {
    engines[next]->RunOneWalk();
    next = next + 1 == engines.size() ? 0 : next + 1;
  }
  state.counters["pending"] = static_cast<double>(version.pending);
  state.counters["construct_us"] = construct_us;
}
BENCHMARK(BM_AuditJoinWalkOverlay)
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (const int changes : kOverlayChanges) {
        b->Args({changes, 0});
        b->Args({changes, 1});
      }
    })
    ->ArgNames({"changes", "rebuilt"});

void BM_ReachPrAbAmortized(benchmark::State& state) {
  Fixture& f = GetFixture();
  const WalkPlan plan = WalkPlan::Compile(*f.root_out_property);
  ReachProbability reach(f.indexes, plan);
  // Sample (a, b) pairs the walk actually produces.
  const GroupedResult exact =
      CtjEngine(f.indexes).Evaluate(*f.root_out_property);
  std::vector<TermId> groups;
  for (const auto& [group, count] : exact.counts) groups.push_back(group);
  // b values: subjects of the graph.
  Rng rng(1);
  const auto& triples = f.graph.triples();
  for (auto _ : state) {
    const TermId a = groups[rng.Below(groups.size())];
    const TermId b = triples[rng.Below(triples.size())].s;
    benchmark::DoNotOptimize(reach.PrAB(a, b));
  }
  state.counters["cache_hit_rate"] =
      static_cast<double>(reach.cache_hits()) /
      static_cast<double>(reach.cache_hits() + reach.cache_misses());
}
BENCHMARK(BM_ReachPrAbAmortized);

void BM_HashRangeResolve(benchmark::State& state) {
  Fixture& f = GetFixture();
  const TriplePattern pattern =
      MakePattern(Slot::MakeVar(0), Slot::MakeVar(1), Slot::MakeVar(2));
  // Access (?x ?p ?y) bound on ?x — the out-property walk step.
  const PatternAccess access = PatternAccess::Compile(pattern, 0);
  Rng rng(2);
  const auto& triples = f.graph.triples();
  for (auto _ : state) {
    const TermId s = triples[rng.Below(triples.size())].s;
    benchmark::DoNotOptimize(access.Resolve(f.indexes, s));
  }
}
BENCHMARK(BM_HashRangeResolve);

// Pre-drawn random probe keys, so the benches below measure the table
// lookup itself rather than the rng + triple fetch used to draw keys.
constexpr std::size_t kProbeKeys = 1 << 20;

std::vector<TermId>& SubjectKeys() {
  static std::vector<TermId>* keys = [] {
    Fixture& f = GetFixture();
    Rng rng(5);
    const auto& triples = f.graph.triples();
    auto* v = new std::vector<TermId>(kProbeKeys);
    for (TermId& k : *v) k = triples[rng.Below(triples.size())].s;
    return v;
  }();
  return *keys;
}

std::vector<uint64_t>& PairKeys() {
  static std::vector<uint64_t>* keys = [] {
    Fixture& f = GetFixture();
    Rng rng(6);
    const auto& triples = f.graph.triples();
    auto* v = new std::vector<uint64_t>(kProbeKeys);
    for (uint64_t& k : *v) {
      const Triple& t = triples[rng.Below(triples.size())];
      k = (static_cast<uint64_t>(t.s) << 32) | static_cast<uint64_t>(t.p);
    }
    return v;
  }();
  return *keys;
}

// Raw flat-table probes, without the access-path dispatch above them.
void BM_HashDepth1(benchmark::State& state) {
  Fixture& f = GetFixture();
  const HashRangeIndex& hash = f.indexes.Hash(IndexOrder::kSpo);
  const auto& keys = SubjectKeys();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash.Depth1(keys[i++ & (kProbeKeys - 1)]));
  }
}
BENCHMARK(BM_HashDepth1);

void BM_HashDepth2(benchmark::State& state) {
  Fixture& f = GetFixture();
  const HashRangeIndex& hash = f.indexes.Hash(IndexOrder::kSpo);
  const auto& keys = PairKeys();
  std::size_t i = 0;
  for (auto _ : state) {
    const uint64_t key = keys[i++ & (kProbeKeys - 1)];
    benchmark::DoNotOptimize(hash.Depth2(static_cast<TermId>(key >> 32),
                                         static_cast<TermId>(key)));
  }
}
BENCHMARK(BM_HashDepth2);

void BM_HashNdv2(benchmark::State& state) {
  Fixture& f = GetFixture();
  const HashRangeIndex& hash = f.indexes.Hash(IndexOrder::kSpo);
  const auto& keys = SubjectKeys();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash.Ndv2(keys[i++ & (kProbeKeys - 1)]));
  }
}
BENCHMARK(BM_HashNdv2);

// Reference probes against the pre-flat-table representation (one
// std::unordered_map per depth, as HashRangeIndex used before the open
// addressing rewrite) — the head-to-head baseline for the flat probes.
struct RefMaps {
  RefMaps() {
    Fixture& f = GetFixture();
    const HashRangeIndex& hash = f.indexes.Hash(IndexOrder::kSpo);
    const TrieIndex& spo = f.indexes.Index(IndexOrder::kSpo);
    const Range root = spo.Root();
    uint32_t pos = root.begin;
    while (pos < root.end) {
      const TermId s = spo.KeyAt(pos, 0);
      depth1[s] = hash.Depth1(s);
      pos = spo.BlockEnd(root, 0, pos);
    }
    for (const Triple& t : f.graph.triples()) {
      const uint64_t key =
          (static_cast<uint64_t>(t.s) << 32) | static_cast<uint64_t>(t.p);
      if (depth2.find(key) == depth2.end()) depth2[key] = hash.Depth2(t.s, t.p);
    }
  }
  std::unordered_map<TermId, Range> depth1;
  std::unordered_map<uint64_t, Range> depth2;
};

RefMaps& GetRefMaps() {
  static RefMaps* maps = new RefMaps();
  return *maps;
}

void BM_RefMapDepth1(benchmark::State& state) {
  const auto& map = GetRefMaps().depth1;
  const auto& keys = SubjectKeys();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto it = map.find(keys[i++ & (kProbeKeys - 1)]);
    benchmark::DoNotOptimize(it == map.end() ? Range{} : it->second);
  }
}
BENCHMARK(BM_RefMapDepth1);

void BM_RefMapDepth2(benchmark::State& state) {
  const auto& map = GetRefMaps().depth2;
  const auto& keys = PairKeys();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto it = map.find(keys[i++ & (kProbeKeys - 1)]);
    benchmark::DoNotOptimize(it == map.end() ? Range{} : it->second);
  }
}
BENCHMARK(BM_RefMapDepth2);

void BM_TrieNarrow(benchmark::State& state) {
  Fixture& f = GetFixture();
  const TrieIndex& spo = f.indexes.Index(IndexOrder::kSpo);
  Rng rng(3);
  const auto& triples = f.graph.triples();
  for (auto _ : state) {
    const TermId s = triples[rng.Below(triples.size())].s;
    benchmark::DoNotOptimize(spo.Narrow(spo.Root(), 0, s));
  }
}
BENCHMARK(BM_TrieNarrow);

// Every 3rd distinct level-0 value of the SPO order, ascending: the
// leapfrog access shape (short forward hops from the previous hit) that
// the galloping SeekGE is built for.
std::vector<TermId> SeekTargets(const TrieIndex& index) {
  std::vector<TermId> targets;
  const Range root = index.Root();
  uint32_t pos = root.begin;
  uint64_t i = 0;
  while (pos < root.end) {
    if (i++ % 3 == 0) targets.push_back(index.KeyAt(pos, 0));
    pos = index.BlockEnd(root, 0, pos);
  }
  return targets;
}

void BM_TrieSeekGEShortHops(benchmark::State& state) {
  Fixture& f = GetFixture();
  const TrieIndex& spo = f.indexes.Index(IndexOrder::kSpo);
  const std::vector<TermId> targets = SeekTargets(spo);
  const Range root = spo.Root();
  uint32_t from = root.begin;
  std::size_t i = 0;
  for (auto _ : state) {
    if (i >= targets.size()) {
      i = 0;
      from = root.begin;
    }
    from = spo.SeekGE(root, 0, targets[i++], from);
    benchmark::DoNotOptimize(from);
  }
}
BENCHMARK(BM_TrieSeekGEShortHops);

void BM_SuffixCountCached(benchmark::State& state) {
  Fixture& f = GetFixture();
  const TermId type = f.graph.rdf_type();
  ChainSuffixCounter counter(
      f.indexes,
      {MakePattern(Slot::MakeVar(0), Slot::MakeVar(1), Slot::MakeVar(2)),
       MakePattern(Slot::MakeVar(2), Slot::MakeConst(type),
                   Slot::MakeVar(3))},
      {0, 2});
  Rng rng(4);
  const auto& triples = f.graph.triples();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        counter.Count(0, triples[rng.Below(triples.size())].s));
  }
}
BENCHMARK(BM_SuffixCountCached);

// Hand-timed ns/op for the index primitives, exported as one
// machine-readable trace line through the PR 1 metrics registry.
double NsPerOp(uint64_t iterations, const Stopwatch& clock) {
  return clock.ElapsedSeconds() * 1e9 / static_cast<double>(iterations);
}

// --------------------------------------------------------------------------
// Reach-probability cache benches (the Audit Join distinct hot path).

// Single-threaded startup read, before any pool exists.
bool BenchQuick() {
  return std::getenv("KGOA_BENCH_QUICK") != nullptr;  // NOLINT(concurrency-mt-unsafe)
}

// A fixed worklist of distinct (a, b) pairs drawn the way the amortized
// bench above draws them (group x random subject), plus one shared cache
// pre-warmed over the whole worklist.
struct ReachBenchFixture {
  ReachBenchFixture()
      : plan(WalkPlan::Compile(*GetFixture().root_out_property)),
        reach(GetFixture().indexes, plan) {
    Fixture& f = GetFixture();
    const GroupedResult exact =
        CtjEngine(f.indexes).Evaluate(*f.root_out_property);
    std::vector<TermId> groups;
    for (const auto& [group, count] : exact.counts) groups.push_back(group);
    const auto& triples = f.graph.triples();
    Rng rng(7);
    const std::size_t target = BenchQuick() ? 1000 : 8000;
    FlatAccumulator<uint64_t, uint8_t> seen;
    while (pairs.size() < target) {
      const uint64_t key =
          PackPair(groups[rng.Below(groups.size())],
                   triples[rng.Below(triples.size())].s);
      if (!seen.Contains(key)) {
        seen.FindOrAdd(key) = 1;
        pairs.push_back(key);
      }
    }
    double sink = 0;
    for (const uint64_t key : pairs) sink += Probe(reach, key);
    benchmark::DoNotOptimize(sink);
  }

  static double Probe(ReachProbability& cache, uint64_t key) {
    return cache.PrAB(static_cast<TermId>(key >> 32),
                      static_cast<TermId>(key & 0xffffffffu));
  }

  WalkPlan plan;
  ReachProbability reach;  // warm after construction
  std::vector<uint64_t> pairs;
};

ReachBenchFixture& GetReachFixture() {
  static ReachBenchFixture* fixture = new ReachBenchFixture();
  return *fixture;
}

// Warm lookups against the run-shared cache — the steady state of the
// audit hot path once the working set has been audited.
void BM_ReachWarmSharedProbe(benchmark::State& state) {
  ReachBenchFixture& f = GetReachFixture();
  std::size_t i = 0;
  for (auto _ : state) {
    const uint64_t key = f.pairs[i];
    if (++i == f.pairs.size()) i = 0;
    benchmark::DoNotOptimize(ReachBenchFixture::Probe(f.reach, key));
  }
}
BENCHMARK(BM_ReachWarmSharedProbe);

// The pre-shared-cache design: every engine owns a private memo and pays
// its own first-touch DP computes. One fresh cache per pass over the
// worklist, so the per-op figure is the amortized cold cost.
void BM_ReachColdPrivateMemo(benchmark::State& state) {
  ReachBenchFixture& f = GetReachFixture();
  Fixture& base = GetFixture();
  std::unique_ptr<ReachProbability> cache;
  std::size_t i = 0;
  for (auto _ : state) {
    if (i == 0) {
      cache = std::make_unique<ReachProbability>(base.indexes, f.plan);
    }
    const uint64_t key = f.pairs[i];
    if (++i == f.pairs.size()) i = 0;
    benchmark::DoNotOptimize(ReachBenchFixture::Probe(*cache, key));
  }
}
BENCHMARK(BM_ReachColdPrivateMemo);

// Concurrent readers on the one shared cache — the executor's worker
// threads probing while the memo is warm.
void BM_ReachSharedAcrossThreads(benchmark::State& state) {
  ReachBenchFixture& f = GetReachFixture();
  std::size_t i = (static_cast<std::size_t>(state.thread_index()) * 97) %
                  f.pairs.size();
  for (auto _ : state) {
    const uint64_t key = f.pairs[i];
    if (++i == f.pairs.size()) i = 0;
    benchmark::DoNotOptimize(ReachBenchFixture::Probe(f.reach, key));
  }
}
BENCHMARK(BM_ReachSharedAcrossThreads)->Threads(8);

// The reach-cache ablation, hand-timed and emitted as the stable-keyed
// `reach_trace` JSON line that scripts/bench_json.sh captures.
void EmitReachTrace() {
  Fixture& base = GetFixture();
  ReachBenchFixture& f = GetReachFixture();
  const bool quick = BenchQuick();
  const int threads = quick ? 4 : 8;
  const uint64_t passes = quick ? 4 : 16;
  const std::size_t n = f.pairs.size();
  MetricsRegistry registry;

  // Seed path: `threads` engines, each with its own private memo — every
  // engine recomputes every pair (the behaviour the shared cache
  // replaces).
  double seed_path_ns;
  {
    Stopwatch clock;
    for (int t = 0; t < threads; ++t) {
      ReachProbability private_cache(base.indexes, f.plan);
      double sink = 0;
      for (const uint64_t key : f.pairs) {
        sink += ReachBenchFixture::Probe(private_cache, key);
      }
      benchmark::DoNotOptimize(sink);
    }
    seed_path_ns = NsPerOp(static_cast<uint64_t>(threads) * n, clock);
  }

  // Shared path: the same lookups against ONE run-shared cache — the
  // first engine computes, the rest hit.
  double shared_path_ns;
  {
    Stopwatch clock;
    ReachProbability shared(base.indexes, f.plan);
    for (int t = 0; t < threads; ++t) {
      double sink = 0;
      for (const uint64_t key : f.pairs) {
        sink += ReachBenchFixture::Probe(shared, key);
      }
      benchmark::DoNotOptimize(sink);
    }
    shared_path_ns = NsPerOp(static_cast<uint64_t>(threads) * n, clock);
  }

  // Amortized cold first-touch (one fresh cache, one pass).
  double cold_ns;
  {
    Stopwatch clock;
    ReachProbability fresh(base.indexes, f.plan);
    double sink = 0;
    for (const uint64_t key : f.pairs) {
      sink += ReachBenchFixture::Probe(fresh, key);
    }
    benchmark::DoNotOptimize(sink);
    cold_ns = NsPerOp(n, clock);
  }

  // Warm shared probes, batched the way AuditJoin flushes contributions:
  // prefetch the batch's memo slots, then probe them in order.
  double warm_shared_ns;
  {
    constexpr std::size_t kBatch = 128;
    Stopwatch clock;
    double sink = 0;
    for (uint64_t pass = 0; pass < passes; ++pass) {
      for (std::size_t begin = 0; begin < n; begin += kBatch) {
        const std::size_t end = std::min(begin + kBatch, n);
        for (std::size_t j = begin; j < end; ++j) {
          f.reach.PrefetchPrAB(static_cast<TermId>(f.pairs[j] >> 32),
                               static_cast<TermId>(f.pairs[j] & 0xffffffffu));
        }
        for (std::size_t j = begin; j < end; ++j) {
          sink += ReachBenchFixture::Probe(f.reach, f.pairs[j]);
        }
      }
    }
    benchmark::DoNotOptimize(sink);
    warm_shared_ns = NsPerOp(passes * n, clock);
  }

  // Steady-state lookups from the node-based memo the flat cache
  // replaced (a per-engine std::unordered_map).
  double warm_refmap_ns;
  {
    std::unordered_map<uint64_t, double> ref;
    ref.reserve(n);
    for (const uint64_t key : f.pairs) {
      ref.emplace(key, ReachBenchFixture::Probe(f.reach, key));
    }
    Stopwatch clock;
    double sink = 0;
    for (uint64_t pass = 0; pass < passes; ++pass) {
      for (const uint64_t key : f.pairs) sink += ref.find(key)->second;
    }
    benchmark::DoNotOptimize(sink);
    warm_refmap_ns = NsPerOp(passes * n, clock);
  }

  // Concurrent warm readers: wall-clock ns per lookup with every thread
  // probing the one shared cache.
  double warm_shared_mt_ns;
  {
    Stopwatch clock;
    // kgoa-lint: allow(raw-thread) bench harness simulating clients
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&f, t, passes, n] {
        std::size_t i = (static_cast<std::size_t>(t) * 131) % n;
        double sink = 0;
        for (uint64_t pass = 0; pass < passes; ++pass) {
          for (std::size_t k = 0; k < n; ++k) {
            sink += ReachBenchFixture::Probe(f.reach, f.pairs[i]);
            if (++i == n) i = 0;
          }
        }
        benchmark::DoNotOptimize(sink);
      });
    }
    for (auto& worker : workers) worker.join();
    warm_shared_mt_ns =
        NsPerOp(static_cast<uint64_t>(threads) * passes * n, clock);
  }

  const ShardedTableStats stats = f.reach.stats();
  registry.SetCounter("reach.pairs", n);
  registry.SetCounter("reach.threads", static_cast<uint64_t>(threads));
  registry.SetCounter("reach.hits", stats.hits);
  registry.SetCounter("reach.misses", stats.misses);
  registry.SetCounter("reach.contention", stats.insert_contention);
  registry.SetCounter("reach.entries", stats.entries);
  registry.SetCounter("reach.memory_bytes", stats.memory_bytes);
  registry.SetGauge("reach.cold_ns", cold_ns);
  registry.SetGauge("reach.warm_shared_ns", warm_shared_ns);
  registry.SetGauge("reach.warm_refmap_ns", warm_refmap_ns);
  registry.SetGauge("reach.warm_shared_mt_ns", warm_shared_mt_ns);
  registry.SetGauge("reach.seed_path_ns", seed_path_ns);
  registry.SetGauge("reach.shared_path_ns", shared_path_ns);
  registry.SetGauge("reach.speedup_shared_vs_seed",
                    seed_path_ns / shared_path_ns);
  // The acceptance headline: warm shared-cache lookups vs the seed's
  // recompute-per-thread path.
  registry.SetGauge("reach.speedup_warm_vs_seed",
                    seed_path_ns / warm_shared_ns);
  registry.SetGauge("reach.speedup_warm_vs_refmap",
                    warm_refmap_ns / warm_shared_ns);
  std::printf("reach_trace %s\n", registry.ToJson().c_str());
  std::fflush(stdout);
}

void EmitIndexTrace() {
  Fixture& f = GetFixture();
  const HashRangeIndex& hash = f.indexes.Hash(IndexOrder::kSpo);
  const TrieIndex& spo = f.indexes.Index(IndexOrder::kSpo);
  constexpr uint64_t kOps = 2'000'000;

  MetricsRegistry registry;
  ExportMetrics(f.indexes, "index.", &registry);
  t_index_probes.Reset();

  const auto& subjects = SubjectKeys();
  const auto& pairs = PairKeys();
  {
    Stopwatch clock;
    Range sink{};
    for (uint64_t i = 0; i < kOps; ++i) {
      const Range r = hash.Depth1(subjects[i & (kProbeKeys - 1)]);
      sink.begin ^= r.begin;
      sink.end ^= r.end;
    }
    benchmark::DoNotOptimize(sink);
    registry.SetGauge("index.depth1_ns", NsPerOp(kOps, clock));
  }
  {
    Stopwatch clock;
    Range sink{};
    for (uint64_t i = 0; i < kOps; ++i) {
      const uint64_t key = pairs[i & (kProbeKeys - 1)];
      const Range r = hash.Depth2(static_cast<TermId>(key >> 32),
                                  static_cast<TermId>(key));
      sink.begin ^= r.begin;
      sink.end ^= r.end;
    }
    benchmark::DoNotOptimize(sink);
    registry.SetGauge("index.depth2_ns", NsPerOp(kOps, clock));
  }
  {
    Stopwatch clock;
    uint64_t sink = 0;
    for (uint64_t i = 0; i < kOps; ++i) {
      sink ^= hash.Ndv2(subjects[i & (kProbeKeys - 1)]);
    }
    benchmark::DoNotOptimize(sink);
    registry.SetGauge("index.ndv2_ns", NsPerOp(kOps, clock));
  }
  {
    const std::vector<TermId> targets = SeekTargets(spo);
    const Range root = spo.Root();
    Stopwatch clock;
    uint64_t ops = 0;
    uint32_t sink = 0;
    while (ops < kOps) {
      uint32_t from = root.begin;
      for (const TermId target : targets) {
        from = spo.SeekGE(root, 0, target, from);
        sink ^= from;
      }
      ops += targets.size();
    }
    benchmark::DoNotOptimize(sink);
    registry.SetGauge("index.seekge_ns", NsPerOp(ops, clock));
  }
  ExportIndexProbeCounters("index.", &registry);
  std::printf("trace %s\n", registry.ToJson().c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace kgoa

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  kgoa::EmitIndexTrace();
  kgoa::EmitReachTrace();
  return 0;
}
