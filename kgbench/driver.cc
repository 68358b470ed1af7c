// Chart benchmark driver (see README.md for the workloads and metrics).
//
// One process, one workload. Charts are served only through the public
// serving API — Explorer::SubmitChart / ChartHandle::Await,
// GroupedEstimates::Merge, Explorer::Apply, Explorer::CompactAsync — and
// every unit of work is deterministic: each chart request is a sequence
// of walk-budget jobs whose estimates are a pure function of (query,
// snapshot, seed, budget, workers), writes land from the driver thread at
// fixed points, and every wait blocks on a job's completion. What differs
// between two runs of one seed is therefore timing alone.
//
// With --trace 1 the driver additionally records spans in memory (written
// to --spans at exit), replays every served increment on the driver
// thread through public AuditJoin engines (the replay must be
// bit-identical to the served increment) and through a seeded index key
// stream, and reports per-layer metrics instead of end-to-end ones.
//
// Output: informational `config`, `phases`, `digest`, `host`, `e2e` and
// (on failure) `failures` lines, then the result as the last line:
// {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <optional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "kgbench/metrics.h"
#include "src/core/audit.h"
#include "src/core/explorer.h"
#include "src/eval/runner.h"
#include "src/gen/kg_gen.h"
#include "src/gen/workload.h"
#include "src/index/trie_iterator.h"
#include "src/join/ctj.h"
#include "src/util/rng.h"
#include "src/util/simd.h"
#include "src/util/sync.h"

namespace kgbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// --- The chart request procedure --------------------------------------

constexpr int kWorkers = 4;          // logical workers per increment job
constexpr int kPoolThreads = 2;      // serving pool; + driver < nproc = 4
constexpr uint64_t kFirstIncrement = 16384;
constexpr uint64_t kMinWalks = 1024;
// Sized so that fewer than one chart in ten of the catalogue hits the cap:
// the slowest charts' top bars gather contributions from very few walks,
// and at a 20% target a quarter of the scale-1 catalogue needs more than
// 4M walks.
constexpr double kCiTarget = 0.40;   // CI half-width / largest bar
constexpr uint64_t kWalkCap = 4'000'000;
constexpr int kSetupRepeats = 9;

// --- Writes ------------------------------------------------------------

constexpr int kBatchChanges = 256;   // 2/3 inserts, 1/3 deletes
constexpr int kCompactEvery = 8;     // batches between compactions
// Write probe of the read-only workloads: batches applied after the
// chart phase, so apply/compact latency is measured on every workload.
constexpr int kProbeBatches = 48;

// --- Trace-mode index key stream ---------------------------------------

constexpr int kStreamKeys = 512;

struct WorkloadSpec {
  const char* name;
  double scale;
  kgoa::StorageTier tier;
  int analysts;
  // Exploration paths in the chart catalogue per second of --seconds.
  double paths_per_second;
  // Visits of the catalogue per analyst, each request with a fresh seed and
  // cold reach caches. Later visits add timing samples and independent
  // draws of the slowest charts; the first visit alone is scored.
  int visits;
  bool write_mix;
};

// write_mix runs on the smaller graph: every read goes through a delta
// overlay, which makes a chart several times slower than on a clean
// version, and ground truth is evaluated per pinned version.
constexpr WorkloadSpec kWorkloads[] = {
    {"explore_raw", 1.0, kgoa::StorageTier::kRaw, 1, 3.5, 3, false},
    {"sessions_block", 0.5, kgoa::StorageTier::kBlock, 4, 0.8, 1, false},
    {"write_mix", 0.5, kgoa::StorageTier::kRaw, 1, 1.0, 2, true},
};

// Seed of the exploration-path generator. The chart catalogue is a
// function of the graph scale only: --seed varies every walk seed and
// every write batch, so runs with different seeds serve the same charts
// with independent randomness.
constexpr uint64_t kCatalogueSeed = 7;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 0;  // 0 = the workload's default
  std::string spans_path;
  std::string cache_dir;  // empty = no catalogue cache
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[i + 1];
    char* end = nullptr;
    bool numeric = true;
    if (flag == "--workload") {
      args->workload = value;
      numeric = false;
    } else if (flag == "--spans") {
      args->spans_path = value;
      numeric = false;
    } else if (flag == "--cache-dir") {
      args->cache_dir = value;
      numeric = false;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--scale") {
      args->scale = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      args->trace = value == "1";
      numeric = false;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (numeric && (value.empty() || *end != '\0')) {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (args->seconds <= 0 || args->seconds > 600) {
    *error = "--seconds out of range";
    return false;
  }
  if (args->scale < 0 || args->scale > 4) {
    *error = "--scale out of range";
    return false;
  }
  return true;
}

uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c = 0) {
  uint64_t state = a * 0x9e3779b97f4a7c15ull ^ (b + 0x632be59bd9b4e019ull) ^
                   (c * 0xd1b54a32d192ed03ull);
  return kgoa::SplitMix64(state);
}

// --- Host fingerprint ----------------------------------------------------

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Steal ticks summed over all CPUs (8th value of the "cpu" line).
uint64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t value = 0;
  uint64_t steal = 0;
  in >> cpu;
  for (int i = 0; i < 8 && in >> value; ++i) {
    if (i == 7) steal = value;
  }
  return steal;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// --- Spans ---------------------------------------------------------------

// In-memory span recorder. Disabled (every call a no-op) outside --trace.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  // Opens a span starting at `start`; returns its id (-1 when disabled).
  int Begin(const char* name, Clock::time_point start, int parent,
            int request) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, start, start, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span, Clock::time_point end) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].end = end;
  }
  int Record(const char* name, Clock::time_point start, Clock::time_point end,
             int parent, int request) {
    const int span = Begin(name, start, parent, request);
    End(span, end);
    return span;
  }

  // Self time of every span named `name`: its duration minus its direct
  // children's (children of one span never overlap in this driver).
  std::vector<double> SelfMs(const char* name) const {
    std::map<int, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (std::strcmp(spans_[i].name, name) == 0) {
        self[static_cast<int>(i)] += Duration(spans_[i]);
      }
    }
    for (const Span& span : spans_) {
      const auto it = self.find(span.parent);
      if (it != self.end()) it->second -= Duration(span);
    }
    std::vector<double> out;
    for (const auto& entry : self) out.push_back(entry.second);
    return out;
  }

  void Write(const std::string& path) const {
    if (!enabled_ || path.empty()) return;
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_us\":" << MsBetween(origin_, s.start) * 1e3
          << ",\"end_us\":" << MsBetween(origin_, s.end) * 1e3
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << "}\n";
    }
  }

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
    int request;
  };
  static double Duration(const Span& span) {
    return MsBetween(span.start, span.end);
  }
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --- Completion queue ----------------------------------------------------

// Analyst ids whose in-flight increment retired, in retirement order. Fed
// from the jobs' final-snapshot callbacks (pool threads); the driver thread
// blocks in Pop.
class Completions {
 public:
  void Push(int analyst) {
    kgoa::MutexLock lock(mutex_);
    done_.push_back(analyst);
    cv_.NotifyOne();
  }
  int Pop() {
    kgoa::MutexLock lock(mutex_);
    cv_.Wait(mutex_, [this]() KGOA_REQUIRES(mutex_) { return !done_.empty(); });
    const int analyst = done_.front();
    done_.pop_front();
    return analyst;
  }

 private:
  kgoa::Mutex mutex_;
  kgoa::CondVar cv_;
  std::deque<int> done_ KGOA_GUARDED_BY(mutex_);
};

// --- Requests --------------------------------------------------------------

struct Chart {
  kgoa::ChainQuery query;
  std::vector<int> walk_order;
  kgoa::GroupedResult exact;  // on the initial (clean) version
};

struct Request {
  int chart = 0;
  int analyst = 0;
  uint64_t seed = 0;  // seed of the first increment

  // Progress.
  kgoa::GraphSnapshot pin;
  kgoa::GroupedEstimates merged;
  kgoa::OlaCounters counters;
  int increments = 0;
  Clock::time_point start;
  int span = -1;
  // The in-flight increment.
  kgoa::ChartHandle handle;
  uint64_t budget = 0;
  uint64_t job_seed = 0;
  Clock::time_point submitted;

  // Outcome.
  bool converged = false;
  bool errored = false;
  bool score = true;  // first visit: quality, digest, re-serve check
  double ttci_ms = 0;
  double replay_ms = 0;  // trace mode: replay work inside the chart span
  uint64_t overlay_triples = 0;
  ChartQuality quality;
};

// Per-layer accumulators (the timings are filled in every mode, the
// replays and key streams in trace mode only).
struct LayerStats {
  std::vector<double> submit_us;
  std::vector<double> merge_us;
  std::vector<double> ci_us;
  double replay_engine_ms = 0;
  uint64_t replay_walks = 0;
  double probe_ns_sum = 0;
  uint64_t probe_samples = 0;
  double seek_ns_sum = 0;
  uint64_t seek_samples = 0;
  double overlay_seek_ns_sum = 0;
  uint64_t overlay_seek_samples = 0;
  uint64_t stream_sink = 0;
  std::vector<double> overlay_triples_at_pin;
  std::vector<double> rewrite_triples;
};

struct Failures {
  uint64_t errored = 0;      // aborted or short increments
  uint64_t replay_mismatch = 0;
  uint64_t identity_mismatch = 0;
  uint64_t apply_failed = 0;
  uint64_t total() const {
    return errored + replay_mismatch + identity_mismatch + apply_failed;
  }
};

bool BitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

// Bit-identity of two estimators' observable state.
bool SameEstimates(const kgoa::GroupedEstimates& a,
                   const kgoa::GroupedEstimates& b) {
  if (a.walks() != b.walks() || a.rejected_walks() != b.rejected_walks()) {
    return false;
  }
  const auto ea = a.Estimates();
  const auto eb = b.Estimates();
  if (ea.size() != eb.size()) return false;
  for (const auto& [group, estimate] : ea) {
    const auto it = eb.find(group);
    if (it == eb.end() || !BitEqual(estimate, it->second) ||
        !BitEqual(a.CiHalfWidth(group), b.CiHalfWidth(group))) {
      return false;
    }
  }
  return true;
}

// Everything one run holds.
class Bench {
 public:
  Bench(const Args& args, const WorkloadSpec& spec)
      : args_(args), spec_(spec), tracer_(args.trace) {}

  int Run();

 private:
  double scale() const { return args_.scale > 0 ? args_.scale : spec_.scale; }

  void Setup(const kgoa::Graph& graph);
  void BuildCatalogue();
  bool LoadCatalogue(const std::string& path, const kgoa::Dictionary& dict);
  void RunSessions();
  // Serves every analyst's requests of one visit of the catalogue.
  void ServeVisit(int visit);
  void ResetCaches();
  void WriteProbe();

  void StartRequest(Request& request);
  void SubmitIncrement(Request& request);
  // Handles the retirement of `request`'s in-flight increment; returns
  // true when the request finished.
  bool OnIncrement(Request& request);
  void FinishRequest(Request& request);
  // Serves `request` to completion while nothing else is in flight.
  void ServeAlone(Request& request);
  // Trace mode: one served increment and what it needs to be replayed.
  struct Replayed {
    int chart;
    int span;
    kgoa::GraphSnapshot pin;
    uint64_t budget;
    uint64_t seed;
    kgoa::GroupedEstimates served;
  };
  // Replays `increment` on this thread; returns the time it took.
  double Replay(const Replayed& increment);
  // `overlay_only`: time only the seeks through the overlay view (the
  // write probe, whose versions no chart reads).
  void KeyStream(const kgoa::GraphSnapshot& pin, uint64_t stream_seed,
                 bool overlay_only);

  void ApplyBatch(uint64_t batch);
  void Compact();
  void AfterRequest(Request& request);

  void Report();

  const Args& args_;
  const WorkloadSpec& spec_;
  Tracer tracer_;
  LayerStats layers_;
  Failures failures_;

  std::unique_ptr<kgoa::Explorer> explorer_;
  std::vector<double> setup_s_;
  std::vector<double> build_ms_;
  std::vector<double> compress_ms_;
  double bytes_per_triple_ = 0;
  std::vector<kgoa::Triple> base_triples_;  // write-batch term pools

  std::vector<Chart> charts_;
  std::vector<std::vector<Request>> analysts_;  // every visit, in order
  Completions completions_;

  std::vector<Replayed> deferred_replays_;

  double session_ms_ = 0;
  double untimed_ms_ = 0;  // re-serves, ground truth and cache resets
  double replay_ms_ = 0;   // trace-mode replays
  kgoa::ServeStats serve_before_;
  kgoa::ServeStats serve_after_;
  uint64_t requests_done_ = 0;

  uint64_t batches_ = 0;
  uint64_t compactions_ = 0;
  std::vector<double> apply_ms_;
  std::vector<double> compact_ms_;
  uint64_t catalogue_epoch_ = 0;
  std::map<std::string, double> phase_ms_;
  uint64_t steal_start_ = 0;
};

void Bench::Setup(const kgoa::Graph& graph) {
  kgoa::MutableGraph::Options options;
  options.index_options.tier = spec_.tier;
  kgoa::ServingCore::Options serving;
  serving.threads = kPoolThreads;
  base_triples_ = graph.triples();
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    // Each repetition sets up from its own copy of the generated graph
    // (the copy is not timed); the last one serves the workload.
    kgoa::Graph copy = kgoa::Graph::Rebase(graph, graph.triples());
    explorer_.reset();
    const Clock::time_point start = Clock::now();
    auto explorer = std::make_unique<kgoa::Explorer>(std::move(copy), options);
    explorer->ConfigureServing(serving);
    // A no-op compaction is the public way to spawn the pool up front.
    explorer->CompactAsync().Await();
    const Clock::time_point end = Clock::now();
    setup_s_.push_back(MsBetween(start, end) / 1e3);
    const kgoa::IndexBuildStats& stats = explorer->indexes().build_stats();
    build_ms_.push_back(stats.total_ms);
    compress_ms_.push_back(stats.compress_ms);
    const int span = tracer_.Record("setup", start, end, -1, -1);
    tracer_.Record("index.build", start,
                   start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   stats.total_ms)),
                   span, -1);
    explorer_ = std::move(explorer);
  }
  const kgoa::IndexSet& indexes = explorer_->indexes();
  bytes_per_triple_ = static_cast<double>(indexes.ApproxMemoryBytes()) /
                      static_cast<double>(indexes.NumTriples());
  if (tracer_.enabled() && spec_.tier != kgoa::StorageTier::kBlock) {
    // The raw-tier workloads never compress; measure what block
    // compression of this graph costs, outside every timed path.
    kgoa::IndexSetOptions block;
    block.tier = kgoa::StorageTier::kBlock;
    const kgoa::IndexSet compressed(explorer_->graph(), block);
    compress_ms_.assign(1, compressed.build_stats().compress_ms);
  }
}

// The chart catalogue: the seeded exploration generator's DISTINCT chain
// queries with their exact counts. Generating it evaluates every
// exploration step exactly (tens of seconds on the scale-1 graph), so it
// is cached under --cache-dir, keyed by the graph's content and the
// generator settings; a cached query must render to the same SPARQL text.
void Bench::BuildCatalogue() {
  kgoa::WorkloadOptions options;
  options.seed = kCatalogueSeed;
  options.num_paths = std::max(
      1, static_cast<int>(std::lround(spec_.paths_per_second * args_.seconds)));
  options.max_steps = 4;
  const kgoa::GraphSnapshot pin = explorer_->snapshot();
  catalogue_epoch_ = pin.epoch();
  const kgoa::Dictionary& dict = pin.graph().dict();

  Digest key;
  key.Add(static_cast<uint64_t>(options.seed));
  key.Add(static_cast<uint64_t>(options.num_paths));
  key.Add(static_cast<uint64_t>(options.max_steps));
  for (const kgoa::Triple& t : pin.graph().triples()) {
    key.Add((static_cast<uint64_t>(t.s) << 32) ^ (static_cast<uint64_t>(t.p) << 16) ^ t.o);
  }
  const std::string path =
      args_.cache_dir.empty()
          ? std::string()
          : args_.cache_dir + "/catalogue-" + key.Hex() + ".txt";

  if (!path.empty() && LoadCatalogue(path, dict)) return;
  charts_.clear();
  for (kgoa::ExplorationQuery& eq :
       kgoa::GenerateWorkload(pin.graph(), pin.indexes(), options)) {
    std::vector<int> walk_order = kgoa::DefaultAuditOrder(eq.query);
    charts_.push_back(
        Chart{std::move(eq.query), std::move(walk_order), std::move(eq.exact)});
  }
  if (path.empty()) return;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    out << "kgbench-catalogue 2\n";
    for (const Chart& chart : charts_) {
      const kgoa::ChainQuery& q = chart.query;
      Digest text;
      for (char c : q.ToSparql(&dict)) text.Add(static_cast<uint8_t>(c));
      out << "chart " << q.NumPatterns() << " " << q.alpha() << " "
          << q.beta() << " " << q.distinct() << " "
          << chart.exact.counts.size() << " " << text.Hex() << "\n";
      for (int i = 0; i < q.NumPatterns(); ++i) {
        const kgoa::TriplePattern& pattern = q.patterns()[static_cast<std::size_t>(i)];
        for (int c = 0; c < 3; ++c) {
          const kgoa::Slot& slot = pattern[c];
          out << (slot.is_var() ? "v" : "c") << slot.var() << " ";
        }
        out << q.filters(i).size();
        for (const kgoa::TypeFilter& f : q.filters(i)) {
          out << " " << f.component << " " << f.property << " " << f.value;
        }
        out << "\n";
      }
      for (const auto& [group, count] : chart.exact.counts) {
        out << group << " " << count << "\n";
      }
    }
  }
  std::rename(tmp.c_str(), path.c_str());
}

bool Bench::LoadCatalogue(const std::string& path,
                          const kgoa::Dictionary& dict) {
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line) || line != "kgbench-catalogue 2") return false;
  charts_.clear();
  while (std::getline(in, line)) {
    int num_patterns = 0;
    unsigned alpha = 0;
    unsigned beta = 0;
    int distinct = 0;
    std::size_t groups = 0;
    char hex[17] = {};
    if (std::sscanf(line.c_str(), "chart %d %u %u %d %zu %16s", &num_patterns,
                    &alpha, &beta, &distinct, &groups, hex) != 6) {
      return false;
    }
    std::vector<kgoa::TriplePattern> patterns;
    std::vector<std::vector<kgoa::TypeFilter>> filters;
    for (int i = 0; i < num_patterns; ++i) {
      if (!std::getline(in, line)) return false;
      std::istringstream fields(line);
      kgoa::TriplePattern pattern{{kgoa::Slot::MakeVar(0), kgoa::Slot::MakeVar(0),
                                   kgoa::Slot::MakeVar(0)}};
      for (int c = 0; c < 3; ++c) {
        std::string slot;
        fields >> slot;
        if (slot.size() < 2) return false;
        const uint32_t id =
            static_cast<uint32_t>(std::strtoul(slot.c_str() + 1, nullptr, 10));
        pattern[c] = slot[0] == 'v' ? kgoa::Slot::MakeVar(id)
                                    : kgoa::Slot::MakeConst(id);
      }
      std::size_t num_filters = 0;
      fields >> num_filters;
      std::vector<kgoa::TypeFilter> pattern_filters(num_filters);
      for (kgoa::TypeFilter& f : pattern_filters) {
        fields >> f.component >> f.property >> f.value;
      }
      if (!fields) return false;
      patterns.push_back(pattern);
      filters.push_back(std::move(pattern_filters));
    }
    std::optional<kgoa::ChainQuery> query = kgoa::ChainQuery::Create(
        std::move(patterns), std::move(filters), alpha, beta, distinct != 0);
    if (!query) return false;
    Digest text;
    for (char c : query->ToSparql(&dict)) text.Add(static_cast<uint8_t>(c));
    if (text.Hex() != hex) return false;
    kgoa::GroupedResult exact;
    for (std::size_t g = 0; g < groups; ++g) {
      unsigned long long group = 0;
      unsigned long long count = 0;
      if (!std::getline(in, line) ||
          std::sscanf(line.c_str(), "%llu %llu", &group, &count) != 2) {
        return false;
      }
      exact.counts[static_cast<kgoa::TermId>(group)] = count;
    }
    std::vector<int> walk_order = kgoa::DefaultAuditOrder(*query);
    charts_.push_back(Chart{std::move(*query), std::move(walk_order),
                            std::move(exact)});
  }
  return !charts_.empty();
}

void Bench::StartRequest(Request& request) {
  request.start = Clock::now();
  request.span = tracer_.Begin("chart", request.start, -1, request.chart);
  request.pin = explorer_->snapshot();
  const kgoa::MutableGraph::Stats stats = explorer_->graph_stats();
  request.overlay_triples = stats.overlay_adds + stats.overlay_dels;
  request.job_seed = request.seed;
  request.budget = kFirstIncrement;
  SubmitIncrement(request);
}

void Bench::SubmitIncrement(Request& request) {
  const Chart& chart = charts_[static_cast<std::size_t>(request.chart)];
  kgoa::ChartJobOptions job;
  job.walk_budget = request.budget;
  job.workers = kWorkers;
  job.seed = request.job_seed;
  job.walk_order = chart.walk_order;
  job.snapshot = request.pin;
  // Only the final snapshot matters: it tells the driver which job
  // retired.
  job.snapshot_period = 1e6;
  Completions* completions = &completions_;
  const int analyst = request.analyst;
  job.on_snapshot = [completions, analyst](const kgoa::OlaSnapshot& snapshot) {
    if (snapshot.final_snapshot) completions->Push(analyst);
  };
  const Clock::time_point start = Clock::now();
  request.handle = explorer_->SubmitChart(chart.query, std::move(job));
  request.submitted = start;
  layers_.submit_us.push_back(MsBetween(start, Clock::now()) * 1e3);
}

bool Bench::OnIncrement(Request& request) {
  const kgoa::ParallelOlaResult served = request.handle.Await();
  const kgoa::ChartJobState state = request.handle.state();
  request.handle = kgoa::ChartHandle();
  const Clock::time_point retired = Clock::now();
  tracer_.Record("increment", request.submitted, retired, request.span,
                 request.chart);
  ++request.increments;

  if (state != kgoa::ChartJobState::kDone ||
      served.estimates.walks() != request.budget) {
    request.errored = true;
    return true;
  }

  Clock::time_point t0 = Clock::now();
  request.merged.Merge(served.estimates);
  Clock::time_point t1 = Clock::now();
  layers_.merge_us.push_back(MsBetween(t0, t1) * 1e3);
  tracer_.Record("merge", t0, t1, request.span, request.chart);
  request.counters.Merge(served.counters);

  t0 = Clock::now();
  const std::vector<Bar> displayed = DisplayedBars(request.merged);
  const bool converged =
      Converged(displayed, request.merged.walks(), kCiTarget, kMinWalks);
  t1 = Clock::now();
  layers_.ci_us.push_back(MsBetween(t0, t1) * 1e3);
  tracer_.Record("converge_check", t0, t1, request.span, request.chart);

  if (tracer_.enabled()) {
    // A deferred replay runs after its request's span closed, so it is
    // recorded as a top-level span.
    const bool now = spec_.analysts == 1;
    Replayed increment{request.chart, now ? request.span : -1, request.pin,
                       request.budget, request.job_seed, served.estimates};
    if (now) {
      // Nothing else is in flight: replay now, outside the request's time.
      request.replay_ms += Replay(increment);
    } else {
      // Other analysts' jobs are running; replay once the visit is over,
      // so the replays never hold back a completion.
      deferred_replays_.push_back(std::move(increment));
    }
  }

  if (converged) {
    request.converged = true;
    return true;
  }
  const uint64_t walks = request.merged.walks();
  if (walks >= kWalkCap) return true;
  request.job_seed += kWorkers;
  request.budget = std::min(request.budget + request.budget / 4,
                            kWalkCap - walks);
  return false;
}

double Bench::Replay(const Replayed& increment) {
  const Chart& chart = charts_[static_cast<std::size_t>(increment.chart)];
  // Public AuditJoin, one engine per logical slot with the slot's seed and
  // budget share, merged in slot order: the budget contract of
  // src/ola/parallel.h says this equals the served increment bit for bit.
  const Clock::time_point start = Clock::now();
  kgoa::GroupedEstimates replay;
  const uint64_t base = increment.budget / kWorkers;
  const uint64_t remainder = increment.budget % kWorkers;
  for (int w = 0; w < kWorkers; ++w) {
    const uint64_t share = base + (static_cast<uint64_t>(w) < remainder ? 1 : 0);
    if (share == 0) continue;
    kgoa::AuditJoin::Options options;
    options.seed = increment.seed + static_cast<uint64_t>(w);
    options.walk_order = chart.walk_order;
    kgoa::AuditJoin engine(increment.pin.indexes(), chart.query, options);
    engine.RunWalks(share);
    replay.Merge(engine.estimates());
  }
  const Clock::time_point end = Clock::now();
  layers_.replay_engine_ms += MsBetween(start, end);
  layers_.replay_walks += increment.budget;
  tracer_.Record("replay.audit", start, end, increment.span, increment.chart);
  if (!SameEstimates(replay, increment.served)) {
    ++failures_.replay_mismatch;
    std::fprintf(stderr, "replay mismatch: chart %d, %llu walks\n",
                 increment.chart,
                 static_cast<unsigned long long>(increment.budget));
  }

  KeyStream(increment.pin,
            MixSeed(increment.seed, increment.budget, 0x5eed), false);
  const Clock::time_point stream_end = Clock::now();
  tracer_.Record("replay.index", end, stream_end, increment.span,
                 increment.chart);
  replay_ms_ += MsBetween(start, stream_end);
  return MsBetween(start, stream_end);
}

// A seeded stream of keys drawn from the pinned version's base triples,
// sent through the hash-range depth probes and through trie-iterator
// seeks (on the base and, for an overlay version, through the view).
void Bench::KeyStream(const kgoa::GraphSnapshot& pin, uint64_t stream_seed,
                      bool overlay_only) {
  const std::vector<kgoa::Triple>& pool = pin.graph().triples();
  kgoa::Rng rng(stream_seed);
  std::vector<kgoa::Triple> keys(kStreamKeys);
  for (kgoa::Triple& key : keys) key = pool[rng.Below(pool.size())];

  uint64_t sink = 0;
  const kgoa::IndexSet& view = pin.indexes();
  Clock::time_point t0;
  Clock::time_point t1;
  if (!overlay_only) {
    t0 = Clock::now();
    for (const kgoa::Triple& key : keys) {
      sink += view.Depth1(kgoa::IndexOrder::kPso, key.p).size();
      sink += view.Depth2(kgoa::IndexOrder::kPso, key.p, key.s).size();
      sink += view.Depth2(kgoa::IndexOrder::kPos, key.p, key.o).size();
    }
    t1 = Clock::now();
    layers_.probe_ns_sum += MsBetween(t0, t1) * 1e6;
    layers_.probe_samples += 3 * keys.size();
  }

  auto seek = [&keys, &sink](const kgoa::TrieIndex& index) {
    for (const kgoa::Triple& key : keys) {
      kgoa::TrieIterator it(&index);
      it.Open();
      it.SeekGE(key.p);
      if (!it.AtEnd() && it.Key() == key.p) {
        it.Open();
        it.SeekGE(key.s);
        if (!it.AtEnd()) sink += it.Key();
      }
    }
  };
  if (!overlay_only) {
    const kgoa::IndexSet& base = *pin.version()->base_indexes;
    t0 = Clock::now();
    seek(base.Index(kgoa::IndexOrder::kPso));
    t1 = Clock::now();
    layers_.seek_ns_sum += MsBetween(t0, t1) * 1e6;
    layers_.seek_samples += keys.size();
  }
  if (pin.overlay() != nullptr) {
    t0 = Clock::now();
    seek(view.Index(kgoa::IndexOrder::kPso));
    t1 = Clock::now();
    layers_.overlay_seek_ns_sum += MsBetween(t0, t1) * 1e6;
    layers_.overlay_seek_samples += keys.size();
  }
  layers_.stream_sink += sink;
}

void Bench::FinishRequest(Request& request) {
  const Clock::time_point end = Clock::now();
  request.ttci_ms = MsBetween(request.start, end) - request.replay_ms;
  tracer_.End(request.span, end);
  ++requests_done_;
  layers_.overlay_triples_at_pin.push_back(
      static_cast<double>(request.overlay_triples));

  if (!request.score) {
    request.pin.Release();
    return;
  }
  // Quality against the exact counts of the version the request pinned;
  // only write_mix pins versions other than the catalogue's.
  const Chart& chart = charts_[static_cast<std::size_t>(request.chart)];
  if (request.pin.epoch() == catalogue_epoch_) {
    request.quality = ScoreChart(request.merged, chart.exact);
  } else {
    const Clock::time_point t0 = Clock::now();
    const kgoa::GroupedResult exact =
        kgoa::CtjEngine(request.pin.indexes()).Evaluate(chart.query);
    request.quality = ScoreChart(request.merged, exact);
    const Clock::time_point t1 = Clock::now();
    untimed_ms_ += MsBetween(t0, t1);
    tracer_.Record("ground_truth", t0, t1, -1, request.chart);
  }
  request.pin.Release();
}

void Bench::ServeVisit(int visit) {
  // Analyst a replays the catalogue from offset a * n / analysts, so every
  // chart is served once per analyst and visit, at different moments.
  const int n = static_cast<int>(charts_.size());
  const int analysts = spec_.analysts;
  analysts_.resize(static_cast<std::size_t>(analysts));
  std::vector<std::size_t> next(analysts_.size());
  for (int a = 0; a < analysts; ++a) {
    std::vector<Request>& list = analysts_[static_cast<std::size_t>(a)];
    next[static_cast<std::size_t>(a)] = list.size();
    for (int i = 0; i < n; ++i) {
      Request request;
      request.chart = (a * n / analysts + i) % n;
      request.analyst = a;
      request.seed = MixSeed(args_.seed, static_cast<uint64_t>(a),
                             static_cast<uint64_t>(visit * n + i));
      request.score = visit == 0;
      list.push_back(std::move(request));
    }
  }
  int live = 0;
  auto start_next = [&](int a) {
    std::vector<Request>& list = analysts_[static_cast<std::size_t>(a)];
    std::size_t& i = next[static_cast<std::size_t>(a)];
    if (i >= list.size()) return false;
    StartRequest(list[i++]);
    return true;
  };
  for (int a = 0; a < analysts; ++a) {
    if (start_next(a)) ++live;
  }
  while (live > 0) {
    const int a = completions_.Pop();
    Request& request = analysts_[static_cast<std::size_t>(a)]
                                [next[static_cast<std::size_t>(a)] - 1];
    if (!OnIncrement(request)) {
      SubmitIncrement(request);
      continue;
    }
    FinishRequest(request);
    if (spec_.write_mix) AfterRequest(request);
    if (!start_next(a)) --live;
  }
}

// Two writes that cancel out: the graph ends on the same triple set as a
// clean version two epochs later, and the explorer drops the reach caches
// of the superseded epochs, so the next visit audits cold caches again.
void Bench::ResetCaches() {
  const kgoa::GraphSnapshot pin = explorer_->snapshot();
  const std::size_t n = base_triples_.size();
  kgoa::Triple fresh{};
  for (std::size_t i = 0;; ++i) {
    fresh = kgoa::Triple{base_triples_[i % n].s, base_triples_[(i + 1) % n].p,
                         base_triples_[(i * 7 + 3) % n].o};
    if (!pin.Contains(fresh)) break;
  }
  explorer_->Apply({fresh}, {});
  explorer_->Apply({}, {fresh});
  const kgoa::MutableGraph::Stats stats = explorer_->graph_stats();
  if (stats.overlay_adds + stats.overlay_dels != 0) {
    ++failures_.apply_failed;
    std::fprintf(stderr, "cancelling writes left an overlay\n");
  }
}

void Bench::RunSessions() {
  serve_before_ = explorer_->serve_stats();
  const Clock::time_point start = Clock::now();
  // Trace mode serves the first visit: its replays already repeat every
  // increment, and the scored figures come from that visit alone.
  const int visits = tracer_.enabled() ? 1 : spec_.visits;
  for (int visit = 0; visit < visits; ++visit) {
    // In write_mix every batch already publishes a new epoch.
    if (visit > 0 && !spec_.write_mix) {
      const Clock::time_point t0 = Clock::now();
      ResetCaches();
      untimed_ms_ += MsBetween(t0, Clock::now());
    }
    ServeVisit(visit);
    for (const Replayed& increment : deferred_replays_) Replay(increment);
    deferred_replays_.clear();
  }
  session_ms_ = MsBetween(start, Clock::now());
  serve_after_ = explorer_->serve_stats();
}

void Bench::ServeAlone(Request& request) {
  StartRequest(request);
  while (true) {
    completions_.Pop();
    if (OnIncrement(request)) break;
    SubmitIncrement(request);
  }
  FinishRequest(request);
}

// Batch `batch` of the seeded write stream: two thirds inserts recombined
// from the terms of random base triples, one third deletes of random base
// triples. No interning: every TermId already exists. The batch's
// effective changes are worked out against the current version first, and
// Apply must report exactly that many.
void Bench::ApplyBatch(uint64_t batch) {
  kgoa::Rng rng(MixSeed(args_.seed, 0xba7c4, batch));
  std::vector<kgoa::Triple> inserts;
  std::vector<kgoa::Triple> deletes;
  const uint64_t n = base_triples_.size();
  for (int i = 0; i < kBatchChanges; ++i) {
    if (i % 3 == 2) {
      deletes.push_back(base_triples_[rng.Below(n)]);
    } else {
      const kgoa::TermId s = base_triples_[rng.Below(n)].s;
      const kgoa::TermId p = base_triples_[rng.Below(n)].p;
      const kgoa::TermId o = base_triples_[rng.Below(n)].o;
      inserts.push_back(kgoa::Triple{s, p, o});
    }
  }
  // Inserts land first, then deletes (src/core/mutable_graph.h).
  const kgoa::GraphSnapshot before = explorer_->snapshot();
  std::unordered_set<kgoa::Triple, kgoa::TripleHash> added;
  std::unordered_set<kgoa::Triple, kgoa::TripleHash> removed;
  for (const kgoa::Triple& t : inserts) {
    if (!before.Contains(t)) added.insert(t);
  }
  for (const kgoa::Triple& t : deletes) {
    if (added.erase(t) == 0 && before.Contains(t)) removed.insert(t);
  }

  const uint64_t epoch = explorer_->epoch();
  const Clock::time_point t0 = Clock::now();
  const uint64_t changes = explorer_->Apply(inserts, deletes);
  const Clock::time_point t1 = Clock::now();
  apply_ms_.push_back(MsBetween(t0, t1));
  tracer_.Record("apply", t0, t1, -1, -1);
  ++batches_;
  // An effective batch publishes exactly one epoch; a no-op publishes none.
  const uint64_t published = explorer_->epoch() - epoch;
  if (changes != added.size() + removed.size() ||
      published != (changes > 0 ? 1u : 0u)) {
    ++failures_.apply_failed;
    std::fprintf(stderr, "apply %llu: %llu changes (expected %zu), %llu epochs\n",
                 static_cast<unsigned long long>(batch),
                 static_cast<unsigned long long>(changes),
                 added.size() + removed.size(),
                 static_cast<unsigned long long>(published));
  }
}

void Bench::Compact() {
  const Clock::time_point t0 = Clock::now();
  const uint64_t epoch = explorer_->CompactAsync().Await();
  const Clock::time_point t1 = Clock::now();
  compact_ms_.push_back(MsBetween(t0, t1));
  tracer_.Record("compact", t0, t1, -1, -1);
  ++compactions_;
  const kgoa::MutableGraph::Stats stats = explorer_->graph_stats();
  layers_.rewrite_triples.push_back(static_cast<double>(stats.base_triples));
  if (stats.epoch != epoch || stats.overlay_adds + stats.overlay_dels != 0 ||
      stats.base_triples != stats.live_triples) {
    ++failures_.apply_failed;
    std::fprintf(stderr, "compaction to epoch %llu left an overlay\n",
                 static_cast<unsigned long long>(epoch));
  }
}

// write_mix, between two chart requests: every kCompactEvery batches the
// overlay is folded; in the first visit the request just served is then
// served again (outside the timed path) on the compacted version, which
// holds the same triple set — its estimates must be bit-identical. Then
// the next batch lands.
void Bench::AfterRequest(Request& request) {
  if (batches_ > 0 && batches_ % kCompactEvery == 0) {
    Compact();
    if (request.score) {
      const Clock::time_point t0 = Clock::now();
      Request again;
      again.chart = request.chart;
      again.analyst = request.analyst;
      again.seed = request.seed;
      again.score = false;
      ServeAlone(again);
      --requests_done_;  // a check, not a served request
      if (again.errored || again.increments != request.increments ||
          again.converged != request.converged ||
          !SameEstimates(again.merged, request.merged)) {
        ++failures_.identity_mismatch;
        std::fprintf(stderr, "compacted re-serve differs: chart %d\n",
                     request.chart);
      }
      const Clock::time_point t1 = Clock::now();
      untimed_ms_ += MsBetween(t0, t1);
      tracer_.Record("reserve", t0, t1, -1, request.chart);
    }
  }
  ApplyBatch(batches_);
}

// The read-only workloads end with the write stream alone (no chart in
// flight), so every workload reports the write-path metrics.
void Bench::WriteProbe() {
  for (int b = 0; b < kProbeBatches; ++b) {
    if (b > 0 && b % kCompactEvery == 0) Compact();
    ApplyBatch(batches_);
    if (tracer_.enabled()) {
      const kgoa::GraphSnapshot pin = explorer_->snapshot();
      const kgoa::MutableGraph::Stats stats = explorer_->graph_stats();
      layers_.overlay_triples_at_pin.push_back(
          static_cast<double>(stats.overlay_adds + stats.overlay_dels));
      KeyStream(pin, MixSeed(args_.seed, 0x0e71a7, batches_), true);
    }
  }
}

// One named metric of the result line.
struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}";
  return out.str();
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void Bench::Report() {
  // Aggregate in (analyst, request) order, never in completion order, so
  // every deterministic figure is a pure function of the seed. Every
  // request is timed; the first visit's requests are scored.
  std::vector<double> ttci;
  std::vector<double> walks_to_ci;
  uint64_t requests = 0;
  uint64_t scored = 0;
  uint64_t capped = 0;
  uint64_t bars = 0;
  uint64_t covered = 0;
  uint64_t served_walks = 0;
  uint64_t rejected = 0;
  uint64_t increments = 0;
  double rel_err_sum = 0;
  kgoa::OlaCounters served;
  Digest digest;
  for (const std::vector<Request>& list : analysts_) {
    for (const Request& r : list) {
      ++requests;
      ttci.push_back(r.ttci_ms);
      if (r.errored) {
        ++failures_.errored;
      } else if (!r.converged) {
        ++capped;
      }
      served_walks += r.merged.walks();
      rejected += r.merged.rejected_walks();
      increments += static_cast<uint64_t>(r.increments);
      served.Merge(r.counters);
      if (!r.score) continue;
      ++scored;
      walks_to_ci.push_back(static_cast<double>(r.merged.walks()));
      rel_err_sum += r.quality.rel_err;
      bars += r.quality.bars;
      covered += r.quality.covered;
      digest.AddChart(r.merged, r.merged.walks());
      digest.Add(static_cast<uint64_t>(r.increments));
    }
  }
  const uint64_t attempted = requests + batches_ + compactions_;
  const uint64_t failed = failures_.total();
  const double rel_err = Ratio(rel_err_sum, static_cast<double>(scored));
  const double coverage =
      Ratio(static_cast<double>(covered), static_cast<double>(bars));
  const double fail_ratio = Ratio(static_cast<double>(failed + capped),
                                  static_cast<double>(attempted));
  // Serving wall time: the session phase minus the work done outside the
  // timed path (identity re-serves, ground truth, trace replays).
  const double serving_ms = session_ms_ - untimed_ms_ - replay_ms_;
  const double p90_beyond = static_cast<double>(SamplesBeyond(ttci, 0.9));

  // The output sanity gate: converged charts must sit near the exact
  // counts; a broken estimator or index fails it long before any bound.
  const bool correct = failed == 0 && requests_done_ == requests &&
                       rel_err < 0.5 && coverage >= 0.5;

  const std::vector<Metric> e2e = {
      {"setup_s", Median(setup_s_), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"ttci_ms_p50", Percentile(ttci, 0.5), "ms"},
      {"ttci_ms_p90", Percentile(ttci, 0.9), "ms"},
      // Reported as its complement: the driver bounds a metric by a share
      // of its median, which a near-zero failure share cannot carry.
      {"ok_ratio", 1.0 - fail_ratio, "ratio"},
      {"rel_err", rel_err, "ratio"},
      {"ci_coverage", coverage, "ratio"},
      {"charts_per_s", Ratio(static_cast<double>(requests_done_),
                             serving_ms / 1e3),
       "charts/s"},
      {"apply_ms_p50", Percentile(apply_ms_, 0.5), "ms"},
      {"apply_ms_p90", Percentile(apply_ms_, 0.9), "ms"},
  };

  const double walks = static_cast<double>(served_walks);
  const double per_request = static_cast<double>(requests);
  const std::vector<Metric> layers = {
      {"index.build_ms", Median(build_ms_), "ms"},
      {"index.compress_ms", Median(compress_ms_), "ms"},
      {"index.bytes_per_triple", bytes_per_triple_, "B"},
      {"index.probe_ns",
       Ratio(layers_.probe_ns_sum, static_cast<double>(layers_.probe_samples)),
       "ns"},
      {"index.seek_ns",
       Ratio(layers_.seek_ns_sum, static_cast<double>(layers_.seek_samples)),
       "ns"},
      {"index.overlay_seek_ns",
       Ratio(layers_.overlay_seek_ns_sum,
             static_cast<double>(layers_.overlay_seek_samples)),
       "ns"},
      {"index.overlay_triples", Mean(layers_.overlay_triples_at_pin), "count"},
      {"core.audit.walk_ns",
       Ratio(layers_.replay_engine_ms * 1e6,
             static_cast<double>(layers_.replay_walks)),
       "ns"},
      {"core.audit.walks_to_ci", Median(walks_to_ci), "count"},
      {"core.audit.tipped_ratio",
       Ratio(static_cast<double>(served.tipped_walks), walks), "ratio"},
      {"core.audit.reject_ratio", Ratio(static_cast<double>(rejected), walks),
       "ratio"},
      {"core.audit.tip_abort_ratio",
       Ratio(static_cast<double>(served.tip_aborts),
             static_cast<double>(served.tipped_walks)),
       "ratio"},
      {"core.audit.ctj_hits_per_walk",
       Ratio(static_cast<double>(served.ctj_cache_hits), walks), "ratio"},
      {"core.reach.hit_ratio",
       Ratio(static_cast<double>(served.reach_hits),
             static_cast<double>(served.reach_hits + served.reach_misses)),
       "ratio"},
      {"core.reach.misses_per_chart",
       Ratio(static_cast<double>(served.reach_misses), per_request), "count"},
      {"core.mutable.compact_ms", Median(compact_ms_), "ms"},
      {"core.mutable.rewrite_triples", Mean(layers_.rewrite_triples), "count"},
      {"ola.serve.walks_per_s", Ratio(walks, serving_ms / 1e3), "1/s"},
      {"ola.serve.engine_share",
       Ratio(layers_.replay_engine_ms, serving_ms * kPoolThreads), "ratio"},
      {"ola.serve.preemptions_per_chart",
       Ratio(static_cast<double>(serve_after_.preemptions -
                                 serve_before_.preemptions),
             per_request),
       "count"},
      {"ola.serve.quanta_per_chart",
       Ratio(static_cast<double>(serve_after_.quanta - serve_before_.quanta),
             per_request),
       "count"},
      {"ola.serve.increments_per_chart",
       Ratio(static_cast<double>(increments), per_request), "count"},
      {"ola.serve.submit_us", Median(layers_.submit_us), "us"},
      {"ola.estimator.merge_us", Median(layers_.merge_us), "us"},
      {"ola.estimator.ci_us", Median(layers_.ci_us), "us"},
      {"driver.self_ms", Mean(tracer_.SelfMs("chart")), "ms"},
  };

  std::printf(
      "digest {\"estimates\": \"%s\", \"scored_requests\": %llu, "
      "\"capped\": %llu, \"walks_to_ci_p50\": %.17g, \"fail_ratio\": %.17g, "
      "\"rel_err\": %.17g, \"ci_coverage\": %.17g, "
      "\"ttci_samples_beyond_p90\": %.17g}\n",
      digest.Hex().c_str(), static_cast<unsigned long long>(scored),
      static_cast<unsigned long long>(capped), Median(walks_to_ci), fail_ratio,
      rel_err, coverage, p90_beyond);
  std::printf(
      "host {\"cpu\": \"%s\", \"nproc\": %u, \"simd\": \"%s\", "
      "\"build_type\": \"%s\", \"pool_threads\": %d, "
      "\"driver_threads\": 1, \"steal_ticks\": %llu}\n",
      JsonEscape(CpuModel()).c_str(), std::thread::hardware_concurrency(),
      kgoa::SimdLevelName(kgoa::CurrentSimdLevel()), KGBENCH_BUILD_TYPE,
      kPoolThreads,
      static_cast<unsigned long long>(StealTicks() - steal_start_));
  std::printf("e2e %s\n", MetricsJson(e2e).c_str());
  if (failed > 0) {
    std::printf(
        "failures {\"errored\": %llu, \"replay_mismatch\": %llu, "
        "\"identity_mismatch\": %llu, \"apply_failed\": %llu}\n",
        static_cast<unsigned long long>(failures_.errored),
        static_cast<unsigned long long>(failures_.replay_mismatch),
        static_cast<unsigned long long>(failures_.identity_mismatch),
        static_cast<unsigned long long>(failures_.apply_failed));
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(tracer_.enabled() ? layers : e2e).c_str());
  std::fflush(stdout);
}

int Bench::Run() {
  steal_start_ = StealTicks();
  const Clock::time_point t_gen = Clock::now();
  {
    const kgoa::Graph graph = kgoa::GenerateKg(kgoa::DbpediaLikeSpec(scale()));
    phase_ms_["generate"] = MsBetween(t_gen, Clock::now());
    const Clock::time_point t_setup = Clock::now();
    Setup(graph);
    phase_ms_["setup"] = MsBetween(t_setup, Clock::now());
  }
  const Clock::time_point t_cat = Clock::now();
  BuildCatalogue();
  phase_ms_["catalogue"] = MsBetween(t_cat, Clock::now());
  std::printf(
      "config {\"workload\": \"%s\", \"seed\": %llu, \"scale\": %.17g, "
      "\"seconds\": %.17g, \"trace\": %d, \"triples\": %llu, "
      "\"charts\": %zu, \"analysts\": %d, \"ci_target\": %.17g, "
      "\"walk_cap\": %llu}\n",
      spec_.name, static_cast<unsigned long long>(args_.seed), scale(),
      args_.seconds, args_.trace ? 1 : 0,
      static_cast<unsigned long long>(explorer_->indexes().NumTriples()),
      charts_.size(), spec_.analysts, kCiTarget,
      static_cast<unsigned long long>(kWalkCap));
  std::fflush(stdout);
  const Clock::time_point t_serve = Clock::now();
  RunSessions();
  phase_ms_["sessions"] = MsBetween(t_serve, Clock::now());
  phase_ms_["untimed"] = untimed_ms_;
  const Clock::time_point t_probe = Clock::now();
  if (!spec_.write_mix) WriteProbe();
  phase_ms_["write_probe"] = MsBetween(t_probe, Clock::now());
  std::printf("phases {");
  const char* sep = "";
  for (const auto& [name, ms] : phase_ms_) {
    std::printf("%s\"%s_s\": %.3f", sep, name.c_str(), ms / 1e3);
    sep = ", ";
  }
  std::printf("}\n");
  Report();
  tracer_.Write(args_.spans_path);
  return 0;
}

}  // namespace
}  // namespace kgbench

int main(int argc, char** argv) {
  kgbench::Args args;
  std::string error;
  if (!kgbench::ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "kgbench_driver: %s\n", error.c_str());
    return 2;
  }
  for (const kgbench::WorkloadSpec& spec : kgbench::kWorkloads) {
    if (args.workload == spec.name) {
      kgbench::Bench bench(args, spec);
      return bench.Run();
    }
  }
  std::fprintf(stderr, "kgbench_driver: unknown workload '%s'\n",
               args.workload.c_str());
  return 2;
}
