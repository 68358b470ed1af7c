// Interactive exploration shell — the terminal analogue of the paper's
// web frontend (Figure 1): charts served by Audit Join within an
// interactive budget, driven by keyboard commands.
//
//   ./explore_repl [graph.nt|graph.bin] [--scale=0.1] [--budget_ms=150]
//                  [--threads=1]
//
// --threads=N sizes the shared serving pool. With N > 1, charts are
// served as deadline-mode jobs split across N logical workers on that
// pool instead of by a single Audit Join engine on the REPL thread.
//
// Commands (read from stdin; EOF exits, so the binary also terminates
// cleanly when run non-interactively):
//   sub | out | in | obj | subj   apply an expansion and show the chart
//   pick <n>                      select the n-th bar of the last chart
//   back                          undo the last selection
//   plan                          EXPLAIN the last chart query
//   show                          describe the current selection
//   submit <exp> [seconds]        serve an expansion's chart asynchronously
//                                 on the shared worker pool (deadline mode,
//                                 default the --budget_ms budget)
//   jobs                          list submitted jobs with live snapshots
//   cancel <id>                   cancel a submitted job
//   insert <s> <p> <o>            apply a one-triple insert batch (terms
//                                 are interned as typed; publishes a new
//                                 epoch — charts already submitted keep
//                                 serving their pinned version)
//   delete <s> <p> <o>            apply a one-triple delete batch
//   compact                       fold the delta overlay into a rebuilt
//                                 base (DESIGN.md §13) and report the cost
//   metrics [json]                dump the serving metrics registry
//                                 (includes the epoch.* overlay counters)
//   quit
//
// Submitted jobs are tracked by the session: `pick` and `back` supersede
// them and auto-cancel the unfinished ones.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/explain.h"
#include "src/core/explorer.h"
#include "src/gen/kg_gen.h"
#include "src/rdf/binary_io.h"
#include "src/rdf/ntriples.h"
#include "src/rdf/schema.h"
#include "src/util/flags.h"
#include "src/util/stopwatch.h"

namespace {

std::optional<kgoa::ExpansionKind> ParseExpansion(const std::string& word) {
  if (word == "sub") return kgoa::ExpansionKind::kSubclass;
  if (word == "out") return kgoa::ExpansionKind::kOutProperty;
  if (word == "in") return kgoa::ExpansionKind::kInProperty;
  if (word == "obj") return kgoa::ExpansionKind::kObject;
  if (word == "subj") return kgoa::ExpansionKind::kSubject;
  return std::nullopt;
}

struct Repl {
  kgoa::Explorer* explorer;
  kgoa::ExplorationSession session;
  double budget;
  int threads;
  std::optional<kgoa::ExpansionKind> last_expansion;
  kgoa::Chart last_chart;

  // Jobs submitted via the async API, in submit order. The session tracks
  // the same handles and auto-cancels unfinished ones on navigation; this
  // list keeps finished/cancelled ones listable.
  struct SubmittedJob {
    kgoa::ChartHandle handle;
    kgoa::BarKind kind;
  };
  std::vector<SubmittedJob> submitted;

  Repl(kgoa::Explorer* e, double budget_seconds, int serving_threads)
      : explorer(e),
        session(e->NewSession()),
        budget(budget_seconds),
        threads(serving_threads) {}

  void ShowChart(kgoa::ExpansionKind expansion) {
    if (!session.IsLegal(expansion)) {
      std::printf("  (%s expansion not legal from a %s bar)\n",
                  kgoa::ExpansionName(expansion),
                  kgoa::BarKindName(session.current_kind()));
      return;
    }
    const kgoa::ChainQuery query = session.BuildQuery(expansion);
    if (threads > 1) {
      kgoa::ChartJobOptions options;
      options.workers = threads;
      last_chart = explorer->ApproximateChartParallel(
          query, budget, ResultBarKind(expansion), options);
    } else {
      last_chart = explorer->ApproximateChart(query, budget,
                                              ResultBarKind(expansion));
    }
    last_expansion = expansion;
    if (last_chart.bars.empty()) {
      std::printf("  (empty chart)\n");
      return;
    }
    int index = 0;
    for (const kgoa::Bar& bar : last_chart.bars) {
      if (index >= 15) {
        std::printf("  ... %zu more\n", last_chart.bars.size() - 15);
        break;
      }
      std::printf("  [%2d] %-50s ~%.0f (+/- %.0f)\n", index,
                  std::string(explorer->graph().dict().Spell(bar.category))
                      .c_str(),
                  bar.count, bar.ci_half_width);
      ++index;
    }
  }

  void Pick(int index) {
    if (!last_expansion.has_value() || index < 0 ||
        index >= static_cast<int>(last_chart.bars.size())) {
      std::printf("  (no such bar; run an expansion first)\n");
      return;
    }
    session.ExpandAndSelect(*last_expansion,
                            last_chart.bars[index].category);
    last_expansion.reset();
    std::printf("  -> %s\n", session.Describe().c_str());
  }

  void Submit(kgoa::ExpansionKind expansion, double seconds) {
    if (!session.IsLegal(expansion)) {
      std::printf("  (%s expansion not legal from a %s bar)\n",
                  kgoa::ExpansionName(expansion),
                  kgoa::BarKindName(session.current_kind()));
      return;
    }
    kgoa::ChartJobOptions job;
    job.deadline_seconds = seconds;
    job.workers = threads;
    kgoa::ChartHandle handle =
        explorer->SubmitChart(session.BuildQuery(expansion), job);
    session.TrackJob(handle);
    submitted.push_back({handle, ResultBarKind(expansion)});
    std::printf("  job %llu submitted (%s, %.0f ms deadline) — 'jobs' to "
                "watch, 'cancel %llu' to stop\n",
                static_cast<unsigned long long>(handle.id()),
                kgoa::ExpansionName(expansion), seconds * 1000.0,
                static_cast<unsigned long long>(handle.id()));
  }

  void ListJobs() {
    if (submitted.empty()) {
      std::printf("  (no jobs submitted)\n");
      return;
    }
    for (const SubmittedJob& job : submitted) {
      const kgoa::ParallelOlaResult snapshot = job.handle.Snapshot();
      const kgoa::Chart chart =
          kgoa::Explorer::ChartFromEstimates(snapshot.estimates, job.kind);
      std::printf("  job %llu  %-9s  %llu walks  %zu bars",
                  static_cast<unsigned long long>(job.handle.id()),
                  kgoa::ChartJobStateName(job.handle.state()),
                  static_cast<unsigned long long>(snapshot.estimates.walks()),
                  chart.bars.size());
      if (!chart.bars.empty()) {
        const kgoa::Bar& top = chart.bars.front();
        std::printf("  top: %s ~%.0f (+/- %.0f)",
                    std::string(explorer->graph().dict().Spell(top.category))
                        .c_str(),
                    top.count, top.ci_half_width);
      }
      std::printf("\n");
    }
  }

  void CancelJob(uint64_t id) {
    for (const SubmittedJob& job : submitted) {
      if (job.handle.id() != id) continue;
      if (job.handle.finished()) {
        std::printf("  job %llu already %s\n",
                    static_cast<unsigned long long>(id),
                    kgoa::ChartJobStateName(job.handle.state()));
        return;
      }
      job.handle.Cancel();
      std::printf("  job %llu cancel requested\n",
                  static_cast<unsigned long long>(id));
      return;
    }
    std::printf("  (no such job %llu)\n",
                static_cast<unsigned long long>(id));
  }

  // One-triple write batch. Terms are interned as typed (so a deleted
  // triple's terms need not pre-exist; Apply just reports zero changes
  // when the triple is absent). Every effective batch publishes a new
  // epoch — submitted jobs keep serving the version they pinned.
  void Write(bool insert, const std::string& s, const std::string& p,
             const std::string& o) {
    const kgoa::Triple triple{explorer->Intern(s), explorer->Intern(p),
                              explorer->Intern(o)};
    const uint64_t changes =
        insert ? explorer->Insert({triple}) : explorer->Delete({triple});
    const kgoa::MutableGraph::Stats stats = explorer->graph_stats();
    std::printf("  %llu change(s); epoch %llu, overlay +%llu -%llu over "
                "%llu base triples\n",
                static_cast<unsigned long long>(changes),
                static_cast<unsigned long long>(stats.epoch),
                static_cast<unsigned long long>(stats.overlay_adds),
                static_cast<unsigned long long>(stats.overlay_dels),
                static_cast<unsigned long long>(stats.base_triples));
  }

  void Compact() {
    kgoa::Stopwatch clock;
    const uint64_t epoch = explorer->Compact();
    const kgoa::MutableGraph::Stats stats = explorer->graph_stats();
    std::printf("  compacted to epoch %llu in %.1f ms (%llu triples, "
                "%llu snapshot(s) still pinned)\n",
                static_cast<unsigned long long>(epoch),
                clock.ElapsedSeconds() * 1000.0,
                static_cast<unsigned long long>(stats.live_triples),
                static_cast<unsigned long long>(stats.snapshots_pinned));
  }

  // Serving metrics (engine counters accumulated by the explorer) plus
  // the epoch/overlay state and this session's interaction counters, as
  // text or JSON.
  void DumpMetrics(bool as_json) {
    kgoa::MetricsRegistry registry = explorer->metrics();
    kgoa::ExportSimdMetrics("simd.", &registry);
    kgoa::ExportMetrics(explorer->mutable_graph(), "epoch.", &registry);
    registry.SetCounter("session.queries_built", session.queries_built());
    registry.SetCounter("session.expansions", session.expansions_applied());
    registry.SetCounter("session.back_navigations",
                        session.back_navigations());
    registry.SetCounter("session.jobs_auto_cancelled",
                        session.jobs_auto_cancelled());
    registry.SetGauge("session.depth", session.depth());
    if (as_json) {
      std::printf("%s\n", registry.ToJson().c_str());
    } else {
      std::printf("%s", registry.ToText().c_str());
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  if (argc > 1 && argv[1][0] != '-') {
    path = argv[1];
    --argc;
    ++argv;
  }
  kgoa::Flags flags(argc, argv);
  flags.RestrictTo("scale,budget_ms,threads");
  const double scale = flags.GetDouble("scale", 0.1);
  const double budget = flags.GetDouble("budget_ms", 150) / 1000.0;
  const int threads =
      std::max(1, static_cast<int>(flags.GetInt("threads", 1)));

  kgoa::Graph graph;
  if (path.empty()) {
    std::printf("generating DBpedia-like graph (scale %.2f)...\n", scale);
    graph = kgoa::GenerateKg(kgoa::DbpediaLikeSpec(scale));
  } else if (path.size() > 3 && path.substr(path.size() - 3) == ".nt") {
    std::ifstream in(path);
    kgoa::GraphBuilder builder;
    const auto parsed = kgoa::ParseNTriples(in, builder);
    if (!parsed.ok) {
      std::fprintf(stderr, "parse error line %zu: %s\n", parsed.error_line,
                   parsed.error.c_str());
      return 1;
    }
    graph =
        kgoa::MaterializeSubclassClosure(std::move(builder).Build());
  } else {
    std::string error;
    auto loaded = kgoa::LoadGraphBinary(path, &error);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    graph = std::move(*loaded);
  }

  kgoa::Explorer explorer(std::move(graph));
  kgoa::ServingCore::Options serving;
  serving.threads = threads;
  explorer.ConfigureServing(serving);
  Repl repl(&explorer, budget, threads);
  std::printf("%zu triples. commands: sub out in obj subj pick <n> back "
              "plan show submit <exp> [s] jobs cancel <id> "
              "insert <s> <p> <o> delete <s> <p> <o> compact metrics quit\n",
              explorer.graph().NumTriples());

  std::string line;
  std::printf("> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    std::istringstream words(line);
    std::string command;
    words >> command;
    if (command == "quit" || command == "exit") break;
    if (command == "sub") repl.ShowChart(kgoa::ExpansionKind::kSubclass);
    else if (command == "out") repl.ShowChart(kgoa::ExpansionKind::kOutProperty);
    else if (command == "in") repl.ShowChart(kgoa::ExpansionKind::kInProperty);
    else if (command == "obj") repl.ShowChart(kgoa::ExpansionKind::kObject);
    else if (command == "subj") repl.ShowChart(kgoa::ExpansionKind::kSubject);
    else if (command == "pick") {
      int index = -1;
      words >> index;
      repl.Pick(index);
    } else if (command == "back") {
      std::printf("  %s\n", repl.session.GoBack() ? "ok" : "(at root)");
    } else if (command == "show") {
      std::printf("  %s\n", repl.session.Describe().c_str());
    } else if (command == "submit") {
      std::string what;
      words >> what;
      double seconds = repl.budget;
      if (double given = 0; words >> given) seconds = given;
      const auto expansion = ParseExpansion(what);
      if (expansion.has_value() && seconds > 0) {
        repl.Submit(*expansion, seconds);
      } else {
        std::printf("  usage: submit <sub|out|in|obj|subj> [seconds]\n");
      }
    } else if (command == "jobs") {
      repl.ListJobs();
    } else if (command == "cancel") {
      unsigned long long id = 0;
      if (words >> id) {
        repl.CancelJob(id);
      } else {
        std::printf("  usage: cancel <job id>\n");
      }
    } else if (command == "insert" || command == "delete") {
      std::string s, p, o;
      if (words >> s >> p >> o) {
        repl.Write(command == "insert", s, p, o);
      } else {
        std::printf("  usage: %s <subject> <predicate> <object>\n",
                    command.c_str());
      }
    } else if (command == "compact") {
      repl.Compact();
    } else if (command == "metrics") {
      std::string mode;
      words >> mode;
      repl.DumpMetrics(mode == "json");
    } else if (command == "plan") {
      if (repl.last_expansion.has_value()) {
        std::printf("%s",
                    kgoa::ExplainPlan(
                        explorer.indexes(),
                        repl.session.BuildQuery(*repl.last_expansion),
                        &explorer.graph().dict())
                        .c_str());
      } else {
        std::printf("  (run an expansion first)\n");
      }
    } else if (!command.empty()) {
      std::printf("  unknown command '%s'\n", command.c_str());
    }
    std::printf("> ");
    std::fflush(stdout);
  }
  std::printf("\nbye\n");
  return 0;
}
