// lpath_shell — an interactive LPath console over a multi-corpus database,
// in the spirit of the query tools the paper's linguists used.
//
//   ./examples/lpath_shell [--wsj N | --swb N | --corpus FILE.mrg]
//                          [--threads N] [--wal DIR]
//
// The shell fronts a db::Database: several corpora may be attached at
// once, each served by its own QueryService (plan cache + shard pool);
// queries are routed to the current corpus, and a rebuilt index can be
// hot-swapped in (:reload) without restarting. --threads N sizes every
// corpus's query service (1..256, default 4); it is fixed for the session.
//
// Commands:
//   <lpath query>      evaluate (shard-parallel) and print matches
//   .sql <query>       show the SQL translation (what goes to the RDBMS)
//   .plan <query>      show the execution plan IR and each position's
//                      access path
//   .engines <query>   run on all engines that can express it and compare
//   .stats             corpus statistics (Figure 6a/6b style)
//   :open NAME FILE    load a bracketed treebank as corpus NAME and use it
//   :save FILE         write the current corpus's relation as a persistent
//                      image (mmap-able; see storage/image.h)
//   :load NAME FILE    mmap a persistent image as corpus NAME and use it —
//                      O(file size), no labeling or sorting
//   :use NAME          switch queries to corpus NAME
//   :corpora           list attached corpora (snapshot ids, sizes, delta)
//   :ingest FILE       append FILE's trees to the current corpus without
//                      downtime: the base index is untouched, the new trees
//                      land in a small delta relation queried alongside it
//   :compact           merge the current corpus's delta into its base and
//                      hot-swap the compacted snapshot in
//   :reload            rebuild the current corpus's index and hot-swap it
//                      (an image-backed corpus re-opens its image)
//   :cache             plan-cache and latency statistics
//   :wal               durability status: per-corpus write-ahead-log
//                      position and segment count, replayed batches,
//                      checkpoints, and compaction health (--wal DIR
//                      makes every ingest durable: committed to the log
//                      before it is published, replayed on reopen)
//   .help              this text
//   .quit              exit

#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common/str_util.h"
#include "common/timer.h"
#include "db/database.h"
#include "gen/generator.h"
#include "lpath/engines.h"
#include "lpath/eval_nav.h"
#include "tree/bracket_io.h"
#include "tree/stats.h"

namespace {

using namespace lpath;

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  <lpath query>     e.g. //VP{/VB-->NN}\n"
      "  .sql <query>      show the SQL translation\n"
      "  .plan <query>     show the execution-plan IR and access paths\n"
      "  .engines <query>  compare the relational and navigational engines\n"
      "  .stats            corpus statistics\n"
      "  :open NAME FILE   load a bracketed treebank as corpus NAME, use it\n"
      "  :save FILE        write the current relation as a persistent image\n"
      "  :load NAME FILE   mmap a persistent image as corpus NAME, use it\n"
      "  :use NAME         switch queries to corpus NAME\n"
      "  :corpora          list attached corpora\n"
      "  :ingest FILE      append FILE's trees live (delta relation)\n"
      "  :compact          merge the delta into the base index\n"
      "  :reload           rebuild the current index and hot-swap it\n"
      "  :cache            plan-cache and latency statistics\n"
      "  :wal              durability status (WAL position, checkpoints,\n"
      "                    compaction health; enable with --wal DIR)\n"
      "  .help  .quit\n");
}

void PrintServiceStats(const std::string& name,
                       const service::QueryService& service) {
  const service::ServiceStats st = service.Stats();
  std::printf(
      "service[%s]: %d threads, %llu queries (%llu errors, %llu sharded, "
      "%llu serial)\n"
      "plan cache: %zu/%zu plans, %llu hits (%llu negative), %llu misses, "
      "%llu evictions\n"
      "latency: p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, max %.3f ms "
      "(%zu samples)\n"
      "executor: %llu candidates, %llu bindings, %llu subqueries, "
      "%llu shard runs\n"
      "live corpus: %llu ingests, %llu compactions, %llu delta rows "
      "scanned, %llu max sources\n"
      "durability: %llu wal appends (%llu bytes), %llu replayed batches, "
      "%llu checkpoints\n",
      name.c_str(), service.threads(),
      static_cast<unsigned long long>(st.queries),
      static_cast<unsigned long long>(st.errors),
      static_cast<unsigned long long>(st.sharded_queries),
      static_cast<unsigned long long>(st.serial_queries),
      st.cache.size,
      st.cache.capacity, static_cast<unsigned long long>(st.cache.hits),
      static_cast<unsigned long long>(st.cache.negative_hits),
      static_cast<unsigned long long>(st.cache.misses),
      static_cast<unsigned long long>(st.cache.evictions),
      st.latency.p50_ms, st.latency.p90_ms, st.latency.p99_ms,
      st.latency.max_ms, st.latency.samples,
      static_cast<unsigned long long>(st.exec.candidates),
      static_cast<unsigned long long>(st.exec.bindings),
      static_cast<unsigned long long>(st.exec.subqueries),
      static_cast<unsigned long long>(st.exec.shards),
      static_cast<unsigned long long>(st.ingests),
      static_cast<unsigned long long>(st.compactions),
      static_cast<unsigned long long>(st.exec.delta_rows),
      static_cast<unsigned long long>(st.exec.sources),
      static_cast<unsigned long long>(st.wal_appends),
      static_cast<unsigned long long>(st.wal_bytes),
      static_cast<unsigned long long>(st.replayed_batches),
      static_cast<unsigned long long>(st.checkpoints));
}

/// Per-snapshot comparison engines for .stats/.sql/.plan/.engines: rebuilt
/// lazily whenever the current corpus's snapshot changes (swap, :use or
/// :ingest).
struct EngineView {
  SnapshotPtr snap;  ///< the corpus's published snapshot
  /// What the engines read: `snap` itself, or for a built chain its
  /// in-memory Compact(), so base and delta trees are both in view. An
  /// image-backed chain keeps `snap` — compacting it would rewrite the
  /// image from a display path.
  SnapshotPtr flat;
  std::unique_ptr<LPathEngine> lpath;
  std::unique_ptr<NavigationalEngine> nav;

  void Refresh(const SnapshotPtr& current) {
    if (snap != nullptr && current != nullptr && snap == current) return;
    snap = current;
    flat = current;
    if (current->has_delta() && !current->image_backed()) {
      if (Result<SnapshotPtr> merged = current->Compact(); merged.ok()) {
        flat = std::move(merged).value();
      }
    }
    lpath = std::make_unique<LPathEngine>(flat->relation());
    nav = std::make_unique<NavigationalEngine>(flat->corpus());
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string profile = "wsj";
  std::string corpus_path;
  std::string wal_dir;
  int sentences = 1000;
  int threads = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if ((arg == "--wsj" || arg == "--swb") && i + 1 < argc) {
      profile = arg.substr(2);
      sentences = std::atoi(argv[++i]);
    } else if (arg == "--corpus" && i + 1 < argc) {
      corpus_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
      if (threads < 1 || threads > 256) {
        std::fprintf(stderr, "--threads takes 1..256\n");
        return 2;
      }
    } else if (arg == "--wal" && i + 1 < argc) {
      wal_dir = argv[++i];
    }
  }

  db::DatabaseOptions db_opts;
  db_opts.wal_dir = wal_dir;
  if (threads > 0) db_opts.service.threads = threads;
  db::Database db(db_opts);
  std::string current;
  if (!corpus_path.empty()) {
    current = "main";
    Status s = db.Open(current, corpus_path);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", corpus_path.c_str(),
                   s.ToString().c_str());
      return 1;
    }
  } else {
    current = profile;
    Result<Corpus> generated = profile == "wsj"
                                   ? gen::GenerateWsj(sentences)
                                   : gen::GenerateSwb(sentences);
    if (!generated.ok()) {
      std::fprintf(stderr, "%s\n", generated.status().ToString().c_str());
      return 1;
    }
    Status s = db.OpenCorpus(current, std::move(generated).value());
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }

  EngineView view;
  view.Refresh(db.snapshot(current));
  std::printf(
      "lpath_shell — corpus '%s': %zu trees, %zu nodes, %d query threads. "
      "Type .help for help.\n",
      current.c_str(), static_cast<size_t>(view.snap->relation().tree_count()),
      view.snap->relation().element_count(), db.service(current)->threads());

  std::string line;
  while (std::printf("lpath:%s> ", current.c_str()), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::string input(StripWhitespace(line));
    if (input.empty()) continue;
    if (input == ".quit" || input == ".exit" || input == "q") break;
    // One refresh per command: a no-op unless :reload/:open/:use (or a
    // concurrent embedder) changed the current snapshot. Branches that
    // change `current` refresh again after doing so.
    view.Refresh(db.snapshot(current));
    if (input == ".help") {
      PrintHelp();
      continue;
    }
    if (input == ".stats") {
      if (view.snap->image_backed()) {
        const NodeRelation* delta = view.snap->delta_relation();
        std::printf("'%s' is image-backed (%s): %d trees, %zu relation "
                    "rows (%zu in delta), %s mapped bytes; bracketed text "
                    "not stored\n",
                    current.c_str(), view.snap->image_path().c_str(),
                    view.snap->tree_count(),
                    view.snap->relation().row_count() +
                        (delta != nullptr ? delta->row_count() : 0),
                    delta != nullptr ? delta->row_count() : 0,
                    FormatWithCommas(static_cast<int64_t>(
                        view.snap->relation().MemoryBytes()))
                        .c_str());
        continue;
      }
      CorpusStats stats = ComputeStats(view.flat->corpus());
      std::printf("trees %zu, nodes %zu, words %zu, unique tags %zu, "
                  "max depth %d, bracketed size %s bytes\n",
                  stats.tree_count, stats.node_count, stats.word_count,
                  stats.unique_tags, stats.max_depth,
                  FormatWithCommas(stats.file_size_bytes).c_str());
      for (const auto& [tag, n] : stats.TopTags(10)) {
        std::printf("  %-12s %s\n", tag.c_str(),
                    FormatWithCommas(n).c_str());
      }
      continue;
    }
    if (StartsWith(input, ":open ")) {
      std::istringstream args(input.substr(6));
      std::string name, file;
      args >> name >> file;
      if (name.empty() || file.empty()) {
        std::printf("usage: :open NAME FILE\n");
        continue;
      }
      Status s = db.Open(name, file);
      if (!s.ok()) {
        std::printf("error: %s\n", s.ToString().c_str());
        continue;
      }
      current = name;
      view.Refresh(db.snapshot(current));
      std::printf("opened '%s': %zu trees, %zu nodes (now current)\n",
                  name.c_str(), view.snap->corpus().size(),
                  view.snap->corpus().TotalNodes());
      continue;
    }
    if (StartsWith(input, ":save ")) {
      const std::string file(StripWhitespace(input.substr(6)));
      if (file.empty()) {
        std::printf("usage: :save FILE\n");
        continue;
      }
      Timer timer;
      Status s = view.snap->Save(file);
      if (!s.ok()) {
        std::printf("error: %s\n", s.ToString().c_str());
        continue;
      }
      std::printf("saved '%s' as image %s (%.1f ms); :load it in O(file "
                  "size)\n",
                  current.c_str(), file.c_str(),
                  timer.ElapsedSeconds() * 1e3);
      continue;
    }
    if (StartsWith(input, ":load ")) {
      std::istringstream args(input.substr(6));
      std::string name, file;
      args >> name >> file;
      if (name.empty() || file.empty()) {
        std::printf("usage: :load NAME FILE\n");
        continue;
      }
      Timer timer;
      Status s = db.OpenImage(name, file);
      if (!s.ok()) {
        std::printf("error: %s\n", s.ToString().c_str());
        continue;
      }
      current = name;
      view.Refresh(db.snapshot(current));
      std::printf("mapped '%s': %d trees, %zu relation rows in %.1f ms — "
                  "no labeling, no sorting (now current)\n",
                  name.c_str(), view.snap->relation().tree_count(),
                  view.snap->relation().row_count(),
                  timer.ElapsedSeconds() * 1e3);
      continue;
    }
    if (StartsWith(input, ":use ")) {
      const std::string name(StripWhitespace(input.substr(5)));
      if (!db.Has(name)) {
        std::printf("no corpus '%s' — see :corpora\n", name.c_str());
        continue;
      }
      current = name;
      view.Refresh(db.snapshot(current));
      std::printf("using '%s'\n", name.c_str());
      continue;
    }
    if (input == ":corpora") {
      for (const db::CorpusInfo& info : db.List()) {
        std::printf("  %c %-10s snapshot #%llu  %zu trees (%zu in delta), "
                    "%zu nodes, %s relation bytes, %d threads\n",
                    info.name == current ? '*' : ' ', info.name.c_str(),
                    static_cast<unsigned long long>(info.snapshot_id),
                    info.trees, info.delta_trees, info.nodes,
                    FormatWithCommas(info.relation_bytes).c_str(),
                    info.threads);
      }
      continue;
    }
    if (StartsWith(input, ":ingest ")) {
      const std::string file(StripWhitespace(input.substr(8)));
      if (file.empty()) {
        std::printf("usage: :ingest FILE\n");
        continue;
      }
      Corpus incoming;
      Status s = LoadBracketFile(file, &incoming);
      if (s.ok() && incoming.empty()) {
        s = Status::InvalidArgument("no trees in " + file);
      }
      const size_t added = incoming.size();
      if (s.ok()) s = db.Ingest(current, std::move(incoming));
      if (!s.ok()) {
        std::printf("error: %s\n", s.ToString().c_str());
        continue;
      }
      view.Refresh(db.snapshot(current));
      std::printf("ingested %zu trees into '%s' — %d in the delta, base "
                  "index untouched; queries see them now\n",
                  added, current.c_str(), view.snap->delta_tree_count());
      continue;
    }
    if (input == ":compact") {
      Timer timer;
      const int32_t delta = view.snap->delta_tree_count();
      Status s = db.Compact(current);
      if (!s.ok()) {
        std::printf("error: %s\n", s.ToString().c_str());
        continue;
      }
      view.Refresh(db.snapshot(current));
      if (delta == 0) {
        std::printf("'%s' has no delta — nothing to compact\n",
                    current.c_str());
      } else {
        std::printf("compacted %d delta trees into '%s' (%.1f ms); now "
                    "snapshot #%llu, %d trees single-source\n",
                    delta, current.c_str(), timer.ElapsedSeconds() * 1e3,
                    static_cast<unsigned long long>(view.snap->id()),
                    view.snap->tree_count());
      }
      continue;
    }
    if (input == ":reload") {
      Timer timer;
      Status s = db.Reload(current);
      if (!s.ok()) {
        std::printf("error: %s\n", s.ToString().c_str());
        continue;
      }
      view.Refresh(db.snapshot(current));
      std::printf("rebuilt and swapped '%s' to snapshot #%llu (%.1f ms); "
                  "in-flight queries kept the old one\n",
                  current.c_str(),
                  static_cast<unsigned long long>(view.snap->id()),
                  timer.ElapsedSeconds() * 1e3);
      continue;
    }
    if (input == ":cache") {
      PrintServiceStats(current, *db.service(current));
      continue;
    }
    if (input == ":wal") {
      if (db_opts.wal_dir.empty()) {
        std::printf("durability is off — restart with --wal DIR to commit "
                    "every ingest to a write-ahead log before it is "
                    "published (and replay it on reopen)\n");
        continue;
      }
      std::printf("wal dir: %s (fsync per commit)\n",
                  db_opts.wal_dir.c_str());
      for (const db::CorpusInfo& info : db.List()) {
        if (!info.wal) {
          std::printf("  %c %-10s no log\n",
                      info.name == current ? '*' : ' ', info.name.c_str());
          continue;
        }
        std::printf("  %c %-10s lsn %llu, %llu segment%s",
                    info.name == current ? '*' : ' ', info.name.c_str(),
                    static_cast<unsigned long long>(info.wal_last_lsn),
                    static_cast<unsigned long long>(info.wal_segments),
                    info.wal_segments == 1 ? "" : "s");
        if (info.compaction_failures > 0) {
          std::printf(", %llu compaction failure%s%s%s",
                      static_cast<unsigned long long>(
                          info.compaction_failures),
                      info.compaction_failures == 1 ? "" : "s",
                      info.last_compaction_error.empty() ? "" : ": ",
                      info.last_compaction_error.c_str());
        }
        std::printf("\n");
      }
      const service::ServiceStats st = db.service(current)->Stats();
      std::printf("'%s' session: %llu appends (%llu bytes), %llu replayed "
                  "batches, %llu checkpoints\n",
                  current.c_str(),
                  static_cast<unsigned long long>(st.wal_appends),
                  static_cast<unsigned long long>(st.wal_bytes),
                  static_cast<unsigned long long>(st.replayed_batches),
                  static_cast<unsigned long long>(st.checkpoints));
      continue;
    }
    if (StartsWith(input, ".sql ")) {
      Result<std::string> sql = view.lpath->TranslateToSql(input.substr(5));
      std::printf("%s\n", sql.ok() ? sql->c_str()
                                   : sql.status().ToString().c_str());
      continue;
    }
    if (StartsWith(input, ".plan ")) {
      Result<ExecPlan> plan = view.lpath->Translate(input.substr(6));
      std::printf("%s\n", plan.ok() ? plan->DebugString().c_str()
                                    : plan.status().ToString().c_str());
      if (plan.ok() && view.snap != nullptr) {
        // The access path each position runs on, over the relation the
        // engines read.
        const NodeRelation& rel = view.flat->relation();
        Result<std::unique_ptr<sql::PreparedPlan>> pp =
            sql::Prepare(plan.value(), rel, {});
        std::printf("%s", pp.ok() ? sql::ExplainAccess(**pp, &rel.interner())
                                        .c_str()
                                  : pp.status().ToString().c_str());
      }
      continue;
    }
    if (StartsWith(input, ".engines ")) {
      if (view.snap->image_backed()) {
        std::printf("engine comparison needs corpus trees; '%s' is "
                    "image-backed (the relational engine is what :load "
                    "serves)\n",
                    current.c_str());
        continue;
      }
      const std::string q = input.substr(9);
      for (const QueryEngine* e : std::initializer_list<const QueryEngine*>{
               view.lpath.get(), view.nav.get()}) {
        Timer timer;
        Result<QueryResult> r = e->Run(q);
        const double secs = timer.ElapsedSeconds();
        if (r.ok()) {
          std::printf("  %-14s %8zu matches   %.3f ms\n", e->name().c_str(),
                      r->count(), secs * 1e3);
        } else {
          std::printf("  %-14s %s\n", e->name().c_str(),
                      r.status().ToString().c_str());
        }
      }
      continue;
    }

    // Resolve the corpus once for printing the matched trees. The shell is
    // single-threaded, so this is the same snapshot Query() runs against;
    // and across :reload swaps the corpus object is shared anyway, so the
    // result tids stay valid for it either way.
    const SnapshotPtr snap = db.snapshot(current);
    Timer timer;
    Result<QueryResult> r = db.Query(current, input);
    if (!r.ok()) {
      std::printf("error: %s\n", r.status().ToString().c_str());
      continue;
    }
    std::printf("%zu matches (%.3f ms)\n", r->count(),
                timer.ElapsedSeconds() * 1e3);
    int shown = 0;
    int32_t last_tid = -1;
    for (const Hit& hit : r->hits) {
      if (hit.tid == last_tid) continue;
      last_tid = hit.tid;
      if (shown >= 3) break;
      // Chain-aware: TreeAt resolves base and delta tids alike, and is
      // null exactly when the tree has no bracketed text to print (the
      // mapped base of an image-backed corpus).
      const Tree* tree = snap->TreeAt(hit.tid);
      if (tree == nullptr) continue;
      ++shown;
      std::string text;
      WriteBracketTree(*tree, snap->interner(), &text);
      if (text.size() > 140) text = text.substr(0, 137) + "...";
      std::printf("  [%d] %s\n", hit.tid, text.c_str());
    }
  }
  return 0;
}
