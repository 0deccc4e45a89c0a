// lpath_pack — offline converter from corpora to persistent relation
// images, the "load the treebank into the RDBMS once" step of the paper's
// workflow. The written image is opened by Database::Open / lpath_shell
// :load / CorpusSnapshot::Open in O(file size), with no labeling and no
// sorting at serve time.
//
//   ./examples/lpath_pack [--wsj N | --swb N | --skewed N | --corpus FILE.mrg]
//                         [--scheme lpath|xpath] [--seed S] OUT.img
//   ./examples/lpath_pack --append IMG.img [--wsj N | --corpus FILE.mrg]
//
// Examples:
//   lpath_pack --wsj 4000 wsj.img          # generated WSJ profile corpus
//   lpath_pack --corpus wsj.mrg wsj.img    # bracketed treebank file
//   lpath_pack --corpus wsj.mrg --scheme xpath wsj-xpath.img
//   lpath_pack --append wsj.img more.mrg   # offline delta merge into image
//
// Every section is stored verbatim, so the image is served straight out
// of the mapping; the tool prints the image's size in bytes.
//
// `--append IMG` is the offline twin of the shell's :ingest + :compact: it
// opens the existing image in O(file size), appends the input trees as a
// delta (the mapped base is never relabeled or resorted), merges the delta
// into a new image via the compaction path, and rewrites IMG crash-safely
// (tmp + rename).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common/str_util.h"
#include "common/timer.h"
#include "gen/generator.h"
#include "storage/snapshot.h"
#include "tree/bracket_io.h"

namespace {

using namespace lpath;

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--wsj N | --swb N | --skewed N | --corpus FILE.mrg]\n"
      "          [--scheme lpath|xpath] [--seed S] OUT.img\n"
      "       %s --append IMG.img [--wsj N | --corpus FILE.mrg]\n",
      argv0, argv0);
  return 2;
}

/// The written image's size, as the last line of the pack/append report.
std::string ImageBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t bytes = std::filesystem::file_size(path, ec);
  return ec ? std::string("?") : FormatWithCommas(static_cast<int64_t>(bytes));
}

}  // namespace

int main(int argc, char** argv) {
  std::string profile = "wsj";
  std::string corpus_path;
  std::string out_path;
  std::string append_image;
  int sentences = 1000;
  uint64_t seed = 2006;
  RelationOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "--wsj" || arg == "--swb" || arg == "--skewed") &&
        i + 1 < argc) {
      profile = arg.substr(2);
      sentences = std::atoi(argv[++i]);
    } else if (arg == "--corpus" && i + 1 < argc) {
      corpus_path = argv[++i];
    } else if (arg == "--append" && i + 1 < argc) {
      append_image = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--scheme" && i + 1 < argc) {
      const std::string scheme = argv[++i];
      if (scheme == "lpath") {
        options.scheme = LabelScheme::kLPath;
      } else if (scheme == "xpath") {
        options.scheme = LabelScheme::kXPath;
      } else {
        return Usage(argv[0]);
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage(argv[0]);
    } else if (out_path.empty()) {
      out_path = arg;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!append_image.empty()) {
    // In append mode the positional argument is the input treebank (same
    // as --corpus); a generator profile works too, and the image is the
    // output.
    if (corpus_path.empty() && !out_path.empty()) corpus_path = out_path;
    out_path = append_image;
  } else if (out_path.empty()) {
    return Usage(argv[0]);
  }

  // 1. Load or generate the corpus.
  Timer load_timer;
  Corpus corpus;
  if (!corpus_path.empty()) {
    Status s = LoadBracketFile(corpus_path, &corpus);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", corpus_path.c_str(),
                   s.ToString().c_str());
      return 1;
    }
  } else {
    Result<Corpus> generated =
        profile == "wsj"    ? gen::GenerateWsj(sentences, seed)
        : profile == "swb"  ? gen::GenerateSwb(sentences, seed)
                            : gen::GenerateSkewed(sentences, seed);
    if (!generated.ok()) {
      std::fprintf(stderr, "%s\n", generated.status().ToString().c_str());
      return 1;
    }
    corpus = std::move(generated).value();
  }
  const double load_s = load_timer.ElapsedSeconds();
  const size_t trees = corpus.size();
  const size_t nodes = corpus.TotalNodes();
  if (trees == 0) {
    std::fprintf(stderr, "no trees to pack (empty corpus)\n");
    return 1;
  }

  if (!append_image.empty()) {
    // Offline delta merge: map the image, append the new trees as a delta
    // (only they are labeled — O(new trees)), fold the chain back into the
    // image via the compaction path.
    Timer open_timer;
    Result<SnapshotPtr> base = CorpusSnapshot::Open(append_image);
    if (!base.ok()) {
      std::fprintf(stderr, "cannot open %s: %s\n", append_image.c_str(),
                   base.status().ToString().c_str());
      return 1;
    }
    const int32_t base_trees = (*base)->tree_count();
    const double open_s = open_timer.ElapsedSeconds();
    Timer append_timer;
    Result<SnapshotPtr> chained = (*base)->Append(corpus);
    if (!chained.ok()) {
      std::fprintf(stderr, "%s\n", chained.status().ToString().c_str());
      return 1;
    }
    const double append_s = append_timer.ElapsedSeconds();
    Timer merge_timer;
    Result<SnapshotPtr> compacted = (*chained)->Compact();
    if (!compacted.ok()) {
      std::fprintf(stderr, "%s\n", compacted.status().ToString().c_str());
      return 1;
    }
    const double merge_s = merge_timer.ElapsedSeconds();
    std::printf(
        "appended %zu trees (%s nodes) onto %s (%d trees) — now %d trees, "
        "%s relation rows\n"
        "  load %.1f ms, map %.1f ms, label+append %.1f ms, merge+rewrite "
        "%.1f ms\n",
        trees, FormatWithCommas(static_cast<int64_t>(nodes)).c_str(),
        append_image.c_str(), base_trees, (*compacted)->tree_count(),
        FormatWithCommas(
            static_cast<int64_t>((*compacted)->relation().row_count()))
            .c_str(),
        load_s * 1e3, open_s * 1e3, append_s * 1e3, merge_s * 1e3);
    std::printf("  image %s bytes\n", ImageBytes(append_image).c_str());
    return 0;
  }

  // 2. Label + sort + index (the cost the image amortizes away).
  Timer build_timer;
  Result<SnapshotPtr> snapshot =
      CorpusSnapshot::Build(std::move(corpus), options);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "%s\n", snapshot.status().ToString().c_str());
    return 1;
  }
  const double build_s = build_timer.ElapsedSeconds();

  // 3. Serialize.
  Timer save_timer;
  Status s = (*snapshot)->Save(out_path);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  const double save_s = save_timer.ElapsedSeconds();

  std::printf(
      "packed %zu trees (%s nodes, %s relation rows) into %s\n"
      "  load %.1f ms, label+sort+index %.1f ms, write %.1f ms\n",
      trees, FormatWithCommas(static_cast<int64_t>(nodes)).c_str(),
      FormatWithCommas(
          static_cast<int64_t>((*snapshot)->relation().row_count()))
          .c_str(),
      out_path.c_str(), load_s * 1e3, build_s * 1e3, save_s * 1e3);
  std::printf(
      "  image %s bytes\n"
      "  open it with lpath_shell ':load NAME %s' — no rebuild at serve "
      "time\n",
      ImageBytes(out_path).c_str(), out_path.c_str());
  return 0;
}
