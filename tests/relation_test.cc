// Tests for the clustered node relation and its access paths.

#include "storage/relation.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "gen/generator.h"
#include "storage/image.h"
#include "storage/snapshot.h"

#include "test_util.h"

namespace lpath {
namespace {

using testing::BuildFigure1Corpus;
using testing::RandomCorpus;

class Figure1RelationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = BuildFigure1Corpus();
    Result<NodeRelation> rel = NodeRelation::Build(corpus_);
    ASSERT_TRUE(rel.ok()) << rel.status();
    rel_ = std::make_unique<NodeRelation>(std::move(rel).value());
  }
  Corpus corpus_;
  std::unique_ptr<NodeRelation> rel_;
};

TEST_F(Figure1RelationTest, RowCountIsNodesPlusAttrs) {
  // 15 element nodes + 9 @lex attributes.
  EXPECT_EQ(rel_->row_count(), 24u);
  EXPECT_EQ(rel_->element_count(), 15u);
  EXPECT_EQ(rel_->tree_count(), 1);
}

TEST_F(Figure1RelationTest, ClusteredOrderGroupsByName) {
  const Symbol np = corpus_.Lookup("NP");
  RowRange run = rel_->run(np);
  EXPECT_EQ(run.size(), 4u);  // NP(I), NP6, NP7, NP(a dog)
  // Sorted by (tid, left, right) within the run.
  for (Row r = run.begin; r + 1 < run.end; ++r) {
    EXPECT_LE(rel_->left(r), rel_->left(r + 1));
    EXPECT_EQ(rel_->name(r), np);
  }
}

TEST_F(Figure1RelationTest, NameCardinality) {
  EXPECT_EQ(rel_->NameCardinality(corpus_.Lookup("NP")), 4u);
  EXPECT_EQ(rel_->NameCardinality(corpus_.Lookup("N")), 3u);
  EXPECT_EQ(rel_->NameCardinality(corpus_.Lookup("S")), 1u);
  EXPECT_EQ(rel_->NameCardinality(corpus_.Lookup("@lex")), 9u);
  EXPECT_EQ(rel_->NameCardinality(kNoSymbol), 0u);
}

TEST_F(Figure1RelationTest, AttributeRowsShareElementLabels) {
  // The V row and its @lex row have identical labels (Definition 4.1 rule 8).
  const Symbol v = corpus_.Lookup("V");
  RowRange vrun = rel_->run(v);
  ASSERT_EQ(vrun.size(), 1u);
  const Row vrow = vrun.begin;
  EXPECT_FALSE(rel_->is_attr(vrow));

  auto attrs = rel_->AttrRows(0, rel_->id(vrow));
  ASSERT_EQ(attrs.size(), 1u);
  const Row arow = attrs[0];
  EXPECT_TRUE(rel_->is_attr(arow));
  EXPECT_EQ(rel_->label(arow), rel_->label(vrow));
  EXPECT_EQ(rel_->interner().name(rel_->name(arow)), "@lex");
  EXPECT_EQ(rel_->interner().name(rel_->value(arow)), "saw");
}

TEST_F(Figure1RelationTest, ValueIndex) {
  auto saw_rows = rel_->ValueRange(corpus_.Lookup("saw"));
  ASSERT_EQ(saw_rows.size(), 1u);
  EXPECT_EQ(rel_->left(saw_rows[0]), 2);
  EXPECT_EQ(rel_->right(saw_rows[0]), 3);
  EXPECT_TRUE(rel_->ValueRange(corpus_.Lookup("nonexistent")).empty());
  EXPECT_EQ(rel_->ValueCardinality(corpus_.Lookup("saw")), 1u);
}

TEST_F(Figure1RelationTest, ElementRowLookup) {
  // id 1 = the root S (pre-order).
  Row s = rel_->ElementRow(0, 1);
  ASSERT_NE(s, kNoRow);
  EXPECT_EQ(rel_->interner().name(rel_->name(s)), "S");
  EXPECT_EQ(rel_->left(s), 1);
  EXPECT_EQ(rel_->right(s), 10);
  EXPECT_EQ(rel_->ElementRow(0, 99), kNoRow);
  EXPECT_EQ(rel_->ElementRow(5, 1), kNoRow);
  EXPECT_EQ(rel_->ElementRow(0, 0), kNoRow);
}

TEST_F(Figure1RelationTest, RunLeftRange) {
  // NPs with left in [3, 9) in tree 0: NP6 (l=3), NP7 (l=3), NP(a dog) (l=7).
  const Symbol np = corpus_.Lookup("NP");
  const RowRange slice = rel_->RunForTree(np, 0);
  EXPECT_EQ(slice.size(), 4u);
  RowRange rng = rel_->LeftRangeIn(slice, 3, 9);
  EXPECT_EQ(rng.size(), 3u);
  // Empty for a bogus tree and inverted bounds.
  EXPECT_TRUE(rel_->RunForTree(np, 7).empty());
  EXPECT_TRUE(rel_->LeftRangeIn(rel_->RunForTree(np, 7), 0, 100).empty());
  EXPECT_TRUE(rel_->LeftRangeIn(slice, 5, 5).empty());
}

TEST_F(Figure1RelationTest, RunRightRange) {
  // NPs with right == 9: NP6 [3,9] and NP(a dog) [7,9].
  const Symbol np = corpus_.Lookup("NP");
  auto rows = rel_->RightRangeIn(rel_->RunForTree(np, 0), 9, 10);
  EXPECT_EQ(rows.size(), 2u);
  for (Row r : rows) EXPECT_EQ(rel_->right(r), 9);
  EXPECT_TRUE(rel_->RightRangeIn(rel_->RunForTree(np, 0), 9, 9).empty());
}

TEST_F(Figure1RelationTest, RunPidRange) {
  // Children of NP7 (Det, Adj, N): by tag.
  const Symbol np = corpus_.Lookup("NP");
  RowRange np_run = rel_->RunForTree(np, 0);
  // find NP7: left=3, right=6
  Row np7 = kNoRow;
  for (Row r = np_run.begin; r < np_run.end; ++r) {
    if (rel_->left(r) == 3 && rel_->right(r) == 6) np7 = r;
  }
  ASSERT_NE(np7, kNoRow);
  auto dets = rel_->PidRangeIn(rel_->RunForTree(corpus_.Lookup("Det"), 0),
                               rel_->id(np7));
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(rel_->left(dets[0]), 3);
  auto ns = rel_->PidRangeIn(rel_->RunForTree(corpus_.Lookup("N"), 0),
                             rel_->id(np7));
  ASSERT_EQ(ns.size(), 1u);
  EXPECT_EQ(rel_->left(ns[0]), 5);
}

/// Checks the slice-relative searches against a filter of the corpus-wide
/// run, for every (tag, tree) of `rel` under random bounds: the slice is
/// the run's rows of that tree, and each search inside it returns exactly
/// the slice rows its bounds select, in its documented order.
void CheckSliceSearches(const NodeRelation& rel, uint64_t seed) {
  Rng rng(seed);
  size_t checked = 0;
  for (Symbol name = 0; name < rel.interner().end_id(); ++name) {
    const RowRange run = rel.run(name);
    if (run.empty()) continue;
    for (int32_t t = 0; t < rel.tree_count(); ++t) {
      std::vector<Row> in_tree;
      for (Row r = run.begin; r < run.end; ++r) {
        if (rel.tid(r) == t) in_tree.push_back(r);
      }
      const RowRange slice = rel.RunForTree(name, t);
      ASSERT_EQ(slice.size(), in_tree.size());
      if (in_tree.empty()) continue;
      ASSERT_EQ(slice.begin, in_tree.front());
      int32_t max_right = 0;
      for (Row r : in_tree) max_right = std::max(max_right, rel.right(r));
      for (int trial = 0; trial < 4; ++trial) {
        const int32_t a = static_cast<int32_t>(rng.Below(max_right + 2));
        const int32_t b = static_cast<int32_t>(rng.Below(max_right + 2));
        const int32_t lo = std::min(a, b);
        const int32_t hi = std::max(a, b);

        std::vector<Row> want;
        for (Row r : in_tree) {
          if (rel.left(r) >= lo && rel.left(r) < hi) want.push_back(r);
        }
        const RowRange left = rel.LeftRangeIn(slice, lo, hi);
        std::vector<Row> got;
        for (Row r = left.begin; r < left.end; ++r) got.push_back(r);
        ASSERT_EQ(got, want) << "left [" << lo << "," << hi << ") tree " << t;

        want.clear();
        for (Row r : in_tree) {
          if (rel.right(r) >= lo && rel.right(r) < hi) want.push_back(r);
        }
        const std::span<const Row> right = rel.RightRangeIn(slice, lo, hi);
        got.assign(right.begin(), right.end());
        ASSERT_TRUE(std::is_sorted(got.begin(), got.end(), [&](Row x, Row y) {
          return rel.right(x) < rel.right(y);
        }));
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, want) << "right [" << lo << "," << hi << ") tree " << t;

        // A pid drawn from the tree's rows, or one no row has.
        const int32_t p =
            trial == 3 ? -1
                       : rel.pid(in_tree[rng.Below(in_tree.size())]);
        want.clear();
        for (Row r : in_tree) {
          if (rel.pid(r) == p) want.push_back(r);
        }
        const std::span<const Row> pid = rel.PidRangeIn(slice, p);
        got.assign(pid.begin(), pid.end());
        ASSERT_TRUE(std::is_sorted(got.begin(), got.end(), [&](Row x, Row y) {
          return rel.left(x) < rel.left(y);
        }));
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, want) << "pid " << p << " tree " << t;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

/// Checks the per-tree tag directory against a filter of the corpus-wide
/// run for every (tag, tid) pair, unknown tags (kNoSymbol and ids past the
/// dictionary) and tids outside [0, tree_count()) included: RunForTree
/// returns exactly the run's rows of that tree. `*nonempty` receives the
/// number of non-empty slices checked.
void CheckTagDirectory(const NodeRelation& rel, size_t* nonempty) {
  *nonempty = 0;
  for (Symbol name = 0; name < rel.interner().end_id() + 3; ++name) {
    const RowRange run = rel.run(name);
    for (int32_t t = -2; t < rel.tree_count() + 2; ++t) {
      std::vector<Row> want;
      for (Row r = run.begin; r < run.end; ++r) {
        if (rel.tid(r) == t) want.push_back(r);
      }
      const RowRange slice = rel.RunForTree(name, t);
      std::vector<Row> got;
      for (Row r = slice.begin; r < slice.end; ++r) got.push_back(r);
      ASSERT_EQ(got, want) << "tag " << name << " tree " << t;
      *nonempty += want.empty() ? 0 : 1;
    }
  }
}

TEST(RelationSliceTest, TagDirectoryMatchesRunFilterOnBuiltRelation) {
  Result<Corpus> corpus = gen::GenerateWsj(60, /*seed=*/8);
  ASSERT_TRUE(corpus.ok());
  Result<NodeRelation> rel = NodeRelation::Build(std::move(corpus).value());
  ASSERT_TRUE(rel.ok());
  size_t slices = 0;
  CheckTagDirectory(rel.value(), &slices);
  EXPECT_GT(slices, 0u);
  const Corpus empty;
  Result<NodeRelation> none = NodeRelation::Build(empty);
  ASSERT_TRUE(none.ok());
  CheckTagDirectory(none.value(), &slices);
  EXPECT_EQ(slices, 0u);
}

TEST(RelationSliceTest, TagDirectoryMatchesRunFilterOnMergedRelation) {
  // The SWB batches bring tags the WSJ base never had. The second append
  // merges its batch onto the delta; compaction merges base and delta.
  Result<Corpus> base = gen::GenerateWsj(40, /*seed=*/9);
  Result<Corpus> batch1 = gen::GenerateSwb(25, /*seed=*/10);
  Result<Corpus> batch2 = gen::GenerateSwb(15, /*seed=*/12);
  ASSERT_TRUE(base.ok() && batch1.ok() && batch2.ok());
  Result<SnapshotPtr> snap = CorpusSnapshot::Build(std::move(base).value());
  ASSERT_TRUE(snap.ok());
  Result<SnapshotPtr> chain1 = (*snap)->Append(batch1.value());
  ASSERT_TRUE(chain1.ok());
  Result<SnapshotPtr> chain = (*chain1)->Append(batch2.value());
  ASSERT_TRUE(chain.ok());
  ASSERT_EQ((*chain)->delta_tree_count(), 40);
  size_t slices = 0;
  CheckTagDirectory(*(*chain)->delta_relation(), &slices);
  EXPECT_GT(slices, 0u);
  Result<SnapshotPtr> merged = (*chain)->Compact();
  ASSERT_TRUE(merged.ok()) << merged.status();
  CheckTagDirectory((*merged)->relation(), &slices);
  EXPECT_GT(slices, 0u);
}

TEST(RelationSliceTest, TagDirectoryMatchesRunFilterOnOpenedImage) {
  Result<Corpus> corpus = gen::GenerateWsj(50, /*seed=*/11);
  ASSERT_TRUE(corpus.ok());
  Result<NodeRelation> built = NodeRelation::Build(std::move(corpus).value());
  ASSERT_TRUE(built.ok());
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("lpathdb_relation_tag_dir_" + std::to_string(::getpid()) + ".img"))
          .string();
  ASSERT_TRUE(ImageIO::Save(built.value(), path).ok());
  const uint64_t builds = NodeRelation::BuildCount();
  Result<NodeRelation> opened = ImageIO::Open(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(NodeRelation::BuildCount(), builds);
  EXPECT_EQ(opened->MemoryBytes(), built->MemoryBytes());
  size_t slices = 0;
  CheckTagDirectory(opened.value(), &slices);
  EXPECT_GT(slices, 0u);
}

TEST(RelationSliceTest, SliceSearchesMatchRunFilterOnWsjCorpus) {
  Result<Corpus> corpus = gen::GenerateWsj(60, /*seed=*/8);
  ASSERT_TRUE(corpus.ok());
  Result<NodeRelation> rel = NodeRelation::Build(std::move(corpus).value());
  ASSERT_TRUE(rel.ok());
  CheckSliceSearches(rel.value(), /*seed=*/1);
}

TEST(RelationSliceTest, SliceSearchesMatchRunFilterOnMergedRelation) {
  // Compaction merges a base and a delta relation (NodeRelation::Merge)
  // into one whose per-run orders concatenate the sources'.
  Result<Corpus> base = gen::GenerateWsj(40, /*seed=*/9);
  Result<Corpus> delta = gen::GenerateWsj(25, /*seed=*/10);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(delta.ok());
  Result<SnapshotPtr> snap = CorpusSnapshot::Build(std::move(base).value());
  ASSERT_TRUE(snap.ok());
  Result<SnapshotPtr> chain = (*snap)->Append(delta.value());
  ASSERT_TRUE(chain.ok());
  Result<SnapshotPtr> merged = (*chain)->Compact();
  ASSERT_TRUE(merged.ok()) << merged.status();
  ASSERT_FALSE((*merged)->has_delta());
  EXPECT_EQ((*merged)->relation().tree_count(), 65);
  CheckSliceSearches((*merged)->relation(), /*seed=*/2);
}

TEST(RelationTest, RandomCorpusConsistency) {
  Corpus corpus = RandomCorpus(/*seed=*/77, /*trees=*/30);
  Result<NodeRelation> built = NodeRelation::Build(corpus);
  ASSERT_TRUE(built.ok());
  const NodeRelation& rel = built.value();

  // Every element of every tree is reachable through ElementRow and carries
  // consistent columns.
  size_t elements = 0;
  for (TreeId tid = 0; tid < static_cast<TreeId>(corpus.size()); ++tid) {
    const Tree& t = corpus.tree(tid);
    for (NodeId i = 0; i < static_cast<NodeId>(t.size()); ++i) {
      Row r = rel.ElementRow(tid, i + 1);
      ASSERT_NE(r, kNoRow);
      EXPECT_EQ(rel.tid(r), tid);
      EXPECT_EQ(rel.id(r), i + 1);
      EXPECT_EQ(rel.name(r), t.name(i));
      EXPECT_FALSE(rel.is_attr(r));
      ++elements;
    }
  }
  EXPECT_EQ(rel.element_count(), elements);

  // Runs partition the row space.
  size_t covered = 0;
  for (Symbol s = 1; s < corpus.interner().end_id(); ++s) {
    covered += rel.run(s).size();
  }
  EXPECT_EQ(covered, rel.row_count());
  EXPECT_GT(rel.MemoryBytes(), 0u);
}

TEST(RelationTest, XPathSchemeBuilds) {
  Corpus corpus = RandomCorpus(/*seed=*/78, /*trees=*/10);
  RelationOptions opts;
  opts.scheme = LabelScheme::kXPath;
  Result<NodeRelation> built = NodeRelation::Build(corpus, opts);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->scheme(), LabelScheme::kXPath);
  // Tag positions: strict nesting means left < right always, and the root
  // of each tree spans [1, 2*size].
  for (TreeId tid = 0; tid < static_cast<TreeId>(corpus.size()); ++tid) {
    Row root = built->ElementRow(tid, 1);
    ASSERT_NE(root, kNoRow);
    EXPECT_EQ(built->left(root), 1);
    EXPECT_EQ(built->right(root),
              static_cast<int32_t>(2 * corpus.tree(tid).size()));
  }
}

TEST(RelationTest, EmptyCorpus) {
  Corpus corpus;
  Result<NodeRelation> built = NodeRelation::Build(corpus);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->row_count(), 0u);
  EXPECT_EQ(built->tree_count(), 0);
}

}  // namespace
}  // namespace lpath
