// Tests for the labeling schemes and the Table 2 axis predicates.
//
// The heart of this file is the golden test against Figure 5 of the paper
// (the relational representation of the Figure 1 tree) and property tests
// checking the containment and adjacency properties of Section 4 against
// the navigational ground truth on random trees.

#include <gtest/gtest.h>

#include <vector>

#include "label/axes.h"
#include "label/labeler.h"
#include "test_util.h"

namespace lpath {
namespace {

using testing::BuildFigure1Tree;
using testing::RandomTree;
using testing::StructuralMatches;

class Figure1LabelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tree_ = BuildFigure1Tree(&interner_);
    ComputeLPathLabels(tree_, &labels_);
  }
  Interner interner_;
  Tree tree_;
  std::vector<Label> labels_;
};

TEST_F(Figure1LabelTest, MatchesFigure5) {
  ASSERT_EQ(labels_.size(), 15u);
  // (left, right, depth) triplets in pre-order, per Figures 1 and 5.
  const int expected[15][3] = {
      {1, 10, 1},  // S
      {1, 2, 2},   // NP (I)
      {2, 9, 2},   // VP
      {2, 3, 3},   // V (saw)
      {3, 9, 3},   // NP
      {3, 6, 4},   // NP
      {3, 4, 5},   // Det (the)
      {4, 5, 5},   // Adj (old)
      {5, 6, 5},   // N (man)
      {6, 9, 4},   // PP
      {6, 7, 5},   // Prep (with)
      {7, 9, 5},   // NP
      {7, 8, 6},   // Det (a)
      {8, 9, 6},   // N (dog)
      {9, 10, 2},  // N (today)
  };
  for (int i = 0; i < 15; ++i) {
    EXPECT_EQ(labels_[i].left, expected[i][0]) << "node " << i;
    EXPECT_EQ(labels_[i].right, expected[i][1]) << "node " << i;
    EXPECT_EQ(labels_[i].depth, expected[i][2]) << "node " << i;
  }
}

TEST_F(Figure1LabelTest, IdsAreNonzeroAndPidsLink) {
  for (int i = 0; i < 15; ++i) {
    EXPECT_EQ(labels_[i].id, i + 1);
    if (tree_.parent(i) == kNoNode) {
      EXPECT_EQ(labels_[i].pid, 0);
    } else {
      EXPECT_EQ(labels_[i].pid, labels_[tree_.parent(i)].id);
    }
  }
}

TEST_F(Figure1LabelTest, Example41FromThePaper) {
  // Example 4.1: S (l=1,r=10,d=1) is an ancestor of NP6 (l=3,r=9,d=3), and
  // V (l=2,r=3,d=3) immediately precedes NP6 since NP6.l = V.r.
  const Label s = labels_[0];
  const Label np6 = labels_[4];
  const Label v = labels_[3];
  EXPECT_TRUE(LPathAxisMatches(Axis::kAncestor, np6, s));
  EXPECT_TRUE(LPathAxisMatches(Axis::kDescendant, s, np6));
  EXPECT_TRUE(LPathAxisMatches(Axis::kImmediatePreceding, np6, v));
  EXPECT_TRUE(LPathAxisMatches(Axis::kImmediateFollowing, v, np6));
}

TEST_F(Figure1LabelTest, ImmediateFollowingOfV) {
  // Section 2.2.1: V is immediately followed by NP6, NP7 and Det (the nodes
  // whose leftmost leaf starts at V.right = 3).
  const Label v = labels_[3];
  std::vector<int> expected = {4, 5, 6};  // NP6, NP7, Det(the)
  std::vector<int> got;
  for (int i = 0; i < 15; ++i) {
    if (LPathAxisMatches(Axis::kImmediateFollowing, v, labels_[i])) {
      got.push_back(i);
    }
  }
  EXPECT_EQ(got, expected);
}

TEST_F(Figure1LabelTest, SiblingAdjacency) {
  // VP's next sibling is N(today): VP [2,9], N [9,10], same pid.
  const Label vp = labels_[2];
  const Label n_today = labels_[14];
  EXPECT_TRUE(
      LPathAxisMatches(Axis::kImmediateFollowingSibling, vp, n_today));
  EXPECT_TRUE(
      LPathAxisMatches(Axis::kImmediatePrecedingSibling, n_today, vp));
  EXPECT_TRUE(LPathAxisMatches(Axis::kFollowingSibling, vp, n_today));
  // NP(I) and N(today) are siblings but not adjacent.
  EXPECT_FALSE(LPathAxisMatches(Axis::kImmediateFollowingSibling, labels_[1],
                                n_today));
  EXPECT_TRUE(LPathAxisMatches(Axis::kFollowingSibling, labels_[1], n_today));
}

TEST(AxisTest, NamesAndAbbreviations) {
  EXPECT_EQ(AxisName(Axis::kImmediateFollowing), "immediate-following");
  EXPECT_EQ(AxisAbbreviation(Axis::kImmediateFollowing), "->");
  EXPECT_EQ(AxisAbbreviation(Axis::kFollowing), "-->");
  EXPECT_EQ(AxisAbbreviation(Axis::kImmediateFollowingSibling), "=>");
  EXPECT_EQ(AxisAbbreviation(Axis::kFollowingSibling), "==>");
  EXPECT_EQ(AxisName(Axis::kPrecedingSiblingOrSelf),
            "preceding-sibling-or-self");
  EXPECT_TRUE(AxisAbbreviation(Axis::kDescendantOrSelf).empty());
}

TEST(AxisTest, OrSelfClassification) {
  EXPECT_TRUE(AxisIncludesSelf(Axis::kDescendantOrSelf));
  EXPECT_TRUE(AxisIncludesSelf(Axis::kSelf));
  EXPECT_FALSE(AxisIncludesSelf(Axis::kDescendant));
  EXPECT_EQ(AxisBase(Axis::kFollowingOrSelf), Axis::kFollowing);
  EXPECT_EQ(AxisBase(Axis::kChild), Axis::kChild);
  EXPECT_TRUE(IsImmediateAxis(Axis::kImmediatePreceding));
  EXPECT_FALSE(IsImmediateAxis(Axis::kPreceding));
}

TEST(XPathLabelingTest, SupportsExactlyNonImmediateAxes) {
  for (int a = 0; a <= static_cast<int>(Axis::kAttribute); ++a) {
    Axis axis = static_cast<Axis>(a);
    EXPECT_EQ(XPathLabelingSupports(axis), !IsImmediateAxis(axis))
        << AxisName(axis);
  }
}

TEST(XPathLabelingTest, TagPositionsOnFigure1) {
  Interner in;
  Tree t = BuildFigure1Tree(&in);
  std::vector<Label> labels;
  ComputeXPathLabels(t, &labels);
  // Root: start tag first, end tag last; 15 nodes => 30 tag positions.
  EXPECT_EQ(labels[0].left, 1);
  EXPECT_EQ(labels[0].right, 30);
  // NP(I): second tag opened, closes immediately.
  EXPECT_EQ(labels[1].left, 2);
  EXPECT_EQ(labels[1].right, 3);
  // Strict containment decides descendant without depth.
  EXPECT_TRUE(XPathAxisMatches(Axis::kDescendant, labels[0], labels[4]));
  EXPECT_FALSE(XPathAxisMatches(Axis::kDescendant, labels[4], labels[0]));
  EXPECT_TRUE(XPathAxisMatches(Axis::kAncestor, labels[4], labels[0]));
}

// ---------------------------------------------------------------------------
// Property tests on random trees: label predicates must agree with the tree
// structure for every axis and every pair of nodes.
// ---------------------------------------------------------------------------

class AxisPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AxisPropertyTest, LabelPredicatesAgreeWithStructure) {
  Rng rng(GetParam());
  Interner in;
  for (int iter = 0; iter < 30; ++iter) {
    Tree t = RandomTree(&rng, &in, 30);
    std::vector<Label> labels;
    ComputeLPathLabels(t, &labels);
    const Axis axes[] = {
        Axis::kSelf,
        Axis::kChild,
        Axis::kParent,
        Axis::kDescendant,
        Axis::kDescendantOrSelf,
        Axis::kAncestor,
        Axis::kAncestorOrSelf,
        Axis::kFollowing,
        Axis::kImmediateFollowing,
        Axis::kPreceding,
        Axis::kImmediatePreceding,
        Axis::kFollowingSibling,
        Axis::kImmediateFollowingSibling,
        Axis::kPrecedingSibling,
        Axis::kImmediatePrecedingSibling,
    };
    const NodeId n = static_cast<NodeId>(t.size());
    for (Axis axis : axes) {
      for (NodeId x = 0; x < n; ++x) {
        for (NodeId y = 0; y < n; ++y) {
          EXPECT_EQ(LPathAxisMatches(axis, labels[x], labels[y]),
                    StructuralMatches(t, labels, axis, x, y))
              << AxisName(axis) << " x=" << x << " y=" << y;
        }
      }
    }
  }
}

TEST_P(AxisPropertyTest, XPathLabelingAgreesOnSharedAxes) {
  Rng rng(GetParam() + 1000);
  Interner in;
  for (int iter = 0; iter < 30; ++iter) {
    Tree t = RandomTree(&rng, &in, 30);
    std::vector<Label> lpath_labels, xpath_labels;
    ComputeLPathLabels(t, &lpath_labels);
    ComputeXPathLabels(t, &xpath_labels);
    const Axis axes[] = {
        Axis::kSelf,          Axis::kChild,
        Axis::kParent,        Axis::kDescendant,
        Axis::kAncestor,      Axis::kFollowing,
        Axis::kPreceding,     Axis::kFollowingSibling,
        Axis::kPrecedingSibling,
    };
    const NodeId n = static_cast<NodeId>(t.size());
    for (Axis axis : axes) {
      for (NodeId x = 0; x < n; ++x) {
        for (NodeId y = 0; y < n; ++y) {
          EXPECT_EQ(XPathAxisMatches(axis, xpath_labels[x], xpath_labels[y]),
                    LPathAxisMatches(axis, lpath_labels[x], lpath_labels[y]))
              << AxisName(axis) << " x=" << x << " y=" << y;
        }
      }
    }
  }
}

TEST_P(AxisPropertyTest, LabelInvariants) {
  Rng rng(GetParam() + 2000);
  Interner in;
  for (int iter = 0; iter < 50; ++iter) {
    Tree t = RandomTree(&rng, &in, 50);
    std::vector<Label> labels;
    ComputeLPathLabels(t, &labels);
    int leaves = 0;
    for (NodeId i = 0; i < static_cast<NodeId>(t.size()); ++i) {
      EXPECT_LT(labels[i].left, labels[i].right);
      if (t.is_leaf(i)) {
        EXPECT_EQ(labels[i].right, labels[i].left + 1);
        ++leaves;
      } else {
        // Children tile the parent's span.
        EXPECT_EQ(labels[i].left, labels[t.first_child(i)].left);
        EXPECT_EQ(labels[i].right, labels[t.last_child(i)].right);
        int32_t cursor = labels[i].left;
        for (NodeId c = t.first_child(i); c != kNoNode;
             c = t.next_sibling(c)) {
          EXPECT_EQ(labels[c].left, cursor);
          cursor = labels[c].right;
        }
        EXPECT_EQ(cursor, labels[i].right);
      }
    }
    // The root spans [1, leaves+1).
    EXPECT_EQ(labels[0].left, 1);
    EXPECT_EQ(labels[0].right, leaves + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AxisPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace lpath
