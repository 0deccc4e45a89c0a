// Shared test helpers: the running example of the paper (Figure 1's syntax
// tree for "I saw the old man with a dog today"), a seeded random-tree
// generator and a structural axis oracle for property tests, a file reader,
// a relation comparison and a random query generator.

#ifndef LPATHDB_TESTS_TEST_UTIL_H_
#define LPATHDB_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "label/axes.h"
#include "storage/relation.h"
#include "tree/corpus.h"
#include "tree/tree.h"

namespace lpath {
namespace testing {

/// Builds the Figure 1 tree. Pre-order node ids (0-based):
///   0:S 1:NP(I) 2:VP 3:V(saw) 4:NP 5:NP 6:Det(the) 7:Adj(old) 8:N(man)
///   9:PP 10:Prep(with) 11:NP 12:Det(a) 13:N(dog) 14:N(today)
inline Tree BuildFigure1Tree(Interner* in) {
  const Symbol lex = in->Intern("@lex");
  Tree t;
  NodeId s = t.AddRoot(in->Intern("S"));
  NodeId np_i = t.AddChild(s, in->Intern("NP"));
  t.AddAttr(np_i, lex, in->Intern("I"));
  NodeId vp = t.AddChild(s, in->Intern("VP"));
  NodeId v = t.AddChild(vp, in->Intern("V"));
  t.AddAttr(v, lex, in->Intern("saw"));
  NodeId np6 = t.AddChild(vp, in->Intern("NP"));
  NodeId np7 = t.AddChild(np6, in->Intern("NP"));
  NodeId det = t.AddChild(np7, in->Intern("Det"));
  t.AddAttr(det, lex, in->Intern("the"));
  NodeId adj = t.AddChild(np7, in->Intern("Adj"));
  t.AddAttr(adj, lex, in->Intern("old"));
  NodeId n_man = t.AddChild(np7, in->Intern("N"));
  t.AddAttr(n_man, lex, in->Intern("man"));
  NodeId pp = t.AddChild(np6, in->Intern("PP"));
  NodeId prep = t.AddChild(pp, in->Intern("Prep"));
  t.AddAttr(prep, lex, in->Intern("with"));
  NodeId np_dog = t.AddChild(pp, in->Intern("NP"));
  NodeId det_a = t.AddChild(np_dog, in->Intern("Det"));
  t.AddAttr(det_a, lex, in->Intern("a"));
  NodeId n_dog = t.AddChild(np_dog, in->Intern("N"));
  t.AddAttr(n_dog, lex, in->Intern("dog"));
  NodeId n_today = t.AddChild(s, in->Intern("N"));
  t.AddAttr(n_today, lex, in->Intern("today"));
  (void)n_today;
  return t;
}

/// Corpus holding just the Figure 1 tree.
inline Corpus BuildFigure1Corpus() {
  Corpus corpus;
  corpus.Add(BuildFigure1Tree(corpus.mutable_interner()));
  return corpus;
}

namespace internal {

inline const char* RandomTag(Rng* rng) {
  static const char* kTags[] = {"S", "NP", "VP", "PP", "N", "V",
                                "Det", "Adj", "X", "Y"};
  return kTags[rng->Below(10)];
}

inline const char* RandomWord(Rng* rng) {
  static const char* kWords[] = {"a", "b", "c", "saw", "dog", "man",
                                 "of", "what", "building"};
  return kWords[rng->Below(9)];
}

/// Document-order recursive growth. Attributes must be added to the most
/// recently created node, which holds exactly when a node is decided to be
/// a leaf immediately after creation.
inline void GrowChildren(Tree* t, NodeId node, Rng* rng, Interner* in,
                         Symbol lex, int depth, int* budget) {
  const double stop = 0.15 + 0.12 * depth;
  if (*budget <= 0 || rng->Chance(stop)) {
    if (rng->Chance(0.8)) t->AddAttr(node, lex, in->Intern(RandomWord(rng)));
    return;
  }
  // 1..4 children; 1 child yields unary chains, which exercise the depth
  // component of the labeling scheme.
  const int kids = 1 + static_cast<int>(rng->Below(4));
  for (int i = 0; i < kids && *budget > 0; ++i) {
    *budget -= 1;
    NodeId child = t->AddChild(node, in->Intern(RandomTag(rng)));
    GrowChildren(t, child, rng, in, lex, depth + 1, budget);
  }
}

}  // namespace internal

/// Random ordered tree over a small tag alphabet; leaves usually get @lex
/// words. Shapes include unary chains, wide nodes and deep spines.
inline Tree RandomTree(Rng* rng, Interner* in, int max_nodes) {
  const Symbol lex = in->Intern("@lex");
  Tree t;
  NodeId root = t.AddRoot(in->Intern(internal::RandomTag(rng)));
  int budget = 1 + static_cast<int>(rng->Below(max_nodes));
  internal::GrowChildren(&t, root, rng, in, lex, 1, &budget);
  return t;
}

/// A corpus of `trees` random trees (deterministic in `seed`).
inline Corpus RandomCorpus(uint64_t seed, int trees, int max_nodes = 40) {
  Corpus corpus;
  Rng rng(seed);
  for (int i = 0; i < trees; ++i) {
    corpus.Add(RandomTree(&rng, corpus.mutable_interner(), max_nodes));
  }
  return corpus;
}

/// Structural ground truth for `y` being on `axis` of `x`, computed from
/// the tree itself, and for the document-order axes from the leaf order
/// (the Definition 4.1 intervals in `labels`). Shares no code with the axis
/// table. Attribute rows carry their element's label, so over element
/// nodes the attribute axis relates a node to itself.
inline bool StructuralMatches(const Tree& t, const std::vector<Label>& labels,
                              Axis axis, NodeId x, NodeId y) {
  switch (axis) {
    case Axis::kSelf:
      return x == y;
    case Axis::kChild:
      return t.parent(y) == x;
    case Axis::kParent:
      return t.parent(x) == y;
    case Axis::kDescendant:
      return t.IsAncestor(x, y);
    case Axis::kDescendantOrSelf:
      return x == y || t.IsAncestor(x, y);
    case Axis::kAncestor:
      return t.IsAncestor(y, x);
    case Axis::kAncestorOrSelf:
      return x == y || t.IsAncestor(y, x);
    case Axis::kFollowing:
      return labels[y].left >= labels[x].right;
    case Axis::kImmediateFollowing: {
      // Definition 3.1: y follows x with no z strictly between.
      if (labels[y].left < labels[x].right) return false;
      for (NodeId z = 0; z < static_cast<NodeId>(t.size()); ++z) {
        if (labels[z].left >= labels[x].right &&
            labels[y].left >= labels[z].right) {
          return false;
        }
      }
      return true;
    }
    case Axis::kPreceding:
      return labels[y].right <= labels[x].left;
    case Axis::kImmediatePreceding: {
      if (labels[y].right > labels[x].left) return false;
      for (NodeId z = 0; z < static_cast<NodeId>(t.size()); ++z) {
        if (labels[z].right <= labels[x].left &&
            labels[y].right <= labels[z].left) {
          return false;
        }
      }
      return true;
    }
    case Axis::kFollowingSibling: {
      for (NodeId s = t.next_sibling(x); s != kNoNode; s = t.next_sibling(s)) {
        if (s == y) return true;
      }
      return false;
    }
    case Axis::kImmediateFollowingSibling:
      return t.next_sibling(x) == y;
    case Axis::kPrecedingSibling: {
      for (NodeId s = t.prev_sibling(x); s != kNoNode; s = t.prev_sibling(s)) {
        if (s == y) return true;
      }
      return false;
    }
    case Axis::kImmediatePrecedingSibling:
      return t.prev_sibling(x) == y;
    case Axis::kFollowingOrSelf:
      return x == y || labels[y].left >= labels[x].right;
    case Axis::kPrecedingOrSelf:
      return x == y || labels[y].right <= labels[x].left;
    case Axis::kFollowingSiblingOrSelf:
      return x == y ||
             StructuralMatches(t, labels, Axis::kFollowingSibling, x, y);
    case Axis::kPrecedingSiblingOrSelf:
      return x == y ||
             StructuralMatches(t, labels, Axis::kPrecedingSibling, x, y);
    case Axis::kAttribute:
      return x == y;
  }
  return false;
}

/// The bytes of the file at `path` (empty if it cannot be read).
inline std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

/// Asserts that two relations answer identically through the whole
/// accessor surface — per-row columns, run directory, value index, row
/// lookup and the morsel statistics. The per-run permutations are not
/// reachable one by one; comparing two relations' saved images byte for
/// byte covers them.
inline void ExpectSameRelation(const NodeRelation& a,
                               const NodeRelation& b) {
  ASSERT_EQ(a.row_count(), b.row_count());
  ASSERT_EQ(a.tree_count(), b.tree_count());
  ASSERT_EQ(a.element_count(), b.element_count());
  ASSERT_EQ(a.scheme(), b.scheme());
  ASSERT_EQ(a.interner().end_id(), b.interner().end_id());
  for (Row r = 0; r < a.row_count(); ++r) {
    ASSERT_EQ(a.tid(r), b.tid(r)) << r;
    ASSERT_EQ(a.left(r), b.left(r)) << r;
    ASSERT_EQ(a.right(r), b.right(r)) << r;
    ASSERT_EQ(a.depth(r), b.depth(r)) << r;
    ASSERT_EQ(a.id(r), b.id(r)) << r;
    ASSERT_EQ(a.pid(r), b.pid(r)) << r;
    ASSERT_EQ(a.name(r), b.name(r)) << r;
    ASSERT_EQ(a.value(r), b.value(r)) << r;
    ASSERT_EQ(a.kind(r), b.kind(r)) << r;
  }
  for (Symbol s = 0; s < a.interner().end_id(); ++s) {
    ASSERT_EQ(a.run(s).begin, b.run(s).begin) << s;
    ASSERT_EQ(a.run(s).end, b.run(s).end) << s;
    const auto va = a.ValueRange(s);
    const auto vb = b.ValueRange(s);
    ASSERT_EQ(std::vector<Row>(va.begin(), va.end()),
              std::vector<Row>(vb.begin(), vb.end()))
        << s;
  }
  for (Symbol s = 1; s < a.interner().end_id(); ++s) {
    ASSERT_EQ(a.interner().name(s), b.interner().name(s)) << s;
  }
  for (int32_t t = 0; t < a.tree_count(); ++t) {
    ASSERT_EQ(a.TreeRowCount(t), b.TreeRowCount(t)) << t;
    ASSERT_EQ(a.TreeRowsBefore(t), b.TreeRowsBefore(t)) << t;
    const auto ea = a.ElementsOfTree(t);
    const auto eb = b.ElementsOfTree(t);
    ASSERT_EQ(std::vector<Row>(ea.begin(), ea.end()),
              std::vector<Row>(eb.begin(), eb.end()))
        << t;
    for (int32_t id = 1; id <= static_cast<int32_t>(ea.size()); ++id) {
      ASSERT_EQ(a.ElementRow(t, id), b.ElementRow(t, id));
      const auto aa = a.AttrRows(t, id);
      const auto ab = b.AttrRows(t, id);
      ASSERT_EQ(std::vector<Row>(aa.begin(), aa.end()),
                std::vector<Row>(ab.begin(), ab.end()));
    }
  }
}

/// Random LPath query generator over the test tag/word alphabet, plus
/// deliberately unknown tags and words — resolving an unknown literal
/// inside an OR/NOT tree once emptied the whole plan, so the generator
/// emits those shapes on purpose. Generates only queries the relational
/// translation supports (no position()/last()). Shared by the fuzz
/// differential, the shard differential and the service tests.
class QueryGen {
 public:
  explicit QueryGen(Rng* rng) : rng_(rng) {}

  std::string Query() {
    std::string q = rng_->Chance(0.9) ? "//" : "/";
    q += NodeTestWithSuffix(/*depth=*/0, /*in_scope=*/false);
    int steps = static_cast<int>(rng_->Below(4));
    bool scope_open = false;
    for (int i = 0; i < steps; ++i) {
      if (!scope_open && rng_->Chance(0.25)) {
        q += "{";
        scope_open = true;
      }
      q += AxisToken();
      q += NodeTestWithSuffix(0, scope_open);
    }
    if (scope_open) q += "}";
    return q;
  }

 private:
  const char* Tag() {
    // "ZZZUNK" is interned by no corpus: unknown-tag plans must stay
    // empty without leaking emptiness into enclosing OR/NOT trees.
    static const char* kTags[] = {"S", "NP", "VP", "PP", "N", "V",
                                  "Det", "Adj", "X", "Y", "ZZZUNK"};
    return kTags[rng_->Chance(0.08) ? 10 : rng_->Below(10)];
  }
  const char* Word() {
    // "zzzunknown" likewise never appears in any corpus.
    static const char* kWords[] = {"a", "b", "c", "saw", "dog",
                                   "man", "of", "what", "building",
                                   "zzzunknown"};
    return kWords[rng_->Chance(0.15) ? 9 : rng_->Below(9)];
  }
  const char* AxisToken() {
    static const char* kAxes[] = {
        "/",  "//",  "\\",  "\\\\", "->", "-->", "<-", "<--",
        "=>", "==>", "<=",  "<==",  "/descendant-or-self::",
        "/ancestor-or-self::", "/following-or-self::",
        "/preceding-or-self::", "/following-sibling-or-self::",
        "/preceding-sibling-or-self::", "/self::",
    };
    return kAxes[rng_->Below(19)];
  }

  std::string NodeTestWithSuffix(int depth, bool in_scope) {
    std::string out;
    if (in_scope && rng_->Chance(0.2)) out += "^";
    out += rng_->Chance(0.25) ? "_" : Tag();
    if (in_scope && rng_->Chance(0.2)) out += "$";
    if (depth < 2 && rng_->Chance(0.35)) {
      out += "[";
      out += Predicate(depth + 1);
      out += "]";
    }
    return out;
  }

  std::string AttrCompare() {
    std::string cmp = "@lex";
    cmp += rng_->Chance(0.8) ? "=" : "!=";
    cmp += Word();
    return cmp;
  }

  std::string Predicate(int depth) {
    const double roll = rng_->NextDouble();
    if (roll < 0.25) return AttrCompare();
    if (roll < 0.37) {  // boolean trees over attribute compares
      const double kind = rng_->NextDouble();
      if (kind < 0.40) return AttrCompare() + " or " + AttrCompare();
      if (kind < 0.60) return AttrCompare() + " and " + AttrCompare();
      if (kind < 0.80) return "not(" + AttrCompare() + ")";
      return "not(" + AttrCompare() + " or " + AttrCompare() + ")";
    }
    if (roll < 0.50 && depth < 2) {  // boolean over paths
      const char* joiner = rng_->Chance(0.5) ? " and " : " or ";
      return PredPath(depth) + joiner + Predicate(depth + 1);
    }
    if (roll < 0.62) {  // negation
      return "not(" + PredPath(depth) + ")";
    }
    return PredPath(depth);
  }

  std::string PredPath(int depth) {
    std::string q;
    bool scope_open = false;
    if (rng_->Chance(0.25)) {
      q += "{";
      scope_open = true;
    }
    const double roll = rng_->NextDouble();
    if (roll < 0.4) {
      q += "//";
    } else if (roll < 0.6) {
      q += AxisToken();
    }
    q += NodeTestWithSuffix(depth + 1, scope_open);
    if (rng_->Chance(0.4)) {
      q += AxisToken();
      q += NodeTestWithSuffix(depth + 1, scope_open);
    }
    if (scope_open) q += "}";
    return q;
  }

  Rng* rng_;
};

}  // namespace testing
}  // namespace lpath

#endif  // LPATHDB_TESTS_TEST_UTIL_H_
