#include "lpath/eval_nav.h"

#include <algorithm>

#include "lpath/parser.h"

namespace lpath {

namespace {

/// Evaluation state: a context node plus the innermost enclosing scope node
/// (kNoNode = no scope, i.e. the whole tree). Scopes are suffix-nested, so
/// one scope per state suffices: containment in the innermost scope implies
/// containment in every outer one.
struct State {
  NodeId node;
  NodeId scope;
  auto operator<=>(const State&) const = default;
};

class TreeEval {
 public:
  TreeEval(const Tree& tree, const std::vector<Label>& labels,
           const Interner& interner)
      : tree_(tree), labels_(labels), interner_(interner) {}

  /// Evaluates a full path. For absolute paths `init` is ignored and the
  /// first step enumerates from the virtual super-root.
  Result<std::vector<State>> EvalPath(const LocationPath& path,
                                      std::vector<State> init) const {
    std::vector<State> states;
    size_t first_step = 0;
    if (path.absolute) {
      const Step& s0 = path.steps.front();
      std::vector<NodeId> cands;
      switch (s0.axis) {
        case Axis::kDescendant:
        case Axis::kDescendantOrSelf:
          cands.resize(tree_.size());
          for (NodeId i = 0; i < static_cast<NodeId>(tree_.size()); ++i) {
            cands[i] = i;
          }
          break;
        case Axis::kChild:
          if (!tree_.empty()) cands.push_back(tree_.root());
          break;
        default:
          return Status::NotSupported(
              "absolute paths must start with '/' or '//'");
      }
      LPATH_ASSIGN_OR_RETURN(
          std::vector<State> next,
          FilterStep(s0, State{kNoNode, kNoNode}, std::move(cands)));
      states = std::move(next);
      first_step = 1;
    } else {
      for (State& st : init) {
        if (path.leading_scopes > 0) st.scope = st.node;
      }
      states = std::move(init);
    }

    for (size_t i = first_step; i < path.steps.size(); ++i) {
      const Step& step = path.steps[i];
      std::vector<State> next;
      for (const State& st : states) {
        std::vector<NodeId> cands = Enumerate(step.axis, st.node);
        LPATH_ASSIGN_OR_RETURN(std::vector<State> got,
                               FilterStep(step, st, std::move(cands)));
        next.insert(next.end(), got.begin(), got.end());
      }
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      states = std::move(next);
      if (states.empty()) break;
    }
    return states;
  }

  /// Existence of a relative path from `ctx`.
  Result<bool> Exists(const LocationPath& path, NodeId ctx) const {
    std::vector<State> init{State{ctx, kNoNode}};
    LPATH_ASSIGN_OR_RETURN(std::vector<State> out,
                           EvalPath(path, std::move(init)));
    return !out.empty();
  }

 private:
  const Label& label(NodeId n) const { return labels_[n]; }

  const Label& ScopeLabel(NodeId scope) const {
    return labels_[scope == kNoNode ? tree_.root() : scope];
  }

  Symbol TestSymbol(const NodeTest& test, bool attribute_axis) const {
    if (test.is_wildcard()) return kNoSymbol;  // wildcard marker
    if (attribute_axis) return interner_.Lookup("@" + test.name);
    return interner_.Lookup(test.name);
  }

  /// Enumerates axis candidates in axis order (document order for forward
  /// axes, reverse document order for reverse axes) — the order XPath
  /// position() counts in. Node ids are pre-order positions, and the left
  /// column is non-decreasing in pre-order, so following/preceding use
  /// binary search over id ranges.
  std::vector<NodeId> Enumerate(Axis axis, NodeId x) const {
    std::vector<NodeId> out;
    const NodeId n = static_cast<NodeId>(tree_.size());
    switch (axis) {
      case Axis::kSelf:
        out.push_back(x);
        break;
      case Axis::kChild:
        for (NodeId c = tree_.first_child(x); c != kNoNode;
             c = tree_.next_sibling(c)) {
          out.push_back(c);
        }
        break;
      case Axis::kDescendantOrSelf:
        out.push_back(x);
        [[fallthrough]];
      case Axis::kDescendant: {
        // Subtree = contiguous pre-order id range [x+1, end).
        const NodeId end = SubtreeEnd(x);
        for (NodeId i = x + 1; i < end; ++i) out.push_back(i);
        break;
      }
      case Axis::kParent:
        if (tree_.parent(x) != kNoNode) out.push_back(tree_.parent(x));
        break;
      case Axis::kAncestorOrSelf:
        out.push_back(x);
        [[fallthrough]];
      case Axis::kAncestor:
        for (NodeId p = tree_.parent(x); p != kNoNode; p = tree_.parent(p)) {
          out.push_back(p);
        }
        break;
      case Axis::kFollowingOrSelf:
        out.push_back(x);
        [[fallthrough]];
      case Axis::kFollowing: {
        for (NodeId i = FirstIdWithLeftGe(label(x).right); i < n; ++i) {
          out.push_back(i);
        }
        break;
      }
      case Axis::kImmediateFollowing: {
        const int32_t target = label(x).right;
        for (NodeId i = FirstIdWithLeftGe(target);
             i < n && labels_[i].left == target; ++i) {
          out.push_back(i);
        }
        break;
      }
      case Axis::kPrecedingOrSelf:
        out.push_back(x);
        [[fallthrough]];
      case Axis::kPreceding: {
        // Reverse document order; candidates have left < x.left.
        for (NodeId i = FirstIdWithLeftGe(label(x).left) - 1; i >= 0; --i) {
          if (labels_[i].right <= label(x).left) out.push_back(i);
        }
        break;
      }
      case Axis::kImmediatePreceding: {
        for (NodeId i = FirstIdWithLeftGe(label(x).left) - 1; i >= 0; --i) {
          if (labels_[i].right == label(x).left) out.push_back(i);
        }
        break;
      }
      case Axis::kFollowingSiblingOrSelf:
        out.push_back(x);
        [[fallthrough]];
      case Axis::kFollowingSibling:
        for (NodeId s = tree_.next_sibling(x); s != kNoNode;
             s = tree_.next_sibling(s)) {
          out.push_back(s);
        }
        break;
      case Axis::kImmediateFollowingSibling:
        if (tree_.next_sibling(x) != kNoNode) {
          out.push_back(tree_.next_sibling(x));
        }
        break;
      case Axis::kPrecedingSiblingOrSelf:
        out.push_back(x);
        [[fallthrough]];
      case Axis::kPrecedingSibling:
        for (NodeId s = tree_.prev_sibling(x); s != kNoNode;
             s = tree_.prev_sibling(s)) {
          out.push_back(s);
        }
        break;
      case Axis::kImmediatePrecedingSibling:
        if (tree_.prev_sibling(x) != kNoNode) {
          out.push_back(tree_.prev_sibling(x));
        }
        break;
      case Axis::kAttribute:
        // Handled by FilterStep (candidates are the element itself when a
        // matching attribute exists); enumerate the element.
        out.push_back(x);
        break;
    }
    return out;
  }

  /// End (exclusive) of x's subtree in pre-order ids.
  NodeId SubtreeEnd(NodeId x) const {
    NodeId cur = x;
    for (;;) {
      if (tree_.next_sibling(cur) != kNoNode) return tree_.next_sibling(cur);
      cur = tree_.parent(cur);
      if (cur == kNoNode) return static_cast<NodeId>(tree_.size());
    }
  }

  /// First pre-order id whose left >= value (left is non-decreasing in id).
  NodeId FirstIdWithLeftGe(int32_t value) const {
    NodeId lo = 0, hi = static_cast<NodeId>(tree_.size());
    while (lo < hi) {
      NodeId mid = lo + (hi - lo) / 2;
      if (labels_[mid].left < value) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Applies node test, edge alignment, scope containment and predicates to
  /// the raw axis candidates of one origin state.
  Result<std::vector<State>> FilterStep(const Step& step, State origin,
                                        std::vector<NodeId> cands) const {
    const bool is_attr_axis = step.axis == Axis::kAttribute;
    std::vector<NodeId> kept;
    kept.reserve(cands.size());
    const Symbol want = TestSymbol(step.test, is_attr_axis);
    for (NodeId cand : cands) {
      if (is_attr_axis) {
        if (!HasAttr(cand, step.test, want)) continue;
      } else {
        if (!step.test.is_wildcard() &&
            (want == kNoSymbol || tree_.name(cand) != want)) {
          continue;
        }
      }
      if (step.left_align &&
          label(cand).left != ScopeLabel(origin.scope).left) {
        continue;
      }
      if (step.right_align &&
          label(cand).right != ScopeLabel(origin.scope).right) {
        continue;
      }
      // Scope containment from the tree itself: the oracle reads nothing
      // of the axis table the compiler emits from.
      if (origin.scope != kNoNode && !is_attr_axis &&
          cand != origin.scope && !tree_.IsAncestor(origin.scope, cand)) {
        continue;
      }
      kept.push_back(cand);
    }
    // Predicates, applied in sequence with XPath position semantics.
    for (const PredExprPtr& pred : step.predicates) {
      std::vector<NodeId> next;
      const int64_t size = static_cast<int64_t>(kept.size());
      for (size_t i = 0; i < kept.size(); ++i) {
        LPATH_ASSIGN_OR_RETURN(
            bool keep,
            EvalPred(*pred, kept[i], static_cast<int64_t>(i + 1), size));
        if (keep) next.push_back(kept[i]);
      }
      kept = std::move(next);
    }
    std::vector<State> out;
    out.reserve(kept.size());
    for (NodeId cand : kept) {
      NodeId scope = origin.scope;
      if (step.opens_scopes > 0) scope = cand;
      out.push_back(State{cand, scope});
    }
    return out;
  }

  bool HasAttr(NodeId node, const NodeTest& test, Symbol want) const {
    const int count = tree_.attr_count(node);
    if (count == 0) return false;
    if (test.is_wildcard()) return true;
    if (want == kNoSymbol) return false;
    for (int i = 0; i < count; ++i) {
      if (tree_.attrs(node)[i].name == want) return true;
    }
    return false;
  }

  Result<bool> EvalPred(const PredExpr& e, NodeId ctx, int64_t position,
                        int64_t size) const {
    switch (e.kind) {
      case PredExpr::Kind::kAnd: {
        LPATH_ASSIGN_OR_RETURN(bool l, EvalPred(*e.lhs, ctx, position, size));
        if (!l) return false;
        return EvalPred(*e.rhs, ctx, position, size);
      }
      case PredExpr::Kind::kOr: {
        LPATH_ASSIGN_OR_RETURN(bool l, EvalPred(*e.lhs, ctx, position, size));
        if (l) return true;
        return EvalPred(*e.rhs, ctx, position, size);
      }
      case PredExpr::Kind::kNot: {
        LPATH_ASSIGN_OR_RETURN(bool l, EvalPred(*e.lhs, ctx, position, size));
        return !l;
      }
      case PredExpr::Kind::kPath:
        return Exists(e.path, ctx);
      case PredExpr::Kind::kCompare:
        return EvalCompare(e, ctx);
      case PredExpr::Kind::kPosition: {
        const int64_t rhs = e.vs_last ? size : e.number;
        switch (e.cmp) {
          case CmpOp::kEq: return position == rhs;
          case CmpOp::kNe: return position != rhs;
          case CmpOp::kLt: return position < rhs;
          case CmpOp::kLe: return position <= rhs;
          case CmpOp::kGt: return position > rhs;
          case CmpOp::kGe: return position >= rhs;
        }
        return false;
      }
      case PredExpr::Kind::kLast:
        return position == size;
      case PredExpr::Kind::kNumber:
        return position == e.number;
    }
    return Status::Internal("unhandled predicate kind");
  }

  /// path=@attr comparison: evaluate the element prefix, then compare the
  /// attribute's value. XPath semantics: '=' is true iff a matching
  /// attribute exists with that value; '!=' iff one exists with another.
  Result<bool> EvalCompare(const PredExpr& e, NodeId ctx) const {
    const LocationPath& path = e.path;
    const Step& attr_step = path.steps.back();

    std::vector<State> elements;
    if (path.steps.size() == 1) {
      State st{ctx, kNoNode};
      if (path.leading_scopes > 0) st.scope = ctx;
      elements.push_back(st);
    } else {
      LocationPath prefix = ClonePath(path);
      prefix.steps.pop_back();
      LPATH_ASSIGN_OR_RETURN(
          elements, EvalPath(prefix, {State{ctx, kNoNode}}));
    }
    const Symbol want = TestSymbol(attr_step.test, /*attribute_axis=*/true);
    const Symbol literal = interner_.Lookup(e.literal);
    for (const State& st : elements) {
      const int count = tree_.attr_count(st.node);
      for (int i = 0; i < count; ++i) {
        const Attr& a = tree_.attrs(st.node)[i];
        if (!attr_step.test.is_wildcard() && a.name != want) continue;
        const bool equal = literal != kNoSymbol && a.value == literal;
        if (e.cmp == CmpOp::kEq ? equal : !equal) return true;
      }
    }
    return false;
  }

  const Tree& tree_;
  const std::vector<Label>& labels_;
  const Interner& interner_;
};

}  // namespace

NavigationalEngine::NavigationalEngine(const Corpus& corpus)
    : corpus_(corpus) {
  labels_.resize(corpus.size());
  for (TreeId tid = 0; tid < static_cast<TreeId>(corpus.size()); ++tid) {
    ComputeLPathLabels(corpus.tree(tid), &labels_[tid]);
  }
}

Result<QueryResult> NavigationalEngine::Run(const std::string& query) const {
  LPATH_ASSIGN_OR_RETURN(LocationPath path, ParseLPath(query));
  return Eval(path);
}

Result<QueryResult> NavigationalEngine::Eval(const LocationPath& path) const {
  QueryResult result;
  for (TreeId tid = 0; tid < static_cast<TreeId>(corpus_.size()); ++tid) {
    LPATH_ASSIGN_OR_RETURN(std::vector<int32_t> ids, EvalTree(path, tid));
    for (int32_t id : ids) result.hits.push_back(Hit{tid, id});
  }
  result.Normalize();
  return result;
}

Result<std::vector<int32_t>> NavigationalEngine::EvalTree(
    const LocationPath& path, TreeId tid) const {
  const Tree& tree = corpus_.tree(tid);
  if (tree.empty()) return std::vector<int32_t>{};
  TreeEval eval(tree, labels_[tid], corpus_.interner());
  LPATH_ASSIGN_OR_RETURN(std::vector<State> states, eval.EvalPath(path, {}));
  std::vector<int32_t> out;
  out.reserve(states.size());
  for (const State& st : states) out.push_back(st.node + 1);  // 1-based ids
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace lpath
