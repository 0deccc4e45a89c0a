// Abstract syntax of LPath (the grammar of Figure 4 layered over the XPath
// 1.0 core): location paths of steps, where each step has an axis, optional
// edge-alignment markers '^' / '$', a node test, predicates, and possibly
// opens a subtree scope '{...}'.
//
// Scoping is *suffix* scoping (RLP ::= HP | HP '{' RLP '}'): once a scope
// opens it extends to the end of the enclosing path, so it is recorded as a
// per-step counter (`opens_scopes`) plus a leading counter on the path for
// predicates of the form [{...}] that scope to their context node.

#ifndef LPATHDB_LPATH_AST_H_
#define LPATHDB_LPATH_AST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "label/axes.h"

namespace lpath {

struct PredExpr;
using PredExprPtr = std::unique_ptr<PredExpr>;

/// A step's node test: a tag name or the wildcard '_' (we also accept the
/// XPath spelling '*'; the paper reserves '*' for closures — footnote 2).
struct NodeTest {
  enum class Kind { kWildcard, kName };
  Kind kind = Kind::kWildcard;
  std::string name;

  static NodeTest Wildcard() { return NodeTest{}; }
  static NodeTest Name(std::string n) {
    return NodeTest{Kind::kName, std::move(n)};
  }
  bool is_wildcard() const { return kind == Kind::kWildcard; }
};

/// One location step.
struct Step {
  Axis axis = Axis::kChild;
  bool left_align = false;   ///< '^' — left edge of the innermost scope.
  bool right_align = false;  ///< '$' — right edge of the innermost scope.
  NodeTest test;
  std::vector<PredExprPtr> predicates;  ///< [..][..] — applied in order.
  int opens_scopes = 0;  ///< Number of '{' immediately after this step.
};

/// A (relative or absolute) location path.
struct LocationPath {
  /// True for top-level queries beginning with '/' or '//': evaluation
  /// starts at a virtual super-root above each tree's root.
  bool absolute = false;
  /// Number of '{' before the first step — the scope is the context node.
  int leading_scopes = 0;
  std::vector<Step> steps;
};

/// Predicate expression tree.
///
/// Kinds:
///   kAnd / kOr    — lhs, rhs
///   kNot          — lhs
///   kPath         — existence of `path` from the context node
///   kCompare      — string-value of `path` (which must end in an attribute
///                   step) compared with `literal` via kEq / kNe
///   kPosition     — position() `cmp` number-or-last()
///   kLast         — bare last(), i.e. position() = last()
///   kNumber       — bare number [n], i.e. position() = n
struct PredExpr {
  enum class Kind {
    kAnd,
    kOr,
    kNot,
    kPath,
    kCompare,
    kPosition,
    kLast,
    kNumber,
  };

  Kind kind;
  PredExprPtr lhs;
  PredExprPtr rhs;
  LocationPath path;        // kPath, kCompare
  CmpOp cmp = CmpOp::kEq;   // kCompare, kPosition
  std::string literal;      // kCompare
  int64_t number = 0;       // kPosition (unless vs_last), kNumber
  bool vs_last = false;     // kPosition: compare against last()

  explicit PredExpr(Kind k) : kind(k) {}
};

/// Serializes a path back to LPath concrete syntax (round-trip tested).
std::string ToString(const LocationPath& path);
std::string ToString(const PredExpr& expr);
std::string ToString(const NodeTest& test);

/// Deep copies (the AST is otherwise move-only because of unique_ptr).
LocationPath ClonePath(const LocationPath& path);
PredExprPtr CloneExpr(const PredExpr& expr);

/// True if the path (including nested predicates) uses a feature the
/// relational translation rejects: position()/last() predicates or
/// comparisons on element-valued paths.
bool UsesPositionalPredicates(const LocationPath& path);

/// True if the path stays within the XPath-expressible fragment: no
/// immediate-* axes, no scopes, no edge alignment (Lemma 3.1). Such queries
/// can run on the XPath tag-position labeling of Figure 10.
bool IsXPathExpressible(const LocationPath& path);

}  // namespace lpath

#endif  // LPATHDB_LPATH_AST_H_
