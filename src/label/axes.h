// The LPath axis inventory (Table 1 of the paper) and the label-comparison
// semantics of every axis (Table 2), for both labeling schemes:
//
//   - the LPath labeling of Definition 4.1 (leaf intervals), which decides
//     every axis including immediate-following/-preceding and the sibling
//     "immediate" variants;
//   - the "XPath labeling" of DeHaan et al. [11] (start/end *tag positions*),
//     which the paper compares against in Figure 10 and which cannot decide
//     the immediate axes.
//
// Both tables are one constexpr array in axes.cc, one row per Axis: the
// axis's name, its abbreviation, its or-self base, its immediate flag and
// its label comparisons under each scheme. Everything else reads that row:
// the functions below, the LPath parser (names and abbreviations), the
// printer, and the plan compiler (plan/axis_map.h emits the comparisons as
// conjuncts, in the row's order).

#ifndef LPATHDB_LABEL_AXES_H_
#define LPATHDB_LABEL_AXES_H_

#include <cstdint>
#include <span>
#include <string_view>

namespace lpath {

/// Node label per Definition 4.1: (left, right, depth, id, pid).
/// `name`/`value` live in the relation, not here. The same struct is reused
/// for the XPath tag-position labeling (left/right are tag positions there).
struct Label {
  int32_t left = 0;
  int32_t right = 0;
  int32_t depth = 0;
  int32_t id = 0;   ///< Unique per tree, nonzero.
  int32_t pid = 0;  ///< Parent id; 0 for the root.

  bool operator==(const Label&) const = default;
};

/// Which labeling scheme a relation was built with.
enum class LabelScheme {
  kLPath,  ///< Definition 4.1 (leaf intervals). Supports every LPath axis.
  kXPath,  ///< DeHaan-style tag positions. XPath axes only (Figure 10).
};

/// All LPath axes (Table 1), including the or-self closures.
enum class Axis : uint8_t {
  kSelf,
  kChild,
  kDescendant,
  kDescendantOrSelf,
  kParent,
  kAncestor,
  kAncestorOrSelf,
  kFollowing,
  kFollowingOrSelf,
  kImmediateFollowing,
  kPreceding,
  kPrecedingOrSelf,
  kImmediatePreceding,
  kFollowingSibling,
  kFollowingSiblingOrSelf,
  kImmediateFollowingSibling,
  kPrecedingSibling,
  kPrecedingSiblingOrSelf,
  kImmediatePrecedingSibling,
  kAttribute,
};

/// Number of axes: every value in [0, kAxisCount) is an Axis.
inline constexpr int kAxisCount = static_cast<int>(Axis::kAttribute) + 1;

/// Comparison operators: the axis table's, LPath predicates' and the plan
/// IR's.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// `lhs op rhs`.
constexpr bool EvalCmp(int64_t lhs, CmpOp op, int64_t rhs) {
  switch (op) {
    case CmpOp::kEq: return lhs == rhs;
    case CmpOp::kNe: return lhs != rhs;
    case CmpOp::kLt: return lhs < rhs;
    case CmpOp::kLe: return lhs <= rhs;
    case CmpOp::kGt: return lhs > rhs;
    case CmpOp::kGe: return lhs >= rhs;
  }
  return false;
}

/// The Label fields the axis comparisons read.
enum class LabelField : uint8_t { kLeft, kRight, kDepth, kId, kPid };

/// One comparison of Table 2: `cand.<cand> op ctx.<ctx>`, where `ctx` is
/// the context node and `cand` the candidate on its axis.
struct LabelCmp {
  LabelField cand;
  CmpOp op;
  LabelField ctx;
};

/// Full axis name, e.g. "immediate-following-sibling".
std::string_view AxisName(Axis axis);

/// LPath abbreviation from Table 1 ("->", "==>", "\\", ...); empty for axes
/// with no abbreviation (or-self variants).
std::string_view AxisAbbreviation(Axis axis);

/// True for self / *-or-self axes.
bool AxisIncludesSelf(Axis axis);

/// The non-reflexive base of an or-self axis (identity otherwise).
Axis AxisBase(Axis axis);

/// True if the axis is one of the four immediate-* primitives, which only
/// the LPath labeling scheme supports (Lemma 3.1 / Section 4).
bool IsImmediateAxis(Axis axis);

/// Whether the XPath labeling scheme can decide `axis`.
bool XPathLabelingSupports(Axis axis);

/// The comparisons that decide `axis` under `scheme`, all of which must
/// hold. Empty for an or-self axis other than self (it is `cand.id =
/// ctx.id` OR its AxisBase) and for an immediate axis under the XPath
/// labeling.
std::span<const LabelCmp> AxisComparisons(LabelScheme scheme, Axis axis);

/// Table 2 — decides whether `cand` is on `axis` of `ctx` under the LPath
/// labeling (Definition 4.1). Both labels must come from the same tree.
/// Attribute rows share their element's label; callers must additionally
/// constrain element-vs-attribute kind (see storage::NodeRelation::RowKind).
bool LPathAxisMatches(Axis axis, const Label& ctx, const Label& cand);

/// Same decision under the XPath tag-position labeling. Returns false for
/// the immediate-* axes (they are not decidable in that scheme; callers
/// should reject such queries up front via XPathLabelingSupports()).
bool XPathAxisMatches(Axis axis, const Label& ctx, const Label& cand);

}  // namespace lpath

#endif  // LPATHDB_LABEL_AXES_H_
