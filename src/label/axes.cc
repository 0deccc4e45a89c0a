#include "label/axes.h"

#include <algorithm>
#include <initializer_list>
#include <iterator>

namespace lpath {

namespace {

// The comparisons of one axis under one scheme; all must hold.
struct LabelTest {
  constexpr LabelTest() = default;
  constexpr LabelTest(std::initializer_list<LabelCmp> cmps)
      : size(static_cast<uint8_t>(cmps.size())) {
    std::copy(cmps.begin(), cmps.end(), at);
  }
  uint8_t size = 0;
  LabelCmp at[3] = {};
};

struct AxisRow {
  Axis axis;
  std::string_view name;
  std::string_view abbreviation;  // empty where Table 1 gives none
  Axis base;        // an or-self row's base; the row's own axis otherwise
  bool immediate;   // undecidable from tag positions (Lemma 3.1)
  LabelTest lpath;  // under Definition 4.1 labels
  LabelTest xpath;  // under tag positions: strict, no depth, no immediate
};

using enum Axis;
using enum CmpOp;
using enum LabelField;

// Tables 1 and 2, one row per Axis in enum order. An or-self row holds no
// comparisons: it matches where cand.id = ctx.id or its base row matches.
constexpr AxisRow kAxisTable[] = {
    {kSelf, "self", ".", kSelf, false,
     {{kId, kEq, kId}},
     {{kId, kEq, kId}}},
    {kChild, "child", "/", kChild, false,
     {{kPid, kEq, kId}},
     {{kPid, kEq, kId}}},
    // Containment, plus depth to resolve unary branching (§4). Tag
    // positions nest strictly, so that scheme needs no depth [11].
    {kDescendant, "descendant", "//", kDescendant, false,
     {{kLeft, kGe, kLeft}, {kRight, kLe, kRight}, {kDepth, kGt, kDepth}},
     {{kLeft, kGt, kLeft}, {kRight, kLt, kRight}}},
    {kDescendantOrSelf, "descendant-or-self", "", kDescendant, false, {}, {}},
    {kParent, "parent", "\\", kParent, false,
     {{kId, kEq, kPid}},
     {{kId, kEq, kPid}}},
    {kAncestor, "ancestor", "\\\\", kAncestor, false,
     {{kLeft, kLe, kLeft}, {kRight, kGe, kRight}, {kDepth, kLt, kDepth}},
     {{kLeft, kLt, kLeft}, {kRight, kGt, kRight}}},
    {kAncestorOrSelf, "ancestor-or-self", "", kAncestor, false, {}, {}},
    {kFollowing, "following", "-->", kFollowing, false,
     {{kLeft, kGe, kRight}},
     {{kLeft, kGt, kRight}}},
    {kFollowingOrSelf, "following-or-self", "", kFollowing, false, {}, {}},
    // Adjacency: the leftmost leaf of cand immediately follows the
    // rightmost leaf of ctx.
    {kImmediateFollowing, "immediate-following", "->", kImmediateFollowing,
     true, {{kLeft, kEq, kRight}}, {}},
    {kPreceding, "preceding", "<--", kPreceding, false,
     {{kRight, kLe, kLeft}},
     {{kRight, kLt, kLeft}}},
    {kPrecedingOrSelf, "preceding-or-self", "", kPreceding, false, {}, {}},
    {kImmediatePreceding, "immediate-preceding", "<-", kImmediatePreceding,
     true, {{kRight, kEq, kLeft}}, {}},
    {kFollowingSibling, "following-sibling", "==>", kFollowingSibling, false,
     {{kPid, kEq, kPid}, {kLeft, kGe, kRight}},
     {{kPid, kEq, kPid}, {kLeft, kGt, kRight}}},
    {kFollowingSiblingOrSelf, "following-sibling-or-self", "",
     kFollowingSibling, false, {}, {}},
    // Sibling intervals tile their parent's span, so the next sibling
    // starts exactly where this one ends.
    {kImmediateFollowingSibling, "immediate-following-sibling", "=>",
     kImmediateFollowingSibling, true,
     {{kPid, kEq, kPid}, {kLeft, kEq, kRight}}, {}},
    {kPrecedingSibling, "preceding-sibling", "<==", kPrecedingSibling, false,
     {{kPid, kEq, kPid}, {kRight, kLe, kLeft}},
     {{kPid, kEq, kPid}, {kRight, kLt, kLeft}}},
    {kPrecedingSiblingOrSelf, "preceding-sibling-or-self", "",
     kPrecedingSibling, false, {}, {}},
    {kImmediatePrecedingSibling, "immediate-preceding-sibling", "<=",
     kImmediatePrecedingSibling, true,
     {{kPid, kEq, kPid}, {kRight, kEq, kLeft}}, {}},
    // Attribute rows carry their element's label (Definition 4.1, rule 8);
    // the kind/name restriction is the caller's.
    {kAttribute, "attribute", "@", kAttribute, false,
     {{kId, kEq, kId}},
     {{kId, kEq, kId}}},
};

constexpr bool RowsFollowTheEnum() {
  if (std::size(kAxisTable) != kAxisCount) return false;
  for (int i = 0; i < kAxisCount; ++i) {
    if (kAxisTable[i].axis != static_cast<Axis>(i)) return false;
  }
  return true;
}
static_assert(RowsFollowTheEnum(), "kAxisTable must list Axis in order");

// Label member per LabelField, in LabelField order.
constexpr int32_t Label::*kFieldOf[] = {&Label::left, &Label::right,
                                        &Label::depth, &Label::id,
                                        &Label::pid};

const AxisRow& Row(Axis axis) {
  return kAxisTable[static_cast<int>(axis)];
}

bool Matches(LabelScheme scheme, Axis axis, const Label& ctx,
             const Label& cand) {
  const Axis base = AxisBase(axis);
  if (base != axis) {
    return cand.id == ctx.id || Matches(scheme, base, ctx, cand);
  }
  if (scheme == LabelScheme::kXPath && !XPathLabelingSupports(axis)) {
    return false;
  }
  for (const LabelCmp& c : AxisComparisons(scheme, axis)) {
    if (!EvalCmp(cand.*kFieldOf[static_cast<int>(c.cand)], c.op,
                 ctx.*kFieldOf[static_cast<int>(c.ctx)])) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string_view AxisName(Axis axis) { return Row(axis).name; }

std::string_view AxisAbbreviation(Axis axis) {
  return Row(axis).abbreviation;
}

bool AxisIncludesSelf(Axis axis) {
  return axis == Axis::kSelf || AxisBase(axis) != axis;
}

Axis AxisBase(Axis axis) { return Row(axis).base; }

bool IsImmediateAxis(Axis axis) { return Row(axis).immediate; }

bool XPathLabelingSupports(Axis axis) { return !IsImmediateAxis(axis); }

std::span<const LabelCmp> AxisComparisons(LabelScheme scheme, Axis axis) {
  const LabelTest& test =
      scheme == LabelScheme::kLPath ? Row(axis).lpath : Row(axis).xpath;
  return {test.at, test.size};
}

bool LPathAxisMatches(Axis axis, const Label& ctx, const Label& cand) {
  return Matches(LabelScheme::kLPath, axis, ctx, cand);
}

bool XPathAxisMatches(Axis axis, const Label& ctx, const Label& cand) {
  return Matches(LabelScheme::kXPath, axis, ctx, cand);
}

}  // namespace lpath
