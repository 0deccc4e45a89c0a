#include "plan/axis_map.h"

namespace lpath {

namespace {

// Node-relation column per LabelField, in LabelField order.
constexpr PlanCol kColumnOf[] = {PlanCol::kLeft, PlanCol::kRight,
                                 PlanCol::kDepth, PlanCol::kId, PlanCol::kPid};

PlanCol ColumnOf(LabelField field) {
  return kColumnOf[static_cast<int>(field)];
}

}  // namespace

Status AppendAxisConjuncts(LabelScheme scheme, Axis axis, const Operand& from,
                           int to, std::vector<Conjunct>* out) {
  if (AxisBase(axis) != axis) {
    return Status::Internal("or-self axes require AxisFilter");
  }
  if (scheme == LabelScheme::kXPath && !XPathLabelingSupports(axis)) {
    return Status::NotSupported(
        std::string("the XPath labeling scheme cannot evaluate the ") +
        std::string(AxisName(axis)) + " axis (Lemma 3.1)");
  }
  for (const LabelCmp& c : AxisComparisons(scheme, axis)) {
    out->push_back(Conjunct{Operand::Column(to, ColumnOf(c.cand)), c.op,
                            from.WithCol(ColumnOf(c.ctx))});
  }
  return Status::OK();
}

Result<std::unique_ptr<BoolExpr>> AxisFilter(LabelScheme scheme, Axis axis,
                                             const Operand& from, int to) {
  std::vector<Conjunct> base;
  LPATH_RETURN_IF_ERROR(
      AppendAxisConjuncts(scheme, AxisBase(axis), from, to, &base));

  // base conjuncts AND-ed together.
  std::unique_ptr<BoolExpr> conj;
  for (const Conjunct& c : base) {
    auto leaf = std::make_unique<BoolExpr>(BoolExpr::Kind::kCmp);
    leaf->cmp = c;
    if (!conj) {
      conj = std::move(leaf);
    } else {
      auto node = std::make_unique<BoolExpr>(BoolExpr::Kind::kAnd);
      node->lhs = std::move(conj);
      node->rhs = std::move(leaf);
      conj = std::move(node);
    }
  }
  auto self = std::make_unique<BoolExpr>(BoolExpr::Kind::kCmp);
  self->cmp = Conjunct{Operand::Column(to, PlanCol::kId), CmpOp::kEq,
                       from.WithCol(PlanCol::kId)};
  auto out = std::make_unique<BoolExpr>(BoolExpr::Kind::kOr);
  out->lhs = std::move(conj);
  out->rhs = std::move(self);
  return out;
}

}  // namespace lpath
