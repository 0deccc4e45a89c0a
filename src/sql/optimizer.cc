#include "sql/optimizer.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <set>
#include <sstream>

namespace lpath {
namespace sql {

namespace {

std::atomic<uint64_t> g_prepare_calls{0};

bool IsLocal(const Operand& o) { return !o.is_literal() && !o.is_outer(); }

/// Collects this plan's local variables referenced by an expression,
/// including the correlation (outer) references made by nested subplans.
void CollectVars(const Conjunct& c, std::set<int>* vars) {
  if (IsLocal(c.lhs)) vars->insert(c.lhs.var);
  if (IsLocal(c.rhs)) vars->insert(c.rhs.var);
}

void CollectVars(const BoolExpr& e, std::set<int>* vars) {
  switch (e.kind) {
    case BoolExpr::Kind::kAnd:
    case BoolExpr::Kind::kOr:
      CollectVars(*e.lhs, vars);
      CollectVars(*e.rhs, vars);
      return;
    case BoolExpr::Kind::kNot:
      CollectVars(*e.lhs, vars);
      return;
    case BoolExpr::Kind::kCmp:
      CollectVars(e.cmp, vars);
      return;
    case BoolExpr::Kind::kExists:
      break;
  }
  // The outer references inside the subplan are *our* local variables.
  auto visit_op = [&](const Operand& o) {
    if (o.is_outer()) vars->insert(o.outer_index());
  };
  for (const Conjunct& c : e.sub->conjuncts) {
    visit_op(c.lhs);
    visit_op(c.rhs);
  }
  std::vector<const BoolExpr*> stack;
  for (const auto& f : e.sub->filters) stack.push_back(f.get());
  while (!stack.empty()) {
    const BoolExpr* n = stack.back();
    stack.pop_back();
    switch (n->kind) {
      case BoolExpr::Kind::kAnd:
      case BoolExpr::Kind::kOr:
        stack.push_back(n->lhs.get());
        stack.push_back(n->rhs.get());
        break;
      case BoolExpr::Kind::kNot:
        stack.push_back(n->lhs.get());
        break;
      case BoolExpr::Kind::kCmp:
        visit_op(n->cmp.lhs);
        visit_op(n->cmp.rhs);
        break;
      case BoolExpr::Kind::kExists:
        // A nested subplan's outer refs point at the subplan, not at us.
        break;
    }
  }
}

/// Mirror of a comparison operator, for swapping a conjunct's sides.
CmpOp MirrorOp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kLe: return CmpOp::kGe;
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kGe: return CmpOp::kLe;
    default: return op;
  }
}

/// Walks the plan's filter trees, applying `cmp_fn` to every comparison
/// and `exists_fn` to every EXISTS node (one level; `exists_fn` recurses
/// into e->sub if it wants the whole nest). The single traversal the
/// literal-resolution, orientation and prepare passes share.
Status ForEachFilterNode(ExecPlan* plan,
                         const std::function<Status(Conjunct*)>& cmp_fn,
                         const std::function<Status(BoolExpr*)>& exists_fn) {
  std::vector<BoolExpr*> stack;
  for (auto& f : plan->filters) stack.push_back(f.get());
  while (!stack.empty()) {
    BoolExpr* e = stack.back();
    stack.pop_back();
    switch (e->kind) {
      case BoolExpr::Kind::kAnd:
      case BoolExpr::Kind::kOr:
        stack.push_back(e->lhs.get());
        stack.push_back(e->rhs.get());
        break;
      case BoolExpr::Kind::kNot:
        stack.push_back(e->lhs.get());
        break;
      case BoolExpr::Kind::kCmp:
        LPATH_RETURN_IF_ERROR(cmp_fn(&e->cmp));
        break;
      case BoolExpr::Kind::kExists:
        LPATH_RETURN_IF_ERROR(exists_fn(e));
        break;
    }
  }
  return Status::OK();
}

/// Rewrites string literals to dictionary symbol ids in place; validates
/// that string comparisons use only = / !=. An unknown symbol in an
/// equality empties the plan only when the equality is a top-level
/// conjunct (an AND leg that can never hold) and `always_empty` is
/// non-null. Inside OR/NOT filter trees — and throughout EXISTS subplans,
/// which pass a null flag — the comparison is rewritten to an
/// unsatisfiable sentinel and evaluation decides: `x = 'unknown' OR
/// <other>` must still consider <other>, and an impossible EXISTS simply
/// enumerates nothing.
Status ResolveLiterals(ExecPlan* plan, const Interner& interner,
                       bool* always_empty) {
  // `empty_flag` is the enclosing plan's always_empty for top-level
  // conjuncts and null for comparisons inside filter trees.
  auto resolve = [&interner](Conjunct* c, bool* empty_flag) -> Status {
    for (Operand* o : {&c->lhs, &c->rhs}) {
      if (!o->is_literal() || !o->is_string) continue;
      if (c->op != CmpOp::kEq && c->op != CmpOp::kNe) {
        return Status::NotSupported(
            "string literals support only = and != comparisons");
      }
      const Symbol sym = interner.Lookup(o->str);
      if (sym == kNoSymbol) {
        if (c->op == CmpOp::kEq && empty_flag != nullptr) *empty_flag = true;
        // -1 compares equal to no column (symbols are non-negative), so an
        // unknown = is always false and an unknown != always true — the
        // same answers a known-but-absent word would give. (kNoSymbol
        // itself would falsely match the value column of element rows,
        // which store kNoSymbol for "no value".)
        o->num = -1;
      } else {
        o->num = static_cast<int64_t>(sym);
      }
      o->is_string = false;  // now a resolved symbol id
    }
    return Status::OK();
  };
  for (Conjunct& c : plan->conjuncts) {
    LPATH_RETURN_IF_ERROR(resolve(&c, always_empty));
  }
  return ForEachFilterNode(
      plan, [&resolve](Conjunct* c) { return resolve(c, nullptr); },
      [&interner](BoolExpr* e) {
        return ResolveLiterals(e->sub.get(), interner,
                               /*always_empty=*/nullptr);
      });
}

/// Puts the column reference on the lhs of literal-first comparisons
/// (`'VB' = a.name`), mirroring the operator. The fact harvesters and the
/// access-path derivation inspect only var-on-lhs conjuncts, so without
/// this a literal-first spelling silently degrades to a full scan. The SQL
/// parser normalizes as it parses; plans built programmatically may not be.
void NormalizeOrientation(ExecPlan* plan) {
  auto flip = [](Conjunct* c) {
    if (!c->lhs.is_literal() || c->rhs.is_literal()) return;
    std::swap(c->lhs, c->rhs);
    c->op = MirrorOp(c->op);
  };
  for (Conjunct& c : plan->conjuncts) flip(&c);
  (void)ForEachFilterNode(
      plan,
      [&flip](Conjunct* c) {
        flip(c);
        return Status::OK();
      },
      [](BoolExpr* e) {
        NormalizeOrientation(e->sub.get());
        return Status::OK();
      });
}

/// Static per-variable access facts harvested from literal conjuncts.
struct VarFacts {
  Symbol name = kNoSymbol;
  bool has_name = false;
  Symbol value = kNoSymbol;
  bool has_value = false;
  int kind = -1;
  bool has_pid0 = false;  // pid = 0 (root)
};

std::vector<VarFacts> HarvestFacts(const ExecPlan& plan) {
  std::vector<VarFacts> facts(plan.num_vars);
  for (const Conjunct& c : plan.conjuncts) {
    if (!IsLocal(c.lhs) || !c.rhs.is_literal() || c.op != CmpOp::kEq) continue;
    VarFacts& f = facts[c.lhs.var];
    switch (c.lhs.col) {
      case PlanCol::kName:
        f.name = static_cast<Symbol>(c.rhs.num);
        f.has_name = true;
        break;
      case PlanCol::kValue:
        f.value = static_cast<Symbol>(c.rhs.num);
        f.has_value = true;
        break;
      case PlanCol::kKind:
        f.kind = static_cast<int>(c.rhs.num);
        break;
      case PlanCol::kPid:
        if (c.rhs.num == 0) f.has_pid0 = true;
        break;
      default:
        break;
    }
  }
  return facts;
}

/// Rows a standalone scan of `v`'s best access path yields: the value or
/// tag-run cardinality, the whole relation for wildcards, capped at one
/// row per tree for roots. Also the service's shardability estimate.
double BaseCardinality(const VarFacts& f, const NodeRelation& rel) {
  const double trees = std::max<double>(1.0, rel.tree_count());
  double base;
  if (f.has_value) {
    base = std::max<double>(1.0, rel.ValueCardinality(f.value));
  } else if (f.has_name) {
    base = std::max<double>(1.0, rel.NameCardinality(f.name));
  } else {
    base = std::max<double>(1.0, rel.row_count());
  }
  if (f.has_pid0) base = std::min(base, trees);
  return base;
}

/// Estimated rows produced when binding `v` given the `bound` set (join
/// links give discounts). All heuristic — the point is the *ranking*.
double EstimateCost(const ExecPlan& plan, const std::vector<VarFacts>& facts,
                    const NodeRelation& rel, int v,
                    const std::vector<bool>& bound, bool anything_bound) {
  const VarFacts& f = facts[v];
  const double trees = std::max<double>(1.0, rel.tree_count());
  const double base = BaseCardinality(f, rel);

  if (!anything_bound) return base;

  // Join-link discount: the best access path available through a conjunct
  // against an already-bound variable (or an outer reference, always bound).
  double best = base / trees;  // per-tree scan via the tid link
  for (const Conjunct& c : plan.conjuncts) {
    const Operand* mine = nullptr;
    const Operand* other = nullptr;
    if (IsLocal(c.lhs) && c.lhs.var == v) {
      mine = &c.lhs;
      other = &c.rhs;
    } else if (IsLocal(c.rhs) && c.rhs.var == v) {
      mine = &c.rhs;
      other = &c.lhs;
    } else {
      continue;
    }
    const bool other_ready =
        other->is_literal() || other->is_outer() ||
        (IsLocal(*other) && bound[other->var]);
    if (!other_ready) continue;
    double est = base;
    switch (mine->col) {
      case PlanCol::kId:
        if (c.op == CmpOp::kEq) est = 1.0;
        break;
      case PlanCol::kPid:
        if (c.op == CmpOp::kEq) est = 4.0;
        break;
      case PlanCol::kLeft:
      case PlanCol::kRight:
        if (c.op == CmpOp::kEq) {
          est = 3.0;  // immediate axes: a handful of nodes share an edge
        } else {
          est = std::max(1.0, base / trees / 2.0);  // range scan
        }
        break;
      default:
        continue;
    }
    best = std::min(best, est);
  }
  return best;
}

std::vector<int> ChooseOrder(const ExecPlan& plan,
                             const std::vector<VarFacts>& facts,
                             const NodeRelation& rel,
                             ExecOptions::JoinOrder mode) {
  const int n = plan.num_vars;
  std::vector<int> order;
  order.reserve(n);
  if (mode == ExecOptions::JoinOrder::kLeftToRight) {
    for (int v = 0; v < n; ++v) order.push_back(v);
    return order;
  }
  std::vector<bool> bound(n, false);
  for (int step = 0; step < n; ++step) {
    int best_var = -1;
    double best_cost = std::numeric_limits<double>::infinity();
    for (int v = 0; v < n; ++v) {
      if (bound[v]) continue;
      const double cost = EstimateCost(plan, facts, rel, v, bound, step > 0);
      if (cost < best_cost) {
        best_cost = cost;
        best_var = v;
      }
    }
    bound[best_var] = true;
    order.push_back(best_var);
  }
  return order;
}

/// Position at which a conjunct becomes checkable: the max position of its
/// local variables (0 if it references none).
int ReadyPos(const Conjunct& c, const std::vector<int>& pos_of) {
  int pos = 0;
  if (IsLocal(c.lhs)) pos = std::max(pos, pos_of[c.lhs.var]);
  if (IsLocal(c.rhs)) pos = std::max(pos, pos_of[c.rhs.var]);
  return pos;
}

/// Orients a conjunct so its lhs is the variable bound at `pos` (when that
/// variable participates), which is what the access-path derivation scans.
Conjunct Orient(const Conjunct& c, int var_at_pos) {
  if (IsLocal(c.lhs) && c.lhs.var == var_at_pos) return c;
  if (IsLocal(c.rhs) && c.rhs.var == var_at_pos) {
    Conjunct m;
    m.lhs = c.rhs;
    m.rhs = c.lhs;
    m.op = MirrorOp(c.op);
    return m;
  }
  return c;
}

/// Chooses the access path of position `pos`: the executor's index
/// choice, made once. The order fixes which variables are bound before
/// `pos` (`pos_of`: variable -> position), so the choice depends on no
/// row. `at` holds the conjuncts checkable once `pos` is bound, oriented
/// by Orient. `correlated` says whether the plan is a subplan, whose outer
/// references are bound; `class_outer` holds each tid class's outer
/// reference (or null).
AccessPath ChooseAccess(const PreparedPlan& pp, int pos,
                        const std::vector<int>& pos_of,
                        const std::vector<Conjunct>& at, bool correlated,
                        const std::vector<const Operand*>& class_outer) {
  using Kind = AccessPath::Kind;
  using TidSource = AccessPath::TidSource;
  const int v = pp.order[pos];
  auto ready = [&](const Operand& o) {
    if (o.is_literal()) return true;
    if (o.is_outer()) return correlated;
    return o.var != v && pos_of[o.var] < pos;
  };

  // The last literal tag and node-kind equalities, and the conjuncts an
  // index can search by: the last ready tid/id/pid/value equality and
  // every ready left/right comparison.
  AccessPath a;
  int tag_at = -1, tid_at = -1, id_at = -1, pid_at = -1, value_at = -1;
  std::vector<int> left_at, right_at;
  for (int i = 0; i < static_cast<int>(at.size()); ++i) {
    const Conjunct& c = at[i];
    if (!IsLocal(c.lhs) || c.lhs.var != v) continue;
    if (c.rhs.is_literal() && c.op == CmpOp::kEq) {
      if (c.lhs.col == PlanCol::kName) {
        a.tag = static_cast<Symbol>(c.rhs.num);
        tag_at = i;
      }
      if (c.lhs.col == PlanCol::kKind) {
        a.node_kind = static_cast<int>(c.rhs.num);
      }
    }
    if (!ready(c.rhs)) continue;
    const bool eq = c.op == CmpOp::kEq;
    switch (c.lhs.col) {
      case PlanCol::kTid: if (eq) tid_at = i; break;
      case PlanCol::kId: if (eq) id_at = i; break;
      case PlanCol::kPid: if (eq) pid_at = i; break;
      case PlanCol::kValue: if (eq) value_at = i; break;
      case PlanCol::kLeft:
        if (c.op != CmpOp::kNe) left_at.push_back(i);
        break;
      case PlanCol::kRight:
        if (c.op != CmpOp::kNe) right_at.push_back(i);
        break;
      default: break;
    }
  }

  // The tree: a tid equality here, else any earlier member of v's tid
  // class, else the class's outer reference.
  if (tid_at >= 0) {
    a.tid_source = TidSource::kConjunct;
    a.tid = at[tid_at].rhs;
  } else {
    const int cls = pp.tid_class[v];
    for (int u = 0; u < pp.plan.num_vars; ++u) {
      if (u != v && pp.tid_class[u] == cls && pos_of[u] < pos) {
        a.tid_source = TidSource::kClassMember;
        a.tid = Operand::Column(u, PlanCol::kTid);
        break;
      }
    }
    if (a.tid_source == TidSource::kNone && correlated &&
        class_outer[cls] != nullptr) {
      a.tid_source = TidSource::kClassOuter;
      a.tid = *class_outer[cls];
    }
  }
  const bool has_tid = a.tid_source != TidSource::kNone;

  std::vector<bool> implied(at.size(), false);
  auto search_by = [&](int i, bool implies) {
    a.bounds.push_back(at[i]);
    implied[i] = implies;
  };
  bool by_tag = false;
  if (id_at >= 0 && has_tid) {
    a.kind = Kind::kIdLookup;
    search_by(id_at, true);
  } else if (value_at >= 0) {
    a.kind = Kind::kValueIndex;
    search_by(value_at, true);
  } else if (pid_at >= 0 && has_tid) {
    by_tag = a.tag != kNoSymbol;
    a.kind = by_tag ? Kind::kPidInRun : Kind::kPidWildcard;
    search_by(pid_at, by_tag);
  } else if (a.tag != kNoSymbol) {
    by_tag = true;
    if (!has_tid) {
      a.kind = Kind::kRun;
    } else if (!right_at.empty() && left_at.empty()) {
      a.kind = Kind::kRightRange;
      for (int i : right_at) search_by(i, true);
    } else if (!left_at.empty()) {
      a.kind = Kind::kLeftRange;
      for (int i : left_at) search_by(i, true);
    } else {
      a.kind = Kind::kTreeSlice;
    }
  } else if (has_tid) {
    a.kind = Kind::kTreeWildcard;
    for (int i : left_at) search_by(i, false);
  }
  // A path on the tag's run implies the tag equality (unless the literal
  // does not fit a symbol id); every path with a tree implies the tid
  // equality it took the tree from.
  if (by_tag && at[tag_at].rhs.num == static_cast<int64_t>(a.tag)) {
    implied[tag_at] = true;
  }
  if (tid_at >= 0) implied[tid_at] = true;
  for (size_t i = 0; i < at.size(); ++i) {
    if (!implied[i]) a.residual.push_back(at[i]);
  }
  return a;
}

Result<std::unique_ptr<PreparedPlan>> PrepareResolved(
    ExecPlan plan, const NodeRelation& rel, const ExecOptions& options,
    bool always_empty, bool correlated) {
  auto pp = std::make_unique<PreparedPlan>();
  pp->always_empty = always_empty;
  pp->plan = std::move(plan);
  const ExecPlan& p = pp->plan;

  const std::vector<VarFacts> facts = HarvestFacts(p);
  pp->order = ChooseOrder(p, facts, rel, options.join_order);
  pp->root_cardinality =
      pp->order.empty()
          ? 0
          : static_cast<size_t>(BaseCardinality(facts[pp->order[0]], rel));
  std::vector<int> pos_of(p.num_vars, 0);  // variable -> position
  for (int pos = 0; pos < static_cast<int>(pp->order.size()); ++pos) {
    pos_of[pp->order[pos]] = pos;
  }
  pp->output_pos = p.num_vars > 0 ? pos_of[p.output_var] : 0;

  // Conjuncts checkable once position p is bound, oriented so lhs.var is
  // that position's variable whenever a local variable is involved; the
  // access paths split each position's set into bounds and residual.
  std::vector<std::vector<Conjunct>> pos_conjuncts(std::max(1, p.num_vars));
  for (const Conjunct& c : p.conjuncts) {
    const int pos = ReadyPos(c, pos_of);
    pos_conjuncts[pos].push_back(
        Orient(c, pp->order.empty() ? -1 : pp->order[pos]));
  }
  // tid equivalence classes (union-find over tid = tid conjuncts).
  {
    std::vector<int> parent(p.num_vars);
    for (int v = 0; v < p.num_vars; ++v) parent[v] = v;
    std::function<int(int)> find = [&](int v) {
      while (parent[v] != v) v = parent[v] = parent[parent[v]];
      return v;
    };
    for (const Conjunct& c : p.conjuncts) {
      if (c.op != CmpOp::kEq) continue;
      if (c.lhs.col != PlanCol::kTid || c.rhs.col != PlanCol::kTid) continue;
      if (IsLocal(c.lhs) && IsLocal(c.rhs)) {
        parent[find(c.lhs.var)] = find(c.rhs.var);
      }
    }
    pp->tid_class.resize(p.num_vars);
    for (int v = 0; v < p.num_vars; ++v) pp->tid_class[v] = find(v);
  }
  // Per tid class: the last outer reference whose tid the class equals.
  std::vector<const Operand*> class_outer(p.num_vars, nullptr);
  for (const Conjunct& c : p.conjuncts) {
    if (c.op != CmpOp::kEq) continue;
    if (c.lhs.col != PlanCol::kTid || c.rhs.col != PlanCol::kTid) continue;
    const Operand* local = nullptr;
    const Operand* outer = nullptr;
    if (IsLocal(c.lhs) && c.rhs.is_outer()) {
      local = &c.lhs;
      outer = &c.rhs;
    } else if (IsLocal(c.rhs) && c.lhs.is_outer()) {
      local = &c.rhs;
      outer = &c.lhs;
    } else {
      continue;
    }
    class_outer[pp->tid_class[local->var]] = outer;
  }
  for (int pos = 0; pos < static_cast<int>(pp->order.size()); ++pos) {
    pp->access.push_back(ChooseAccess(*pp, pos, pos_of, pos_conjuncts[pos],
                                      correlated, class_outer));
  }

  pp->filters_at.resize(std::max(1, p.num_vars));
  for (const auto& f : p.filters) {
    std::set<int> vars;
    CollectVars(*f, &vars);
    int pos = 0;
    for (int v : vars) pos = std::max(pos, pos_of[v]);
    pp->filters_at[pos].push_back(f.get());
  }

  // Prepare subplans recursively.
  const auto prepare_sub = [&](BoolExpr* e) -> Status {
    LPATH_ASSIGN_OR_RETURN(
        std::unique_ptr<PreparedPlan> sub,
        PrepareResolved(e->sub->Clone(), rel, options,
                        /*always_empty=*/false, /*correlated=*/true));
    e->sub_slot = static_cast<int>(pp->subs.size());
    pp->subs.push_back(std::move(sub));
    return Status::OK();
  };
  LPATH_RETURN_IF_ERROR(ForEachFilterNode(
      &pp->plan, [](Conjunct*) { return Status::OK(); }, prepare_sub));
  return pp;
}

}  // namespace

Result<std::unique_ptr<PreparedPlan>> Prepare(const ExecPlan& plan,
                                              const NodeRelation& rel,
                                              const ExecOptions& options,
                                              const Interner* dictionary) {
  g_prepare_calls.fetch_add(1, std::memory_order_relaxed);
  ExecPlan resolved = plan.Clone();
  NormalizeOrientation(&resolved);
  bool always_empty = false;
  LPATH_RETURN_IF_ERROR(ResolveLiterals(
      &resolved, dictionary != nullptr ? *dictionary : rel.interner(),
      &always_empty));
  return PrepareResolved(std::move(resolved), rel, options, always_empty,
                         /*correlated=*/false);
}

std::string_view AccessKindName(AccessPath::Kind kind) {
  using Kind = AccessPath::Kind;
  switch (kind) {
    case Kind::kIdLookup: return "id-lookup";
    case Kind::kValueIndex: return "value-index";
    case Kind::kPidInRun: return "pid-in-run";
    case Kind::kPidWildcard: return "pid-wildcard";
    case Kind::kRightRange: return "right-range";
    case Kind::kLeftRange: return "left-range";
    case Kind::kTreeSlice: return "tree-slice";
    case Kind::kRun: return "run";
    case Kind::kTreeWildcard: return "tree-wildcard";
    case Kind::kFullScan: return "full-scan";
  }
  return "?";
}

namespace {

void AppendAccess(const PreparedPlan& pp, const Interner* names, int indent,
                  std::ostringstream& os) {
  const std::string pad(indent, ' ');
  for (size_t pos = 0; pos < pp.access.size(); ++pos) {
    const AccessPath& a = pp.access[pos];
    os << pad << 'v' << pp.order[pos] << ' ' << AccessKindName(a.kind)
       << " tag=";
    if (a.tag == kNoSymbol) {
      os << '*';
    } else if (names != nullptr && a.tag < names->end_id()) {
      os << names->name(a.tag);
    } else {
      os << a.tag;
    }
    os << " bounds=" << a.bounds.size() << " residual=[";
    for (size_t i = 0; i < a.residual.size(); ++i) {
      os << (i > 0 ? ", " : "") << ConjunctString(a.residual[i]);
    }
    os << "]\n";
  }
  for (const auto& sub : pp.subs) {
    os << pad << "exists\n";
    AppendAccess(*sub, names, indent + 2, os);
  }
}

}  // namespace

std::string ExplainAccess(const PreparedPlan& pp, const Interner* names) {
  std::ostringstream os;
  AppendAccess(pp, names, 0, os);
  return os.str();
}

uint64_t PrepareCallCount() {
  return g_prepare_calls.load(std::memory_order_relaxed);
}

}  // namespace sql
}  // namespace lpath
