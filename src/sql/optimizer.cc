#include "sql/optimizer.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>

namespace lpath {
namespace sql {

namespace {

std::atomic<uint64_t> g_prepare_calls{0};

bool IsLocal(const Operand& o) { return !o.is_literal() && !o.is_outer(); }

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

/// Normalizes one comparison, a top-level conjunct or a filter's leaf. A
/// literal-first spelling (`'VB' = a.name`) is flipped column-first,
/// mirroring the operator: the fact harvest and the access-path choice
/// inspect only var-on-lhs conjuncts, so without this it would silently
/// degrade to a full scan. String literals resolve to symbol ids in
/// `dictionary`, and support only = and !=. An unknown word in an equality
/// sets `*always_empty` when the flag is given — only for the top-level
/// conjuncts of the top-level plan, AND legs that can never hold. Inside
/// OR/NOT trees and subplans the word becomes an unsatisfiable sentinel
/// and evaluation decides: `x = 'unknown' OR <other>` must still consider
/// <other>, and an impossible EXISTS simply enumerates nothing.
Status Normalize(Conjunct* c, const Interner& dictionary, bool* always_empty) {
  if (c->lhs.is_literal() && !c->rhs.is_literal()) {
    std::swap(c->lhs, c->rhs);
    c->op = MirrorOp(c->op);
  }
  for (Operand* o : {&c->lhs, &c->rhs}) {
    if (!o->is_literal() || !o->is_string) continue;
    if (c->op != CmpOp::kEq && c->op != CmpOp::kNe) {
      return Status::NotSupported(
          "string literals support only = and != comparisons");
    }
    const Symbol sym = dictionary.Lookup(o->str);
    if (sym == kNoSymbol) {
      if (c->op == CmpOp::kEq && always_empty != nullptr) *always_empty = true;
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
}

/// Static per-variable access facts harvested from literal conjuncts.
struct VarFacts {
  std::optional<Symbol> name, value;
  bool has_pid0 = false;  // pid = 0 (root)
};

/// The conjuncts that name each local variable, in plan order, as one CSR
/// built once per plan level: v's indices into the plan's conjuncts are
/// conjuncts[offsets[v] .. offsets[v + 1]), so the fact harvest and every
/// cost estimate read one variable's span instead of scanning the plan.
struct ConjunctIndex {
  std::vector<int> offsets, conjuncts;
  std::span<const int> operator[](int v) const {
    return {conjuncts.data() + offsets[v], conjuncts.data() + offsets[v + 1]};
  }
};

/// The local variables conjunct `c` names, each once (-1: none).
std::array<int, 2> LocalVars(const Conjunct& c) {
  const int l = IsLocal(c.lhs) ? c.lhs.var : -1;
  return {l, IsLocal(c.rhs) && c.rhs.var != l ? c.rhs.var : -1};
}

std::vector<VarFacts> HarvestFacts(const ExecPlan& plan,
                                   const ConjunctIndex& uses) {
  std::vector<VarFacts> facts(plan.num_vars);
  for (int v = 0; v < plan.num_vars; ++v) {
    VarFacts& f = facts[v];
    for (int i : uses[v]) {
      const Conjunct& c = plan.conjuncts[i];
      if (!IsLocal(c.lhs) || c.lhs.var != v || !c.rhs.is_literal() ||
          c.op != CmpOp::kEq) {
        continue;
      }
      switch (c.lhs.col) {
        case PlanCol::kName: f.name = static_cast<Symbol>(c.rhs.num); break;
        case PlanCol::kValue: f.value = static_cast<Symbol>(c.rhs.num); break;
        case PlanCol::kPid: f.has_pid0 |= c.rhs.num == 0; break;
        default: break;
      }
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
  if (f.value) {
    base = std::max<double>(1.0, rel.ValueCardinality(*f.value));
  } else if (f.name) {
    base = std::max<double>(1.0, rel.NameCardinality(*f.name));
  } else {
    base = std::max<double>(1.0, rel.row_count());
  }
  if (f.has_pid0) base = std::min(base, trees);
  return base;
}

/// Estimated rows produced when binding `v` given the `bound` set (join
/// links give discounts). All heuristic — the point is the *ranking*.
double EstimateCost(const ExecPlan& plan, const ConjunctIndex& uses,
                    const std::vector<VarFacts>& facts, const NodeRelation& rel,
                    int v, const std::vector<bool>& bound,
                    bool anything_bound) {
  const VarFacts& f = facts[v];
  const double trees = std::max<double>(1.0, rel.tree_count());
  const double base = BaseCardinality(f, rel);

  if (!anything_bound) return base;

  // Join-link discount: the best access path available through a conjunct
  // against an already-bound variable (or an outer reference, always bound).
  double best = base / trees;  // per-tree scan via the tid link
  for (int i : uses[v]) {
    const Conjunct& c = plan.conjuncts[i];
    const bool lhs_mine = IsLocal(c.lhs) && c.lhs.var == v;
    const Operand* mine = lhs_mine ? &c.lhs : &c.rhs;
    const Operand* other = lhs_mine ? &c.rhs : &c.lhs;
    const bool other_ready =
        other->is_literal() || other->is_outer() ||
        (IsLocal(*other) && bound[other->var]);
    if (!other_ready) continue;
    double est = base;
    switch (mine->col) {
      case PlanCol::kId: if (c.op == CmpOp::kEq) est = 1.0; break;
      case PlanCol::kPid: if (c.op == CmpOp::kEq) est = 4.0; break;
      case PlanCol::kLeft:
      case PlanCol::kRight:
        // Equality: an immediate axis, where a handful of nodes share an
        // edge. Otherwise a range scan.
        est = c.op == CmpOp::kEq ? 3.0 : std::max(1.0, base / trees / 2.0);
        break;
      default: continue;
    }
    best = std::min(best, est);
  }
  return best;
}

std::vector<int> ChooseOrder(const ExecPlan& plan, const ConjunctIndex& uses,
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
      const double cost =
          EstimateCost(plan, uses, facts, rel, v, bound, step > 0);
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

/// Orients a conjunct so its lhs is the variable bound at `pos` (when that
/// variable participates), which is what the access-path derivation scans.
Conjunct Orient(Conjunct c, int var_at_pos) {
  // r is -1 when the lhs names the same variable, so a conjunct whose lhs
  // already is var_at_pos stays as it is.
  if (const int r = LocalVars(c)[1]; r >= 0 && r == var_at_pos) {
    std::swap(c.lhs, c.rhs);
    c.op = MirrorOp(c.op);
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

/// Prepares one plan level and, through its EXISTS nodes, the levels below
/// it. A subplan (`correlated`) appends to `outer_vars` the parent
/// variables its outer references name, which is where the parent places
/// its filter.
Result<std::unique_ptr<PreparedPlan>> PrepareLevel(
    ExecPlan plan, const NodeRelation& rel, const ExecOptions& options,
    const Interner& dictionary, bool correlated, std::vector<int>* outer_vars) {
  auto pp = std::make_unique<PreparedPlan>();
  pp->plan = std::move(plan);
  ExecPlan& p = pp->plan;
  const int n = p.num_vars;

  // Each top-level conjunct, once: normalized, counted under the local
  // variables it names (uses.offsets[v + 2]; the fill pass below builds
  // the CSR), and its tid link recorded — a local tid equality joins two
  // tid classes (union-find), an outer one gives the class a tree to read.
  ConjunctIndex uses{std::vector<int>(n + 2, 0), {}};
  std::vector<int> parent(n);
  for (int v = 0; v < n; ++v) parent[v] = v;
  const auto find = [&](int v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  std::vector<std::pair<int, const Operand*>> outer_tids;  // in plan order
  bool* const always_empty = correlated ? nullptr : &pp->always_empty;
  for (int i = 0; i < static_cast<int>(p.conjuncts.size()); ++i) {
    Conjunct& c = p.conjuncts[i];
    LPATH_RETURN_IF_ERROR(Normalize(&c, dictionary, always_empty));
    const auto [l, r] = LocalVars(c);
    for (const int v : {l, r}) uses.offsets[v + 2] += v >= 0;
    if (c.op != CmpOp::kEq || c.lhs.col != PlanCol::kTid ||
        c.rhs.col != PlanCol::kTid) {
      continue;
    }
    if (l >= 0 && r >= 0) {
      parent[find(l)] = find(r);
    } else if (l >= 0 && c.rhs.is_outer()) {
      outer_tids.emplace_back(l, &c.rhs);
    } else if (r >= 0 && c.lhs.is_outer()) {
      outer_tids.emplace_back(r, &c.lhs);
    }
  }
  // After the prefix sum uses.offsets[v + 1] is v's first entry: its fill
  // cursor, which stops at v + 1's first entry.
  std::partial_sum(uses.offsets.begin(), uses.offsets.end(),
                   uses.offsets.begin());
  uses.conjuncts.resize(uses.offsets.back());
  for (int i = 0; i < static_cast<int>(p.conjuncts.size()); ++i) {
    for (const int v : LocalVars(p.conjuncts[i])) {
      if (v >= 0) uses.conjuncts[uses.offsets[v + 1]++] = i;
    }
  }
  uses.offsets.pop_back();
  pp->tid_class.resize(n);
  for (int v = 0; v < n; ++v) pp->tid_class[v] = find(v);
  // Per tid class: the last outer reference whose tid the class equals.
  std::vector<const Operand*> class_outer(n, nullptr);
  for (const auto& [v, outer] : outer_tids) {
    class_outer[pp->tid_class[v]] = outer;
  }

  // The variable order, and each variable's position in it.
  const std::vector<VarFacts> facts = HarvestFacts(p, uses);
  pp->order = ChooseOrder(p, uses, facts, rel, options.join_order);
  pp->root_cardinality =
      pp->order.empty()
          ? 0
          : static_cast<size_t>(BaseCardinality(facts[pp->order[0]], rel));
  std::vector<int> pos_of(n, 0);  // variable -> position
  for (int pos = 0; pos < static_cast<int>(pp->order.size()); ++pos) {
    pos_of[pp->order[pos]] = pos;
  }
  pp->output_pos = n > 0 ? pos_of[p.output_var] : 0;

  // Raises *pos to a local operand's position; hands an outer operand's
  // variable up to the parent.
  const auto read = [&](const Operand& o, int* pos) {
    if (o.is_outer()) {
      if (outer_vars != nullptr) outer_vars->push_back(o.var);
    } else if (!o.is_literal()) {
      *pos = std::max(*pos, pos_of[o.var]);
    }
  };

  // Conjuncts checkable once position p is bound, oriented so lhs.var is
  // that position's variable whenever a local variable is involved; the
  // access paths split each position's set into bounds and residual.
  std::vector<std::vector<Conjunct>> pos_conjuncts(std::max(1, n));
  for (const Conjunct& c : p.conjuncts) {
    int pos = 0;
    read(c.lhs, &pos);
    read(c.rhs, &pos);
    pos_conjuncts[pos].push_back(
        Orient(c, pp->order.empty() ? -1 : pp->order[pos]));
  }

  // Each filter tree, walked once: its comparisons normalized, *pos raised
  // to the latest position it reads, and its EXISTS subplans moved out of
  // their nodes and prepared, left to right, into `subs`.
  const auto walk = [&](const auto& self, BoolExpr* e, int* pos) -> Status {
    switch (e->kind) {
      case BoolExpr::Kind::kAnd:
      case BoolExpr::Kind::kOr:
        LPATH_RETURN_IF_ERROR(self(self, e->lhs.get(), pos));
        return self(self, e->rhs.get(), pos);
      case BoolExpr::Kind::kNot:
        return self(self, e->lhs.get(), pos);
      case BoolExpr::Kind::kCmp:
        LPATH_RETURN_IF_ERROR(Normalize(&e->cmp, dictionary, nullptr));
        read(e->cmp.lhs, pos);
        read(e->cmp.rhs, pos);
        return Status::OK();
      case BoolExpr::Kind::kExists:
        break;
    }
    std::vector<int> named;  // this level's variables the subplan reads
    const std::unique_ptr<ExecPlan> sub = std::move(e->sub);
    LPATH_ASSIGN_OR_RETURN(
        std::unique_ptr<PreparedPlan> prepared,
        PrepareLevel(std::move(*sub), rel, options, dictionary,
                     /*correlated=*/true, &named));
    for (int v : named) *pos = std::max(*pos, pos_of[v]);
    e->sub_slot = static_cast<int>(pp->subs.size());
    pp->subs.push_back(std::move(prepared));
    return Status::OK();
  };
  pp->filters_at.resize(std::max(1, n));
  for (const auto& f : p.filters) {
    int pos = 0;
    LPATH_RETURN_IF_ERROR(walk(walk, f.get(), &pos));
    pp->filters_at[pos].push_back(f.get());
  }

  for (int pos = 0; pos < static_cast<int>(pp->order.size()); ++pos) {
    pp->access.push_back(ChooseAccess(*pp, pos, pos_of, pos_conjuncts[pos],
                                      correlated, class_outer));
  }
  return pp;
}

}  // namespace

Result<std::unique_ptr<PreparedPlan>> Prepare(const ExecPlan& plan,
                                              const NodeRelation& rel,
                                              const ExecOptions& options,
                                              const Interner* dictionary) {
  g_prepare_calls.fetch_add(1, std::memory_order_relaxed);
  return PrepareLevel(plan.Clone(), rel, options,
                      dictionary != nullptr ? *dictionary : rel.interner(),
                      /*correlated=*/false, /*outer_vars=*/nullptr);
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
