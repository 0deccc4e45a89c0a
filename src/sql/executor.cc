#include "sql/executor.h"

#include <algorithm>
#include <array>
#include <limits>
#include <memory>

namespace lpath {
namespace sql {

namespace {

constexpr int32_t kMinInt = std::numeric_limits<int32_t>::min();
constexpr int32_t kMaxInt = std::numeric_limits<int32_t>::max();

/// Output rows buffered before the first in-place DISTINCT pass.
constexpr size_t kMinCompactRows = 4096;

bool IsLocal(const Operand& o) { return !o.is_literal() && !o.is_outer(); }

/// One plan's binding frame; frames chain to parents for correlation.
struct Frame {
  const PreparedPlan* pp;
  std::vector<Row> bound;
  const Frame* parent = nullptr;
};

/// Bounds derived for a variable's columns from checkable conjuncts.
struct Bounds {
  bool has_tid = false;
  int32_t tid = 0;
  bool has_id = false;
  int32_t id = 0;
  bool has_pid = false;
  int32_t pid = 0;
  bool has_value = false;
  Symbol value = kNoSymbol;
  int64_t left_lo = kMinInt, left_hi = kMaxInt;    // half-open
  int64_t right_lo = kMinInt, right_hi = kMaxInt;  // half-open
};

class Runner {
 public:
  Runner(const NodeRelation& rel, const ExecOptions& options, ExecStats* stats)
      : rel_(rel), options_(options), stats_(stats) {}

  /// Runs `pp`, its root plan's first variable enumerating only rows of
  /// trees in [tid_lo, tid_hi). Subplan frames are unaffected: they chase
  /// correlations wherever the bound rows point. A vacuous range leaves
  /// root_pp_ null so serial execution keeps the unclamped fast paths.
  Status RunShard(const PreparedPlan& pp, int32_t tid_lo, int32_t tid_hi,
                  QueryResult* out) {
    if (pp.always_empty) return Status::OK();
    root_pp_ = (tid_lo > 0 || tid_hi < kMaxInt) ? &pp : nullptr;
    shard_lo_ = tid_lo;
    shard_hi_ = tid_hi;
    Frame frame;
    frame.pp = &pp;
    frame.bound.assign(pp.plan.num_vars, kNoRow);
    compact_at_ = kMinCompactRows;
    Extend(frame, 0, out);
    out->Normalize();
    return Status::OK();
  }

 private:
  int64_t ColValue(Row r, PlanCol col) const {
    switch (col) {
      case PlanCol::kTid: return rel_.tid(r);
      case PlanCol::kLeft: return rel_.left(r);
      case PlanCol::kRight: return rel_.right(r);
      case PlanCol::kDepth: return rel_.depth(r);
      case PlanCol::kId: return rel_.id(r);
      case PlanCol::kPid: return rel_.pid(r);
      case PlanCol::kName: return rel_.name(r);
      case PlanCol::kValue: return rel_.value(r);
      case PlanCol::kKind: return static_cast<int64_t>(rel_.kind(r));
    }
    return 0;
  }

  /// Value of an operand under a frame (literal / local / outer).
  bool OperandValue(const Frame& f, const Operand& o, int64_t* out) const {
    if (o.is_literal()) {
      *out = o.num;
      return true;
    }
    Row r;
    if (o.is_outer()) {
      if (f.parent == nullptr) return false;
      r = f.parent->bound[o.outer_index()];
    } else {
      r = f.bound[o.var];
    }
    if (r == kNoRow) return false;
    *out = ColValue(r, o.col);
    return true;
  }

  static bool Compare(int64_t a, CmpOp op, int64_t b) {
    switch (op) {
      case CmpOp::kEq: return a == b;
      case CmpOp::kNe: return a != b;
      case CmpOp::kLt: return a < b;
      case CmpOp::kLe: return a <= b;
      case CmpOp::kGt: return a > b;
      case CmpOp::kGe: return a >= b;
    }
    return false;
  }

  bool EvalConjunct(const Frame& f, const Conjunct& c) const {
    int64_t a, b;
    if (!OperandValue(f, c.lhs, &a) || !OperandValue(f, c.rhs, &b)) {
      return false;  // unbound operand: cannot hold
    }
    return Compare(a, c.op, b);
  }

  bool EvalBool(Frame& f, const BoolExpr& e) {
    switch (e.kind) {
      case BoolExpr::Kind::kAnd:
        return EvalBool(f, *e.lhs) && EvalBool(f, *e.rhs);
      case BoolExpr::Kind::kOr:
        return EvalBool(f, *e.lhs) || EvalBool(f, *e.rhs);
      case BoolExpr::Kind::kNot:
        return !EvalBool(f, *e.lhs);
      case BoolExpr::Kind::kCmp:
        return EvalConjunct(f, e.cmp);
      case BoolExpr::Kind::kExists:
        return EvalExists(f, e);
    }
    return false;
  }

  bool EvalExists(Frame& f, const BoolExpr& e) {
    const PreparedPlan& sub = *f.pp->subs.find(&e)->second;
    // Subplans never carry always_empty: their unknown literals resolve to
    // the unsatisfiable sentinel, so an impossible EXISTS enumerates
    // nothing and evaluates to false here.
    if (stats_ != nullptr) stats_->subqueries += 1;
    // The binding rows reuse a buffer an earlier evaluation released, so
    // a subquery allocates only while the run's deepest nesting grows.
    Frame sub_frame;
    sub_frame.pp = &sub;
    if (!spare_rows_.empty()) {
      sub_frame.bound = std::move(spare_rows_.back());
      spare_rows_.pop_back();
    }
    sub_frame.bound.assign(sub.plan.num_vars, kNoRow);
    sub_frame.parent = &f;
    const bool found = Extend(sub_frame, 0, /*out=*/nullptr);
    spare_rows_.push_back(std::move(sub_frame.bound));
    return found;
  }

  /// Tree `tid`'s slice of run(name), from the slice cache.
  RowRange TreeSlice(Symbol name, int32_t tid) {
    SliceEntry& e = slices_[SliceCacheSlot(name, tid)];
    if (e.name != name || e.tid != tid) {
      e.name = name;
      e.tid = tid;
      e.range = rel_.RunForTree(name, tid);
    }
    return e.range;
  }

  /// Binds the variable at `pos` and recurses. Returns true if at least one
  /// complete binding was reached below this point. `out == nullptr` means
  /// existence mode (stop at the first complete binding).
  bool Extend(Frame& f, int pos, QueryResult* out) {
    const PreparedPlan& pp = *f.pp;
    if (pos == static_cast<int>(pp.order.size())) {
      if (out != nullptr) {
        const Row r = f.bound[pp.plan.output_var];
        out->hits.push_back(Hit{rel_.tid(r), rel_.id(r)});
        // When the output is not the root variable, many bindings can
        // project to one output row. Deduplicating in place whenever the
        // buffer doubles keeps it within 2x the distinct rows (or
        // kMinCompactRows).
        if (out->hits.size() >= compact_at_) {
          out->Normalize();
          compact_at_ = std::max(kMinCompactRows, 2 * out->hits.size());
        }
      }
      return true;
    }
    const int v = pp.order[pos];
    bool found_any = false;

    auto try_candidate = [&](Row cand) -> bool {
      // returns true when the caller should stop enumerating
      if (stats_ != nullptr) stats_->candidates += 1;
      f.bound[v] = cand;
      bool ok = true;
      for (const Conjunct& c : pp.conjuncts_at[pos]) {
        if (!EvalConjunct(f, c)) {
          ok = false;
          break;
        }
      }
      if (ok) {
        for (const BoolExpr* filter : pp.filters_at[pos]) {
          if (!EvalBool(f, *filter)) {
            ok = false;
            break;
          }
        }
      }
      if (ok) {
        if (stats_ != nullptr) stats_->bindings += 1;
        const bool sub_found = Extend(f, pos + 1, out);
        found_any |= sub_found;
        if (sub_found) {
          if (out == nullptr) return true;  // existence: done
          if (options_.distinct_early_exit && pos > pp.output_pos) {
            return true;  // deeper bindings cannot change DISTINCT output
          }
        }
      }
      f.bound[v] = kNoRow;
      return false;
    };

    ForEachCandidate(f, pos, v, try_candidate);
    f.bound[v] = kNoRow;
    return found_any;
  }

  /// Derives bounds on var `v`'s columns from the conjuncts checkable at
  /// `pos` whose other side is already bound.
  Bounds DeriveBounds(const Frame& f, int pos, int v) const {
    Bounds b;
    for (const Conjunct& c : f.pp->conjuncts_at[pos]) {
      if (!IsLocal(c.lhs) || c.lhs.var != v) continue;
      int64_t rhs;
      if (!OperandValue(f, c.rhs, &rhs)) continue;
      switch (c.lhs.col) {
        case PlanCol::kTid:
          if (c.op == CmpOp::kEq) {
            b.has_tid = true;
            b.tid = static_cast<int32_t>(rhs);
          }
          break;
        case PlanCol::kId:
          if (c.op == CmpOp::kEq) {
            b.has_id = true;
            b.id = static_cast<int32_t>(rhs);
          }
          break;
        case PlanCol::kPid:
          if (c.op == CmpOp::kEq) {
            b.has_pid = true;
            b.pid = static_cast<int32_t>(rhs);
          }
          break;
        case PlanCol::kValue:
          if (c.op == CmpOp::kEq) {
            b.has_value = true;
            b.value = static_cast<Symbol>(rhs);
          }
          break;
        case PlanCol::kLeft:
          switch (c.op) {
            case CmpOp::kEq:
              b.left_lo = std::max(b.left_lo, rhs);
              b.left_hi = std::min(b.left_hi, rhs + 1);
              break;
            case CmpOp::kGe: b.left_lo = std::max(b.left_lo, rhs); break;
            case CmpOp::kGt: b.left_lo = std::max(b.left_lo, rhs + 1); break;
            case CmpOp::kLe: b.left_hi = std::min(b.left_hi, rhs + 1); break;
            case CmpOp::kLt: b.left_hi = std::min(b.left_hi, rhs); break;
            default: break;
          }
          break;
        case PlanCol::kRight:
          switch (c.op) {
            case CmpOp::kEq:
              b.right_lo = std::max(b.right_lo, rhs);
              b.right_hi = std::min(b.right_hi, rhs + 1);
              break;
            case CmpOp::kGe: b.right_lo = std::max(b.right_lo, rhs); break;
            case CmpOp::kGt: b.right_lo = std::max(b.right_lo, rhs + 1); break;
            case CmpOp::kLe: b.right_hi = std::min(b.right_hi, rhs + 1); break;
            case CmpOp::kLt: b.right_hi = std::min(b.right_hi, rhs); break;
            default: break;
          }
          break;
        default:
          break;
      }
    }
    return b;
  }

  /// Static facts for variable v: name / kind equality with literals.
  void StaticFacts(const PreparedPlan& pp, int v, Symbol* name,
                   int* kind) const {
    *name = kNoSymbol;
    *kind = -1;
    for (const Conjunct& c : pp.plan.conjuncts) {
      if (!IsLocal(c.lhs) || c.lhs.var != v) continue;
      if (!c.rhs.is_literal() || c.op != CmpOp::kEq) continue;
      if (c.lhs.col == PlanCol::kName) *name = static_cast<Symbol>(c.rhs.num);
      if (c.lhs.col == PlanCol::kKind) *kind = static_cast<int>(c.rhs.num);
    }
  }

  template <typename Fn>
  void ForEachCandidate(const Frame& f, int pos, int v, Fn&& fn) {
    const PreparedPlan& pp = *f.pp;
    Symbol name;
    int kind;
    StaticFacts(pp, v, &name, &kind);
    Bounds b = DeriveBounds(f, pos, v);

    // No direct tid conjunct available yet? Derive the tree through v's tid
    // equivalence class: any bound class member, or the class's outer
    // correlation, pins the tree.
    if (!b.has_tid) {
      const int cls = pp.tid_class[v];
      for (int u = 0; u < static_cast<int>(f.bound.size()) && !b.has_tid;
           ++u) {
        if (u != v && pp.tid_class[u] == cls && f.bound[u] != kNoRow) {
          b.has_tid = true;
          b.tid = rel_.tid(f.bound[u]);
        }
      }
      if (!b.has_tid && pp.class_has_outer[cls]) {
        int64_t tid_value = 0;
        if (OperandValue(f, pp.class_outer_tid[cls], &tid_value)) {
          b.has_tid = true;
          b.tid = static_cast<int32_t>(tid_value);
        }
      }
    }

    // Shard constraint: only the root plan's first variable is clamped to
    // the shard's tid slice; every path below inherits the restriction
    // through the tid links. tids are non-negative, so the unsharded
    // [0, kMaxInt) defaults are vacuous.
    const bool sharded = &pp == root_pp_ && pos == 0;
    const int32_t tid_lo = sharded ? shard_lo_ : 0;
    const int32_t tid_hi = sharded ? shard_hi_ : kMaxInt;
    if (b.has_tid && (b.tid < tid_lo || b.tid >= tid_hi)) return;

    const int32_t left_lo =
        static_cast<int32_t>(std::max<int64_t>(b.left_lo, kMinInt + 1));
    const int32_t left_hi =
        static_cast<int32_t>(std::min<int64_t>(b.left_hi, kMaxInt - 1));
    const int32_t right_lo =
        static_cast<int32_t>(std::max<int64_t>(b.right_lo, kMinInt + 1));
    const int32_t right_hi =
        static_cast<int32_t>(std::min<int64_t>(b.right_hi, kMaxInt - 1));
    const bool left_bounded = b.left_lo != kMinInt || b.left_hi != kMaxInt;
    const bool right_bounded = b.right_lo != kMinInt || b.right_hi != kMaxInt;

    // 1. Direct (tid, id) lookup.
    if (b.has_id && b.has_tid) {
      if (kind != 0) {
        for (Row r : rel_.AttrRows(b.tid, b.id)) {
          if (fn(r)) return;
        }
      }
      if (kind != 1) {
        const Row r = rel_.ElementRow(b.tid, b.id);
        if (r != kNoRow && fn(r)) return;
      }
      return;
    }
    // 2. Value index. The global index is ordered by (tid, id), so a shard
    // binary-searches to its first tree and stops at its last.
    if (b.has_value) {
      auto rows = b.has_tid ? rel_.ValueRangeForTree(b.value, b.tid)
                            : rel_.ValueRange(b.value);
      auto it = rows.begin();
      if (sharded && !b.has_tid) {
        it = std::lower_bound(rows.begin(), rows.end(), tid_lo,
                              [this](Row r, int32_t t) {
                                return rel_.tid(r) < t;
                              });
      }
      for (; it != rows.end(); ++it) {
        if (sharded && !b.has_tid && rel_.tid(*it) >= tid_hi) break;
        if (fn(*it)) return;
      }
      return;
    }
    // Also use a *static* value fact (value = 'saw' conjunct at this pos is
    // covered above; a value conjunct scheduled here with literal rhs is in
    // DeriveBounds already).

    // 3. pid equality (children / siblings).
    if (b.has_pid && b.has_tid) {
      if (name != kNoSymbol) {
        for (Row r : rel_.PidRangeIn(TreeSlice(name, b.tid), b.pid)) {
          if (fn(r)) return;
        }
        return;
      }
      if (b.pid == 0) {
        const Row root = rel_.ElementRow(b.tid, 1);
        if (root != kNoRow && fn(root)) return;
        return;
      }
      const Row parent = rel_.ElementRow(b.tid, b.pid);
      if (parent == kNoRow) return;
      for (Row r : rel_.ElementsInLeftRange(b.tid, rel_.left(parent),
                                            rel_.right(parent))) {
        if (rel_.pid(r) == b.pid && fn(r)) return;
      }
      return;
    }
    // 4. Tag run with ranges. These are the containment / sibling-order /
    // edge-alignment workhorses: the access path gives a contiguous
    // clustered slice (or a by-right row list), and the remaining interval
    // predicates are checked per candidate.
    if (name != kNoSymbol) {
      if (b.has_tid) {
        const RowRange slice = TreeSlice(name, b.tid);
        if (right_bounded && !left_bounded) {
          for (Row r : rel_.RightRangeIn(slice, right_lo, right_hi)) {
            if (fn(r)) return;
          }
          return;
        }
        const RowRange range =
            left_bounded ? rel_.LeftRangeIn(slice, left_lo, left_hi) : slice;
        for (Row r = range.begin; r < range.end; ++r) {
          if (fn(r)) return;
        }
        return;
      }
      const RowRange range = sharded ? rel_.RunTidRange(name, tid_lo, tid_hi)
                                     : rel_.run(name);
      for (Row r = range.begin; r < range.end; ++r) {
        if (fn(r)) return;
      }
      return;
    }
    // 5. Wildcard within a tree.
    if (b.has_tid) {
      auto rows = left_bounded
                      ? rel_.ElementsInLeftRange(b.tid, left_lo, left_hi)
                      : rel_.ElementsOfTree(b.tid);
      for (Row r : rows) {
        if (kind != 1 && fn(r)) return;
        if (kind != 0) {
          for (Row a : rel_.AttrRows(b.tid, rel_.id(r))) {
            if (fn(a)) return;
          }
        }
      }
      return;
    }
    // 6. Full scan.
    for (Row r = 0; r < static_cast<Row>(rel_.row_count()); ++r) {
      if (sharded && (rel_.tid(r) < tid_lo || rel_.tid(r) >= tid_hi)) {
        continue;
      }
      if (kind >= 0 && static_cast<int>(rel_.kind(r)) != kind) continue;
      if (fn(r)) return;
    }
  }

  const NodeRelation& rel_;
  const ExecOptions& options_;
  ExecStats* stats_;
  const PreparedPlan* root_pp_ = nullptr;
  int32_t shard_lo_ = 0;
  int32_t shard_hi_ = kMaxInt;
  size_t compact_at_ = kMinCompactRows;

  struct SliceEntry {
    Symbol name = kNoSymbol;  ///< never a lookup key: marks an empty slot
    int32_t tid = 0;
    RowRange range;
  };
  std::array<SliceEntry, kSliceCacheSlots> slices_;
  std::vector<std::vector<Row>> spare_rows_;  ///< released subquery frames
};

}  // namespace

Result<QueryResult> PlanExecutor::Execute(const ExecPlan& plan,
                                          ExecStats* stats) const {
  LPATH_ASSIGN_OR_RETURN(std::unique_ptr<PreparedPlan> pp,
                         Prepare(plan, rel_, options_));
  return ExecutePrepared(*pp, stats);
}

Result<QueryResult> PlanExecutor::ExecutePrepared(const PreparedPlan& pp,
                                                  ExecStats* stats) const {
  return ExecuteShard(pp, 0, kMaxInt, stats);
}

Result<QueryResult> PlanExecutor::ExecuteShard(const PreparedPlan& pp,
                                               int32_t tid_lo, int32_t tid_hi,
                                               ExecStats* stats) const {
  // The run counts into a local copy, added to `stats` once at the end:
  // concurrent morsels' stats may share a cache line, and a shared line
  // written per candidate makes every fanned-out run pay for the others.
  ExecStats local;
  local.shards = 1;
  Runner runner(rel_, options_, stats != nullptr ? &local : nullptr);
  QueryResult out;
  LPATH_RETURN_IF_ERROR(runner.RunShard(pp, tid_lo, tid_hi, &out));
  if (stats != nullptr) stats->Add(local);
  return out;
}

}  // namespace sql
}  // namespace lpath
