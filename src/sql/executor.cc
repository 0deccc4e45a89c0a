#include "sql/executor.h"

#include <algorithm>
#include <limits>
#include <memory>

namespace lpath {
namespace sql {

namespace {

constexpr int32_t kMinInt = std::numeric_limits<int32_t>::min();
constexpr int32_t kMaxInt = std::numeric_limits<int32_t>::max();

/// Output rows buffered before the first in-place DISTINCT pass.
constexpr size_t kMinCompactRows = 4096;

/// One plan's binding frame; frames chain to parents for correlation.
struct Frame {
  const PreparedPlan* pp;
  std::vector<Row> bound;
  const Frame* parent = nullptr;
};

/// Values of an access path's bounds for the current outer bindings.
struct Bounds {
  int32_t id = 0;
  int32_t pid = 0;
  Symbol value = kNoSymbol;
  int64_t left_lo = kMinInt, left_hi = kMaxInt;    // half-open
  int64_t right_lo = kMinInt, right_hi = kMaxInt;  // half-open
  /// The range bounds as int32 arguments. Labels lie far inside int32, so
  /// clamping loses no row.
  int32_t LeftLo() const { return Clamp(left_lo); }
  int32_t LeftHi() const { return Clamp(left_hi); }
  int32_t RightLo() const { return Clamp(right_lo); }
  int32_t RightHi() const { return Clamp(right_hi); }
  static int32_t Clamp(int64_t v) {
    return static_cast<int32_t>(std::clamp<int64_t>(v, kMinInt, kMaxInt));
  }
};

/// True when `v` is a value an int32 column can hold.
bool FitsInt32(int64_t v) { return v >= kMinInt && v <= kMaxInt; }

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
    const Frame* frame = o.is_outer() ? f.parent : &f;
    if (frame == nullptr) return false;
    const Row r = frame->bound[o.var];
    if (r == kNoRow) return false;
    *out = ColValue(r, o.col);
    return true;
  }

  bool EvalConjunct(const Frame& f, const Conjunct& c) const {
    int64_t a, b;
    if (!OperandValue(f, c.lhs, &a) || !OperandValue(f, c.rhs, &b)) {
      return false;  // unbound operand: cannot hold
    }
    return EvalCmp(a, c.op, b);
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
    const PreparedPlan& sub = *f.pp->subs[e.sub_slot];
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
      for (const Conjunct& c : pp.access[pos].residual) {
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

    ForEachCandidate(f, pos, try_candidate);
    f.bound[v] = kNoRow;
    return found_any;
  }

  /// Evaluates the access path's bounds under the current bindings. False
  /// when no row can satisfy them: an equality whose value no int32 column
  /// (or symbol id) holds, or an operand that is unbound, so that the
  /// conjunct could not hold either.
  bool DeriveBounds(const Frame& f, const AccessPath& a, Bounds* b) const {
    for (const Conjunct& c : a.bounds) {
      int64_t rhs;
      if (!OperandValue(f, c.rhs, &rhs)) return false;
      switch (c.lhs.col) {
        case PlanCol::kId:
          if (!FitsInt32(rhs)) return false;
          b->id = static_cast<int32_t>(rhs);
          break;
        case PlanCol::kPid:
          if (!FitsInt32(rhs)) return false;
          b->pid = static_cast<int32_t>(rhs);
          break;
        case PlanCol::kValue:
          if (rhs < 0 || rhs > std::numeric_limits<Symbol>::max()) {
            return false;
          }
          b->value = static_cast<Symbol>(rhs);
          break;
        case PlanCol::kLeft:
          Narrow(c.op, rhs, &b->left_lo, &b->left_hi);
          break;
        case PlanCol::kRight:
          Narrow(c.op, rhs, &b->right_lo, &b->right_hi);
          break;
        default:
          break;
      }
    }
    return true;
  }

  /// Intersects the half-open range [*lo, *hi) with `col op rhs`.
  static void Narrow(CmpOp op, int64_t rhs, int64_t* lo, int64_t* hi) {
    // Every int32 position compares with rhs as with this clamp, which
    // leaves room for the rhs + 1 below.
    rhs = std::clamp<int64_t>(rhs, int64_t{kMinInt} - 1, int64_t{kMaxInt} + 1);
    switch (op) {
      case CmpOp::kEq:
        *lo = std::max(*lo, rhs);
        *hi = std::min(*hi, rhs + 1);
        break;
      case CmpOp::kGe: *lo = std::max(*lo, rhs); break;
      case CmpOp::kGt: *lo = std::max(*lo, rhs + 1); break;
      case CmpOp::kLe: *hi = std::min(*hi, rhs + 1); break;
      case CmpOp::kLt: *hi = std::min(*hi, rhs); break;
      case CmpOp::kNe: break;
    }
  }

  /// Calls fn(row) for every candidate row of position `pos`, along the
  /// path the optimizer chose, until fn returns true.
  template <typename Fn>
  void ForEachCandidate(const Frame& f, int pos, Fn&& fn) {
    using Kind = AccessPath::Kind;
    const AccessPath& a = f.pp->access[pos];
    // Shard constraint: only the root plan's first variable is clamped to
    // the shard's tid slice; every path below inherits the restriction
    // through the tid links.
    const bool sharded = f.pp == root_pp_ && pos == 0;
    int32_t tid = 0;
    if (a.tid_source != AccessPath::TidSource::kNone) {
      int64_t t;
      if (!OperandValue(f, a.tid, &t) || t < 0 || t > kMaxInt) return;
      tid = static_cast<int32_t>(t);
      if (sharded && (tid < shard_lo_ || tid >= shard_hi_)) return;
    }
    Bounds b;
    if (!DeriveBounds(f, a, &b)) return;
    const int kind = a.node_kind;

    switch (a.kind) {
      case Kind::kIdLookup:
        if (kind != 0) {
          for (Row r : rel_.AttrRows(tid, b.id)) {
            if (fn(r)) return;
          }
        }
        if (kind != 1) {
          const Row r = rel_.ElementRow(tid, b.id);
          if (r != kNoRow && fn(r)) return;
        }
        return;
      case Kind::kValueIndex: {
        // The global index is ordered by (tid, id), so a shard
        // binary-searches to its first tree and stops at its last.
        const bool in_tree = a.tid_source != AccessPath::TidSource::kNone;
        auto rows = in_tree ? rel_.ValueRangeForTree(b.value, tid)
                            : rel_.ValueRange(b.value);
        auto it = rows.begin();
        const bool clamp = sharded && !in_tree;
        if (clamp) {
          it = std::lower_bound(rows.begin(), rows.end(), shard_lo_,
                                [this](Row r, int32_t t) {
                                  return rel_.tid(r) < t;
                                });
        }
        for (; it != rows.end(); ++it) {
          if (clamp && rel_.tid(*it) >= shard_hi_) break;
          if (fn(*it)) return;
        }
        return;
      }
      case Kind::kPidInRun:
        for (Row r : rel_.PidRangeIn(rel_.RunForTree(a.tag, tid), b.pid)) {
          if (fn(r)) return;
        }
        return;
      case Kind::kPidWildcard: {
        if (b.pid == 0) {
          const Row root = rel_.ElementRow(tid, 1);
          if (root != kNoRow) fn(root);
          return;
        }
        const Row parent = rel_.ElementRow(tid, b.pid);
        if (parent == kNoRow) return;
        for (Row r : rel_.ElementsInLeftRange(tid, rel_.left(parent),
                                              rel_.right(parent))) {
          if (rel_.pid(r) == b.pid && fn(r)) return;
        }
        return;
      }
      case Kind::kRightRange:
        for (Row r : rel_.RightRangeIn(rel_.RunForTree(a.tag, tid),
                                       b.RightLo(), b.RightHi())) {
          if (fn(r)) return;
        }
        return;
      case Kind::kLeftRange:
      case Kind::kTreeSlice:
      case Kind::kRun: {
        RowRange range;
        if (a.kind == Kind::kRun) {
          range = sharded ? rel_.RunTidRange(a.tag, shard_lo_, shard_hi_)
                          : rel_.run(a.tag);
        } else {
          range = rel_.RunForTree(a.tag, tid);
          if (a.kind == Kind::kLeftRange) {
            range = rel_.LeftRangeIn(range, b.LeftLo(), b.LeftHi());
          }
        }
        for (Row r = range.begin; r < range.end; ++r) {
          if (fn(r)) return;
        }
        return;
      }
      case Kind::kTreeWildcard: {
        auto rows = a.bounds.empty()
                        ? rel_.ElementsOfTree(tid)
                        : rel_.ElementsInLeftRange(tid, b.LeftLo(),
                                                   b.LeftHi());
        for (Row r : rows) {
          if (kind != 1 && fn(r)) return;
          if (kind != 0) {
            for (Row attr : rel_.AttrRows(tid, rel_.id(r))) {
              if (fn(attr)) return;
            }
          }
        }
        return;
      }
      case Kind::kFullScan:
        for (Row r = 0; r < static_cast<Row>(rel_.row_count()); ++r) {
          if (sharded &&
              (rel_.tid(r) < shard_lo_ || rel_.tid(r) >= shard_hi_)) {
            continue;
          }
          if (kind >= 0 && static_cast<int>(rel_.kind(r)) != kind) continue;
          if (fn(r)) return;
        }
        return;
    }
  }

  const NodeRelation& rel_;
  const ExecOptions& options_;
  ExecStats* stats_;
  const PreparedPlan* root_pp_ = nullptr;
  int32_t shard_lo_ = 0;
  int32_t shard_hi_ = kMaxInt;
  size_t compact_at_ = kMinCompactRows;

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
