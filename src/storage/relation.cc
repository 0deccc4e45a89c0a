#include "storage/relation.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <utility>

namespace lpath {

namespace {

/// Staging record used before the clustered sort.
struct Staged {
  Symbol name;
  int32_t tid;
  Label label;
  Symbol value;
  uint8_t kind;
};

template <typename T>
using OwnedArray = std::vector<T>;

/// Counts every label+sort build (see NodeRelation::BuildCount).
std::atomic<uint64_t> g_build_count{0};

/// Counts every tree labeled by a build (see NodeRelation::LabeledTreeCount).
std::atomic<uint64_t> g_labeled_tree_count{0};

}  // namespace

/// The relation's spans point into these vectors; the arena is held alive
/// through the type-erased backing_ shared_ptr, so moving the relation
/// never invalidates a span.
struct NodeRelation::Arena : StoredArrays<OwnedArray> {
  std::vector<uint32_t> tag_dir_offsets;
  std::vector<TagSlice> tag_dir;
};

uint64_t NodeRelation::BuildCount() {
  return g_build_count.load(std::memory_order_relaxed);
}

uint64_t NodeRelation::LabeledTreeCount() {
  return g_labeled_tree_count.load(std::memory_order_relaxed);
}

Result<NodeRelation> NodeRelation::Build(const Corpus& corpus,
                                         RelationOptions options) {
  // Non-owning alias: the caller keeps the corpus alive and in place.
  return Build(std::shared_ptr<const Corpus>(std::shared_ptr<const Corpus>(),
                                             &corpus),
               options);
}

Result<NodeRelation> NodeRelation::Build(std::shared_ptr<const Corpus> owned,
                                         RelationOptions options) {
  if (owned == nullptr) {
    return Status::InvalidArgument("NodeRelation::Build: null corpus");
  }
  g_build_count.fetch_add(1, std::memory_order_relaxed);
  g_labeled_tree_count.fetch_add(owned->size(), std::memory_order_relaxed);
  const Corpus& corpus = *owned;
  NodeRelation rel;
  rel.scheme_ = options.scheme;
  rel.corpus_ = std::move(owned);
  rel.tree_count_ = static_cast<int32_t>(corpus.size());
  auto arena = std::make_shared<Arena>();
  Arena& cols = *arena;

  // 1. Label every tree and stage rows.
  std::vector<Staged> staged;
  {
    size_t estimated = 0;
    for (TreeId tid = 0; tid < rel.tree_count_; ++tid) {
      estimated += corpus.tree(tid).size() * 2;  // nodes + ~1 attr each
    }
    staged.reserve(estimated);
  }
  std::vector<Label> labels;
  for (TreeId tid = 0; tid < rel.tree_count_; ++tid) {
    const Tree& tree = corpus.tree(tid);
    ComputeLabels(options.scheme, tree, &labels);
    for (NodeId i = 0; i < static_cast<NodeId>(tree.size()); ++i) {
      staged.push_back(Staged{tree.name(i), tid, labels[i], kNoSymbol, 0});
      for (int a = 0; a < tree.attr_count(i); ++a) {
        const Attr& attr = tree.attrs(i)[a];
        staged.push_back(Staged{attr.name, tid, labels[i], attr.value, 1});
      }
      rel.element_count_ += 1;
    }
  }

  // 2. Clustered sort: (name, tid, left, right, depth, id, pid).
  std::sort(staged.begin(), staged.end(), [](const Staged& a, const Staged& b) {
    if (a.name != b.name) return a.name < b.name;
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.label.left != b.label.left) return a.label.left < b.label.left;
    if (a.label.right != b.label.right) return a.label.right < b.label.right;
    if (a.label.depth != b.label.depth) return a.label.depth < b.label.depth;
    return a.label.id < b.label.id;
  });

  // 3. Materialize columns.
  const size_t n = staged.size();
  cols.tid.resize(n);
  cols.left.resize(n);
  cols.right.resize(n);
  cols.depth.resize(n);
  cols.id.resize(n);
  cols.pid.resize(n);
  cols.name.resize(n);
  cols.value.resize(n);
  cols.kind.resize(n);
  for (size_t r = 0; r < n; ++r) {
    const Staged& s = staged[r];
    cols.tid[r] = s.tid;
    cols.left[r] = s.label.left;
    cols.right[r] = s.label.right;
    cols.depth[r] = s.label.depth;
    cols.id[r] = s.label.id;
    cols.pid[r] = s.label.pid;
    cols.name[r] = s.name;
    cols.value[r] = s.value;
    cols.kind[r] = s.kind;
  }

  // 4. Run directory, dense by name symbol.
  const Symbol name_end = corpus.interner().end_id();
  cols.runs.assign(name_end, RowRange{});
  for (Row r = 0; r < n;) {
    Row e = r;
    const Symbol nm = cols.name[r];
    while (e < n && cols.name[e] == nm) ++e;
    cols.runs[nm] = RowRange{r, e};
    r = e;
  }

  // 5. Per-run permutations, each a total order, so that Merge's
  // concatenation reproduces them: a same-name unary chain shares (tid,
  // right, left), and the row breaks that tie.
  cols.by_right.resize(n);
  cols.by_pid.resize(n);
  std::iota(cols.by_right.begin(), cols.by_right.end(), 0u);
  std::iota(cols.by_pid.begin(), cols.by_pid.end(), 0u);
  for (const RowRange& run : cols.runs) {
    if (run.empty()) continue;
    auto rb = cols.by_right.begin() + run.begin;
    auto re = cols.by_right.begin() + run.end;
    std::sort(rb, re, [&cols](Row a, Row b) {
      if (cols.tid[a] != cols.tid[b]) return cols.tid[a] < cols.tid[b];
      if (cols.right[a] != cols.right[b]) return cols.right[a] < cols.right[b];
      if (cols.left[a] != cols.left[b]) return cols.left[a] < cols.left[b];
      return a < b;
    });
    auto pb = cols.by_pid.begin() + run.begin;
    auto pe = cols.by_pid.begin() + run.end;
    std::sort(pb, pe, [&cols](Row a, Row b) {
      if (cols.tid[a] != cols.tid[b]) return cols.tid[a] < cols.tid[b];
      if (cols.pid[a] != cols.pid[b]) return cols.pid[a] < cols.pid[b];
      return cols.left[a] < cols.left[b];
    });
  }

  // 6. Value index over attribute rows: (value, tid, id).
  for (Row r = 0; r < n; ++r) {
    if (cols.value[r] != kNoSymbol) cols.value_index.push_back(r);
  }
  std::sort(cols.value_index.begin(), cols.value_index.end(),
            [&cols](Row a, Row b) {
              if (cols.value[a] != cols.value[b])
                return cols.value[a] < cols.value[b];
              if (cols.tid[a] != cols.tid[b]) return cols.tid[a] < cols.tid[b];
              return cols.id[a] < cols.id[b];
            });
  cols.value_offsets.assign(name_end + 1, 0);
  for (Row idx : cols.value_index) cols.value_offsets[cols.value[idx] + 1] += 1;
  for (size_t v = 1; v < cols.value_offsets.size(); ++v) {
    cols.value_offsets[v] += cols.value_offsets[v - 1];
  }

  // 7. (tid, id) -> element row, and the attribute CSR.
  cols.tree_base.assign(rel.tree_count_ + 1, 0);
  for (TreeId t = 0; t < rel.tree_count_; ++t) {
    cols.tree_base[t + 1] =
        cols.tree_base[t] + static_cast<uint32_t>(corpus.tree(t).size());
  }
  cols.elem_row.assign(rel.element_count_, kNoRow);
  cols.attr_offsets.assign(rel.element_count_ + 1, 0);
  for (Row r = 0; r < n; ++r) {
    const uint32_t slot = cols.tree_base[cols.tid[r]] + (cols.id[r] - 1);
    if (cols.kind[r] == 0) {
      cols.elem_row[slot] = r;
    } else {
      cols.attr_offsets[slot + 1] += 1;
    }
  }
  for (size_t i = 1; i < cols.attr_offsets.size(); ++i) {
    cols.attr_offsets[i] += cols.attr_offsets[i - 1];
  }
  cols.attr_rows.resize(cols.attr_offsets.back());
  {
    std::vector<uint32_t> cursor(cols.attr_offsets.begin(),
                                 cols.attr_offsets.end() - 1);
    for (Row r = 0; r < n; ++r) {
      if (cols.kind[r] == 0) continue;
      const uint32_t slot = cols.tree_base[cols.tid[r]] + (cols.id[r] - 1);
      cols.attr_rows[cursor[slot]++] = r;
    }
  }

  // Every element slot must have been filled.
  for (Row r : cols.elem_row) {
    if (r == kNoRow) {
      return Status::Corruption("element id space has holes");
    }
  }

  // 8. Per-tree row mass prefix sums (morsel planner statistics). Counted
  // from the columns rather than the corpus so attribute rows are included.
  cols.tree_row_prefix.assign(rel.tree_count_ + 1, 0);
  for (Row r = 0; r < n; ++r) cols.tree_row_prefix[cols.tid[r] + 1] += 1;
  for (size_t t = 1; t < cols.tree_row_prefix.size(); ++t) {
    cols.tree_row_prefix[t] += cols.tree_row_prefix[t - 1];
  }

  rel.BindArena(std::move(arena));
  return rel;
}

Result<NodeRelation> NodeRelation::Merge(const NodeRelation& base,
                                         const NodeRelation& delta,
                                         std::shared_ptr<const Corpus> owned) {
  if (owned == nullptr) {
    return Status::InvalidArgument("NodeRelation::Merge: null corpus");
  }
  if (base.scheme_ != delta.scheme_) {
    return Status::InvalidArgument(
        "NodeRelation::Merge: sources use different label schemes");
  }
  const Symbol name_end = owned->interner().end_id();
  if (base.arrays_.runs.size() > name_end ||
      delta.arrays_.runs.size() > name_end) {
    return Status::InvalidArgument(
        "NodeRelation::Merge: merged dictionary misses source symbols");
  }
  NodeRelation rel;
  rel.scheme_ = base.scheme_;
  rel.corpus_ = std::move(owned);
  rel.tree_count_ = base.tree_count_ + delta.tree_count_;
  rel.element_count_ = base.element_count_ + delta.element_count_;
  auto arena = std::make_shared<Arena>();
  Arena& cols = *arena;

  // The two sources in merged order, each with its row remap (source row
  // -> merged row, filled by step 1 for the indexes below) and its tid
  // offset: delta trees follow base trees in the merged tid space.
  struct Source {
    const NodeRelation& rel;
    int32_t tid_off;
    std::vector<Row> remap;
  };
  Source sources[] = {{base, 0, std::vector<Row>(base.row_count())},
                      {delta, base.tree_count_,
                       std::vector<Row>(delta.row_count())}};
  const size_t n = base.row_count() + delta.row_count();

  // 1. Clustered columns: per-name run concatenation (base rows, then delta
  // rows with shifted tids). Every row belongs to exactly one run (name is
  // never kNoSymbol), and within a run the order (tid, left, right, ...) is
  // preserved because shifted delta tids all exceed base tids.
  cols.tid.resize(n);
  cols.left.resize(n);
  cols.right.resize(n);
  cols.depth.resize(n);
  cols.id.resize(n);
  cols.pid.resize(n);
  cols.name.resize(n);
  cols.value.resize(n);
  cols.kind.resize(n);
  cols.runs.assign(name_end, RowRange{});
  Row out = 0;
  for (Symbol s = 1; s < name_end; ++s) {
    const Row begin = out;
    for (Source& src : sources) {
      const StoredArrays<ConstSpan>& in = src.rel.arrays_;
      const RowRange run = src.rel.run(s);
      for (Row r = run.begin; r < run.end; ++r, ++out) {
        src.remap[r] = out;
        cols.tid[out] = in.tid[r] + src.tid_off;
        cols.left[out] = in.left[r];
        cols.right[out] = in.right[r];
        cols.depth[out] = in.depth[r];
        cols.id[out] = in.id[r];
        cols.pid[out] = in.pid[r];
        cols.name[out] = in.name[r];
        cols.value[out] = in.value[r];
        cols.kind[out] = in.kind[r];
      }
    }
    if (out != begin) cols.runs[s] = RowRange{begin, out};
  }
  if (out != n) {
    return Status::Corruption(
        "NodeRelation::Merge: run directories do not cover the sources");
  }

  // 2. Per-run permutations: remapped concatenation per run. The secondary
  // orders ((tid, right, left, row) and (tid, pid, left)) lead with tid, so
  // base entries precede all shifted delta entries within each run, and a
  // source's remap keeps its rows' order, so each source's part stays
  // sorted.
  cols.by_right.resize(n);
  cols.by_pid.resize(n);
  for (Symbol s = 1; s < name_end; ++s) {
    Row w = cols.runs[s].begin;
    for (const Source& src : sources) {
      const RowRange run = src.rel.run(s);
      for (Row i = run.begin; i < run.end; ++i, ++w) {
        cols.by_right[w] = src.remap[src.rel.arrays_.by_right[i]];
        cols.by_pid[w] = src.remap[src.rel.arrays_.by_pid[i]];
      }
    }
  }

  // 3. Value index: per-value remapped concatenation, same tid argument.
  cols.value_index.reserve(base.arrays_.value_index.size() +
                           delta.arrays_.value_index.size());
  cols.value_offsets.reserve(name_end + 1);
  cols.value_offsets.assign(1, 0);
  for (Symbol v = 0; v < name_end; ++v) {
    for (const Source& src : sources) {
      for (Row r : src.rel.ValueRange(v)) {
        cols.value_index.push_back(src.remap[r]);
      }
    }
    cols.value_offsets.push_back(
        static_cast<uint32_t>(cols.value_index.size()));
  }

  // 4. Per-tree prefix sums and the (tid, id) lookup tables: concatenation,
  // each source's entries shifted by the totals of the sources before it
  // (the last entry written so far).
  cols.tree_row_prefix.assign(1, 0);
  cols.tree_base.assign(1, 0);
  cols.attr_offsets.assign(1, 0);
  cols.elem_row.reserve(rel.element_count_);
  cols.attr_rows.reserve(base.arrays_.attr_rows.size() +
                         delta.arrays_.attr_rows.size());
  for (const Source& src : sources) {
    const StoredArrays<ConstSpan>& in = src.rel.arrays_;
    const uint64_t row_off = cols.tree_row_prefix.back();
    const uint32_t elem_off = cols.tree_base.back();
    const uint32_t attr_off = cols.attr_offsets.back();
    for (size_t t = 1; t < in.tree_row_prefix.size(); ++t) {
      cols.tree_row_prefix.push_back(row_off + in.tree_row_prefix[t]);
      cols.tree_base.push_back(elem_off + in.tree_base[t]);
    }
    for (Row r : in.elem_row) cols.elem_row.push_back(src.remap[r]);
    for (size_t i = 1; i < in.attr_offsets.size(); ++i) {
      cols.attr_offsets.push_back(attr_off + in.attr_offsets[i]);
    }
    for (Row r : in.attr_rows) cols.attr_rows.push_back(src.remap[r]);
  }

  rel.BindArena(std::move(arena));
  return rel;
}

void NodeRelation::BindArena(std::shared_ptr<Arena> arena) {
  StoredArrays<ConstSpan>::ForEach(
      [](auto& view, const auto& owned) { view = owned; }, arrays_, *arena);
  BindTagDirectory(&arena->tag_dir_offsets, &arena->tag_dir);
  backing_ = std::move(arena);
}

std::vector<TidRange> NodeRelation::CarveTidRanges(int target_ranges,
                                                   uint64_t min_rows) const {
  std::vector<TidRange> out;
  if (tree_count_ <= 0 || row_count() == 0) return out;
  const std::span<const uint64_t> prefix = arrays_.tree_row_prefix;
  const uint64_t total = prefix.back();
  const uint64_t per_range =
      (total + static_cast<uint64_t>(std::max(1, target_ranges)) - 1) /
      static_cast<uint64_t>(std::max(1, target_ranges));
  const uint64_t target = std::max<uint64_t>(std::max<uint64_t>(1, min_rows),
                                             per_range);
  int32_t lo = 0;
  while (lo < tree_count_) {
    // First boundary whose prefix reaches the target mass: the range ends
    // after the tree that crosses it, so a giant tree never splits (the
    // shard kernel is tid-range based) but never drags neighbours along
    // either once the target is met.
    const uint64_t want = prefix[lo] + target;
    auto it = std::lower_bound(prefix.begin() + lo + 1, prefix.end(), want);
    int32_t hi = static_cast<int32_t>(it - prefix.begin());
    hi = std::min(hi, tree_count_);
    out.push_back(TidRange{lo, hi, prefix[hi] - prefix[lo]});
    lo = hi;
  }
  return out;
}

RowRange NodeRelation::run(Symbol name) const {
  if (name == kNoSymbol || name >= arrays_.runs.size()) return RowRange{};
  return arrays_.runs[name];
}

void NodeRelation::BindTagDirectory(std::vector<uint32_t>* offsets,
                                    std::vector<TagSlice>* entries) {
  // One entry per maximal stretch of equal tids in a run. A well-formed
  // run holds one stretch per tree; a forged image's run may hold several,
  // which simply become several entries, each within the run. Tids are
  // non-negative, so -1 never equals one.
  //
  // Counting pass: off[t + 2] counts tree t's entries (branch-free: the
  // stretches average two rows, so a branch per stretch mispredicts).
  std::vector<uint32_t>& off = *offsets;
  off.assign(static_cast<size_t>(tree_count_) + 2, 0);
  for (const RowRange run : arrays_.runs) {
    int32_t prev = -1;
    for (Row r = run.begin; r < run.end; ++r) {
      off[arrays_.tid[r] + 2] += arrays_.tid[r] != prev;
      prev = arrays_.tid[r];
    }
  }
  for (size_t i = 2; i < off.size(); ++i) off[i] += off[i - 1];
  // Fill pass, in tag order so each tree's entries come out sorted by tag:
  // off[t + 1], now tree t's first entry, is its cursor and ends at tree
  // t + 1's first entry, so the table needs no second array.
  entries->resize(off.back());
  for (Symbol s = 0; s < arrays_.runs.size(); ++s) {
    int32_t prev = -1;
    TagSlice* entry = nullptr;
    for (Row r = arrays_.runs[s].begin; r < arrays_.runs[s].end; ++r) {
      if (arrays_.tid[r] != prev) {
        prev = arrays_.tid[r];
        entry = &(*entries)[off[prev + 1]++];
        *entry = TagSlice{s, RowRange{r, r}};
      }
      entry->rows.end = r + 1;
    }
  }
  off.pop_back();
  tag_dir_offsets_ = off;
  tag_dir_ = *entries;
}

RowRange NodeRelation::RunForTree(Symbol name, int32_t t) const {
  if (t < 0 || t >= tree_count_) return RowRange{};
  const TagSlice* first = tag_dir_.data() + tag_dir_offsets_[t];
  const TagSlice* last = tag_dir_.data() + tag_dir_offsets_[t + 1];
  const TagSlice* it =
      std::lower_bound(first, last, name, [](const TagSlice& e, Symbol s) {
        return e.name < s;
      });
  return it != last && it->name == name ? it->rows : RowRange{};
}

RowRange NodeRelation::RunTidRange(Symbol name, int32_t tid_lo,
                                   int32_t tid_hi) const {
  const RowRange full = run(name);
  if (full.empty() || tid_lo >= tid_hi) return RowRange{full.begin, full.begin};
  const auto tb = arrays_.tid.begin();
  auto lo = std::lower_bound(tb + full.begin, tb + full.end, tid_lo);
  auto hi = std::lower_bound(lo, tb + full.end, tid_hi);
  return RowRange{static_cast<Row>(lo - tb), static_cast<Row>(hi - tb)};
}

// run(name), by_right and by_pid all order a run by tid first, so one
// tree's rows occupy the same positions [slice.begin, slice.end) in all
// three, and a search inside the slice compares one column.

RowRange NodeRelation::LeftRangeIn(RowRange slice, int32_t left_lo,
                                   int32_t left_hi) const {
  if (slice.empty() || left_lo >= left_hi) {
    return RowRange{slice.begin, slice.begin};
  }
  const auto lb = arrays_.left.begin();
  auto lo = std::lower_bound(lb + slice.begin, lb + slice.end, left_lo);
  auto hi = std::lower_bound(lo, lb + slice.end, left_hi);
  return RowRange{static_cast<Row>(lo - lb), static_cast<Row>(hi - lb)};
}

std::span<const Row> NodeRelation::RightRangeIn(RowRange slice,
                                                int32_t right_lo,
                                                int32_t right_hi) const {
  if (slice.empty() || right_lo >= right_hi) return {};
  auto right_less = [this](Row r, int32_t v) { return arrays_.right[r] < v; };
  const std::span<const Row> by_right = arrays_.by_right;
  auto first = by_right.begin() + slice.begin;
  auto last = by_right.begin() + slice.end;
  auto lo = std::lower_bound(first, last, right_lo, right_less);
  auto hi = std::lower_bound(lo, last, right_hi, right_less);
  return std::span<const Row>(by_right.data() + (lo - by_right.begin()),
                              static_cast<size_t>(hi - lo));
}

std::span<const Row> NodeRelation::PidRangeIn(RowRange slice,
                                              int32_t p) const {
  if (slice.empty()) return {};
  const std::span<const Row> by_pid = arrays_.by_pid;
  const std::span<const int32_t> pid = arrays_.pid;
  auto first = by_pid.begin() + slice.begin;
  auto last = by_pid.begin() + slice.end;
  auto lo = std::lower_bound(first, last, p,
                             [pid](Row r, int32_t v) { return pid[r] < v; });
  auto hi = std::upper_bound(lo, last, p,
                             [pid](int32_t v, Row r) { return v < pid[r]; });
  return std::span<const Row>(by_pid.data() + (lo - by_pid.begin()),
                              static_cast<size_t>(hi - lo));
}

std::span<const Row> NodeRelation::ValueRange(Symbol v) const {
  // size_t arithmetic: v + 1 would wrap to 0 for the unsatisfiable
  // 0xffffffff sentinel the optimizer feeds unknown-literal lookups.
  if (v == kNoSymbol ||
      static_cast<size_t>(v) + 1 >= arrays_.value_offsets.size()) {
    return {};
  }
  const uint32_t b = arrays_.value_offsets[v];
  const uint32_t e = arrays_.value_offsets[v + 1];
  if (b >= e) return {};
  return std::span<const Row>(arrays_.value_index.data() + b, e - b);
}

std::span<const Row> NodeRelation::ValueRangeForTree(Symbol v,
                                                     int32_t t) const {
  std::span<const Row> all = ValueRange(v);
  if (all.empty()) return {};
  // Sorted by (value, tid, id): binary search the tid subrange.
  const std::span<const int32_t> tid = arrays_.tid;
  auto less_tid = [tid](Row r, int32_t key) { return tid[r] < key; };
  auto greater_tid = [tid](int32_t key, Row r) { return key < tid[r]; };
  auto lo = std::lower_bound(all.begin(), all.end(), t, less_tid);
  auto hi = std::upper_bound(lo, all.end(), t, greater_tid);
  if (lo == hi) return {};
  return std::span<const Row>(&*lo, static_cast<size_t>(hi - lo));
}

std::span<const Row> NodeRelation::ElementsOfTree(int32_t t) const {
  if (t < 0 || t >= tree_count_) return {};
  const uint32_t b = arrays_.tree_base[t];
  const uint32_t e = arrays_.tree_base[t + 1];
  if (b >= e) return {};
  return std::span<const Row>(arrays_.elem_row.data() + b, e - b);
}

std::span<const Row> NodeRelation::ElementsInLeftRange(int32_t t,
                                                       int32_t left_lo,
                                                       int32_t left_hi) const {
  std::span<const Row> all = ElementsOfTree(t);
  if (all.empty() || left_lo >= left_hi) return {};
  // Pre-order rows have non-decreasing left.
  auto less_left = [this](Row r, int32_t key) { return arrays_.left[r] < key; };
  auto lo = std::lower_bound(all.begin(), all.end(), left_lo, less_left);
  auto hi = std::lower_bound(lo, all.end(), left_hi, less_left);
  if (lo == hi) return {};
  return std::span<const Row>(&*lo, static_cast<size_t>(hi - lo));
}

Row NodeRelation::ElementRow(int32_t t, int32_t id) const {
  if (t < 0 || t >= tree_count_ || id <= 0) return kNoRow;
  const uint32_t slot = arrays_.tree_base[t] + (id - 1);
  if (slot >= arrays_.tree_base[t + 1]) return kNoRow;
  return arrays_.elem_row[slot];
}

std::span<const Row> NodeRelation::AttrRows(int32_t t, int32_t id) const {
  if (t < 0 || t >= tree_count_ || id <= 0) return {};
  const uint32_t slot = arrays_.tree_base[t] + (id - 1);
  if (slot >= arrays_.tree_base[t + 1]) return {};
  const uint32_t b = arrays_.attr_offsets[slot];
  const uint32_t e = arrays_.attr_offsets[slot + 1];
  if (b >= e) return {};
  return std::span<const Row>(arrays_.attr_rows.data() + b, e - b);
}

size_t NodeRelation::MemoryBytes() const {
  size_t bytes = tag_dir_offsets_.size_bytes() + tag_dir_.size_bytes();
  StoredArrays<ConstSpan>::ForEach(
      [&bytes](const auto& array) { bytes += array.size_bytes(); }, arrays_);
  return bytes;
}

namespace {

/// offsets[0] == 0, non-decreasing, offsets.back() == total.
template <typename T>
bool IsPrefixArray(std::span<const T> offsets, uint64_t total) {
  return !offsets.empty() && offsets.front() == 0 &&
         std::is_sorted(offsets.begin(), offsets.end()) &&
         offsets.back() == total;
}

/// Every entry indexes the row space.
bool RowsInBounds(std::span<const Row> rows, uint64_t row_count) {
  return std::all_of(rows.begin(), rows.end(),
                     [row_count](Row r) { return r < row_count; });
}

}  // namespace

const char* NodeRelation::CheckMapped(uint64_t rows, uint64_t symbols) const {
  const StoredArrays<ConstSpan>& a = arrays_;
  const uint64_t trees = static_cast<uint64_t>(tree_count_);
  const uint64_t elements = element_count_;
  for (const size_t column :
       {a.tid.size(), a.left.size(), a.right.size(), a.depth.size(),
        a.id.size(), a.pid.size(), a.name.size(), a.value.size(),
        a.kind.size(), a.by_right.size(), a.by_pid.size()}) {
    if (column != rows) return "section sizes are inconsistent";
  }
  if (a.runs.size() != symbols + 1 || a.value_offsets.size() != symbols + 2 ||
      a.tree_row_prefix.size() != trees + 1 ||
      a.tree_base.size() != trees + 1 || a.elem_row.size() != elements ||
      a.attr_offsets.size() != elements + 1) {
    return "section sizes are inconsistent";
  }
  if (a.value_index.size() > rows || a.attr_rows.size() > rows) {
    return "index larger than the row space";
  }
  // Well-formed runs partition the rows; bounding their total keeps the
  // tag directory derived from them within one entry per row.
  uint64_t run_rows = 0;
  for (const RowRange& r : a.runs) {
    if (r.begin > r.end || r.end > rows) return "run directory out of bounds";
    run_rows += r.end - r.begin;
  }
  if (run_rows > rows) return "run directory covers more rows than exist";
  if (!RowsInBounds(a.by_right, rows) || !RowsInBounds(a.by_pid, rows) ||
      !RowsInBounds(a.value_index, rows) || !RowsInBounds(a.elem_row, rows) ||
      !RowsInBounds(a.attr_rows, rows)) {
    return "row index out of bounds";
  }
  // The tid column feeds the per-tree accessors; those all guard the
  // range themselves, but a value outside [0, trees) can only come from a
  // forged file, so reject it here as corruption rather than serving
  // silently-empty per-tree lookups.
  for (int32_t t : a.tid) {
    if (t < 0 || static_cast<uint64_t>(t) >= trees) {
      return "tid column out of range";
    }
  }
  if (!IsPrefixArray(a.value_offsets, a.value_index.size()) ||
      !IsPrefixArray(a.tree_row_prefix, rows) ||
      !IsPrefixArray(a.tree_base, elements) ||
      !IsPrefixArray(a.attr_offsets, a.attr_rows.size())) {
    return "offset table is not a prefix sum";
  }
  return nullptr;
}

}  // namespace lpath
