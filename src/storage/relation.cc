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

/// Owning storage of a relation built in memory. The relation's spans point
/// into these vectors; the arena is held alive through the type-erased
/// backing_ shared_ptr, so moving the relation never invalidates a span.
struct ColumnArena {
  std::vector<int32_t> tid, left, right, depth, id, pid;
  std::vector<Symbol> name, value;
  std::vector<uint8_t> kind;
  std::vector<RowRange> runs;
  std::vector<Row> by_right, by_pid, value_index;
  std::vector<uint32_t> value_offsets;
  std::vector<uint64_t> tree_row_prefix;
  std::vector<uint32_t> tree_base;
  std::vector<Row> elem_row;
  std::vector<uint32_t> attr_offsets;
  std::vector<Row> attr_rows;
  std::vector<uint32_t> tag_dir_offsets;
  std::vector<NodeRelation::TagSlice> tag_dir;
};

/// Counts every label+sort build (see NodeRelation::BuildCount).
std::atomic<uint64_t> g_build_count{0};

/// Counts every tree labeled by a build (see NodeRelation::LabeledTreeCount).
std::atomic<uint64_t> g_labeled_tree_count{0};

}  // namespace

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
  auto arena = std::make_shared<ColumnArena>();
  ColumnArena& cols = *arena;

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

  // 5. Per-run permutations.
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
      return cols.left[a] < cols.left[b];
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

  // 9. Bind the accessor spans to the arena and hand it over.
  rel.tid_ = cols.tid;
  rel.left_ = cols.left;
  rel.right_ = cols.right;
  rel.depth_ = cols.depth;
  rel.id_ = cols.id;
  rel.pid_ = cols.pid;
  rel.name_ = cols.name;
  rel.value_ = cols.value;
  rel.kind_ = cols.kind;
  rel.runs_ = cols.runs;
  rel.by_right_ = cols.by_right;
  rel.by_pid_ = cols.by_pid;
  rel.value_index_ = cols.value_index;
  rel.value_offsets_ = cols.value_offsets;
  rel.tree_row_prefix_ = cols.tree_row_prefix;
  rel.tree_base_ = cols.tree_base;
  rel.elem_row_ = cols.elem_row;
  rel.attr_offsets_ = cols.attr_offsets;
  rel.attr_rows_ = cols.attr_rows;
  rel.BindTagDirectory(&cols.tag_dir_offsets, &cols.tag_dir);
  rel.backing_ = std::move(arena);
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
  if (base.runs_.size() > name_end || delta.runs_.size() > name_end) {
    return Status::InvalidArgument(
        "NodeRelation::Merge: merged dictionary misses source symbols");
  }
  NodeRelation rel;
  rel.scheme_ = base.scheme_;
  rel.corpus_ = std::move(owned);
  rel.tree_count_ = base.tree_count_ + delta.tree_count_;
  rel.element_count_ = base.element_count_ + delta.element_count_;
  auto arena = std::make_shared<ColumnArena>();
  ColumnArena& cols = *arena;

  const size_t nb = base.row_count();
  const size_t nd = delta.row_count();
  const size_t n = nb + nd;
  const int32_t tid_off = base.tree_count_;

  // 1. Clustered columns: per-name run concatenation (base rows, then delta
  // rows with shifted tids). Every row belongs to exactly one run (name is
  // never kNoSymbol), and within a run the order (tid, left, right, ...) is
  // preserved because shifted delta tids all exceed base tids. The remap
  // arrays record each source row's merged position for the indexes below.
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
  std::vector<Row> base_remap(nb);
  std::vector<Row> delta_remap(nd);
  Row out = 0;
  for (Symbol s = 1; s < name_end; ++s) {
    const RowRange br = base.run(s);
    const RowRange dr = delta.run(s);
    if (br.empty() && dr.empty()) continue;
    const Row begin = out;
    for (Row r = br.begin; r < br.end; ++r, ++out) {
      base_remap[r] = out;
      cols.tid[out] = base.tid_[r];
      cols.left[out] = base.left_[r];
      cols.right[out] = base.right_[r];
      cols.depth[out] = base.depth_[r];
      cols.id[out] = base.id_[r];
      cols.pid[out] = base.pid_[r];
      cols.name[out] = base.name_[r];
      cols.value[out] = base.value_[r];
      cols.kind[out] = base.kind_[r];
    }
    for (Row r = dr.begin; r < dr.end; ++r, ++out) {
      delta_remap[r] = out;
      cols.tid[out] = delta.tid_[r] + tid_off;
      cols.left[out] = delta.left_[r];
      cols.right[out] = delta.right_[r];
      cols.depth[out] = delta.depth_[r];
      cols.id[out] = delta.id_[r];
      cols.pid[out] = delta.pid_[r];
      cols.name[out] = delta.name_[r];
      cols.value[out] = delta.value_[r];
      cols.kind[out] = delta.kind_[r];
    }
    cols.runs[s] = RowRange{begin, out};
  }
  if (out != n) {
    return Status::Corruption(
        "NodeRelation::Merge: run directories do not cover the sources");
  }

  // 2. Per-run permutations: remapped concatenation per run. The secondary
  // orders ((tid, right, left) and (tid, pid, left)) lead with tid, so base
  // entries precede all shifted delta entries within each run.
  cols.by_right.resize(n);
  cols.by_pid.resize(n);
  for (Symbol s = 1; s < name_end; ++s) {
    const RowRange br = base.run(s);
    const RowRange dr = delta.run(s);
    Row w = cols.runs[s].begin;
    for (Row i = br.begin; i < br.end; ++i) {
      cols.by_right[w++] = base_remap[base.by_right_[i]];
    }
    for (Row i = dr.begin; i < dr.end; ++i) {
      cols.by_right[w++] = delta_remap[delta.by_right_[i]];
    }
    w = cols.runs[s].begin;
    for (Row i = br.begin; i < br.end; ++i) {
      cols.by_pid[w++] = base_remap[base.by_pid_[i]];
    }
    for (Row i = dr.begin; i < dr.end; ++i) {
      cols.by_pid[w++] = delta_remap[delta.by_pid_[i]];
    }
  }

  // 3. Value index: per-value remapped concatenation, same tid argument.
  cols.value_index.reserve(base.value_index_.size() +
                           delta.value_index_.size());
  cols.value_offsets.resize(name_end + 1);
  cols.value_offsets[0] = 0;
  for (Symbol v = 0; v < name_end; ++v) {
    for (Row r : base.ValueRange(v)) {
      cols.value_index.push_back(base_remap[r]);
    }
    for (Row r : delta.ValueRange(v)) {
      cols.value_index.push_back(delta_remap[r]);
    }
    cols.value_offsets[v + 1] = static_cast<uint32_t>(cols.value_index.size());
  }

  // 4. Per-tree prefix sums and the (tid, id) lookup tables: offset-shifted
  // concatenation (delta trees follow base trees in the merged tid space).
  cols.tree_row_prefix.resize(static_cast<size_t>(rel.tree_count_) + 1);
  for (int32_t t = 0; t <= base.tree_count_; ++t) {
    cols.tree_row_prefix[t] = base.tree_row_prefix_[t];
  }
  for (int32_t t = 1; t <= delta.tree_count_; ++t) {
    cols.tree_row_prefix[tid_off + t] = nb + delta.tree_row_prefix_[t];
  }
  cols.tree_base.resize(static_cast<size_t>(rel.tree_count_) + 1);
  const uint32_t elem_off = base.tree_base_.back();
  for (int32_t t = 0; t <= base.tree_count_; ++t) {
    cols.tree_base[t] = base.tree_base_[t];
  }
  for (int32_t t = 1; t <= delta.tree_count_; ++t) {
    cols.tree_base[tid_off + t] = elem_off + delta.tree_base_[t];
  }
  cols.elem_row.resize(rel.element_count_);
  for (size_t i = 0; i < base.elem_row_.size(); ++i) {
    cols.elem_row[i] = base_remap[base.elem_row_[i]];
  }
  for (size_t i = 0; i < delta.elem_row_.size(); ++i) {
    cols.elem_row[elem_off + i] = delta_remap[delta.elem_row_[i]];
  }
  cols.attr_offsets.resize(rel.element_count_ + 1);
  const uint32_t attr_off = base.attr_offsets_.back();
  for (size_t i = 0; i < base.attr_offsets_.size(); ++i) {
    cols.attr_offsets[i] = base.attr_offsets_[i];
  }
  for (size_t i = 1; i < delta.attr_offsets_.size(); ++i) {
    cols.attr_offsets[elem_off + i] = attr_off + delta.attr_offsets_[i];
  }
  cols.attr_rows.resize(base.attr_rows_.size() + delta.attr_rows_.size());
  for (size_t i = 0; i < base.attr_rows_.size(); ++i) {
    cols.attr_rows[i] = base_remap[base.attr_rows_[i]];
  }
  for (size_t i = 0; i < delta.attr_rows_.size(); ++i) {
    cols.attr_rows[attr_off + i] = delta_remap[delta.attr_rows_[i]];
  }

  // 5. Bind spans, exactly as Build does.
  rel.tid_ = cols.tid;
  rel.left_ = cols.left;
  rel.right_ = cols.right;
  rel.depth_ = cols.depth;
  rel.id_ = cols.id;
  rel.pid_ = cols.pid;
  rel.name_ = cols.name;
  rel.value_ = cols.value;
  rel.kind_ = cols.kind;
  rel.runs_ = cols.runs;
  rel.by_right_ = cols.by_right;
  rel.by_pid_ = cols.by_pid;
  rel.value_index_ = cols.value_index;
  rel.value_offsets_ = cols.value_offsets;
  rel.tree_row_prefix_ = cols.tree_row_prefix;
  rel.tree_base_ = cols.tree_base;
  rel.elem_row_ = cols.elem_row;
  rel.attr_offsets_ = cols.attr_offsets;
  rel.attr_rows_ = cols.attr_rows;
  rel.BindTagDirectory(&cols.tag_dir_offsets, &cols.tag_dir);
  rel.backing_ = std::move(arena);
  return rel;
}

std::vector<TidRange> NodeRelation::CarveTidRanges(int target_ranges,
                                                   uint64_t min_rows) const {
  std::vector<TidRange> out;
  if (tree_count_ <= 0 || row_count() == 0) return out;
  const uint64_t total = tree_row_prefix_.back();
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
    const uint64_t want = tree_row_prefix_[lo] + target;
    auto it = std::lower_bound(tree_row_prefix_.begin() + lo + 1,
                               tree_row_prefix_.end(), want);
    int32_t hi =
        static_cast<int32_t>(it - tree_row_prefix_.begin());
    hi = std::min(hi, tree_count_);
    out.push_back(
        TidRange{lo, hi, tree_row_prefix_[hi] - tree_row_prefix_[lo]});
    lo = hi;
  }
  return out;
}

RowRange NodeRelation::run(Symbol name) const {
  if (name == kNoSymbol || name >= runs_.size()) return RowRange{};
  return runs_[name];
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
  for (const RowRange run : runs_) {
    int32_t prev = -1;
    for (Row r = run.begin; r < run.end; ++r) {
      off[tid_[r] + 2] += tid_[r] != prev;
      prev = tid_[r];
    }
  }
  for (size_t i = 2; i < off.size(); ++i) off[i] += off[i - 1];
  // Fill pass, in tag order so each tree's entries come out sorted by tag:
  // off[t + 1], now tree t's first entry, is its cursor and ends at tree
  // t + 1's first entry, so the table needs no second array.
  entries->resize(off.back());
  for (Symbol s = 0; s < runs_.size(); ++s) {
    int32_t prev = -1;
    TagSlice* entry = nullptr;
    for (Row r = runs_[s].begin; r < runs_[s].end; ++r) {
      if (tid_[r] != prev) {
        prev = tid_[r];
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
  const auto tb = tid_.begin();
  auto lo = std::lower_bound(tb + full.begin, tb + full.end, tid_lo);
  auto hi = std::lower_bound(lo, tb + full.end, tid_hi);
  return RowRange{static_cast<Row>(lo - tb), static_cast<Row>(hi - tb)};
}

// run(name), by_right_ and by_pid_ all order a run by tid first, so one
// tree's rows occupy the same positions [slice.begin, slice.end) in all
// three, and a search inside the slice compares one column.

RowRange NodeRelation::LeftRangeIn(RowRange slice, int32_t left_lo,
                                   int32_t left_hi) const {
  if (slice.empty() || left_lo >= left_hi) {
    return RowRange{slice.begin, slice.begin};
  }
  const auto lb = left_.begin();
  auto lo = std::lower_bound(lb + slice.begin, lb + slice.end, left_lo);
  auto hi = std::lower_bound(lo, lb + slice.end, left_hi);
  return RowRange{static_cast<Row>(lo - lb), static_cast<Row>(hi - lb)};
}

std::span<const Row> NodeRelation::RightRangeIn(RowRange slice,
                                                int32_t right_lo,
                                                int32_t right_hi) const {
  if (slice.empty() || right_lo >= right_hi) return {};
  auto right_less = [this](Row r, int32_t v) { return right_[r] < v; };
  auto first = by_right_.begin() + slice.begin;
  auto last = by_right_.begin() + slice.end;
  auto lo = std::lower_bound(first, last, right_lo, right_less);
  auto hi = std::lower_bound(lo, last, right_hi, right_less);
  return std::span<const Row>(by_right_.data() + (lo - by_right_.begin()),
                              static_cast<size_t>(hi - lo));
}

std::span<const Row> NodeRelation::PidRangeIn(RowRange slice,
                                              int32_t p) const {
  if (slice.empty()) return {};
  auto first = by_pid_.begin() + slice.begin;
  auto last = by_pid_.begin() + slice.end;
  auto lo = std::lower_bound(first, last, p,
                             [this](Row r, int32_t v) { return pid_[r] < v; });
  auto hi = std::upper_bound(lo, last, p,
                             [this](int32_t v, Row r) { return v < pid_[r]; });
  return std::span<const Row>(by_pid_.data() + (lo - by_pid_.begin()),
                              static_cast<size_t>(hi - lo));
}

std::span<const Row> NodeRelation::ValueRange(Symbol v) const {
  // size_t arithmetic: v + 1 would wrap to 0 for the unsatisfiable
  // 0xffffffff sentinel the optimizer feeds unknown-literal lookups.
  if (v == kNoSymbol || static_cast<size_t>(v) + 1 >= value_offsets_.size()) {
    return {};
  }
  const uint32_t b = value_offsets_[v];
  const uint32_t e = value_offsets_[v + 1];
  if (b >= e) return {};
  return std::span<const Row>(value_index_.data() + b, e - b);
}

std::span<const Row> NodeRelation::ValueRangeForTree(Symbol v,
                                                     int32_t t) const {
  std::span<const Row> all = ValueRange(v);
  if (all.empty()) return {};
  // Sorted by (value, tid, id): binary search the tid subrange.
  auto less_tid = [this](Row r, int32_t key) { return tid_[r] < key; };
  auto greater_tid = [this](int32_t key, Row r) { return key < tid_[r]; };
  auto lo = std::lower_bound(all.begin(), all.end(), t, less_tid);
  auto hi = std::upper_bound(lo, all.end(), t, greater_tid);
  if (lo == hi) return {};
  return std::span<const Row>(&*lo, static_cast<size_t>(hi - lo));
}

std::span<const Row> NodeRelation::ElementsOfTree(int32_t t) const {
  if (t < 0 || t >= tree_count_) return {};
  const uint32_t b = tree_base_[t];
  const uint32_t e = tree_base_[t + 1];
  if (b >= e) return {};
  return std::span<const Row>(elem_row_.data() + b, e - b);
}

std::span<const Row> NodeRelation::ElementsInLeftRange(int32_t t,
                                                       int32_t left_lo,
                                                       int32_t left_hi) const {
  std::span<const Row> all = ElementsOfTree(t);
  if (all.empty() || left_lo >= left_hi) return {};
  // Pre-order rows have non-decreasing left.
  auto less_left = [this](Row r, int32_t key) { return left_[r] < key; };
  auto lo = std::lower_bound(all.begin(), all.end(), left_lo, less_left);
  auto hi = std::lower_bound(lo, all.end(), left_hi, less_left);
  if (lo == hi) return {};
  return std::span<const Row>(&*lo, static_cast<size_t>(hi - lo));
}

Row NodeRelation::ElementRow(int32_t t, int32_t id) const {
  if (t < 0 || t >= tree_count_ || id <= 0) return kNoRow;
  const uint32_t slot = tree_base_[t] + (id - 1);
  if (slot >= tree_base_[t + 1]) return kNoRow;
  return elem_row_[slot];
}

std::span<const Row> NodeRelation::AttrRows(int32_t t, int32_t id) const {
  if (t < 0 || t >= tree_count_ || id <= 0) return {};
  const uint32_t slot = tree_base_[t] + (id - 1);
  if (slot >= tree_base_[t + 1]) return {};
  const uint32_t b = attr_offsets_[slot];
  const uint32_t e = attr_offsets_[slot + 1];
  if (b >= e) return {};
  return std::span<const Row>(attr_rows_.data() + b, e - b);
}

size_t NodeRelation::MemoryBytes() const {
  size_t bytes = 0;
  bytes += (tid_.size() + left_.size() + right_.size() + depth_.size() +
            id_.size() + pid_.size()) *
           sizeof(int32_t);
  bytes += (name_.size() + value_.size()) * sizeof(Symbol);
  bytes += kind_.size();
  bytes += runs_.size() * sizeof(RowRange);
  bytes += (by_right_.size() + by_pid_.size() + value_index_.size() +
            elem_row_.size() + attr_rows_.size()) *
           sizeof(Row);
  bytes += (value_offsets_.size() + tree_base_.size() + attr_offsets_.size()) *
           sizeof(uint32_t);
  bytes += tree_row_prefix_.size() * sizeof(uint64_t);
  bytes += tag_dir_offsets_.size() * sizeof(uint32_t) +
           tag_dir_.size() * sizeof(TagSlice);
  return bytes;
}

}  // namespace lpath
