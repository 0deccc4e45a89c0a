// The node relation of Section 5: labeled tree nodes stored with schema
//   { tid, left, right, depth, id, pid, name, value }
// clustered by { name, tid, left, right, depth, id, pid }, with secondary
// indexes for value lookups ({value, tid, id} / {tid, value, id}) and row
// lookups by {tid, id} — exactly the physical design the paper lists.
//
// Attribute rows (e.g. name "@lex", value "saw") carry their element's label
// (Definition 4.1, rule 8) and are distinguished by RowKind.
//
// Access paths exposed here are what the SQL executor uses:
//   - a per-tag "run" (contiguous, sorted by tid,left,right,depth,id);
//   - one tree's slice of a run, read in O(1) from the per-tree tag
//     directory, and left ranges searched inside it;
//   - per-run permutations ordered by (tid, right) and (tid, pid, left),
//     searched inside the same slice;
//   - the global value index;
//   - direct element lookup by (tid, id).
//
// The stored arrays (columns and indexes) are listed once, in StoredArrays
// below. Build and Merge fill one as std::vectors and bind the relation's
// spans to it; MemoryBytes sums over it; image Save and Open walk it, and
// its order is the image section order (storage/image.cc). Adding,
// dropping or retyping an array is an edit to that one list.
//
// The tag directory is derived, never stored: Build, Merge and image Open
// each fill it with a counting pass and a fill pass over the run directory
// and the tid column.

#ifndef LPATHDB_STORAGE_RELATION_H_
#define LPATHDB_STORAGE_RELATION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "label/labeler.h"
#include "tree/corpus.h"

namespace lpath {

/// Index of a row in the relation's clustered order.
using Row = uint32_t;
inline constexpr Row kNoRow = UINT32_MAX;

/// Half-open row range [begin, end) within the clustered storage.
struct RowRange {
  Row begin = 0;
  Row end = 0;
  bool empty() const { return begin >= end; }
  size_t size() const { return end - begin; }
};

/// A half-open slice [tid_lo, tid_hi) of the tree-id space together with
/// the total relation rows (elements + attributes) its trees hold. The
/// unit of work of the morsel-driven parallel executor.
struct TidRange {
  int32_t tid_lo = 0;
  int32_t tid_hi = 0;
  uint64_t rows = 0;
};

/// Element or attribute row.
enum class RowKind : uint8_t { kElement = 0, kAttribute = 1 };

/// Options for building a relation.
struct RelationOptions {
  LabelScheme scheme = LabelScheme::kLPath;
};

/// Read-only borrowed array: the container of a relation's stored arrays.
template <typename T>
using ConstSpan = std::span<const T>;

/// The relation's stored arrays, listed once. `Array<T>` is the container:
/// std::vector for the arena Build and Merge fill, ConstSpan for the view
/// a NodeRelation serves from its backing. The list order is the image
/// section order (a section's kind is its position + 1); reordering it
/// breaks every saved image.
template <template <typename> class Array>
struct StoredArrays {
  // Columns, clustered by (name, tid, left, right, depth, id, pid).
  Array<int32_t> tid, left, right, depth, id, pid;
  Array<Symbol> name, value;
  Array<uint8_t> kind;

  // name symbol -> clustered run. Dense by symbol id.
  Array<RowRange> runs;

  // Per-run permutations, concatenated in run order (same offsets as rows):
  // by (tid, right, left, row) and by (tid, pid, left).
  Array<Row> by_right, by_pid;

  // Global value index: attribute rows ordered by (value, tid, id), with a
  // dense offset table per value symbol (size interner.end_id() + 1).
  Array<Row> value_index;
  Array<uint32_t> value_offsets;

  // Per-tree row mass: tree_row_prefix[t] = rows with tid < t (size
  // tree_count + 1). Feeds the morsel planner's balanced carving.
  Array<uint64_t> tree_row_prefix;

  // (tid, id) -> element row: per-tree base into elem_row (size
  // tree_count + 1; elem_row holds one row per element).
  Array<uint32_t> tree_base;
  Array<Row> elem_row;

  // (tid, id) -> attribute rows: CSR over elements (attr_offsets has size
  // element_count + 1).
  Array<uint32_t> attr_offsets;
  Array<Row> attr_rows;

  /// Calls f(s.x...) for every array x, in list order. Given one instance
  /// it visits that instance's arrays; given several (of any containers)
  /// it walks them in lockstep, which is how a view is bound to an arena.
  template <typename F, typename... S>
  static constexpr void ForEach(F&& f, S&... s) {
    f(s.tid...);
    f(s.left...);
    f(s.right...);
    f(s.depth...);
    f(s.id...);
    f(s.pid...);
    f(s.name...);
    f(s.value...);
    f(s.kind...);
    f(s.runs...);
    f(s.by_right...);
    f(s.by_pid...);
    f(s.value_index...);
    f(s.value_offsets...);
    f(s.tree_row_prefix...);
    f(s.tree_base...);
    f(s.elem_row...);
    f(s.attr_offsets...);
    f(s.attr_rows...);
  }
};

class ImageIO;

/// Immutable, columnar, dictionary-encoded node relation.
///
/// Columns are exposed as borrowed spans over a type-erased backing: a
/// relation built in memory owns its arrays (the backing is the arena the
/// build filled), while a relation opened from a persistent image serves
/// the very same spans straight out of a read-only file mapping (see
/// storage/image.h). Every consumer — executor, morsel planner, benches —
/// reads through one accessor surface and cannot tell the difference.
class NodeRelation {
 public:
  /// One entry of the per-tree tag directory: tree t's rows of run(name).
  struct TagSlice {
    Symbol name;
    RowRange rows;
  };

  /// Labels every tree of `*corpus` under `options.scheme`, flattens nodes
  /// and attributes to rows, sorts into the clustered order and builds all
  /// secondary indexes. The relation shares ownership of the corpus (and
  /// through it the interner), so the corpus stays alive as long as any
  /// relation built over it — the invariant CorpusSnapshot and the
  /// hot-swap path rely on.
  static Result<NodeRelation> Build(std::shared_ptr<const Corpus> corpus,
                                    RelationOptions options = {});

  /// Borrowing overload for stack-scoped uses (tests, one-shot tools): the
  /// caller guarantees `corpus` outlives the relation and is not moved.
  static Result<NodeRelation> Build(const Corpus& corpus,
                                    RelationOptions options = {});

  /// Builds the compaction of `base` + `delta` — bit-identical to what a
  /// full Build over the concatenated corpora would produce — by pure
  /// linear merge: no labeling and no sorting. Works because the chain
  /// keeps three invariants: delta symbol ids extend the base's dictionary
  /// (shared strings keep their base ids, so per-name runs concatenate),
  /// every delta tid maps to base tree_count() + tid (so within a run the
  /// base rows sort strictly before the shifted delta rows under every
  /// clustered and secondary order, all of which lead with tid after the
  /// run's name), and labels are per-tree (no base label changes when
  /// trees are appended). `corpus` becomes the merged relation's owner and
  /// must carry the delta's (superset) dictionary; it may be tree-less
  /// (image-backed compaction) or hold the concatenated trees. Only the
  /// sources' columns are read, never their corpora. Serves both
  /// compaction (base + delta) and append (delta + incoming batch).
  static Result<NodeRelation> Merge(const NodeRelation& base,
                                    const NodeRelation& delta,
                                    std::shared_ptr<const Corpus> corpus);

  LabelScheme scheme() const { return scheme_; }
  const Corpus& corpus() const { return *corpus_; }
  /// Shared owner of the corpus. Built through the borrowing overload it
  /// is a non-owning alias (non-null but use_count() == 0) — do not treat
  /// it as something that keeps the corpus alive.
  const std::shared_ptr<const Corpus>& corpus_ptr() const { return corpus_; }
  const Interner& interner() const { return corpus_->interner(); }

  size_t row_count() const { return arrays_.tid.size(); }
  int32_t tree_count() const { return tree_count_; }

  // --- Column access (clustered row order) -------------------------------
  int32_t tid(Row r) const { return arrays_.tid[r]; }
  int32_t left(Row r) const { return arrays_.left[r]; }
  int32_t right(Row r) const { return arrays_.right[r]; }
  int32_t depth(Row r) const { return arrays_.depth[r]; }
  int32_t id(Row r) const { return arrays_.id[r]; }
  int32_t pid(Row r) const { return arrays_.pid[r]; }
  Symbol name(Row r) const { return arrays_.name[r]; }
  Symbol value(Row r) const { return arrays_.value[r]; }
  RowKind kind(Row r) const { return static_cast<RowKind>(arrays_.kind[r]); }
  bool is_attr(Row r) const { return arrays_.kind[r] != 0; }

  /// The label tuple of a row.
  Label label(Row r) const {
    return Label{arrays_.left[r], arrays_.right[r], arrays_.depth[r],
                 arrays_.id[r], arrays_.pid[r]};
  }

  // --- Clustered runs ------------------------------------------------------
  /// Rows whose name is `name` — contiguous thanks to name-first clustering.
  /// Empty range for unknown symbols.
  RowRange run(Symbol name) const;

  /// Subrange of run(name) with tid == t, from the per-tree tag
  /// directory: a search over tree t's few (tag, slice) entries. Empty for
  /// unknown tags and tids outside [0, tree_count()).
  RowRange RunForTree(Symbol name, int32_t t) const;

  /// Subrange of run(name) with tid in [tid_lo, tid_hi); binary search.
  /// This is how a shard of the parallel executor carves its slice of a
  /// tag run out of the clustered storage.
  RowRange RunTidRange(Symbol name, int32_t tid_lo, int32_t tid_hi) const;

  // --- Searches inside one tree's slice of a run --------------------------
  // `slice` is RunForTree(name, t). The per-run secondary orders sort by
  // tid first too, so the slice bounds index them as well.

  /// Rows of `slice` with left in [left_lo, left_hi). The workhorse for
  /// descendant/following/immediate-following.
  RowRange LeftRangeIn(RowRange slice, int32_t left_lo, int32_t left_hi) const;

  /// Rows of `slice` with right in [right_lo, right_hi), as a span of row
  /// indexes ordered by right (for preceding / immediate-preceding).
  std::span<const Row> RightRangeIn(RowRange slice, int32_t right_lo,
                                    int32_t right_hi) const;

  /// Rows of `slice` with pid == p, ordered by left (for the sibling axes
  /// and child-of lookups).
  std::span<const Row> PidRangeIn(RowRange slice, int32_t p) const;

  // --- Value index ----------------------------------------------------------
  /// Rows with value == v (attribute rows), ordered by (tid, id); the
  /// {value, tid, id} index of the paper.
  std::span<const Row> ValueRange(Symbol v) const;

  /// Rows with value == v within tree t (the {tid, value, id} index).
  std::span<const Row> ValueRangeForTree(Symbol v, int32_t t) const;

  /// Element rows of tree t whose left is in [left_lo, left_hi), in
  /// pre-order (= non-decreasing left). Used for wildcard steps.
  std::span<const Row> ElementsInLeftRange(int32_t t, int32_t left_lo,
                                           int32_t left_hi) const;

  /// All element rows of tree t in pre-order.
  std::span<const Row> ElementsOfTree(int32_t t) const;

  // --- Row lookup by (tid, id) ----------------------------------------------
  /// The element row with the given id in tree t, or kNoRow. O(1): ids are
  /// dense pre-order positions, so this is the {tid, id, ...} index.
  Row ElementRow(int32_t t, int32_t id) const;

  /// Attribute rows of element (t, id), ordered by name symbol.
  std::span<const Row> AttrRows(int32_t t, int32_t id) const;

  // --- Statistics (for the join-order optimizer) ----------------------------
  /// Number of rows with this tag (0 for unknown); wildcards use row_count().
  size_t NameCardinality(Symbol name) const { return run(name).size(); }
  size_t ValueCardinality(Symbol v) const { return ValueRange(v).size(); }
  size_t element_count() const { return element_count_; }

  // --- Per-tree row statistics (for the morsel planner) ---------------------
  /// Rows (elements + attributes) of tree t. O(1) via the prefix sums.
  uint64_t TreeRowCount(int32_t t) const {
    return arrays_.tree_row_prefix[t + 1] - arrays_.tree_row_prefix[t];
  }
  /// Total rows of all trees with tid < t (prefix sum over the tid space);
  /// TreeRowsBefore(tree_count()) == row_count().
  uint64_t TreeRowsBefore(int32_t t) const {
    return arrays_.tree_row_prefix[t];
  }

  /// Carves the tid space into at most ~`target_ranges` contiguous slices
  /// of roughly equal *row mass* (not tree count): boundaries are binary
  /// searches over the per-tree row prefix sums, so a run of tiny trees is
  /// coalesced into one slice and a giant tree gets a slice of its own.
  /// Every slice except possibly the last holds at least
  /// max(min_rows, ceil(row_count / target_ranges)) rows, and no slice
  /// exceeds that target by more than its final tree — the balance
  /// guarantee skewed corpora need, where the even-by-tid split puts an
  /// unbounded share of the rows into whichever slice holds the longest
  /// sentences. Returns an empty vector for an empty relation.
  std::vector<TidRange> CarveTidRanges(int target_ranges,
                                       uint64_t min_rows = 1) const;

  /// Memory used by columns + indexes, for reports. For a mapped relation
  /// this is the mapped footprint served from the page cache.
  size_t MemoryBytes() const;

  /// True when the columns are served out of a read-only file mapping
  /// (opened via ImageIO) rather than build-owned arrays.
  bool mapped() const { return mapped_; }

  /// Process-wide count of in-memory builds (label + sort) ever run — the
  /// load-path counter tests use to assert that opening a persistent image
  /// performs no labeling or sorting.
  static uint64_t BuildCount();

  /// Process-wide count of trees ever labeled by Build. The O(batch)
  /// append guarantee is stated in this counter: appending N trees onto a
  /// snapshot advances it by exactly N, whatever the base or delta size
  /// (neither is ever relabeled: the batch is folded onto the delta by
  /// Merge), and compaction advances it by 0 (Merge neither labels nor
  /// sorts).
  static uint64_t LabeledTreeCount();

 private:
  friend class ImageIO;

  NodeRelation() = default;

  /// Owning storage of a relation built in memory (relation.cc): the
  /// stored arrays as vectors plus the derived tag directory.
  struct Arena;

  /// Binds every stored-array span to `arena`, derives the tag directory
  /// into it and makes it the backing: the last step of Build and Merge.
  void BindArena(std::shared_ptr<Arena> arena);

  /// Fills the per-tree tag directory from runs and tid (which must
  /// already be bound, with every tid in [0, tree_count_)) into `offsets`
  /// and `entries`, and binds tag_dir_offsets_ / tag_dir_ to them. The
  /// vectors belong to the relation's backing.
  void BindTagDirectory(std::vector<uint32_t>* offsets,
                        std::vector<TagSlice>* entries);

  /// Checks the invariants every accessor relies on to stay in bounds,
  /// for arrays bound straight onto an untrusted image: array sizes
  /// against `rows`, `symbols` (interner size), tree_count_ and
  /// element_count_, row indexes and tids in range, runs inside the row
  /// space and offset tables as prefix sums. Returns the first violation,
  /// or nullptr.
  const char* CheckMapped(uint64_t rows, uint64_t symbols) const;

  LabelScheme scheme_ = LabelScheme::kLPath;
  // Shared so the corpus (symbols, trees) outlives every reader; built
  // through the borrowing overload this is a non-owning alias.
  std::shared_ptr<const Corpus> corpus_;
  int32_t tree_count_ = 0;
  size_t element_count_ = 0;
  bool mapped_ = false;

  // Owner of every span below: the build's arena, or the read-only file
  // mapping of a persistent image. Shared (not unique) so a moved
  // relation's spans stay valid — vector buffers and mappings never move.
  std::shared_ptr<const void> backing_;

  StoredArrays<ConstSpan> arrays_;

  // Per-tree tag directory, CSR by tid: tree t's slices of the runs are
  // tag_dir_[tag_dir_offsets_[t] .. tag_dir_offsets_[t + 1]), sorted by
  // tag. Derived from runs and tid; not part of the image format.
  std::span<const uint32_t> tag_dir_offsets_;  // size = tree_count_ + 1
  std::span<const TagSlice> tag_dir_;
};

}  // namespace lpath

#endif  // LPATHDB_STORAGE_RELATION_H_
