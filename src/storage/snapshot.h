// An immutable, shared-ownership bundle of a corpus and the node relation
// built over it — the unit that services and executors hold.
//
// The raw "corpus must outlive the relation" contract of early revisions
// made hot-swapping a rebuilt relation impossible: nothing pinned the old
// corpus while in-flight queries still read it. A CorpusSnapshot fixes the
// lifetime by construction: the snapshot owns the corpus (shared), the
// relation keeps the corpus alive (shared again), and everything reachable
// from a SnapshotPtr is immutable. Publishing a rebuilt snapshot is then a
// single pointer exchange (see db::Database::Swap); queries in flight
// keep their old snapshot alive through their own reference and never
// observe a torn state.
//
// Live corpora: a snapshot is a two-link *chain* — an immutable base
// (built in memory or served from an mmap'd image) plus an optional small
// delta relation holding trees appended since the base was built. Append()
// extends the chain at the cost of the batch: only the N incoming trees are
// labeled and sorted, the result is folded onto the existing delta by
// linear merge, the delta's dictionary is an overlay on the base's (no base
// string is copied), the base is shared untouched, and the result is
// published like any other snapshot. Chain tid space: base trees keep
// their tids, delta tree d is addressed as base tree_count() + d;
// executors run one prepared plan, resolved in the chain-wide interner(),
// over each source and shift delta hits into chain tids at the merge
// (queries never cross trees, so the union over sources is exactly the
// rebuilt-corpus result). Compact()
// folds the delta back into one relation by linear merge
// (NodeRelation::Merge — no labeling, no sorting), rewriting the backing
// image in place (tmp + rename) when the base is image-backed.

#ifndef LPATHDB_STORAGE_SNAPSHOT_H_
#define LPATHDB_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "storage/image.h"
#include "storage/relation.h"
#include "tree/corpus.h"

namespace lpath {

class CorpusSnapshot;

/// How snapshots travel: immutable and shared. Holders (services, executors,
/// in-flight queries) each keep their own reference, so a swap never
/// invalidates what anyone is reading.
using SnapshotPtr = std::shared_ptr<const CorpusSnapshot>;

class CorpusSnapshot {
 public:
  /// Consumes `corpus`, builds the relation over it under `options`, and
  /// wraps both. The returned snapshot is self-contained: no external
  /// lifetime contract remains.
  static Result<SnapshotPtr> Build(Corpus corpus, RelationOptions options = {});

  /// Same, over an already-shared corpus (the Rebuild path — several
  /// snapshots may share one corpus with differently built relations).
  static Result<SnapshotPtr> Build(std::shared_ptr<const Corpus> corpus,
                                   RelationOptions options = {});

  /// Opens a persistent relation image (see storage/image.h): the columns
  /// are served straight out of a read-only mmap owned by the snapshot, so
  /// load cost is O(file size) — no labeling, no sorting. The snapshot's
  /// corpus carries the dictionary but no trees; everything the SQL
  /// executor and services need works unchanged, including hot swap
  /// (in-flight readers keep the mapping alive through their reference).
  static Result<SnapshotPtr> Open(const std::string& path,
                                  ImageOpenOptions options = {});

  /// Writes this snapshot's relation (and interner) as a persistent image.
  /// A chain is merged first (linear, no labeling), so the image always
  /// covers base + delta; opening it yields a delta-free snapshot.
  Status Save(const std::string& path, ImageSaveOptions options = {}) const;

  /// A new snapshot over the same corpus with a relation freshly built
  /// under the snapshot's own options — the "rebuilt index" input to a hot
  /// swap. For an image-backed snapshot
  /// there are no trees to relabel; Rebuild re-opens the image instead
  /// (a fresh mapping picks up a republished file). A chain's delta is
  /// rebuilt over the (immutable) delta corpus and re-attached.
  Result<SnapshotPtr> Rebuild() const;

  // --- Snapshot chain -------------------------------------------------------

  /// Extends the chain with `incoming`'s trees (copied; symbols re-interned
  /// into an overlay on the base's dictionary, so no base string is
  /// copied). Only the N incoming trees are labeled and sorted — never a
  /// base or existing delta tree (see NodeRelation::LabeledTreeCount) — and
  /// their relation is folded onto the existing delta by NodeRelation::Merge,
  /// a linear copy. Returns a new snapshot; this one is unchanged (readers
  /// pinned to it are unaffected).
  Result<SnapshotPtr> Append(const Corpus& incoming) const;

  /// Folds the delta into the base by linear merge (no labeling, no
  /// sorting): the result is the relation a full rebuild over the
  /// concatenated corpora would produce. For an image-backed base the
  /// merged relation is written back to image_path() (crash-safe tmp +
  /// rename + fsync) and re-opened, with `save_options` riding along to
  /// that write (db::Database stamps the WAL checkpoint LSN there). A
  /// built base is merged in memory and touches no file. InvalidArgument
  /// when the chain has no delta.
  Result<SnapshotPtr> Compact(ImageSaveOptions save_options = {}) const;

  /// True when trees have been appended since the base was built/opened.
  bool has_delta() const { return delta_relation_ != nullptr; }
  /// The delta relation, or nullptr without a delta.
  const NodeRelation* delta_relation() const { return delta_relation_.get(); }
  /// Trees in the base relation alone.
  int32_t base_tree_count() const { return relation_.tree_count(); }
  /// Trees in the delta alone (0 without one).
  int32_t delta_tree_count() const {
    return has_delta() ? delta_relation_->tree_count() : 0;
  }
  /// Chain-wide tree count (base + delta) — the published tid space.
  int32_t tree_count() const {
    return base_tree_count() + delta_tree_count();
  }
  /// Chain-wide element count.
  size_t element_count() const {
    return relation_.element_count() +
           (has_delta() ? delta_relation_->element_count() : 0);
  }
  /// The tree behind a chain-global tid, or nullptr when that source's
  /// corpus is tree-less (image-backed base) or the tid is out of range.
  const Tree* TreeAt(int32_t tid) const;

  const Corpus& corpus() const { return *corpus_; }
  const std::shared_ptr<const Corpus>& corpus_ptr() const { return corpus_; }
  const NodeRelation& relation() const { return relation_; }
  /// The chain-wide dictionary: the delta's (an overlay on the base's,
  /// resolving every base id through it) when a delta exists, else the
  /// base's.
  const Interner& interner() const {
    return has_delta() ? delta_corpus_->interner() : corpus_->interner();
  }
  const RelationOptions& options() const { return options_; }

  /// Process-wide monotonically increasing build number, so two snapshots
  /// over the same corpus are distinguishable (swap tests, shell display).
  uint64_t id() const { return id_; }

  /// True when this snapshot serves a mapped image rather than trees it
  /// can relabel; image_path() is then the file it was opened from.
  bool image_backed() const { return !image_path_.empty(); }
  const std::string& image_path() const { return image_path_; }

  /// The WAL checkpoint LSN stamped into the backing image (0 for built
  /// snapshots and for images saved without a WAL). Everything the base
  /// relation covers is at or below it; db::Database replays only the
  /// records above it on attach.
  uint64_t base_wal_lsn() const { return base_wal_lsn_; }

 private:
  CorpusSnapshot(std::shared_ptr<const Corpus> corpus, NodeRelation relation,
                 RelationOptions options);

  /// The base corpus's dictionary as a shared parent for a delta overlay
  /// (an alias that keeps the base corpus alive).
  std::shared_ptr<const Interner> BaseDictionary() const;

  /// This snapshot's base with `delta_corpus` / `delta_relation` as its
  /// delta link.
  SnapshotPtr Chain(std::shared_ptr<const Corpus> delta_corpus,
                    NodeRelation delta_relation) const;

  std::shared_ptr<const Corpus> corpus_;
  NodeRelation relation_;
  RelationOptions options_;
  uint64_t id_;
  std::string image_path_;  ///< empty unless opened via Open()
  uint64_t base_wal_lsn_ = 0;  ///< the opened image's WAL stamp

  // The chain's delta link, both null for a plain (delta-free) snapshot.
  // delta_corpus_ holds only the appended trees (local tids 0..delta-1)
  // and an overlay on the base's dictionary, so base symbol ids stay valid
  // in delta rows verbatim. The overlay pins the base corpus; Compact,
  // Save and Rebuild flatten or re-layer it when the base is replaced.
  std::shared_ptr<const Corpus> delta_corpus_;
  std::shared_ptr<const NodeRelation> delta_relation_;
};

}  // namespace lpath

#endif  // LPATHDB_STORAGE_SNAPSHOT_H_
