#include "storage/snapshot.h"

#include <atomic>
#include <utility>

#include "storage/image.h"

namespace lpath {

namespace {

uint64_t NextSnapshotId() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

CorpusSnapshot::CorpusSnapshot(std::shared_ptr<const Corpus> corpus,
                               NodeRelation relation, RelationOptions options)
    : corpus_(std::move(corpus)),
      relation_(std::move(relation)),
      options_(options),
      id_(NextSnapshotId()) {}

Result<SnapshotPtr> CorpusSnapshot::Build(Corpus corpus,
                                          RelationOptions options) {
  return Build(std::make_shared<const Corpus>(std::move(corpus)), options);
}

Result<SnapshotPtr> CorpusSnapshot::Build(std::shared_ptr<const Corpus> corpus,
                                          RelationOptions options) {
  if (corpus == nullptr) {
    return Status::InvalidArgument("CorpusSnapshot::Build: null corpus");
  }
  LPATH_ASSIGN_OR_RETURN(NodeRelation relation,
                         NodeRelation::Build(corpus, options));
  return SnapshotPtr(
      new CorpusSnapshot(std::move(corpus), std::move(relation), options));
}

Result<SnapshotPtr> CorpusSnapshot::Open(const std::string& path,
                                         ImageOpenOptions options) {
  // The image's WAL stamp comes from the header Open validated, so the
  // database replays only records this relation does not already cover.
  uint64_t wal_lsn = 0;
  LPATH_ASSIGN_OR_RETURN(NodeRelation relation,
                         ImageIO::Open(path, options, &wal_lsn));
  RelationOptions rel_options;
  rel_options.scheme = relation.scheme();
  // Copied out first: evaluation order must not move the relation away
  // before its corpus pointer is read.
  std::shared_ptr<const Corpus> corpus = relation.corpus_ptr();
  auto* snapshot =
      new CorpusSnapshot(std::move(corpus), std::move(relation), rel_options);
  snapshot->image_path_ = path;
  snapshot->base_wal_lsn_ = wal_lsn;
  return SnapshotPtr(snapshot);
}

namespace {

/// A fresh corpus carrying a flat copy of `interner` and no trees — the
/// owner shape NodeRelation::Merge needs when the merged trees themselves
/// are not materialized (image-backed compaction, chain Save). Flat, so the
/// merged relation never pins the base corpus an overlay extends.
std::shared_ptr<Corpus> CorpusWithDictionary(const Interner& interner) {
  auto corpus = std::make_shared<Corpus>();
  corpus->ResetInterner(interner.Flatten());
  return corpus;
}

}  // namespace

Status CorpusSnapshot::Save(const std::string& path,
                            ImageSaveOptions options) const {
  if (!has_delta()) return ImageIO::Save(relation_, path, options);
  // The image format holds one relation; merge the chain first (linear, no
  // labeling) so the file covers every published tree.
  LPATH_ASSIGN_OR_RETURN(
      NodeRelation merged,
      NodeRelation::Merge(relation_, *delta_relation_,
                          CorpusWithDictionary(delta_corpus_->interner())));
  return ImageIO::Save(merged, path, options);
}

Result<SnapshotPtr> CorpusSnapshot::Rebuild() const {
  // An image-backed snapshot has no trees to relabel: re-open the image
  // (its labeling is baked in).
  LPATH_ASSIGN_OR_RETURN(SnapshotPtr base, image_backed()
                                               ? Open(image_path_)
                                               : Build(corpus_, options_));
  if (!has_delta()) return base;
  // Carry the chain: re-layer the delta trees onto the new base's
  // dictionary (an image re-open brings a fresh one; the old overlay would
  // pin the old base corpus) and rebuild the delta relation over them
  // under the (possibly image-baked) base scheme.
  auto delta = std::make_shared<Corpus>();
  delta->ResetInterner(Interner(base->BaseDictionary()));
  delta->AppendFrom(*delta_corpus_);
  LPATH_ASSIGN_OR_RETURN(NodeRelation drel,
                         NodeRelation::Build(delta, base->options_));
  return base->Chain(std::move(delta), std::move(drel));
}

Result<SnapshotPtr> CorpusSnapshot::Append(const Corpus& incoming) const {
  if (incoming.empty()) {
    return Status::InvalidArgument("CorpusSnapshot::Append: empty corpus");
  }
  // The incoming trees alone, re-interned into the next layer of the
  // chain's dictionary: an overlay on the base's, carrying the current
  // delta's own strings when there is a delta. Base ids stay valid and new
  // strings take fresh ids; no base string is copied. Only these N trees
  // are labeled and sorted.
  auto batch = std::make_shared<Corpus>();
  batch->ResetInterner(has_delta() ? delta_corpus_->interner().Clone()
                                   : Interner(BaseDictionary()));
  batch->AppendFrom(incoming);
  LPATH_ASSIGN_OR_RETURN(NodeRelation drel,
                         NodeRelation::Build(batch, options_));
  if (!has_delta()) return Chain(std::move(batch), std::move(drel));
  // Fold the batch onto the existing delta by linear merge (no labeling,
  // no sorting: the path compaction takes). The merged corpus holds the
  // delta trees then the batch trees, and takes over the batch's
  // dictionary, a superset of the delta's. Merge reads only the sources'
  // columns, so the batch relation needs its dictionary no longer.
  auto delta = std::make_shared<Corpus>();
  for (const Corpus* part : {delta_corpus_.get(), &std::as_const(*batch)}) {
    for (size_t i = 0; i < part->size(); ++i) {
      delta->Add(part->tree(static_cast<TreeId>(i)));
    }
  }
  delta->ResetInterner(std::move(*batch->mutable_interner()));
  LPATH_ASSIGN_OR_RETURN(NodeRelation merged,
                         NodeRelation::Merge(*delta_relation_, drel, delta));
  return Chain(std::move(delta), std::move(merged));
}

std::shared_ptr<const Interner> CorpusSnapshot::BaseDictionary() const {
  // Aliases the base corpus: an overlay on this dictionary keeps the whole
  // base corpus alive.
  return std::shared_ptr<const Interner>(corpus_, &corpus_->interner());
}

SnapshotPtr CorpusSnapshot::Chain(std::shared_ptr<const Corpus> delta_corpus,
                                  NodeRelation delta_relation) const {
  auto* chained = new CorpusSnapshot(corpus_, relation_, options_);
  chained->image_path_ = image_path_;
  chained->base_wal_lsn_ = base_wal_lsn_;
  chained->delta_corpus_ = std::move(delta_corpus);
  chained->delta_relation_ =
      std::make_shared<const NodeRelation>(std::move(delta_relation));
  return SnapshotPtr(chained);
}

Result<SnapshotPtr> CorpusSnapshot::Compact(
    ImageSaveOptions save_options) const {
  if (!has_delta()) {
    return Status::InvalidArgument("CorpusSnapshot::Compact: no delta");
  }
  // The merged corpus: a flat copy of the chain's dictionary (a superset
  // of the base's, so the compacted snapshot no longer pins the old base
  // corpus), plus the concatenated trees when the base holds trees. An
  // image-backed base is tree-less and the compaction stays tree-less —
  // exactly what re-opening the rewritten image serves anyway.
  std::shared_ptr<Corpus> merged =
      CorpusWithDictionary(delta_corpus_->interner());
  if (!image_backed()) {
    for (size_t i = 0; i < corpus_->size(); ++i) {
      merged->Add(corpus_->tree(static_cast<TreeId>(i)));
    }
    for (size_t i = 0; i < delta_corpus_->size(); ++i) {
      merged->Add(delta_corpus_->tree(static_cast<TreeId>(i)));
    }
  }
  LPATH_ASSIGN_OR_RETURN(
      NodeRelation mrel,
      NodeRelation::Merge(relation_, *delta_relation_, merged));
  if (image_backed()) {
    // Crash safety rides on ImageIO::Save's unique-tmp + fsync + rename:
    // a reader (or a crash) mid-compaction sees either the old image or
    // the new one, never a torn file.
    LPATH_RETURN_IF_ERROR(ImageIO::Save(mrel, image_path_, save_options));
    return Open(image_path_);
  }
  auto* snapshot = new CorpusSnapshot(std::move(merged), std::move(mrel),
                                      options_);
  return SnapshotPtr(snapshot);
}

const Tree* CorpusSnapshot::TreeAt(int32_t tid) const {
  const int32_t base_trees = base_tree_count();
  if (tid < 0) return nullptr;
  if (tid < base_trees) {
    // An image-backed base serves a tree-less corpus; callers that need
    // the bracketed tree (printing, navigation) get a null.
    if (static_cast<size_t>(tid) >= corpus_->size()) return nullptr;
    return &corpus_->tree(tid);
  }
  const int32_t local = tid - base_trees;
  if (!has_delta() ||
      static_cast<size_t>(local) >= delta_corpus_->size()) {
    return nullptr;
  }
  return &delta_corpus_->tree(local);
}

}  // namespace lpath
