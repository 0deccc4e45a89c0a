// A corpus is an ordered collection of trees sharing one string dictionary —
// the unit that the storage layer loads and the engines query.

#ifndef LPATHDB_TREE_CORPUS_H_
#define LPATHDB_TREE_CORPUS_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "tree/tree.h"

namespace lpath {

/// Identifier of a tree within a corpus (the `tid` column of the relation).
using TreeId = int32_t;

/// Ordered collection of trees plus the shared symbol dictionary.
///
/// Movable but not copyable (corpora can be large).
class Corpus {
 public:
  Corpus() : interner_(std::make_unique<Interner>()) {}

  Corpus(Corpus&&) = default;
  Corpus& operator=(Corpus&&) = default;
  Corpus(const Corpus&) = delete;
  Corpus& operator=(const Corpus&) = delete;

  /// Shared dictionary for tags, attribute names, and word values.
  Interner* mutable_interner() { return interner_.get(); }
  const Interner& interner() const { return *interner_; }

  /// Appends a tree and returns its id. The tree must use this corpus's
  /// interner for all symbols.
  TreeId Add(Tree tree);

  /// Appends copies of every tree of `other`, re-interning each symbol from
  /// `other`'s dictionary into this one (symbol ids are remapped; shared
  /// strings resolve to this corpus's existing ids). The ingestion path of
  /// the snapshot chain: externally loaded trees enter a batch corpus whose
  /// dictionary is an overlay on the base's (see Interner).
  void AppendFrom(const Corpus& other);

  /// Replaces the dictionary. Intended for assembling a corpus from parts
  /// that already share symbol ids (snapshot-chain append and compaction);
  /// any trees already present must use ids valid in `interner`.
  void ResetInterner(Interner interner) { *interner_ = std::move(interner); }

  size_t size() const { return trees_.size(); }
  bool empty() const { return trees_.empty(); }
  const Tree& tree(TreeId tid) const { return trees_[tid]; }

  /// Total number of element nodes across all trees.
  size_t TotalNodes() const;

  /// Convenience: interned symbol for a string, without inserting.
  Symbol Lookup(std::string_view s) const { return interner_->Lookup(s); }

  /// Replicates the corpus `factor` times (appending copies of the original
  /// tree sequence), used by the Figure 9 scalability experiment. `factor`
  /// counts total copies, so ReplicateTo(2) doubles the corpus.
  void ReplicateTo(int factor);

  /// Keeps only the first `n` trees (used for the 0.5x scale point).
  void Truncate(size_t n);

  /// Validates every tree.
  Status Validate() const;

 private:
  std::unique_ptr<Interner> interner_;
  std::vector<Tree> trees_;
};

}  // namespace lpath

#endif  // LPATHDB_TREE_CORPUS_H_
