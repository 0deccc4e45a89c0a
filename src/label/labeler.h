// Label assignment.
//
// ComputeLPathLabels implements Definition 4.1: terminals get consecutive
// unit intervals [i, i+1) with the leftmost terminal at left=1; a
// non-terminal spans its leaf descendants; depth starts at 1 for the root;
// ids are pre-order positions (1-based, so nonzero); pid is the parent's id
// (0 for the root). One depth-first traversal, as the paper notes.
//
// ComputeXPathLabels implements the DeHaan et al. tag-position labeling used
// as the Figure 10 baseline: left/right are the document-order positions of
// a node's start and end tags (a single counter incremented at every tag).

#ifndef LPATHDB_LABEL_LABELER_H_
#define LPATHDB_LABEL_LABELER_H_

#include <vector>

#include "label/axes.h"
#include "tree/tree.h"

namespace lpath {

/// Fills labels[i] for every node i of `tree` (labels is resized).
void ComputeLPathLabels(const Tree& tree, std::vector<Label>* labels);

/// Tag-position labels for the Figure 10 baseline.
void ComputeXPathLabels(const Tree& tree, std::vector<Label>* labels);

/// Computes labels under either scheme.
void ComputeLabels(LabelScheme scheme, const Tree& tree,
                   std::vector<Label>* labels);

}  // namespace lpath

#endif  // LPATHDB_LABEL_LABELER_H_
