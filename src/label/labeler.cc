#include "label/labeler.h"

namespace lpath {

void ComputeLPathLabels(const Tree& tree, std::vector<Label>* labels) {
  const NodeId n = static_cast<NodeId>(tree.size());
  labels->assign(n, Label{});
  if (n == 0) return;

  // Pass 1 (forward over pre-order ids): depth, id, pid, and leaf intervals.
  // Node ids are pre-order, so a parent is always processed before its
  // children; leaves are encountered left-to-right in pre-order.
  int32_t next_leaf = 1;
  for (NodeId i = 0; i < n; ++i) {
    Label& lab = (*labels)[i];
    lab.id = i + 1;  // nonzero unique identifier (Definition 4.1, rule 6)
    const NodeId parent = tree.parent(i);
    if (parent == kNoNode) {
      lab.depth = 1;
      lab.pid = 0;
    } else {
      lab.depth = (*labels)[parent].depth + 1;
      lab.pid = (*labels)[parent].id;
    }
    if (tree.is_leaf(i)) {
      lab.left = next_leaf;
      lab.right = next_leaf + 1;
      ++next_leaf;
    }
  }

  // Pass 2 (backward): a non-terminal spans its children, i.e. its leaf
  // descendants (rule 4). Children have larger pre-order ids, so a backward
  // sweep sees them completed.
  for (NodeId i = n - 1; i >= 0; --i) {
    if (tree.is_leaf(i)) continue;
    Label& lab = (*labels)[i];
    lab.left = (*labels)[tree.first_child(i)].left;
    lab.right = (*labels)[tree.last_child(i)].right;
  }
}

void ComputeXPathLabels(const Tree& tree, std::vector<Label>* labels) {
  const NodeId n = static_cast<NodeId>(tree.size());
  labels->assign(n, Label{});
  if (n == 0) return;

  // depth/id/pid identical to the LPath scheme so that the two relations
  // differ only in the left/right columns — the controlled comparison of
  // Figure 10.
  for (NodeId i = 0; i < n; ++i) {
    Label& lab = (*labels)[i];
    lab.id = i + 1;
    const NodeId parent = tree.parent(i);
    if (parent == kNoNode) {
      lab.depth = 1;
      lab.pid = 0;
    } else {
      lab.depth = (*labels)[parent].depth + 1;
      lab.pid = (*labels)[parent].id;
    }
  }

  // One counter over start/end tags; iterative DFS immune to deep input.
  int32_t pos = 1;
  NodeId cur = tree.root();
  while (cur != kNoNode) {
    (*labels)[cur].left = pos++;
    if (tree.first_child(cur) != kNoNode) {
      cur = tree.first_child(cur);
      continue;
    }
    // Leaf: close it, then close ancestors until a next sibling exists.
    (*labels)[cur].right = pos++;
    while (cur != kNoNode && tree.next_sibling(cur) == kNoNode) {
      cur = tree.parent(cur);
      if (cur != kNoNode) (*labels)[cur].right = pos++;
    }
    if (cur != kNoNode) cur = tree.next_sibling(cur);
  }
}

void ComputeLabels(LabelScheme scheme, const Tree& tree,
                   std::vector<Label>* labels) {
  if (scheme == LabelScheme::kLPath) {
    ComputeLPathLabels(tree, labels);
  } else {
    ComputeXPathLabels(tree, labels);
  }
}

}  // namespace lpath
