#include "common/interner.h"

#include <cassert>
#include <utility>

namespace lpath {

Interner::Interner() {
  strings_.emplace_back();  // Reserve id 0 = kNoSymbol.
}

Interner::Interner(std::shared_ptr<const Interner> parent)
    : parent_(std::move(parent)) {
  assert(parent_ != nullptr && parent_->parent_ == nullptr);
  first_id_ = parent_->end_id();
}

Symbol Interner::Intern(std::string_view s) {
  if (parent_ != nullptr) {
    if (Symbol id = parent_->Lookup(s); id != kNoSymbol) return id;
  }
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  return Insert(s);
}

Symbol Interner::Insert(std::string_view s) {
  strings_.emplace_back(s);
  const Symbol id = end_id() - 1;
  index_.emplace(std::string_view(strings_.back()), id);
  return id;
}

Interner Interner::Clone() const {
  Interner copy = parent_ != nullptr ? Interner(parent_) : Interner();
  // Re-inserting in id order reproduces the dense id assignment; moving
  // the result keeps the deque's element addresses (and with them the
  // index's string_view keys) stable.
  copy.index_.reserve(end_id() - copy.end_id());
  for (Symbol id = copy.end_id(); id < end_id(); ++id) copy.Insert(name(id));
  return copy;
}

Interner Interner::Flatten() const {
  Interner flat;
  flat.index_.reserve(size());
  for (Symbol id = 1; id < end_id(); ++id) flat.Insert(name(id));
  return flat;
}

Symbol Interner::Lookup(std::string_view s) const {
  if (parent_ != nullptr) {
    if (Symbol id = parent_->Lookup(s); id != kNoSymbol) return id;
  }
  auto it = index_.find(s);
  return it == index_.end() ? kNoSymbol : it->second;
}

std::string_view Interner::name(Symbol id) const {
  assert(id != kNoSymbol && id < end_id());
  if (id < first_id_) return parent_->name(id);
  return strings_[id - first_id_];
}

}  // namespace lpath
