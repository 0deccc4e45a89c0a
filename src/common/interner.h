// Interner: maps strings (tag names, attribute names, word values) to dense
// 32-bit symbol ids and back. Shared by a whole corpus so that the node
// relation can be dictionary-encoded.

#ifndef LPATHDB_COMMON_INTERNER_H_
#define LPATHDB_COMMON_INTERNER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

namespace lpath {

/// Dense symbol id. Id 0 is reserved for "no symbol" (e.g. the value column
/// of an element row, which has no value).
using Symbol = uint32_t;
inline constexpr Symbol kNoSymbol = 0;

/// Append-only string dictionary with stable string storage.
///
/// A dictionary is either flat (it owns every string) or an overlay: a
/// shared, immutable flat parent plus the strings the parent lacks, which
/// take ids from parent->end_id() on. Every parent id resolves through the
/// overlay unchanged. This is how a snapshot chain extends its dictionary:
/// the delta corpus layers an overlay on the base's, so base symbol ids
/// stay valid verbatim in delta rows and no base string is ever copied.
///
/// Not thread-safe for interning; concurrent read-only lookup is safe once
/// loading has finished.
class Interner {
 public:
  /// An empty flat dictionary.
  Interner();

  /// An empty overlay on `parent`, which it keeps alive. `parent` must be
  /// non-null and flat (overlays are one layer deep).
  explicit Interner(std::shared_ptr<const Interner> parent);

  /// Returns the id for `s`, interning it on first sight. Never returns
  /// kNoSymbol.
  Symbol Intern(std::string_view s);

  /// Copy preserving every id (the clone maps id i to the same string).
  /// An overlay's clone shares the parent and copies only the overlay's
  /// own strings; a flat dictionary's clone copies everything. The
  /// implicitly generated copy constructor is deleted below because it
  /// would copy string_view keys pointing into the *source's* deque;
  /// cloning re-inserts in id order instead, which reproduces the dense id
  /// space.
  Interner Clone() const;

  /// A flat (parent-free) copy with the same ids: what a dictionary must
  /// become when the parent it extends is replaced (compaction, images).
  Interner Flatten() const;

  Interner(Interner&&) = default;
  Interner& operator=(Interner&&) = default;
  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;

  /// Returns the id for `s`, or kNoSymbol if it was never interned.
  Symbol Lookup(std::string_view s) const;

  /// Returns the string for a valid id. `id` must be a value previously
  /// returned by Intern (not kNoSymbol).
  std::string_view name(Symbol id) const;

  /// Number of distinct interned symbols (excluding the reserved id 0).
  size_t size() const { return end_id() - 1; }

  /// Largest valid id + 1 (ids are dense: 1..size()).
  Symbol end_id() const {
    return first_id_ + static_cast<Symbol>(strings_.size());
  }

  /// The dictionary this overlay extends, or null for a flat one.
  const std::shared_ptr<const Interner>& parent() const { return parent_; }

 private:
  /// Appends `s` under the next id without looking it up first.
  Symbol Insert(std::string_view s);

  std::shared_ptr<const Interner> parent_;
  // Id of strings_[0]: 0 for a flat dictionary (whose slot 0 is the
  // reserved kNoSymbol), parent_->end_id() for an overlay.
  Symbol first_id_ = 0;
  // deque gives stable addresses so string_view keys stay valid.
  std::deque<std::string> strings_;
  std::unordered_map<std::string_view, Symbol> index_;
};

}  // namespace lpath

#endif  // LPATHDB_COMMON_INTERNER_H_
