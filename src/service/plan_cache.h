// A thread-safe LRU cache from normalized query text to preparation
// outcomes — the parse/compile/optimize-once, execute-many half of the
// serving path. One level: each entry binds exactly one normalized text.
//
// An entry is either a shared prepared plan or the error Status the
// text produced (a *negative* entry). Both kinds share one LRU policy.
//
// Entries are handed out as shared_ptr<const CachedPlan> — one refcount
// bump per hit under the mutex — so an entry evicted while queries still
// execute against it stays alive until the last of them finishes.

#ifndef LPATHDB_SERVICE_PLAN_CACHE_H_
#define LPATHDB_SERVICE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "sql/optimizer.h"

namespace lpath {
namespace service {

/// Collapses whitespace runs to single spaces and trims the ends — outside
/// quoted literals, whose bytes (including whitespace runs) are preserved
/// verbatim — so reformatted spellings of one query share a cache entry
/// without aliasing distinct quoted strings. Queries are case- and
/// quote-sensitive beyond that.
std::string NormalizeQueryText(std::string_view text);

/// One preparation outcome: a prepared plan, or (negative entry) the error
/// Status that preparing the text produced. The plan resolves literals in
/// the session snapshot's chain-wide dictionary, so it runs unchanged over
/// the base and the delta relation. Everything here lives and dies with
/// the cache entry: LRU eviction and snapshot swaps (which rebuild the
/// whole cache) drop it.
struct CachedPlan {
  std::shared_ptr<const sql::PreparedPlan> plan;  ///< null iff negative
  Status error = Status::OK();  ///< !ok() iff negative

  bool negative() const { return plan == nullptr; }
};

using CachedPlanPtr = std::shared_ptr<const CachedPlan>;

class PlanCache {
 public:
  struct Stats {
    uint64_t hits = 0;           ///< hits, including negative
    uint64_t negative_hits = 0;  ///< hits that returned a cached error
    uint64_t misses = 0;
    /// Always 0: read by wirebench until its next benchmark revision.
    uint64_t shared_prepare_hits = 0;
    uint64_t evictions = 0;  ///< entries evicted
    size_t size = 0;         ///< entries (plans + negatives)
    size_t capacity = 0;
  };

  /// A cache with room for `capacity` entries (at least one).
  explicit PlanCache(size_t capacity);

  /// Returns the entry bound to `key` (moving it to the LRU front), or
  /// null. Counts one hit or one miss; `count` = false is the re-probe
  /// after a counted miss, which counts neither.
  CachedPlanPtr Get(const std::string& key, bool count = true);

  /// Inserts a freshly prepared `entry` for `key`. If a racing thread
  /// already published an entry for the same text, that entry wins; the
  /// returned pointer is the entry the caller should execute.
  CachedPlanPtr Put(const std::string& key, CachedPlanPtr entry);

  /// Caches the error `key` produced (negative entry).
  void PutNegative(const std::string& key, Status error);

  Stats stats() const;

 private:
  struct Entry {
    std::string text;
    CachedPlanPtr value;
  };
  using EntryList = std::list<Entry>;

  mutable std::mutex mu_;
  size_t capacity_;
  EntryList lru_;  // front = most recently used
  std::unordered_map<std::string, EntryList::iterator> by_text_;
  uint64_t hits_ = 0;
  uint64_t negative_hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace service
}  // namespace lpath

#endif  // LPATHDB_SERVICE_PLAN_CACHE_H_
