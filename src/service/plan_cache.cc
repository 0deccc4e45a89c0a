#include "service/plan_cache.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "sql/fingerprint.h"

namespace lpath {
namespace service {

std::string NormalizeQueryText(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  bool pending_space = false;
  char quote = '\0';  // inside a '...' / "..." literal when non-null
  for (char c : text) {
    if (quote != '\0') {
      // Quoted literals are preserved byte for byte: LPath allows any
      // character (including whitespace runs) between quotes, and the
      // normalized text is what actually gets parsed.
      out.push_back(c);
      if (c == quote) quote = '\0';
      continue;
    }
    if (c == '\'' || c == '"') {
      if (pending_space) {
        out.push_back(' ');
        pending_space = false;
      }
      quote = c;
      out.push_back(c);
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    out.push_back(c);
  }
  return out;
}

PlanCache::PlanCache(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {}

void PlanCache::BindTextLocked(EntryList::iterator it,
                               const std::string& key) {
  // Racing binders of one spelling are idempotent: the first wins, the
  // second finds the text already mapped (necessarily to this entry) and
  // leaves it alone.
  if (!by_text_.emplace(key, it).second) return;
  it->texts.push_back(key);
  if (it->texts.size() > kMaxTextsPerEntry) {
    by_text_.erase(it->texts.front());
    it->texts.erase(it->texts.begin());
  }
}

void PlanCache::UnbindEntryLocked(EntryList::iterator it) {
  for (const std::string& text : it->texts) by_text_.erase(text);
  if (it->has_fp) {
    auto bucket = by_fp_.find(it->fp);
    if (bucket != by_fp_.end()) {
      auto& slots = bucket->second;
      slots.erase(std::remove(slots.begin(), slots.end(), it), slots.end());
      if (slots.empty()) by_fp_.erase(bucket);
    }
  }
}

void PlanCache::EvictLocked() {
  while (lru_.size() > capacity_) {
    UnbindEntryLocked(std::prev(lru_.end()));
    lru_.pop_back();
    evictions_ += 1;
  }
}

CachedPlanPtr PlanCache::Get(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_text_.find(key);
  if (it == by_text_.end()) {
    misses_ += 1;
    return nullptr;
  }
  hits_ += 1;
  if (it->second->value->negative()) negative_hits_ += 1;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->value;
}

CachedPlanPtr PlanCache::GetByFingerprint(const std::string& key, uint64_t fp,
                                          const ExecPlan& compiled) {
  std::lock_guard<std::mutex> lock(mu_);
  auto bucket = by_fp_.find(fp);
  if (bucket != by_fp_.end()) {
    for (EntryList::iterator it : bucket->second) {
      // The hash narrows; structural equality decides. A 64-bit collision
      // between distinct plans lands in the `else` and each keeps its own
      // entry — shared serving never rides on the fingerprint alone.
      if (it->rep != nullptr && sql::PlanEquals(*it->rep, compiled)) {
        shared_prepare_hits_ += 1;
        BindTextLocked(it, key);
        lru_.splice(lru_.begin(), lru_, it);
        return it->value;
      }
    }
    fingerprint_collisions_ += 1;
  }
  return nullptr;
}

CachedPlanPtr PlanCache::Put(const std::string& key, uint64_t fp, ExecPlan rep,
                             CachedPlanPtr entry) {
  std::lock_guard<std::mutex> lock(mu_);
  // Concurrent misses may prepare the same query twice; the first
  // published entry wins and the racer adopts it (entries for one
  // structure are interchangeable, and the loser's bundle is simply
  // dropped).
  auto existing = by_text_.find(key);
  if (existing != by_text_.end()) {
    lru_.splice(lru_.begin(), lru_, existing->second);
    return existing->second->value;
  }
  auto bucket = by_fp_.find(fp);
  if (bucket != by_fp_.end()) {
    for (EntryList::iterator it : bucket->second) {
      if (it->rep != nullptr && sql::PlanEquals(*it->rep, rep)) {
        BindTextLocked(it, key);
        lru_.splice(lru_.begin(), lru_, it);
        return it->value;
      }
    }
  }
  lru_.emplace_front();
  EntryList::iterator it = lru_.begin();
  it->has_fp = true;
  it->fp = fp;
  it->rep = std::make_unique<const ExecPlan>(std::move(rep));
  it->value = std::move(entry);
  BindTextLocked(it, key);
  by_fp_[fp].push_back(it);
  EvictLocked();
  return it->value;
}

void PlanCache::PutNegative(const std::string& key, Status error) {
  std::lock_guard<std::mutex> lock(mu_);
  auto existing = by_text_.find(key);
  if (existing != by_text_.end()) {
    lru_.splice(lru_.begin(), lru_, existing->second);
    return;
  }
  auto negative = std::make_shared<CachedPlan>();
  negative->error = std::move(error);
  lru_.emplace_front();
  EntryList::iterator it = lru_.begin();
  it->value = std::move(negative);
  BindTextLocked(it, key);
  EvictLocked();
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.negative_hits = negative_hits_;
  s.misses = misses_;
  s.shared_prepare_hits = shared_prepare_hits_;
  s.fingerprint_collisions = fingerprint_collisions_;
  s.evictions = evictions_;
  s.size = lru_.size();
  s.texts = by_text_.size();
  s.fingerprints = by_fp_.size();
  s.capacity = capacity_;
  return s;
}

}  // namespace service
}  // namespace lpath
