#include "service/plan_cache.h"

#include <algorithm>
#include <cctype>
#include <utility>

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

CachedPlanPtr PlanCache::Get(const std::string& key, bool count) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_text_.find(key);
  if (it == by_text_.end()) {
    if (count) misses_ += 1;
    return nullptr;
  }
  if (count) {
    hits_ += 1;
    if (it->second->value->negative()) negative_hits_ += 1;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->value;
}

CachedPlanPtr PlanCache::Put(const std::string& key, CachedPlanPtr entry) {
  std::lock_guard<std::mutex> lock(mu_);
  // Racing Puts of one text: the first published entry wins and the
  // racer adopts it (its own bundle is dropped).
  auto existing = by_text_.find(key);
  if (existing != by_text_.end()) {
    lru_.splice(lru_.begin(), lru_, existing->second);
    return existing->second->value;
  }
  lru_.push_front(Entry{key, std::move(entry)});
  by_text_.emplace(key, lru_.begin());
  while (lru_.size() > capacity_) {
    by_text_.erase(lru_.back().text);
    lru_.pop_back();
    evictions_ += 1;
  }
  return lru_.front().value;  // capacity >= 1: the new entry survives
}

void PlanCache::PutNegative(const std::string& key, Status error) {
  auto negative = std::make_shared<CachedPlan>();
  negative->error = std::move(error);
  Put(key, std::move(negative));
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.negative_hits = negative_hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.size = lru_.size();
  s.capacity = capacity_;
  return s;
}

}  // namespace service
}  // namespace lpath
