#include "core/plan_cache.h"

#include <algorithm>

namespace fusion {
namespace core {

logical::PlanPtr PlanCache::Get(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    stats_->misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  stats_->hits.fetch_add(1, std::memory_order_relaxed);
  lru_.erase(it->second.lru_pos);
  lru_.push_front(key);
  it->second.lru_pos = lru_.begin();
  return it->second.plan;
}

void PlanCache::Put(const std::string& key, logical::PlanPtr plan,
                    std::vector<catalog::TableProviderPtr> scans) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    lru_.erase(it->second.lru_pos);
    entries_.erase(it);
  }
  lru_.push_front(key);
  entries_.emplace(key, Entry{std::move(plan), std::move(scans), lru_.begin()});
  while (entries_.size() > capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    stats_->evictions.fetch_add(1, std::memory_order_relaxed);
  }
  stats_->entries.store(static_cast<int64_t>(entries_.size()),
                        std::memory_order_relaxed);
}

void PlanCache::Evict(const catalog::TableProvider* provider) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t before = entries_.size();
  for (auto it = entries_.begin(); it != entries_.end();) {
    const auto& scans = it->second.scans;
    bool scanned = std::any_of(scans.begin(), scans.end(), [&](const auto& p) {
      return p.get() == provider;
    });
    if (scanned) {
      lru_.erase(it->second.lru_pos);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  if (entries_.size() == before) return;
  stats_->invalidations.fetch_add(1, std::memory_order_relaxed);
  stats_->entries.store(static_cast<int64_t>(entries_.size()),
                        std::memory_order_relaxed);
}

void PlanCache::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.empty()) return;
  entries_.clear();
  lru_.clear();
  stats_->invalidations.fetch_add(1, std::memory_order_relaxed);
  stats_->entries.store(0, std::memory_order_relaxed);
}

size_t PlanCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace core
}  // namespace fusion
