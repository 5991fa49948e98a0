#ifndef FUSION_CORE_PLAN_CACHE_H_
#define FUSION_CORE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/runtime_env.h"
#include "logical/plan.h"

namespace fusion {
namespace core {

/// \brief LRU of *optimized logical plans* keyed on the normalized
/// (serialized) unoptimized plan — Calcite's approach: keying on the
/// plan rather than SQL text makes equivalent DataFrame and SQL
/// templates share entries, and keeps the key independent of
/// whitespace/case.
///
/// The cached artifact is the optimized logical plan, NOT the physical
/// plan: physical operator instances are stateful one-shots (metrics
/// accumulate, lazily-built shared state like exchange queues cannot be
/// re-executed), while re-running the physical planner over a cached
/// optimized plan is cheap and always safe. What the cache skips is the
/// optimizer pass — the dominant cost of planning repeated templates.
///
/// The key also carries the identity of every provider the plan's scans
/// resolved to (a scan serializes only its table name), so a plan
/// resolved before its table was replaced can never answer for the new
/// table. Each entry holds those providers, so no address in a live key
/// can be reused. Replacing or dropping a table evicts only the entries
/// that scan it; Invalidate() drops everything (catalog swap, or a
/// provider mutated in place). Counters go to the shared
/// exec::PlanCacheStats so the exec-layer footer can render them.
class PlanCache {
 public:
  PlanCache(size_t capacity, exec::PlanCacheStatsPtr stats)
      : capacity_(capacity), stats_(std::move(stats)) {}

  /// Cached optimized plan for `key`, or nullptr. Counts hit/miss.
  logical::PlanPtr Get(const std::string& key);
  /// `scans` are the providers the plan's table scans resolved to.
  void Put(const std::string& key, logical::PlanPtr plan,
           std::vector<catalog::TableProviderPtr> scans);
  /// Drop the entries that scan `provider` (its table was replaced or
  /// dropped); counts one invalidation when any entry goes.
  void Evict(const catalog::TableProvider* provider);
  /// Drop everything.
  void Invalidate();
  size_t entries() const;

 private:
  struct Entry {
    logical::PlanPtr plan;
    std::vector<catalog::TableProviderPtr> scans;
    std::list<std::string>::iterator lru_pos;
  };

  const size_t capacity_;
  exec::PlanCacheStatsPtr stats_;

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // most recent at front
};

}  // namespace core
}  // namespace fusion

#endif  // FUSION_CORE_PLAN_CACHE_H_
