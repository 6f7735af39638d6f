#ifndef LASH_SERVE_RESULT_CACHE_H_
#define LASH_SERVE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/lash_api.h"
#include "obs/metrics.h"

namespace lash::serve {

/// One finished execution, shared immutably between the cache and every
/// response that was served from it: the unified RunResult (timings and
/// counters of the execution that populated the entry — a cache hit
/// deliberately reports the original run's statistics), the emitted
/// patterns in rank space, and the same patterns as one canonical wire
/// block.
struct CachedResult {
  RunResult run;
  /// Rank space, for in-process callers (Response::patterns()).
  PatternMap patterns;
  /// `patterns` named and encoded once, at cache fill:
  /// EncodeNamedPatterns(NamePatterns(shard, patterns,
  /// run.used_flat_hierarchy)) (io/result_io.h), sized exactly. The wire
  /// tier splices these bytes into every reply, so a hit re-encodes
  /// nothing.
  std::string pattern_block;
  /// Approximate resident footprint, fixed at insert time (see
  /// EstimateResultCost); the eviction currency of ResultCache.
  uint64_t cost_bytes = 0;
};

/// Approximate bytes held by a cached entry: the key, the pattern payload
/// (items + frequency + an allowance for the hash-map node of each
/// pattern), the pattern block's bytes, and the fixed structs.
/// Deliberately deterministic — tests and eviction reasoning depend on
/// equal results costing equal bytes.
uint64_t EstimateResultCost(const std::string& key, const CachedResult& result);

/// A sharded, cost-aware LRU cache from canonical cache-key bytes to
/// CachedResults.
///
/// Shards are selected by FNV over the key bytes (util/hash.h), so
/// contention scales with shard count while equal keys always meet the
/// same shard. Each shard keeps an intrusive recency list and evicts from
/// the cold end until its slice of the byte budget is respected. Values
/// are handed out as shared_ptr: eviction never invalidates a response a
/// caller is still holding.
class ResultCache {
 public:
  /// `byte_budget` is the total across shards (a per-shard slice is
  /// enforced, so worst-case residency is the budget regardless of key
  /// skew); 0 disables caching entirely. `num_shards` is rounded up to a
  /// power of two, at least 1. `metrics`, if given, registers the
  /// serve.cache.* instruments (resident bytes/entries as live gauges,
  /// evictions/oversized rejects as counters) updated by delta under the
  /// owning shard's lock; the per-shard counters behind GetStats() are
  /// unchanged.
  ResultCache(uint64_t byte_budget, size_t num_shards,
              obs::MetricsRegistry* metrics = nullptr);

  /// Returns the entry for `key` and marks it most-recently-used, or null.
  std::shared_ptr<const CachedResult> Get(const std::string& key);

  /// Inserts (or replaces) `key`. An entry whose cost exceeds the whole
  /// shard slice is not admitted (it would only evict everything else and
  /// then be evicted by the next insert). No-op when caching is disabled.
  void Put(const std::string& key, std::shared_ptr<const CachedResult> value);

  struct Stats {
    uint64_t budget_bytes = 0;
    uint64_t entries = 0;
    uint64_t bytes = 0;
    uint64_t evictions = 0;
    uint64_t oversized_rejects = 0;
  };
  Stats GetStats() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const CachedResult> value;
  };
  struct Shard {
    std::mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    uint64_t bytes = 0;
    uint64_t evictions = 0;
    uint64_t oversized_rejects = 0;
  };

  Shard& ShardFor(const std::string& key);

  uint64_t shard_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Registry instruments (all null when no registry was given).
  obs::Gauge* bytes_gauge_ = nullptr;
  obs::Gauge* entries_gauge_ = nullptr;
  obs::Counter* evictions_counter_ = nullptr;
  obs::Counter* oversized_counter_ = nullptr;
};

}  // namespace lash::serve

#endif  // LASH_SERVE_RESULT_CACHE_H_
