#include "serve/result_cache.h"

#include <bit>
#include <utility>

#include "util/hash.h"

namespace lash::serve {

uint64_t EstimateResultCost(const std::string& key,
                            const CachedResult& result) {
  // Per-pattern: the items, the frequency, and a flat allowance for the
  // PatternMap node (bucket slot + node header). Constants are deliberately
  // round — the budget steers eviction, it is not an allocator audit.
  constexpr uint64_t kPerPatternOverhead = 48;
  uint64_t bytes = key.size() + sizeof(CachedResult) +
                   result.pattern_block.size() +
                   sizeof(double) * (result.run.job.map_task_ms.size() +
                                     result.run.job.reduce_task_ms.size());
  for (const auto& [seq, freq] : result.patterns) {
    (void)freq;
    bytes += seq.size() * sizeof(ItemId) + sizeof(Frequency) +
             kPerPatternOverhead;
  }
  return bytes;
}

ResultCache::ResultCache(uint64_t byte_budget, size_t num_shards,
                         obs::MetricsRegistry* metrics) {
  size_t shards = std::bit_ceil(num_shards == 0 ? size_t{1} : num_shards);
  // A budget too small to split is concentrated in one shard rather than
  // rounded down to zero per shard (which would silently disable caching).
  if (byte_budget > 0 && byte_budget / shards == 0) shards = 1;
  shard_budget_ = byte_budget / shards;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (metrics != nullptr) {
    bytes_gauge_ = metrics->GetGauge("serve.cache.bytes");
    entries_gauge_ = metrics->GetGauge("serve.cache.entries");
    evictions_counter_ = metrics->GetCounter("serve.cache.evictions");
    oversized_counter_ = metrics->GetCounter("serve.cache.oversized_rejects");
  }
}

ResultCache::Shard& ResultCache::ShardFor(const std::string& key) {
  const uint64_t h = FnvHashBytes(key.data(), key.size());
  return *shards_[h & (shards_.size() - 1)];
}

std::shared_ptr<const CachedResult> ResultCache::Get(const std::string& key) {
  if (shard_budget_ == 0) return nullptr;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->value;
}

void ResultCache::Put(const std::string& key,
                      std::shared_ptr<const CachedResult> value) {
  if (shard_budget_ == 0) return;
  const uint64_t cost = value->cost_bytes;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (cost > shard_budget_) {
    ++shard.oversized_rejects;
    if (oversized_counter_ != nullptr) oversized_counter_->Add();
    return;
  }
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Replace in place (coalescing makes duplicate executions rare but a
    // lost submit/execute race can produce one); the entry becomes MRU.
    const uint64_t old_cost = it->second->value->cost_bytes;
    shard.bytes -= old_cost;
    shard.bytes += cost;
    if (bytes_gauge_ != nullptr) {
      bytes_gauge_->Add(static_cast<int64_t>(cost) -
                        static_cast<int64_t>(old_cost));
    }
    it->second->value = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    shard.lru.push_front(Entry{key, std::move(value)});
    shard.index.emplace(key, shard.lru.begin());
    shard.bytes += cost;
    if (bytes_gauge_ != nullptr) bytes_gauge_->Add(static_cast<int64_t>(cost));
    if (entries_gauge_ != nullptr) entries_gauge_->Add(1);
  }
  while (shard.bytes > shard_budget_) {
    Entry& cold = shard.lru.back();
    const uint64_t cold_cost = cold.value->cost_bytes;
    shard.bytes -= cold_cost;
    if (bytes_gauge_ != nullptr) {
      bytes_gauge_->Sub(static_cast<int64_t>(cold_cost));
    }
    if (entries_gauge_ != nullptr) entries_gauge_->Sub(1);
    shard.index.erase(cold.key);
    shard.lru.pop_back();
    ++shard.evictions;
    if (evictions_counter_ != nullptr) evictions_counter_->Add();
  }
}

ResultCache::Stats ResultCache::GetStats() const {
  Stats stats;
  stats.budget_bytes = shard_budget_ * shards_.size();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.entries += shard->lru.size();
    stats.bytes += shard->bytes;
    stats.evictions += shard->evictions;
    stats.oversized_rejects += shard->oversized_rejects;
  }
  return stats;
}

}  // namespace lash::serve
