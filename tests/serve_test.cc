// Tests of the serving layer (serve/mining_service.h): cache-hit parity for
// all six algorithms, the canonical pattern block each execution encodes
// once and its cost, in-flight coalescing, cost-aware LRU eviction,
// admission rejection, deadline/cancellation as typed errors, counter
// consistency, multi-shard routing, and the cache-key canonicalization
// contract.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/lash_api.h"
#include "io/result_io.h"
#include "obs/metrics.h"
#include "serve/mining_service.h"
#include "serve/result_cache.h"
#include "serve/task_spec.h"
#include "test_util.h"

namespace lash::serve {
namespace {

constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kSequential, Algorithm::kLash,  Algorithm::kMgFsm,
    Algorithm::kGsp,        Algorithm::kNaive, Algorithm::kSemiNaive,
};

JobConfig TestConfig() {
  JobConfig config;
  config.num_threads = 2;
  config.num_map_tasks = 3;
  config.num_reduce_tasks = 4;
  return config;
}

TaskSpec PaperSpec(Algorithm algorithm) {
  TaskSpec spec;
  spec.algorithm = algorithm;
  spec.params = {.sigma = 2, .gamma = 1, .lambda = 3};
  spec.job_config = TestConfig();
  return spec;
}

/// A gate the tests use (via ServiceOptions::pre_execute_hook) to hold a
/// worker at the mine stage until released, making queue/coalescing/deadline
/// scenarios deterministic.
class ExecutionGate {
 public:
  void Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    ++entered_;
    entered_cv_.notify_all();
    released_cv_.wait(lock, [&] { return released_; });
  }

  /// Blocks until `n` workers have reached the gate.
  void AwaitEntered(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    entered_cv_.wait(lock, [&] { return entered_ >= n; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    released_cv_.notify_all();
  }

  size_t entered() {
    std::lock_guard<std::mutex> lock(mu_);
    return entered_;
  }

 private:
  std::mutex mu_;
  std::condition_variable entered_cv_;
  std::condition_variable released_cv_;
  size_t entered_ = 0;
  bool released_ = false;
};

class ServePaperTest : public ::testing::Test {
 protected:
  ServePaperTest() : dataset_(Dataset::FromMemory(ex_.raw_db, ex_.vocab)) {}

  testing::PaperExample ex_;
  Dataset dataset_;
};

TEST_F(ServePaperTest, CacheHitIsPatternIdenticalForAllSixAlgorithms) {
  MiningService service(dataset_);
  for (Algorithm algorithm : kAllAlgorithms) {
    const TaskSpec spec = PaperSpec(algorithm);
    // Copies: Response is a cheap value (shared_ptr + flags), and the
    // PendingResult temporaries that own the state die at the semicolon.
    const Response cold = service.Submit(spec).Get();
    const Response hit = service.Submit(spec).Get();
    EXPECT_FALSE(cold.cache_hit) << AlgorithmName(algorithm);
    EXPECT_TRUE(hit.cache_hit) << AlgorithmName(algorithm);
    // The hit shares the execution's result object — no pattern copy.
    EXPECT_EQ(cold.result.get(), hit.result.get());
    // And both are pattern-identical to a fresh facade run.
    PatternMap fresh = MakeTask(dataset_, spec).Mine();
    EXPECT_EQ(testing::Sorted(hit.patterns()), testing::Sorted(fresh))
        << AlgorithmName(algorithm);
    EXPECT_EQ(hit.run().algorithm, algorithm);
  }
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.hits, 6u);
  EXPECT_EQ(stats.misses, 6u);
  EXPECT_EQ(stats.executions, 6u);
  EXPECT_EQ(stats.completed, 12u);
}

TEST_F(ServePaperTest, GetOnATemporaryHandleReturnsByValue) {
  // A temporary PendingResult may hold the last reference to the request
  // state, so Get() on it hands back a copy; Get() on a named handle still
  // returns a reference into the state that handle keeps alive.
  static_assert(
      std::is_same_v<decltype(std::declval<PendingResult>().Get()), Response>);
  static_assert(
      std::is_same_v<decltype(std::declval<const PendingResult&>().Get()),
                     const Response&>);
  MiningService service(dataset_);
  const TaskSpec spec = PaperSpec(Algorithm::kSequential);
  // Binding a reference to the temporary's Get() extends the returned
  // value's lifetime; a reference into the freed state would be a
  // use-after-free that ASAN reports on the reads below.
  const Response& response = service.Submit(spec).Get();
  EXPECT_FALSE(response.cache_hit);
  EXPECT_EQ(testing::Sorted(response.patterns()),
            testing::Sorted(MakeTask(dataset_, spec).Mine()));
}

TEST_F(ServePaperTest, FilterAndTopKVariantsAreDistinctCacheEntries) {
  MiningService service(dataset_);
  TaskSpec plain = PaperSpec(Algorithm::kSequential);
  TaskSpec closed = plain;
  closed.filter = PatternFilter::kClosed;
  TaskSpec top3 = plain;
  top3.top_k = 3;

  const Response r_plain = service.Submit(plain).Get();
  const Response r_closed = service.Submit(closed).Get();
  const Response r_top3 = service.Submit(top3).Get();
  EXPECT_FALSE(r_closed.cache_hit);
  EXPECT_FALSE(r_top3.cache_hit);
  EXPECT_GT(r_plain.patterns().size(), r_closed.patterns().size());
  EXPECT_EQ(r_top3.patterns().size(), 3u);
  // Each variant hits its own entry on re-submission.
  EXPECT_TRUE(service.Submit(closed).Get().cache_hit);
  EXPECT_TRUE(service.Submit(top3).Get().cache_hit);
}

TEST_F(ServePaperTest, CoalescingExecutesExactlyOnceUnderASubmissionStorm) {
  auto gate = std::make_shared<ExecutionGate>();
  ServiceOptions options;
  options.executor_threads = 2;
  options.pre_execute_hook = [gate](const TaskSpec&) { gate->Enter(); };
  MiningService service(dataset_, options);

  const TaskSpec spec = PaperSpec(Algorithm::kSequential);
  std::vector<PendingResult> storm;
  storm.push_back(service.Submit(spec));  // Leader.
  gate->AwaitEntered(1);                  // Leader is mining (held at gate).
  for (int i = 0; i < 7; ++i) storm.push_back(service.Submit(spec));
  gate->Release();

  const Response& first = storm[0].Get();
  for (size_t i = 1; i < storm.size(); ++i) {
    const Response& r = storm[i].Get();
    EXPECT_TRUE(r.coalesced) << i;
    EXPECT_FALSE(r.cache_hit) << i;
    EXPECT_EQ(r.result.get(), first.result.get()) << i;  // Shared, not copied.
    // ...so every waiter replies with the one block the execution encoded.
    EXPECT_EQ(&r.pattern_block(), &first.pattern_block()) << i;
  }
  EXPECT_FALSE(first.pattern_block().empty());
  EXPECT_EQ(gate->entered(), 1u);  // The storm mined exactly once.
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.coalesced, 7u);
  EXPECT_EQ(stats.executions, 1u);
  EXPECT_EQ(stats.completed, 8u);
}

/// What the wire tier must send for `response`: its rank-space patterns
/// named through `dataset` and encoded canonically.
std::string CanonicalBlock(const Dataset& dataset, const Response& response) {
  std::string block;
  EncodeNamedPatterns(&block,
                      NamePatterns(dataset, response.patterns(),
                                   response.run().used_flat_hierarchy));
  return block;
}

TEST_F(ServePaperTest, CachedBlockIsTheCanonicalNamedEncoding) {
  MiningService service(dataset_);
  TaskSpec lash = PaperSpec(Algorithm::kLash);
  TaskSpec mgfsm = PaperSpec(Algorithm::kMgFsm);
  TaskSpec top3 = PaperSpec(Algorithm::kSequential);
  top3.top_k = 3;
  TaskSpec closed = PaperSpec(Algorithm::kSequential);
  closed.filter = PatternFilter::kClosed;
  TaskSpec maximal = PaperSpec(Algorithm::kSequential);
  maximal.filter = PatternFilter::kMaximal;

  const Response r_lash = service.Submit(lash).Get();
  EXPECT_FALSE(r_lash.run().used_flat_hierarchy);
  const Response r_mgfsm = service.Submit(mgfsm).Get();
  // MG-FSM names through the flat rank space.
  EXPECT_TRUE(r_mgfsm.run().used_flat_hierarchy);
  const Response r_top3 = service.Submit(top3).Get();
  EXPECT_EQ(r_top3.patterns().size(), 3u);
  const Response r_closed = service.Submit(closed).Get();
  const Response r_maximal = service.Submit(maximal).Get();

  for (const Response* r : {&r_lash, &r_mgfsm, &r_top3, &r_closed,
                            &r_maximal}) {
    EXPECT_FALSE(r->pattern_block().empty());
    EXPECT_EQ(r->pattern_block(), CanonicalBlock(dataset_, *r))
        << AlgorithmName(r->run().algorithm);
  }
  // The filters change the answer, so they change the block.
  EXPECT_NE(r_closed.pattern_block(), r_maximal.pattern_block());
  // A hit hands back the very bytes the miss encoded.
  const Response hit = service.Submit(mgfsm).Get();
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(&hit.pattern_block(), &r_mgfsm.pattern_block());
}

TEST_F(ServePaperTest, ResultCostCountsTheBlockBytesExactly) {
  const TaskSpec spec = PaperSpec(Algorithm::kLash);
  const std::string key = EncodeCacheKey(dataset_.id(), spec);
  const Response response = MiningService(dataset_).Submit(spec).Get();
  const CachedResult& entry = *response.result;
  EXPECT_EQ(entry.cost_bytes, EstimateResultCost(key, entry));

  CachedResult without_block = entry;
  without_block.pattern_block.clear();
  EXPECT_EQ(EstimateResultCost(key, entry) -
                EstimateResultCost(key, without_block),
            entry.pattern_block.size());

  // Equal results cost equal bytes, execution after execution.
  const Response again = MiningService(dataset_).Submit(spec).Get();
  EXPECT_NE(again.result.get(), response.result.get());
  EXPECT_EQ(again.pattern_block(), response.pattern_block());
  EXPECT_EQ(EstimateResultCost(key, *again.result), entry.cost_bytes);
}

TEST_F(ServePaperTest, UncachedAnswersCarryTheSameBlock) {
  const TaskSpec spec = PaperSpec(Algorithm::kSequential);
  const Response cached = MiningService(dataset_).Submit(spec).Get();

  ServiceOptions tiny;
  tiny.cache_bytes = 64;  // Every entry is rejected as oversized.
  tiny.cache_shards = 1;
  MiningService oversized(dataset_, tiny);
  ServiceOptions off;
  off.cache_bytes = 0;  // Caching disabled.
  MiningService disabled(dataset_, off);

  for (MiningService* service : {&oversized, &disabled}) {
    for (int round = 0; round < 2; ++round) {
      const Response r = service->Submit(spec).Get();
      EXPECT_FALSE(r.cache_hit);
      EXPECT_EQ(r.pattern_block(), cached.pattern_block()) << round;
    }
    EXPECT_EQ(service->Stats().cache_entries, 0u);
  }
  EXPECT_GT(oversized.Stats().cache_oversized_rejects, 0u);
}

TEST_F(ServePaperTest, LruEvictionRespectsTheByteBudget) {
  // Distinct-key, equal-cost queries: top_k in {10..13} all return every
  // pattern of the paper example (which has 10), so the four cache entries
  // differ only in key while costing the same bytes. Budget holds exactly
  // two of them; one shard so recency order is global and deterministic.
  auto spec_with_top = [](size_t top_k) {
    TaskSpec spec = PaperSpec(Algorithm::kSequential);
    spec.top_k = top_k;
    return spec;
  };
  const uint64_t entry_cost = MiningService(dataset_)
                                  .Submit(spec_with_top(10))
                                  .Get()
                                  .result->cost_bytes;

  ServiceOptions options;
  options.cache_bytes = entry_cost * 2 + entry_cost / 2;
  options.cache_shards = 1;
  MiningService service(dataset_, options);

  for (size_t top_k = 10; top_k <= 13; ++top_k) {
    service.Submit(spec_with_top(top_k)).Get();
    EXPECT_LE(service.Stats().cache_bytes, options.cache_bytes) << top_k;
  }
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_evictions, 2u);
  EXPECT_EQ(stats.cache_entries, 2u);

  // The most recent query is still resident; the oldest was evicted.
  EXPECT_TRUE(service.Submit(spec_with_top(13)).Get().cache_hit);
  EXPECT_FALSE(service.Submit(spec_with_top(10)).Get().cache_hit);
}

TEST_F(ServePaperTest, OversizedEntriesAreNotAdmitted) {
  ServiceOptions options;
  options.cache_bytes = 64;  // Smaller than any real result.
  options.cache_shards = 1;
  MiningService service(dataset_, options);
  service.Submit(PaperSpec(Algorithm::kSequential)).Get();
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_entries, 0u);
  EXPECT_GT(stats.cache_oversized_rejects, 0u);
  EXPECT_FALSE(
      service.Submit(PaperSpec(Algorithm::kSequential)).Get().cache_hit);
}

TEST_F(ServePaperTest, QueueFullRejectionIsATypedError) {
  auto gate = std::make_shared<ExecutionGate>();
  ServiceOptions options;
  options.executor_threads = 1;
  options.queue_capacity = 1;
  options.admission = AdmissionPolicy::kReject;
  options.pre_execute_hook = [gate](const TaskSpec&) { gate->Enter(); };
  MiningService service(dataset_, options);

  // Distinct specs so nothing coalesces: A occupies the worker, B the one
  // queue slot, C must be shed.
  TaskSpec a = PaperSpec(Algorithm::kSequential);
  TaskSpec b = a;
  b.params.sigma = 3;
  TaskSpec c = a;
  c.params.sigma = 4;

  PendingResult ra = service.Submit(a);
  gate->AwaitEntered(1);  // A has been dequeued; the queue is empty again.
  PendingResult rb = service.Submit(b);
  PendingResult rc = service.Submit(c);

  EXPECT_FALSE(rc.ok());
  EXPECT_EQ(rc.error_code(), ServeErrorCode::kQueueFull);
  try {
    rc.Get();
    FAIL() << "Get() must throw for a rejected request";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kQueueFull);
  }

  gate->Release();
  EXPECT_TRUE(ra.ok());
  EXPECT_TRUE(rb.ok());
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST_F(ServePaperTest, BlockingAdmissionAppliesBackpressureNotRejection) {
  auto gate = std::make_shared<ExecutionGate>();
  ServiceOptions options;
  options.executor_threads = 1;
  options.queue_capacity = 1;
  options.admission = AdmissionPolicy::kBlock;
  options.pre_execute_hook = [gate](const TaskSpec&) { gate->Enter(); };
  MiningService service(dataset_, options);

  TaskSpec a = PaperSpec(Algorithm::kSequential);
  TaskSpec b = a;
  b.params.sigma = 3;
  TaskSpec c = a;
  c.params.sigma = 4;

  PendingResult ra = service.Submit(a);
  gate->AwaitEntered(1);                  // A holds the worker.
  PendingResult rb = service.Submit(b);   // Fills the one queue slot.
  // C's Submit must now block on queue space instead of shedding load.
  std::optional<PendingResult> rc;
  std::atomic<bool> c_submitted{false};
  std::thread submitter([&] {
    rc = service.Submit(c);
    c_submitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(c_submitted.load());  // Still blocked (kReject would return).
  gate->Release();  // A finishes, B dequeues, a slot frees, C is admitted.
  submitter.join();
  EXPECT_TRUE(c_submitted.load());

  EXPECT_TRUE(ra.ok());
  EXPECT_TRUE(rb.ok());
  ASSERT_TRUE(rc.has_value());
  EXPECT_TRUE(rc->ok());
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.completed, 3u);
}

TEST_F(ServePaperTest, DeadlineExpiryBeforeExecutionIsATypedError) {
  auto gate = std::make_shared<ExecutionGate>();
  ServiceOptions options;
  options.executor_threads = 1;
  options.pre_execute_hook = [gate](const TaskSpec&) { gate->Enter(); };
  MiningService service(dataset_, options);

  TaskSpec slow = PaperSpec(Algorithm::kSequential);
  PendingResult ra = service.Submit(slow);
  gate->AwaitEntered(1);  // The only worker is held at the gate.

  TaskSpec deadlined = PaperSpec(Algorithm::kSequential);
  deadlined.params.sigma = 3;  // Distinct: must not coalesce onto `slow`.
  deadlined.deadline_ms = 1;
  PendingResult rb = service.Submit(deadlined);
  // Let the deadline lapse while rb is queued behind the gated worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate->Release();

  EXPECT_TRUE(ra.ok());
  EXPECT_FALSE(rb.ok());
  EXPECT_EQ(rb.error_code(), ServeErrorCode::kDeadlineExceeded);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.deadline_expired, 1u);
  // The expired request never mined: only `slow` reached the gate.
  EXPECT_EQ(gate->entered(), 1u);
  EXPECT_EQ(stats.executions, 1u);
}

TEST_F(ServePaperTest, CancelledRequestNeverMinesAndIsATypedError) {
  auto gate = std::make_shared<ExecutionGate>();
  ServiceOptions options;
  options.executor_threads = 1;
  options.pre_execute_hook = [gate](const TaskSpec&) { gate->Enter(); };
  MiningService service(dataset_, options);

  PendingResult ra = service.Submit(PaperSpec(Algorithm::kSequential));
  gate->AwaitEntered(1);

  TaskSpec other = PaperSpec(Algorithm::kSequential);
  other.params.sigma = 3;
  PendingResult rb = service.Submit(other);
  rb.Cancel();
  gate->Release();

  EXPECT_TRUE(ra.ok());
  EXPECT_FALSE(rb.ok());
  EXPECT_EQ(rb.error_code(), ServeErrorCode::kCancelled);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(gate->entered(), 1u);  // The cancelled request was skipped.
}

TEST_F(ServePaperTest, InvalidSpecFailsFastWithoutTouchingTheExecutor) {
  MiningService service(dataset_);

  TaskSpec bad = PaperSpec(Algorithm::kSequential);
  bad.params.sigma = 0;
  bad.miner = MinerKind::kPsmIndex;
  bad.algorithm = Algorithm::kGsp;  // Miner on a minerless algorithm.
  PendingResult r = service.Submit(bad);
  EXPECT_TRUE(r.ready());  // Resolved synchronously on the submit thread.
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error_code(), ServeErrorCode::kInvalidTask);
  EXPECT_NE(r.error_message().find("sigma"), std::string::npos);
  EXPECT_NE(r.error_message().find("miner"), std::string::npos);

  TaskSpec out_of_range = PaperSpec(Algorithm::kSequential);
  out_of_range.shard = 7;
  PendingResult r2 = service.Submit(out_of_range);
  EXPECT_EQ(r2.error_code(), ServeErrorCode::kInvalidTask);
  EXPECT_NE(r2.error_message().find("shard"), std::string::npos);

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.invalid, 2u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.executions, 0u);
}

TEST_F(ServePaperTest, StatsCountersSatisfyTheDocumentedIdentities) {
  MiningService service(dataset_);
  std::vector<TaskSpec> batch;
  for (int rep = 0; rep < 3; ++rep) {
    for (Frequency sigma = 2; sigma <= 4; ++sigma) {
      TaskSpec spec = PaperSpec(Algorithm::kSequential);
      spec.params.sigma = sigma;
      batch.push_back(spec);
    }
  }
  TaskSpec invalid;
  invalid.params.sigma = 0;
  batch.push_back(invalid);

  std::vector<PendingResult> results = service.SubmitBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i + 1 < results.size(); ++i) {
    EXPECT_TRUE(results[i].ok()) << i;
  }
  EXPECT_FALSE(results.back().ok());

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, batch.size());
  EXPECT_EQ(stats.submitted,
            stats.hits + stats.misses + stats.coalesced + stats.invalid);
  EXPECT_EQ(stats.submitted, stats.completed + stats.rejected +
                                 stats.cancelled + stats.deadline_expired +
                                 stats.invalid + stats.failed);
  EXPECT_EQ(stats.misses, 3u);  // Three distinct specs.
  EXPECT_EQ(stats.invalid, 1u);
  // The six repeats either hit (execution already finished) or coalesced
  // (still in flight) — both count toward the shared-work economy.
  EXPECT_EQ(stats.hits + stats.coalesced, 6u);
  EXPECT_GT(stats.mine_p50_ms, 0.0);
}

TEST_F(ServePaperTest, RegistryGaugesTrackQueueDepthAndCacheBytes) {
  // The service registers its instruments into a caller-supplied registry
  // (lash_served passes the process-global one); the gauges for executor
  // queue depth and cache residency are live values, not counters.
  obs::MetricsRegistry registry;
  ServiceOptions options;
  options.metrics = &registry;
  MiningService service(dataset_, options);
  EXPECT_EQ(&service.metrics(), &registry);

  EXPECT_EQ(registry.GetGauge("serve.executor.queue_depth")->Value(), 0);
  EXPECT_EQ(registry.GetGauge("serve.cache.bytes")->Value(), 0);

  const Response cold = service.Submit(PaperSpec(Algorithm::kSequential)).Get();
  EXPECT_FALSE(cold.cache_hit);

  // Drained executor, one resident result: depth back to 0, bytes > 0 and
  // equal to what both stats surfaces report.
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(registry.GetGauge("serve.executor.queue_depth")->Value(), 0);
  const int64_t bytes = registry.GetGauge("serve.cache.bytes")->Value();
  EXPECT_GT(bytes, 0);
  EXPECT_EQ(static_cast<uint64_t>(bytes), stats.cache_bytes);
  EXPECT_EQ(registry.GetGauge("serve.cache.entries")->Value(), 1);
  EXPECT_EQ(registry.GetCounter("serve.requests.submitted")->Value(), 1u);

  // Two services sharing nothing: a second service with its own (default,
  // private) registry starts from zero — no cross-service pollution.
  MiningService isolated(dataset_);
  EXPECT_EQ(isolated.Stats().submitted, 0u);
}

TEST_F(ServePaperTest, ShardsAreRoutedAndCachedIndependently) {
  // Shard 1 = the paper example with T6 removed: b1/D frequencies drop, so
  // the same spec must give different patterns per shard — and cached
  // entries must not cross shards.
  Database smaller = ex_.raw_db;
  smaller.pop_back();
  Dataset other = Dataset::FromMemory(smaller, ex_.vocab);
  MiningService service({&dataset_, &other});
  ASSERT_EQ(service.num_shards(), 2u);
  EXPECT_NE(dataset_.id(), other.id());

  TaskSpec spec0 = PaperSpec(Algorithm::kSequential);
  TaskSpec spec1 = spec0;
  spec1.shard = 1;
  const Response r0 = service.Submit(spec0).Get();
  const Response r1 = service.Submit(spec1).Get();
  EXPECT_FALSE(r1.cache_hit);  // Different shard: not a hit on shard 0's run.
  EXPECT_NE(testing::Sorted(r0.patterns()), testing::Sorted(r1.patterns()));
  EXPECT_EQ(testing::Sorted(r0.patterns()),
            testing::Sorted(MakeTask(dataset_, spec0).Mine()));
  EXPECT_EQ(testing::Sorted(r1.patterns()),
            testing::Sorted(MakeTask(other, spec1).Mine()));
  EXPECT_TRUE(service.Submit(spec0).Get().cache_hit);
  EXPECT_TRUE(service.Submit(spec1).Get().cache_hit);
}

TEST(ServeCacheKeyTest, CanonicalizationContract) {
  TaskSpec spec;
  spec.algorithm = Algorithm::kLash;
  spec.params = {.sigma = 10, .gamma = 1, .lambda = 4};

  const std::string base = EncodeCacheKey(1, spec);
  EXPECT_EQ(EncodeCacheKey(1, spec), base);  // Deterministic.
  EXPECT_NE(EncodeCacheKey(2, spec), base);  // Dataset id is part of the key.

  // Execution-shape knobs are canonicalized away...
  TaskSpec shaped = spec;
  shaped.threads = 7;
  shaped.job_config.num_map_tasks = 99;
  shaped.job_config.shuffle = ShuffleMode::kLegacyHash;
  shaped.deadline_ms = 50;
  EXPECT_EQ(EncodeCacheKey(1, shaped), base);

  // ...while every computation-selecting knob fragments it.
  for (auto mutate : std::vector<std::function<void(TaskSpec&)>>{
           [](TaskSpec& s) { s.params.sigma = 11; },
           [](TaskSpec& s) { s.params.gamma = 2; },
           [](TaskSpec& s) { s.params.lambda = 5; },
           [](TaskSpec& s) { s.algorithm = Algorithm::kSequential; },
           [](TaskSpec& s) { s.flat = true; },
           [](TaskSpec& s) { s.filter = PatternFilter::kClosed; },
           [](TaskSpec& s) { s.top_k = 5; },
           [](TaskSpec& s) { s.miner = MinerKind::kBfs; },
           [](TaskSpec& s) { s.rewrite = RewriteLevel::kNone; },
           [](TaskSpec& s) { s.combiner = false; },
       }) {
    TaskSpec mutated = spec;
    mutate(mutated);
    EXPECT_NE(EncodeCacheKey(1, mutated), base);
  }

  // MG-FSM always mines flat (MiningTask::UsesFlat), so an explicit
  // flat=true is canonicalized away rather than fragmenting its key space.
  TaskSpec mgfsm = spec;
  mgfsm.algorithm = Algorithm::kMgFsm;
  TaskSpec mgfsm_flat = mgfsm;
  mgfsm_flat.flat = true;
  EXPECT_EQ(EncodeCacheKey(1, mgfsm_flat), EncodeCacheKey(1, mgfsm));

  // The baseline emit cap only keys the algorithms it can truncate.
  TaskSpec capped = spec;
  capped.limits.max_emitted_records = 5;
  EXPECT_EQ(EncodeCacheKey(1, capped), base);
  TaskSpec naive = spec;
  naive.algorithm = Algorithm::kNaive;
  TaskSpec naive_capped = naive;
  naive_capped.limits.max_emitted_records = 5;
  EXPECT_NE(EncodeCacheKey(1, naive_capped), EncodeCacheKey(1, naive));
}

TEST(ServeDestructionTest, DestructorDrainsAdmittedWork) {
  testing::PaperExample ex;
  Dataset dataset = Dataset::FromMemory(ex.raw_db, ex.vocab);
  std::vector<TaskSpec> specs;
  for (Frequency sigma = 2; sigma <= 5; ++sigma) {
    TaskSpec spec = PaperSpec(Algorithm::kSequential);
    spec.params.sigma = sigma;
    specs.push_back(spec);
  }
  std::vector<PendingResult> pending;
  {
    ServiceOptions options;
    options.executor_threads = 2;
    MiningService service(dataset, options);
    pending = service.SubmitBatch(specs);
  }  // ~MiningService drains: everything below is already resolved.
  for (size_t i = 0; i < pending.size(); ++i) {
    ASSERT_TRUE(pending[i].ready()) << i;
    EXPECT_TRUE(pending[i].ok()) << i;
    EXPECT_EQ(testing::Sorted(pending[i].Get().patterns()),
              testing::Sorted(MakeTask(dataset, specs[i]).Mine()))
        << i;
  }
}

}  // namespace
}  // namespace lash::serve
