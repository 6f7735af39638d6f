#ifndef LASH_SERVE_MINING_SERVICE_H_
#define LASH_SERVE_MINING_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/lash_api.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/executor.h"
#include "serve/result_cache.h"
#include "serve/task_spec.h"

/// The serving layer above the facade (ROADMAP "Serving layer").
///
/// PR 3 drew the contract — `Dataset` shared and immutable after load,
/// `MiningTask` per request — and this subsystem is the first layer built
/// on it: a `MiningService` owns an admission-controlled executor, a
/// sharded LRU result cache, and in-flight request coalescing, and answers
/// `TaskSpec`s asynchronously through future-like `PendingResult`s. One
/// preprocessing pass is amortized across a stream of repeated queries:
/// identical concurrent requests mine once, identical later requests don't
/// mine at all.
namespace lash::serve {

/// Why a request failed. Every failure a client can observe carries one of
/// these — string matching on error messages is never needed.
enum class ServeErrorCode {
  kInvalidTask,       ///< Spec failed MiningTask::Validate (or bad shard).
  kQueueFull,         ///< Rejected at admission (AdmissionPolicy::kReject).
  kDeadlineExceeded,  ///< Deadline passed at a pipeline stage boundary.
  kCancelled,         ///< Cancel() observed at a pipeline stage boundary.
  kExecutionFailed,   ///< The mining run itself threw.
};

/// Human-readable code name ("queue_full", ...).
const char* ServeErrorCodeName(ServeErrorCode code);

/// Thrown by PendingResult::Get() for a failed request.
class ServeError : public std::runtime_error {
 public:
  ServeError(ServeErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  ServeErrorCode code() const { return code_; }

 private:
  ServeErrorCode code_;
};

/// A successful answer. The CachedResult is shared with the cache and with
/// every other response served from the same execution (hits and
/// coalescers alike): nothing is copied, named or encoded per response.
/// In-process callers read the rank-space patterns(); the wire tier sends
/// pattern_block(), the canonical named bytes built once by the execution.
struct Response {
  std::shared_ptr<const CachedResult> result;
  bool cache_hit = false;   ///< Served from the cache without mining.
  bool coalesced = false;   ///< Attached to an execution already in flight.
  double latency_ms = 0;    ///< Submit → resolve wall clock.

  const RunResult& run() const { return result->run; }
  const PatternMap& patterns() const { return result->patterns; }
  const std::string& pattern_block() const { return result->pattern_block; }
};

namespace internal {
struct RequestState;
}  // namespace internal

/// Future-like handle to a submitted request. Copyable (shared-state
/// semantics, like std::shared_future); resolved exactly once by the
/// service, with either a Response or a ServeError.
class PendingResult {
 public:
  /// Blocks until the request is resolved.
  void Wait() const;
  /// Waits up to `timeout_ms`; returns whether the request resolved.
  bool WaitFor(double timeout_ms) const;
  bool ready() const;

  /// Requests cancellation. Best-effort: observed by the service between
  /// pipeline stages (a request whose mining already started still
  /// completes and populates the cache, but this waiter's result is
  /// discarded and Get() throws kCancelled).
  void Cancel();

  /// Waits and returns the response; throws ServeError on failure.
  const Response& Get() const&;
  /// The same on a temporary handle (`Submit(spec).Get()`), by value: the
  /// temporary may hold the last reference to the shared state, so a
  /// reference into it would dangle once the full expression ends.
  Response Get() &&;

  /// Waits; true iff the request succeeded (Get() will not throw).
  bool ok() const;
  /// Waits; the failure code (only meaningful when !ok()).
  ServeErrorCode error_code() const;
  /// Waits; the failure message ("" on success).
  std::string error_message() const;

 private:
  friend class MiningService;
  explicit PendingResult(std::shared_ptr<internal::RequestState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::RequestState> state_;
};

struct ServiceOptions {
  /// Executor workers (0 = hardware concurrency). Each worker runs one
  /// request at a time; the request's own mining may parallelize further
  /// (TaskSpec::threads / job config), so size this to concurrent
  /// *requests*, not cores.
  size_t executor_threads = 0;
  /// Bounded admission queue capacity (requests admitted but not started).
  size_t queue_capacity = 64;
  AdmissionPolicy admission = AdmissionPolicy::kReject;
  /// Result-cache byte budget across shards; 0 disables caching (requests
  /// still coalesce).
  uint64_t cache_bytes = uint64_t{64} << 20;
  size_t cache_shards = 8;
  /// Instrumentation/test seam: called on the executor worker immediately
  /// before a request mines (after the dequeue-time deadline/cancel check).
  /// Tests use it to gate execution deterministically; leave empty in
  /// production.
  std::function<void(const TaskSpec&)> pre_execute_hook;
  /// Event-loop seam: called once per request right after it resolves
  /// (success or typed failure), on whichever thread performed the
  /// resolution — the submitting thread for cache hits and validation
  /// failures, an executor worker otherwise. The network front door
  /// (net/service_backend.h) uses it to wake its epoll loop instead of
  /// polling PendingResults; must be cheap and must not call back into the
  /// service.
  std::function<void()> post_resolve_hook;
  /// Registry the service registers its serve.* instruments into. Null (the
  /// default) gives the service a private registry — counters stay isolated
  /// when many services share a process (tests). Tools serving one service
  /// pass &obs::MetricsRegistry::Global() so the metrics RPC sees everything.
  obs::MetricsRegistry* metrics = nullptr;
  /// Slow-query log threshold in milliseconds; 0 disables. A request whose
  /// submit→resolve latency reaches the threshold logs one stderr line
  /// (outcome, latency, cache/coalesce flags, trace id when present) at
  /// resolve time.
  double slow_query_ms = 0;
};

/// One consistent snapshot of the service counters — since PR 9 a *view*
/// over the metrics registry: every field below is read from a named
/// serve.* instrument (serve.requests.*, serve.cache.*,
/// serve.executor.queue_depth, serve.latency.{hit,mine}_ms), so Stats()
/// and the registry's own exposition can never disagree.
///
/// Identities (steady state, no requests in flight):
///   submitted == hits + misses + coalesced + invalid
///   submitted == completed + rejected + cancelled + deadline_expired
///                + invalid + failed
/// Every submitted request resolves exactly once, into exactly one of the
/// outcome counters of the second identity. `executions` can be smaller
/// than `misses`: a miss whose waiters all cancelled or expired before a
/// worker picked it up never mines, and an admission-rejected miss never
/// reaches a worker at all.
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t hits = 0;       ///< Resolved from the cache at submit time.
  uint64_t misses = 0;     ///< Created a new execution.
  uint64_t coalesced = 0;  ///< Attached to an in-flight execution.
  uint64_t invalid = 0;    ///< Failed validation at submit time.

  uint64_t completed = 0;  ///< Requests resolved with a Response.
  uint64_t rejected = 0;   ///< Requests shed at admission (queue full).
  uint64_t cancelled = 0;
  uint64_t deadline_expired = 0;
  uint64_t failed = 0;     ///< Mining threw (counts requests, not runs).

  uint64_t executions = 0;          ///< Mining runs actually performed.
  uint64_t cache_entries = 0;
  uint64_t cache_bytes = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_oversized_rejects = 0;
  size_t queue_depth = 0;

  /// Submit→resolve latency of cache hits / of mined (miss + coalesced)
  /// requests, from the fixed-bucket histograms.
  double hit_p50_ms = 0, hit_p95_ms = 0, hit_mean_ms = 0;
  double mine_p50_ms = 0, mine_p95_ms = 0, mine_mean_ms = 0;
};

/// A concurrent mining service over one or more immutable Dataset shards.
///
/// Threading: Submit/SubmitBatch/Stats may be called from any number of
/// threads. Shards are borrowed (the Dataset contract: "a serving layer
/// holds it behind a pointer") and must outlive the service; they are never
/// mutated beyond Dataset's internal thread-safe lazy flat preprocessing.
/// Destruction drains admitted work — every pending request resolves before
/// the destructor returns; submitting concurrently with destruction is a
/// contract violation.
///
/// Request pipeline: validate → cache lookup → coalesce-or-admit → queue →
/// [worker] dequeue-time deadline/cancel check → mine → encode the
/// canonical pattern block → cache fill → delivery-time deadline/cancel
/// check → resolve. Deadlines and
/// cancellation are checked between stages, never preemptively.
class MiningService {
 public:
  explicit MiningService(const Dataset& dataset, ServiceOptions options = {});
  MiningService(std::vector<const Dataset*> shards,
                ServiceOptions options = {});
  ~MiningService();

  MiningService(const MiningService&) = delete;
  MiningService& operator=(const MiningService&) = delete;

  /// Submits one request. Never throws: every failure (invalid spec, queue
  /// full, ...) is delivered through the PendingResult as a typed error.
  PendingResult Submit(const TaskSpec& spec);

  /// Fans out a batch; results are index-aligned with `specs`. Duplicate
  /// specs within a batch coalesce onto one execution like any other
  /// concurrent duplicates.
  std::vector<PendingResult> SubmitBatch(const std::vector<TaskSpec>& specs);

  ServiceStats Stats() const;

  /// The registry this service records into — the caller-supplied one, or
  /// the service's private registry when none was given.
  const obs::MetricsRegistry& metrics() const { return *metrics_; }

  size_t num_shards() const { return shards_.size(); }
  const Dataset& shard(size_t index) const { return *shards_[index]; }

 private:
  struct Execution;

  void Execute(const std::shared_ptr<Execution>& exec);
  void ResolveResponse(const std::shared_ptr<internal::RequestState>& state,
                       std::shared_ptr<const CachedResult> result,
                       bool cache_hit);
  void FailRequest(const std::shared_ptr<internal::RequestState>& state,
                   ServeErrorCode code, const std::string& message);
  void MaybeLogSlow(const internal::RequestState& state, double latency_ms,
                    const char* outcome) const;

  std::vector<const Dataset*> shards_;
  ServiceOptions options_;

  /// Engaged iff ServiceOptions::metrics was null; `metrics_` always points
  /// at the registry in use. Declared before the cache and the executor,
  /// which register instruments into it during construction.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;

  ResultCache cache_;

  /// The serve.requests.* / serve.latency.* instruments, resolved once at
  /// construction; recording is lock-free (obs/metrics.h).
  struct Instruments {
    obs::Counter* submitted;
    obs::Counter* hits;
    obs::Counter* misses;
    obs::Counter* coalesced;
    obs::Counter* invalid;
    obs::Counter* completed;
    obs::Counter* rejected;
    obs::Counter* cancelled;
    obs::Counter* deadline_expired;
    obs::Counter* failed;
    obs::Counter* executions;
    obs::LatencyHistogram* hit_latency;
    obs::LatencyHistogram* mine_latency;
  };
  static Instruments MakeInstruments(obs::MetricsRegistry& registry);
  Instruments inst_;

  /// Guards the in-flight table and every Execution::waiters list.
  std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Execution>> inflight_;

  /// Declared last: destroyed first, draining the queue while the cache,
  /// the in-flight table, and the shards are still alive.
  AdmissionExecutor executor_;
};

}  // namespace lash::serve

#endif  // LASH_SERVE_MINING_SERVICE_H_
