#include "serve/mining_service.h"

#include <cstdio>
#include <exception>
#include <thread>
#include <utility>

#include "io/result_io.h"

namespace lash::serve {

namespace internal {

/// Shared state behind a PendingResult. Resolved exactly once, under `mu`,
/// by the service; `cancel_requested` is the only field a client writes
/// after submission.
struct RequestState {
  using Clock = std::chrono::steady_clock;

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  bool done = false;
  bool failed = false;
  Response response;
  ServeErrorCode code = ServeErrorCode::kInvalidTask;
  std::string error;

  std::atomic<bool> cancel_requested{false};
  /// Set at attach time (under the service mutex, before the worker can see
  /// this waiter), read only at resolve time.
  bool coalesced_join = false;

  /// The request's trace id (inactive for untraced requests — kept for the
  /// slow-query log even when the tracer itself is off) and its root
  /// `serve.request` span, ended exactly once at resolve time under `mu`.
  obs::TraceId trace_id;
  obs::Span root_span;

  Clock::time_point submit_time;
  Clock::time_point deadline = Clock::time_point::max();

  bool DeadlinePassed(Clock::time_point now) const { return now >= deadline; }

  double ElapsedMs(Clock::time_point now) const {
    return std::chrono::duration<double, std::milli>(now - submit_time)
        .count();
  }
};

}  // namespace internal

namespace {

using internal::RequestState;
using Clock = RequestState::Clock;

}  // namespace

const char* ServeErrorCodeName(ServeErrorCode code) {
  switch (code) {
    case ServeErrorCode::kInvalidTask: return "invalid_task";
    case ServeErrorCode::kQueueFull: return "queue_full";
    case ServeErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ServeErrorCode::kCancelled: return "cancelled";
    case ServeErrorCode::kExecutionFailed: return "execution_failed";
  }
  return "unknown";
}

// ---- PendingResult -------------------------------------------------------

void PendingResult::Wait() const {
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->done; });
}

bool PendingResult::WaitFor(double timeout_ms) const {
  std::unique_lock<std::mutex> lock(state_->mu);
  return state_->cv.wait_for(
      lock, std::chrono::duration<double, std::milli>(timeout_ms),
      [&] { return state_->done; });
}

bool PendingResult::ready() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

void PendingResult::Cancel() {
  state_->cancel_requested.store(true, std::memory_order_relaxed);
}

const Response& PendingResult::Get() const& {
  Wait();
  // `done` is monotonic: no lock needed after Wait observes it.
  if (state_->failed) throw ServeError(state_->code, state_->error);
  return state_->response;
}

Response PendingResult::Get() && { return std::as_const(*this).Get(); }

bool PendingResult::ok() const {
  Wait();
  return !state_->failed;
}

ServeErrorCode PendingResult::error_code() const {
  Wait();
  return state_->code;
}

std::string PendingResult::error_message() const {
  Wait();
  return state_->failed ? state_->error : std::string();
}

// ---- MiningService -------------------------------------------------------

/// One in-flight execution: the canonical key, the spec that will be mined,
/// and every request waiting on the outcome. `waiters` is guarded by the
/// service mutex; the key doubles as the in-flight table key.
struct MiningService::Execution {
  std::string key;
  TaskSpec spec;
  std::vector<std::shared_ptr<RequestState>> waiters;
  /// The leader's serve.request context (inactive for untraced leaders);
  /// the parent of the execution-scoped serve.queue / serve.mine spans.
  obs::TraceContext trace_ctx;
  /// Covers admission → dequeue; ended by the worker that picks this up.
  obs::Span queue_span;
};

MiningService::MiningService(const Dataset& dataset, ServiceOptions options)
    : MiningService(std::vector<const Dataset*>{&dataset},
                    std::move(options)) {}

MiningService::Instruments MiningService::MakeInstruments(
    obs::MetricsRegistry& registry) {
  return Instruments{
      registry.GetCounter("serve.requests.submitted"),
      registry.GetCounter("serve.requests.hits"),
      registry.GetCounter("serve.requests.misses"),
      registry.GetCounter("serve.requests.coalesced"),
      registry.GetCounter("serve.requests.invalid"),
      registry.GetCounter("serve.requests.completed"),
      registry.GetCounter("serve.requests.rejected"),
      registry.GetCounter("serve.requests.cancelled"),
      registry.GetCounter("serve.requests.deadline_expired"),
      registry.GetCounter("serve.requests.failed"),
      registry.GetCounter("serve.requests.executions"),
      registry.GetHistogram("serve.latency.hit_ms"),
      registry.GetHistogram("serve.latency.mine_ms"),
  };
}

MiningService::MiningService(std::vector<const Dataset*> shards,
                             ServiceOptions options)
    : shards_(std::move(shards)),
      options_(std::move(options)),
      owned_metrics_(options_.metrics != nullptr
                         ? nullptr
                         : std::make_unique<obs::MetricsRegistry>()),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : owned_metrics_.get()),
      cache_(options_.cache_bytes, options_.cache_shards, metrics_),
      inst_(MakeInstruments(*metrics_)),
      // 0 means hardware concurrency here (the documented default);
      // ThreadPool itself would promote 0 to a single thread.
      executor_(options_.executor_threads > 0
                    ? options_.executor_threads
                    : std::thread::hardware_concurrency(),
                options_.queue_capacity, options_.admission,
                metrics_->GetGauge("serve.executor.queue_depth")) {
  if (shards_.empty()) {
    throw ApiError("MiningService needs at least one Dataset shard");
  }
}

MiningService::~MiningService() = default;

void MiningService::MaybeLogSlow(const RequestState& state, double latency_ms,
                                 const char* outcome) const {
  if (options_.slow_query_ms <= 0 || latency_ms < options_.slow_query_ms) {
    return;
  }
  // One line per slow request, grep-stable prefix. stderr keeps it out of
  // the tools' stdout protocol (patterns, stats) without a logging
  // dependency.
  std::fprintf(stderr,
               "[lash.slow] outcome=%s latency_ms=%.3f threshold_ms=%.3f "
               "cache_hit=%d coalesced=%d trace=%s\n",
               outcome, latency_ms, options_.slow_query_ms,
               state.response.cache_hit ? 1 : 0, state.coalesced_join ? 1 : 0,
               state.trace_id.active() ? state.trace_id.Hex().c_str() : "-");
}

void MiningService::ResolveResponse(
    const std::shared_ptr<RequestState>& state,
    std::shared_ptr<const CachedResult> result, bool cache_hit) {
  const auto now = Clock::now();
  const double latency = state->ElapsedMs(now);
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->done) return;
    // Counters and histograms update before `done` is observable, so a
    // client reading Stats() right after Get() returns sees this request
    // accounted for.
    (cache_hit ? inst_.hit_latency : inst_.mine_latency)->Record(latency);
    inst_.completed->Add();
    state->response.result = std::move(result);
    state->response.cache_hit = cache_hit;
    state->response.coalesced = state->coalesced_join;
    state->response.latency_ms = latency;
    if (state->root_span.active()) {
      state->root_span.Tag("outcome", "ok");
      state->root_span.Tag("cache_hit", cache_hit ? "true" : "false");
      state->root_span.Tag("coalesced",
                           state->coalesced_join ? "true" : "false");
      state->root_span.End();
    }
    state->done = true;
    MaybeLogSlow(*state, latency, "ok");
  }
  state->cv.notify_all();
  if (options_.post_resolve_hook) options_.post_resolve_hook();
}

void MiningService::FailRequest(const std::shared_ptr<RequestState>& state,
                                ServeErrorCode code,
                                const std::string& message) {
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->done) return;
    // Outcome counter before `done`, for the same Stats() visibility
    // guarantee as ResolveResponse.
    switch (code) {
      case ServeErrorCode::kInvalidTask:
        inst_.invalid->Add();
        break;
      case ServeErrorCode::kQueueFull:
        inst_.rejected->Add();
        break;
      case ServeErrorCode::kDeadlineExceeded:
        inst_.deadline_expired->Add();
        break;
      case ServeErrorCode::kCancelled:
        inst_.cancelled->Add();
        break;
      case ServeErrorCode::kExecutionFailed:
        inst_.failed->Add();
        break;
    }
    state->failed = true;
    state->code = code;
    state->error = message;
    if (state->root_span.active()) {
      state->root_span.Tag("outcome", ServeErrorCodeName(code));
      state->root_span.End();
    }
    state->done = true;
    MaybeLogSlow(*state, state->ElapsedMs(Clock::now()),
                 ServeErrorCodeName(code));
  }
  state->cv.notify_all();
  if (options_.post_resolve_hook) options_.post_resolve_hook();
}

PendingResult MiningService::Submit(const TaskSpec& spec) {
  auto state = std::make_shared<RequestState>();
  state->submit_time = Clock::now();
  if (spec.deadline_ms > 0) {
    state->deadline =
        state->submit_time +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(spec.deadline_ms));
  }
  state->trace_id = spec.trace.trace_id;
  // Root span of this process's part of the trace; inactive (one branch,
  // nothing recorded) unless the request carries a trace id and the tracer
  // has a sink. The parent is whatever the caller propagated — a router
  // scatter leg, a client's span, or 0 for an edge request.
  state->root_span =
      obs::Span(&obs::Tracer::Global(), spec.trace, "serve.request");
  PendingResult pending(state);
  inst_.submitted->Add();

  // Stage 1: validate synchronously, so a broken spec fails fast without
  // consuming queue capacity and a worker never sees an invalid task.
  obs::Span validate_span(&obs::Tracer::Global(), state->root_span.context(),
                          "serve.validate");
  if (spec.shard >= shards_.size()) {
    FailRequest(state, ServeErrorCode::kInvalidTask,
                "TaskSpec.shard " + std::to_string(spec.shard) +
                    " out of range (service has " +
                    std::to_string(shards_.size()) + " shard(s))");
    return pending;
  }
  const Dataset& dataset = *shards_[spec.shard];
  {
    std::vector<std::string> problems = MakeTask(dataset, spec).Validate();
    if (!problems.empty()) {
      std::string message = "invalid TaskSpec:";
      for (const std::string& p : problems) message += "\n  - " + p;
      FailRequest(state, ServeErrorCode::kInvalidTask, message);
      return pending;
    }
  }
  validate_span.End();

  // Stage 2: cache lookup — a hit resolves on the submitting thread.
  obs::Span cache_span(&obs::Tracer::Global(), state->root_span.context(),
                       "serve.cache");
  std::string key = EncodeCacheKey(dataset.id(), spec);
  std::shared_ptr<const CachedResult> hit = cache_.Get(key);
  cache_span.Tag("hit", hit != nullptr ? "true" : "false");
  cache_span.End();
  if (hit != nullptr) {
    inst_.hits->Add();
    ResolveResponse(state, std::move(hit), /*cache_hit=*/true);
    return pending;
  }

  // Stage 3: coalesce or become the leader of a new execution. (A miss
  // here can race an execution that completes between the cache probe and
  // this lock; the second execution then recomputes an identical result —
  // harmless, and far cheaper than holding one lock across both.)
  std::shared_ptr<Execution> exec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      state->coalesced_join = true;
      it->second->waiters.push_back(state);
      inst_.coalesced->Add();
      return pending;
    }
    exec = std::make_shared<Execution>();
    exec->key = std::move(key);
    exec->spec = spec;
    exec->waiters.push_back(state);
    // The leader's context parents the execution-scoped spans; a traced
    // coalescer joining an untraced leader's execution gets its root span
    // but no queue/mine children — the execution belongs to the leader.
    exec->trace_ctx = state->root_span.context();
    exec->queue_span =
        obs::Span(&obs::Tracer::Global(), exec->trace_ctx, "serve.queue");
    inflight_.emplace(exec->key, exec);
  }
  inst_.misses->Add();

  // Stage 4: admission. Under kBlock this Submit call is where the
  // backpressure is felt (the submitting thread waits for queue space).
  if (!executor_.Submit([this, exec] { Execute(exec); })) {
    std::vector<std::shared_ptr<RequestState>> waiters;
    {
      std::lock_guard<std::mutex> lock(mu_);
      waiters = std::move(exec->waiters);
      inflight_.erase(exec->key);
    }
    // Coalescers that attached while admission was failing are shed with
    // the leader — their execution never existed.
    for (const auto& waiter : waiters) {
      FailRequest(waiter, ServeErrorCode::kQueueFull,
                  "admission queue full (capacity " +
                      std::to_string(options_.queue_capacity) + ")");
    }
  }
  return pending;
}

std::vector<PendingResult> MiningService::SubmitBatch(
    const std::vector<TaskSpec>& specs) {
  std::vector<PendingResult> results;
  results.reserve(specs.size());
  for (const TaskSpec& spec : specs) results.push_back(Submit(spec));
  return results;
}

void MiningService::Execute(const std::shared_ptr<Execution>& exec) {
  // Stage 5 (worker, dequeue boundary): drop waiters whose deadline passed
  // while queued or that cancelled; if nobody is left, the mining is
  // skipped entirely. Pruning and the empty-check share one critical
  // section with the in-flight erase, so a new submitter either attaches
  // before the decision or starts a fresh execution after it.
  std::vector<std::shared_ptr<RequestState>> pruned;
  bool abandoned = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    exec->queue_span.End();  // Admission → dequeue, the queueing delay.
    const auto now = Clock::now();
    auto& waiters = exec->waiters;
    for (size_t i = 0; i < waiters.size();) {
      if (waiters[i]->cancel_requested.load(std::memory_order_relaxed) ||
          waiters[i]->DeadlinePassed(now)) {
        pruned.push_back(std::move(waiters[i]));
        waiters[i] = std::move(waiters.back());
        waiters.pop_back();
      } else {
        ++i;
      }
    }
    if (waiters.empty()) {
      inflight_.erase(exec->key);
      abandoned = true;
    }
  }
  for (const auto& waiter : pruned) {
    if (waiter->cancel_requested.load(std::memory_order_relaxed)) {
      FailRequest(waiter, ServeErrorCode::kCancelled,
                  "request cancelled before execution started");
    } else {
      FailRequest(waiter, ServeErrorCode::kDeadlineExceeded,
                  "deadline expired before execution started");
    }
  }
  if (abandoned) return;  // Every waiter is gone; don't mine for nobody.

  if (options_.pre_execute_hook) options_.pre_execute_hook(exec->spec);

  // Stage 6: mine, then name and encode the answer once — the canonical
  // block every wire reply of this entry splices. The spec was validated at
  // submit, so an exception here is an execution failure (e.g. resource
  // exhaustion, a rank that does not name), not user error; nothing is
  // cached.
  inst_.executions->Add();
  obs::Span mine_span(&obs::Tracer::Global(), exec->trace_ctx, "serve.mine");
  obs::Span encode_span;
  auto cached = std::make_shared<CachedResult>();
  try {
    const Dataset& dataset = *shards_[exec->spec.shard];
    {
      MiningTask task = MakeTask(dataset, exec->spec);
      // Ambient context lets layers beneath the TaskSpec (the api/ facade)
      // attach their spans without a signature change.
      obs::ScopedAmbientContext ambient(mine_span.context());
      cached->patterns = task.Mine(&cached->run);
    }
    mine_span.Tag("patterns", static_cast<double>(cached->patterns.size()));
    mine_span.End();
    encode_span =
        obs::Span(&obs::Tracer::Global(), exec->trace_ctx, "serve.encode");
    EncodeNamedPatterns(&cached->pattern_block,
                        NamePatterns(dataset, cached->patterns,
                                     cached->run.used_flat_hierarchy));
    encode_span.Tag("bytes",
                    static_cast<double>(cached->pattern_block.size()));
    encode_span.End();
  } catch (const std::exception& e) {
    mine_span.Tag("outcome", "failed");
    mine_span.End();
    encode_span.Tag("outcome", "failed");
    encode_span.End();
    std::vector<std::shared_ptr<RequestState>> waiters;
    {
      std::lock_guard<std::mutex> lock(mu_);
      waiters = std::move(exec->waiters);
      inflight_.erase(exec->key);
    }
    for (const auto& waiter : waiters) {
      FailRequest(waiter, ServeErrorCode::kExecutionFailed, e.what());
    }
    return;
  }
  cached->cost_bytes = EstimateResultCost(exec->key, *cached);

  // Stage 7: publish then retire. Cache fill happens *before* the in-flight
  // erase, so a submitter can never miss both (miss the cache, then find no
  // execution) for a result that exists.
  cache_.Put(exec->key, cached);
  std::vector<std::shared_ptr<RequestState>> waiters;
  {
    std::lock_guard<std::mutex> lock(mu_);
    waiters = std::move(exec->waiters);
    inflight_.erase(exec->key);
  }

  // Stage 8 (delivery boundary): the final deadline/cancel check. Each
  // waiter's serve.deliver span parents to its own serve.request root —
  // coalescers see their delivery under their own trace.
  const auto now = Clock::now();
  for (const auto& waiter : waiters) {
    obs::Span deliver_span(&obs::Tracer::Global(),
                           waiter->root_span.context(), "serve.deliver");
    if (waiter->cancel_requested.load(std::memory_order_relaxed)) {
      FailRequest(waiter, ServeErrorCode::kCancelled,
                  "request cancelled during execution");
    } else if (waiter->DeadlinePassed(now)) {
      FailRequest(waiter, ServeErrorCode::kDeadlineExceeded,
                  "deadline expired during execution");
    } else {
      ResolveResponse(waiter, cached, /*cache_hit=*/false);
    }
  }
}

ServiceStats MiningService::Stats() const {
  // A view over the registry instruments — the same atomics the registry's
  // Snapshot()/ToText() read, so the two surfaces cannot disagree.
  ServiceStats stats;
  stats.submitted = inst_.submitted->Value();
  stats.hits = inst_.hits->Value();
  stats.misses = inst_.misses->Value();
  stats.coalesced = inst_.coalesced->Value();
  stats.invalid = inst_.invalid->Value();
  stats.completed = inst_.completed->Value();
  stats.rejected = inst_.rejected->Value();
  stats.cancelled = inst_.cancelled->Value();
  stats.deadline_expired = inst_.deadline_expired->Value();
  stats.failed = inst_.failed->Value();
  stats.executions = inst_.executions->Value();

  const ResultCache::Stats cache = cache_.GetStats();
  stats.cache_entries = cache.entries;
  stats.cache_bytes = cache.bytes;
  stats.cache_evictions = cache.evictions;
  stats.cache_oversized_rejects = cache.oversized_rejects;
  stats.queue_depth = executor_.QueueDepth();

  const obs::LatencyHistogram::Snapshot hit =
      inst_.hit_latency->TakeSnapshot();
  stats.hit_p50_ms = hit.PercentileMs(0.50);
  stats.hit_p95_ms = hit.PercentileMs(0.95);
  stats.hit_mean_ms = hit.MeanMs();
  const obs::LatencyHistogram::Snapshot mine =
      inst_.mine_latency->TakeSnapshot();
  stats.mine_p50_ms = mine.PercentileMs(0.50);
  stats.mine_p95_ms = mine.PercentileMs(0.95);
  stats.mine_mean_ms = mine.MeanMs();
  return stats;
}

}  // namespace lash::serve
