#include "net/router.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>

#include "io/io_error.h"
#include "io/result_io.h"
#include "util/timer.h"

namespace lash::net {

using serve::ServeError;
using serve::ServeErrorCode;

RouterBackend::RouterBackend(std::vector<WorkerAddress> workers,
                             RouterOptions options)
    : options_(std::move(options)) {
  for (WorkerAddress& address : workers) {
    auto slot = std::make_unique<WorkerSlot>();
    slot->address = std::move(address);
    workers_.push_back(std::move(slot));
  }
  const size_t threads = options_.scatter_threads > 0
                             ? options_.scatter_threads
                             : std::max<size_t>(1, workers_.size());
  pool_ = std::make_unique<ThreadPool>(threads);
  if (options_.metrics != nullptr) {
    scatter_requests_ = options_.metrics->GetCounter("router.scatter.requests");
    scatter_worker_errors_ =
        options_.metrics->GetCounter("router.scatter.worker_errors");
    count_requests_ = options_.metrics->GetCounter("router.count.requests");
    count_candidates_ = options_.metrics->GetCounter("router.count.candidates");
    count_patterns_shipped_ =
        options_.metrics->GetCounter("router.count.patterns_shipped");
    count_phase_ms_ = options_.metrics->GetHistogram("router.count.phase_ms");
  }
}

RouterBackend::~RouterBackend() { pool_->Wait(); }

void RouterBackend::Handle(std::string_view payload, Reply reply) {
  const MessageType type = PeekMessageType(payload);
  if (type == MessageType::kMetricsRequest) {
    reply.Send(EncodeMetricsResponse(options_.metrics != nullptr
                                         ? options_.metrics->Snapshot()
                                         : std::vector<obs::MetricSample>{}));
    return;
  }
  if (type != MessageType::kMineRequest) {
    throw IoError(IoErrorKind::kMalformed, 0,
                  "router received a non-request message");
  }
  const MineRequest request = DecodeMineRequest(payload);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++inflight_;
  }
  pool_->Submit([this, spec = request.spec, reply] {
    std::string answer;
    try {
      const MineResponse merged = Scatter(spec);
      std::string block;
      EncodeNamedPatterns(&block, merged.patterns);
      answer = EncodeMineResponse(merged.run, merged.cache_hit,
                                  merged.coalesced, merged.server_ms, block);
    } catch (const ServeError& e) {
      answer = EncodeErrorResponse(e.code(), e.what());
    } catch (const std::exception& e) {
      answer = EncodeErrorResponse(ServeErrorCode::kExecutionFailed,
                                   e.what());
    }
    reply.Send(std::move(answer));
    std::lock_guard<std::mutex> lock(mu_);
    --inflight_;
  });
}

size_t RouterBackend::InFlight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

Frequency RouterBackend::ResolveShardSigma(const serve::TaskSpec& spec) const {
  const Frequency sigma = spec.params.sigma;
  Frequency sigma_prime;
  if (spec.shard_sigma != 0) {
    sigma_prime = spec.shard_sigma;  // per-request override wins
  } else if (options_.shard_sigma != 0) {
    sigma_prime = options_.shard_sigma;
  } else if (options_.two_phase) {
    // The pigeonhole bound: supp(S) ≥ σ summed over k transaction
    // partitions forces supp(S) ≥ ⌈σ/k⌉ on at least one of them.
    const Frequency k = workers_.size();
    sigma_prime = (sigma + k - 1) / k;
  } else {
    sigma_prime = 1;  // legacy exactness: every pattern visible everywhere
  }
  return std::min(std::max<Frequency>(sigma_prime, 1), sigma);
}

MineResponse RouterBackend::Scatter(const serve::TaskSpec& spec) {
  if (workers_.empty()) {
    throw ServeError(ServeErrorCode::kExecutionFailed,
                     "router has no workers");
  }
  if (spec.shard != 0) {
    throw ServeError(ServeErrorCode::kInvalidTask,
                     "the router serves one logical shard; "
                     "shard routing happens behind it");
  }
  if (spec.filter != PatternFilter::kNone) {
    throw ServeError(
        ServeErrorCode::kInvalidTask,
        "closed/maximal filters do not distribute over the cross-shard "
        "merge; filter on the client or mine a single worker");
  }

  if (scatter_requests_ != nullptr) scatter_requests_->Add();
  const Stopwatch total_watch;
  const Frequency sigma_prime = ResolveShardSigma(spec);
  // The router's subtree of the request trace: router.scatter spans the
  // whole fan-out+merge, one router.leg per phase-1 worker (its span id
  // becomes the worker-side parent), one router.count per phase-2 leg,
  // router.merge the reduction.
  obs::Span scatter_span(&obs::Tracer::Global(), spec.trace, "router.scatter");
  scatter_span.Tag("workers", static_cast<double>(workers_.size()));
  scatter_span.Tag("shard_sigma", static_cast<double>(sigma_prime));

  // One stderr line when a slow scatter resolves, mirroring the service's
  // slow-query log; `candidates`/`count_ms` stay 0/"-" until the count
  // phase has run.
  const auto maybe_log_slow = [&](const char* outcome, size_t candidates,
                                  double count_ms) {
    if (options_.slow_query_ms <= 0) return;
    const double latency_ms = total_watch.ElapsedMs();
    if (latency_ms < options_.slow_query_ms) return;
    std::fprintf(stderr,
                 "[lash.slow] outcome=%s latency_ms=%.3f threshold_ms=%.3f "
                 "twophase=%d shard_sigma=%llu candidates=%zu count_ms=%.3f "
                 "trace=%s\n",
                 outcome, latency_ms, options_.slow_query_ms,
                 options_.two_phase ? 1 : 0,
                 static_cast<unsigned long long>(sigma_prime), candidates,
                 count_ms,
                 spec.trace.active() ? spec.trace.trace_id.Hex().c_str()
                                     : "-");
  };

  // Phase 1: scatter the mine at σ′ and un-truncated (top-k re-cut after
  // the merge). The per-request shard_sigma override is consumed here — it
  // is router-level routing state, so the worker legs carry shard_sigma = 0
  // and the worker's answer stays cacheable under its own canonical key.
  serve::TaskSpec shard_spec = spec;
  shard_spec.params.sigma = sigma_prime;
  shard_spec.top_k = 0;
  shard_spec.shard_sigma = 0;

  std::vector<MineReply> replies(workers_.size());
  std::vector<std::string> errors(workers_.size());
  std::vector<ServeErrorCode> codes(workers_.size(),
                                    ServeErrorCode::kExecutionFailed);
  // ParallelFor participates from the calling thread, so scatter works even
  // when every pool worker is busy with other router requests. Exceptions
  // must not escape the body (pool contract: they would kill the process).
  pool_->ParallelFor(workers_.size(), [&](size_t w) {
    WorkerSlot& slot = *workers_[w];
    std::lock_guard<std::mutex> lock(slot.mu);
    try {
      if (!slot.client) {
        slot.client = std::make_unique<NetClient>(
            slot.address.host, slot.address.port, options_.client);
      }
      obs::Span leg_span(&obs::Tracer::Global(), scatter_span.context(),
                         "router.leg");
      leg_span.Tag("worker", slot.address.host + ":" +
                                 std::to_string(slot.address.port));
      serve::TaskSpec leg_spec = shard_spec;
      // The leg span parents the worker's serve.request; when this process
      // records nowhere the incoming context is forwarded untouched, so a
      // tracing worker behind a non-tracing router still joins the trace.
      leg_spec.trace =
          leg_span.active() ? leg_span.context() : shard_spec.trace;
      replies[w] = slot.client->Mine(leg_spec);
      errors[w].clear();
    } catch (const ServeError& e) {
      codes[w] = e.code();
      errors[w] = e.what();
    } catch (const std::exception& e) {
      errors[w] = e.what();
    }
  });
  for (size_t w = 0; w < workers_.size(); ++w) {
    if (!errors[w].empty()) {
      if (scatter_worker_errors_ != nullptr) scatter_worker_errors_->Add();
      // One shard missing means the sum is wrong for every pattern it
      // held; a partial answer would be silently incorrect.
      scatter_span.Tag("outcome", "worker_error");
      maybe_log_slow("worker_error", 0, 0);
      throw ServeError(codes[w], "worker " + workers_[w]->address.host + ":" +
                                     std::to_string(workers_[w]->address.port) +
                                     ": " + errors[w]);
    }
  }

  // Union of the phase-1 answers keyed on the canonical item-name bytes
  // (the same encoded-key-bytes identity the shuffle's ByteCombiner merges
  // on). On the legacy σ′=1 path the summed frequencies are already exact;
  // on the two-phase path they are partial sums (a shard below σ′ did not
  // report) and the count phase below replaces them.
  struct Merged {
    std::vector<std::string> items;
    Frequency frequency = 0;
  };
  std::unordered_map<std::string, Merged> merged;
  for (MineReply& reply : replies) {
    for (NamedPattern& pattern : reply.patterns) {
      Merged& slot = merged[NamedPatternKey(pattern)];
      if (slot.items.empty()) slot.items = std::move(pattern.items);
      slot.frequency += pattern.frequency;
    }
  }

  // Phase 2: recount the union candidates exactly on every shard and sum.
  // Skipped when phase 1 is already exact — σ′=1 makes every pattern
  // visible everywhere, and a single worker's mined supports are the union
  // supports (there is no shard it could be missing from).
  const bool count_phase = options_.two_phase && sigma_prime > 1 &&
                           workers_.size() > 1 && !merged.empty();
  NamedPatternList candidates;
  std::vector<Frequency> totals;
  double count_ms = 0;
  if (count_phase) {
    candidates.reserve(merged.size());
    for (auto& [key, entry] : merged) {
      candidates.push_back(NamedPattern{entry.items, 0});
    }
    // All frequencies are 0, so the canonical order is lexicographic —
    // every worker sees the identical, deterministic candidate list.
    SortNamedPatterns(&candidates);

    if (count_requests_ != nullptr) count_requests_->Add(workers_.size());
    if (count_candidates_ != nullptr) count_candidates_->Add(candidates.size());
    if (count_patterns_shipped_ != nullptr) {
      count_patterns_shipped_->Add(candidates.size() * workers_.size());
    }

    CountRequest count_request;
    count_request.shard = 0;
    count_request.deadline_ms = spec.deadline_ms;
    // The same canonicalization as the cache key: MG-FSM always mines the
    // flat rank space, so its supports must be counted there too.
    count_request.flat = spec.flat || spec.algorithm == Algorithm::kMgFsm;
    count_request.gamma = spec.params.gamma;
    count_request.lambda = spec.params.lambda;
    count_request.candidates = candidates;

    const Stopwatch count_watch;
    std::vector<CountReply> count_replies(workers_.size());
    pool_->ParallelFor(workers_.size(), [&](size_t w) {
      WorkerSlot& slot = *workers_[w];
      std::lock_guard<std::mutex> lock(slot.mu);
      try {
        if (!slot.client) {
          slot.client = std::make_unique<NetClient>(
              slot.address.host, slot.address.port, options_.client);
        }
        obs::Span count_span(&obs::Tracer::Global(), scatter_span.context(),
                             "router.count");
        count_span.Tag("worker", slot.address.host + ":" +
                                     std::to_string(slot.address.port));
        count_span.Tag("candidates", static_cast<double>(candidates.size()));
        CountRequest leg = count_request;
        leg.trace =
            count_span.active() ? count_span.context() : shard_spec.trace;
        CountReply reply = slot.client->Count(leg);
        if (reply.supports.size() != candidates.size()) {
          throw ServeError(ServeErrorCode::kExecutionFailed,
                           "count reply carries " +
                               std::to_string(reply.supports.size()) +
                               " supports for " +
                               std::to_string(candidates.size()) +
                               " candidates");
        }
        count_replies[w] = std::move(reply);
        errors[w].clear();
      } catch (const ServeError& e) {
        codes[w] = e.code();
        errors[w] = e.what();
      } catch (const std::exception& e) {
        codes[w] = ServeErrorCode::kExecutionFailed;
        errors[w] = e.what();
      }
    });
    count_ms = count_watch.ElapsedMs();
    if (count_phase_ms_ != nullptr) count_phase_ms_->Record(count_ms);
    for (size_t w = 0; w < workers_.size(); ++w) {
      if (!errors[w].empty()) {
        if (scatter_worker_errors_ != nullptr) scatter_worker_errors_->Add();
        scatter_span.Tag("outcome", "worker_error");
        maybe_log_slow("worker_error", candidates.size(), count_ms);
        throw ServeError(codes[w],
                         "worker " + workers_[w]->address.host + ":" +
                             std::to_string(workers_[w]->address.port) + ": " +
                             errors[w]);
      }
    }
    totals.assign(candidates.size(), 0);
    for (const CountReply& reply : count_replies) {
      for (size_t i = 0; i < totals.size(); ++i) {
        totals[i] += reply.supports[i];
      }
    }
  }

  obs::Span merge_span(&obs::Tracer::Global(), scatter_span.context(),
                       "router.merge");

  // Re-apply the caller's σ to the exact union supports, re-sort into the
  // canonical wire order, and re-cut top-k.
  MineResponse response;
  if (count_phase) {
    response.patterns.reserve(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (totals[i] < spec.params.sigma) continue;
      response.patterns.push_back(
          NamedPattern{std::move(candidates[i].items), totals[i]});
    }
  } else {
    response.patterns.reserve(merged.size());
    for (auto& [key, entry] : merged) {
      if (entry.frequency < spec.params.sigma) continue;
      response.patterns.push_back(
          NamedPattern{std::move(entry.items), entry.frequency});
    }
  }
  SortNamedPatterns(&response.patterns);
  if (spec.top_k > 0 && response.patterns.size() > spec.top_k) {
    response.patterns.resize(spec.top_k);
  }

  // The merged RunResult: accounting sums across workers, wall-clock fields
  // take the max (the scatter ran them concurrently), aborted ORs.
  bool first = true;
  RunResult& run = response.run;
  double server_ms = 0;
  for (const MineReply& reply : replies) {
    server_ms = std::max(server_ms, reply.server_ms);
    response.cache_hit = response.cache_hit || reply.cache_hit;
    response.coalesced = response.coalesced || reply.coalesced;
    if (first) {
      run = reply.run;
      first = false;
      continue;
    }
    run.aborted = run.aborted || reply.run.aborted;
    run.miner_stats.Merge(reply.run.miner_stats);
    run.gsp_stats.extended_items += reply.run.gsp_stats.extended_items;
    run.gsp_stats.candidates += reply.run.gsp_stats.candidates;
    run.gsp_stats.database_scans =
        std::max(run.gsp_stats.database_scans,
                 reply.run.gsp_stats.database_scans);
    run.partition_shape.Merge(reply.run.partition_shape);
    run.job.times.map_ms = std::max(run.job.times.map_ms,
                                    reply.run.job.times.map_ms);
    run.job.times.shuffle_ms = std::max(run.job.times.shuffle_ms,
                                        reply.run.job.times.shuffle_ms);
    run.job.times.reduce_ms = std::max(run.job.times.reduce_ms,
                                       reply.run.job.times.reduce_ms);
    run.job.counters.Merge(reply.run.job.counters);
    run.mine_ms = std::max(run.mine_ms, reply.run.mine_ms);
    run.filter_ms = std::max(run.filter_ms, reply.run.filter_ms);
    run.total_ms = std::max(run.total_ms, reply.run.total_ms);
    run.patterns_mined += reply.run.patterns_mined;
  }
  // Pattern accounting of the *merged* answer, not the scatter's σ′
  // over-mining: what this response actually contains.
  run.patterns_emitted = response.patterns.size();
  response.server_ms = server_ms;
  merge_span.Tag("patterns", static_cast<double>(response.patterns.size()));
  merge_span.End();
  scatter_span.Tag("outcome", "ok");
  if (count_phase) {
    scatter_span.Tag("candidates", static_cast<double>(candidates.size()));
    scatter_span.Tag("count_ms", count_ms);
  }
  scatter_span.End();
  maybe_log_slow("ok", candidates.size(), count_ms);
  return response;
}

}  // namespace lash::net
