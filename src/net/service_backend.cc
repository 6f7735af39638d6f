#include "net/service_backend.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "io/io_error.h"
#include "obs/trace.h"
#include "serve/support_count.h"
#include "util/timer.h"

namespace lash::net {

namespace {

/// Transactions per count-phase work unit: the grain of the counting
/// pool's ParallelFor and of the deadline check.
constexpr size_t kCountBlock = 128;

}  // namespace

ServiceBackend::ServiceBackend(std::vector<const Dataset*> shards,
                               serve::ServiceOptions options)
    : shards_(std::move(shards)) {
  if (options.metrics != nullptr) {
    count_requests_ = options.metrics->GetCounter("serve.count.requests");
  }
  options.post_resolve_hook = [this] { DrainReady(); };
  service_ = std::make_unique<serve::MiningService>(shards_,
                                                    std::move(options));
  count_pool_ = std::make_unique<ThreadPool>(
      std::max<size_t>(1, std::thread::hardware_concurrency()));
}

void ServiceBackend::Handle(std::string_view payload, Reply reply) {
  const MessageType type = PeekMessageType(payload);
  if (type == MessageType::kMetricsRequest) {
    reply.Send(EncodeMetricsResponse(service_->metrics().Snapshot()));
    return;
  }
  if (type == MessageType::kCountRequest) {
    CountRequest request = DecodeCountRequest(payload);
    if (request.shard >= shards_.size()) {
      reply.Send(EncodeErrorResponse(serve::ServeErrorCode::kInvalidTask,
                                     "count request names an unknown shard"));
      return;
    }
    if (count_requests_ != nullptr) count_requests_->Add();
    counts_inflight_.fetch_add(1, std::memory_order_relaxed);
    // The deadline runs from receipt, so time queued for the pool counts.
    count_pool_->Submit([this, received = Stopwatch(),
                         request = std::move(request),
                         reply = std::move(reply)] {
      RunCount(request, received, reply);
      counts_inflight_.fetch_sub(1, std::memory_order_relaxed);
    });
    return;
  }
  if (type != MessageType::kMineRequest) {
    // Responses (or anything else) arriving at a server are a protocol
    // violation; throwing makes the event loop close the connection.
    throw IoError(IoErrorKind::kMalformed, 0,
                  "server received a non-request message");
  }
  const MineRequest request = DecodeMineRequest(payload);
  Pending pending{service_->Submit(request.spec), std::move(reply)};
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.push_back(std::move(pending));
  }
  // Submit resolves synchronously for cache hits and validation failures,
  // firing the hook *before* the push above — this drain covers that race.
  DrainReady();
}

size_t ServiceBackend::InFlight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_.size() + counts_inflight_.load(std::memory_order_relaxed);
}

void ServiceBackend::RunCount(const CountRequest& request,
                              const Stopwatch& received, const Reply& reply) {
  try {
    obs::Span span(&obs::Tracer::Global(), request.trace, "serve.count");
    span.Tag("candidates", static_cast<double>(request.candidates.size()));
    span.Tag("shard", static_cast<double>(request.shard));
    const serve::SupportCounter counter(
        *shards_[request.shard], request.candidates,
        serve::CountQuery{request.gamma, request.lambda, request.flat});
    const size_t transactions = counter.num_transactions();
    span.Tag("transactions", static_cast<double>(transactions));
    span.Tag("trie_nodes", static_cast<double>(counter.trie_nodes()));
    // One partial count vector per participating thread: the calling pool
    // worker and every helper run whole blocks, and the partials are summed
    // once the loop is done.
    const size_t slots = count_pool_->num_threads() + 1;
    std::vector<std::vector<Frequency>> partials(slots);
    std::atomic<bool> expired{false};
    const size_t blocks = (transactions + kCountBlock - 1) / kCountBlock;
    count_pool_->ParallelFor(blocks, [&](size_t b) {
      if (request.deadline_ms > 0 &&
          received.ElapsedMs() >= request.deadline_ms) {
        expired.store(true, std::memory_order_relaxed);
      }
      if (expired.load(std::memory_order_relaxed)) return;
      std::vector<Frequency>& partial =
          partials[std::min(ThreadPool::CurrentIndex(), slots - 1)];
      partial.resize(counter.num_candidates(), 0);
      const size_t begin = b * kCountBlock;
      counter.CountRange(begin, std::min(transactions, begin + kCountBlock),
                         partial);
    });
    if (expired.load(std::memory_order_relaxed)) {
      span.Tag("outcome", "deadline_exceeded");
      span.End();
      reply.Send(EncodeErrorResponse(serve::ServeErrorCode::kDeadlineExceeded,
                                     "count deadline exceeded"));
      return;
    }
    CountResponse response;
    response.supports.assign(counter.num_candidates(), 0);
    for (const std::vector<Frequency>& partial : partials) {
      for (size_t c = 0; c < partial.size(); ++c) {
        response.supports[c] += partial[c];
      }
    }
    response.server_ms = received.ElapsedMs();
    // The span covers the counting, not the send — and ending it before the
    // reply means a tracer collecting in-process has the span once the
    // client sees the answer.
    span.Tag("outcome", "ok");
    span.End();
    reply.Send(EncodeCountResponse(response));
  } catch (const std::exception& e) {
    // Vocabulary/decoding failures must not escape into the pool (which
    // would terminate the process); they become a typed wire error.
    reply.Send(EncodeErrorResponse(serve::ServeErrorCode::kExecutionFailed,
                                   e.what()));
  }
}

void ServiceBackend::DrainReady() {
  std::list<Pending> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      if (it->result.ready()) {
        done.splice(done.end(), inflight_, it++);
      } else {
        ++it;
      }
    }
  }
  for (Pending& pending : done) {
    pending.reply.Send(BuildReplyPayload(pending));
  }
}

std::string ServiceBackend::BuildReplyPayload(const Pending& pending) {
  if (!pending.result.ok()) {
    return EncodeErrorResponse(pending.result.error_code(),
                               pending.result.error_message());
  }
  // The execution named and encoded the patterns once, at cache fill; every
  // reply of the entry splices those bytes.
  const serve::Response& response = pending.result.Get();
  return EncodeMineResponse(response.run(), response.cache_hit,
                            response.coalesced, response.latency_ms,
                            response.pattern_block());
}

}  // namespace lash::net
