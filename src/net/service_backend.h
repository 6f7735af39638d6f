#ifndef LASH_NET_SERVICE_BACKEND_H_
#define LASH_NET_SERVICE_BACKEND_H_

#include <atomic>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "api/lash_api.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "serve/mining_service.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace lash::net {

/// The worker backend: serves the framed wire protocol over a MiningService
/// on one or more snapshot-loaded shards. This is `lash_served`'s default
/// personality.
///
/// Handle() never blocks the event loop: a mine request is Submitted to the
/// service (whose executor owns the long work) and parked on an in-flight
/// list; the service's post_resolve_hook fires DrainReady(), which moves
/// every resolved request off the list, serializes its answer — the run
/// summary plus the cache entry's canonical named-pattern block, spliced
/// as-is — and fires the Reply, which wakes the epoll loop. A count request
/// (phase 2 of the router's two-phase protocol) is likewise handed off — to
/// a backend-owned counting pool that parallelizes over transaction blocks
/// (serve/support_count.h) and fires the Reply from a pool thread. Metrics
/// requests answer synchronously; a mine request's trace context flows into
/// the service's serve.* spans unchanged.
class ServiceBackend : public Backend {
 public:
  /// Borrows the shards (which must outlive the backend). `options` are
  /// forwarded to the MiningService; its post_resolve_hook is overwritten —
  /// it is this backend's delivery mechanism.
  ServiceBackend(std::vector<const Dataset*> shards,
                 serve::ServiceOptions options = {});

  void Handle(std::string_view payload, Reply reply) override;
  size_t InFlight() const override;

  serve::MiningService& service() { return *service_; }

 private:
  struct Pending {
    serve::PendingResult result;
    Reply reply;
  };

  /// Moves every resolved in-flight request off the list and replies.
  void DrainReady();

  /// Serializes one resolved request into its reply payload.
  std::string BuildReplyPayload(const Pending& pending);

  /// Runs on a counting-pool thread: exact per-candidate supports from one
  /// serve::SupportCounter, parallelized over fixed-size transaction blocks
  /// with the pool's ParallelFor (safe from inside a pool task — the
  /// calling thread participates). The deadline, measured from `received`,
  /// is checked before each block.
  void RunCount(const CountRequest& request, const Stopwatch& received,
                const Reply& reply);

  std::vector<const Dataset*> shards_;

  mutable std::mutex mu_;
  std::list<Pending> inflight_;

  /// Count requests handed off but not yet replied (part of InFlight so a
  /// draining server keeps its loop alive until the reply fires).
  std::atomic<size_t> counts_inflight_{0};
  /// Requests counter, registered iff the caller supplied a shared metrics
  /// registry (the service's own registry is private to it).
  obs::Counter* count_requests_ = nullptr;

  /// Declared last: destroyed first, in reverse order — the counting pool
  /// drains its count tasks, then the service's executor drains (resolving
  /// every pending mine, each firing the hook into DrainReady) — all while
  /// the in-flight list and shards are still alive.
  std::unique_ptr<serve::MiningService> service_;
  std::unique_ptr<ThreadPool> count_pool_;
};

}  // namespace lash::net

#endif  // LASH_NET_SERVICE_BACKEND_H_
