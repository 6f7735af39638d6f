#ifndef LASH_PERFBENCH_STACK_H_
#define LASH_PERFBENCH_STACK_H_

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "api/lash_api.h"
#include "net/router.h"
#include "net/server.h"
#include "net/service_backend.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"
#include "workloads.h"

/// The serving stack one workload runs against, stood up on loopback in
/// this process through the program's public types only: snapshot-loaded
/// Datasets, a ServiceBackend + NetServer per shard, and for sharded
/// workloads a RouterBackend behind its own NetServer.
namespace lash::perfbench {

/// Wall-clock of each set-up step, in milliseconds.
struct SetupTimes {
  double load_ms = 0;    ///< Dataset::FromSnapshot, summed over shards.
  double verify_ms = 0;  ///< Dataset::VerifyCorpus, summed over shards.
  double start_ms = 0;   ///< Backends and servers constructed and running.
  double warmup_ms = 0;  ///< Client connects plus warm-up requests.

  double TotalSeconds() const {
    return (load_ms + verify_ms + start_ms + warmup_ms) / 1000;
  }
};

/// Runs `body`, adds its wall-clock to `*ms`, and records it as a span
/// named `name` under `parent` (a no-op span when `parent` is inactive).
template <typename Body>
void TimedStep(const obs::TraceContext& parent, const char* name, double* ms,
               Body&& body) {
  obs::Span span(&obs::Tracer::Global(), parent, name);
  const Stopwatch watch;
  body();
  *ms += watch.ElapsedMs();
}

/// Client-side knobs shared by the benchmark's callers and the router's
/// worker connections: a request that hangs becomes a typed failure.
net::ClientOptions BenchClientOptions();

class Stack {
 public:
  /// Loads, verifies and starts; times each step into `times` and, when
  /// `parent` is active, records a bench.* span around each under it.
  Stack(const Workload& workload, const Prepared& prepared,
        const obs::TraceContext& parent, SetupTimes* times);

  /// The port the benchmark's clients send queries to.
  uint16_t front_port() const;
  /// Every shard worker's port.
  std::vector<uint16_t> worker_ports() const;
  bool routed() const { return router_ != nullptr; }

  size_t num_shards() const { return workers_.size(); }
  const Dataset& shard(size_t index) const { return *workers_[index]->dataset; }
  serve::MiningService& service(size_t index) {
    return workers_[index]->backend->service();
  }

 private:
  /// A NetServer running its event loop on its own thread.
  class Server {
   public:
    Server(net::Backend* backend, obs::MetricsRegistry* metrics);
    ~Server();
    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;
    uint16_t port() const { return server_->port(); }

   private:
    std::unique_ptr<net::NetServer> server_;
    std::thread thread_;
  };

  /// Members in teardown order, reversed: the server stops before the
  /// backend it calls, the backend dies before the dataset it borrows.
  struct Worker {
    std::unique_ptr<Dataset> dataset;
    std::unique_ptr<obs::MetricsRegistry> metrics;
    std::unique_ptr<net::ServiceBackend> backend;
    std::unique_ptr<Server> server;
  };

  /// Declared before the router, which holds connections to them, so the
  /// router stops first.
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<obs::MetricsRegistry> router_metrics_;
  std::unique_ptr<net::RouterBackend> router_;
  std::unique_ptr<Server> router_server_;
};

}  // namespace lash::perfbench

#endif  // LASH_PERFBENCH_STACK_H_
