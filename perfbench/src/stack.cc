#include "stack.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

namespace lash::perfbench {
namespace {

/// A worker cache budget that every entry fits into but that is smaller
/// than all answers together. With one LRU shard and clients cycling
/// through the specs, each spec is evicted before it comes round again.
uint64_t ThrashBudget(const std::vector<uint64_t>& costs) {
  const uint64_t total = std::accumulate(costs.begin(), costs.end(),
                                         uint64_t{0});
  const uint64_t largest = *std::max_element(costs.begin(), costs.end());
  return std::max(total / 2, largest + 1);
}

}  // namespace

net::ClientOptions BenchClientOptions() {
  net::ClientOptions options;
  options.io_timeout_ms = 30000;
  return options;
}

Stack::Server::Server(net::Backend* backend, obs::MetricsRegistry* metrics) {
  net::ServerOptions options;  // 127.0.0.1, ephemeral port.
  options.metrics = metrics;
  server_ = std::make_unique<net::NetServer>(std::move(options), backend);
  thread_ = std::thread([this] { server_->Run(); });
}

Stack::Server::~Server() {
  server_->Shutdown();
  thread_.join();
}

Stack::Stack(const Workload& workload, const Prepared& prepared,
             const obs::TraceContext& parent, SetupTimes* times) {
  for (const std::string& path : prepared.snapshot_paths) {
    auto worker = std::make_unique<Worker>();
    TimedStep(parent, "bench.snapshot_load", &times->load_ms, [&] {
      worker->dataset.reset(new Dataset(
          Dataset::FromSnapshot(path, Dataset::LoadMode::kMmap)));
    });
    workers_.push_back(std::move(worker));
  }
  for (const auto& worker : workers_) {
    TimedStep(parent, "bench.verify_corpus", &times->verify_ms,
              [&] { worker->dataset->VerifyCorpus(); });
  }

  TimedStep(parent, "bench.server_start", &times->start_ms, [&] {
    for (const auto& worker : workers_) {
      worker->metrics = std::make_unique<obs::MetricsRegistry>();
      serve::ServiceOptions options;
      options.executor_threads = workload.clients;
      options.metrics = worker->metrics.get();
      if (workload.thrash_cache) {
        options.cache_shards = 1;
        options.cache_bytes = ThrashBudget(prepared.result_cost);
      }
      worker->backend = std::make_unique<net::ServiceBackend>(
          std::vector<const Dataset*>{worker->dataset.get()},
          std::move(options));
      worker->server = std::make_unique<Server>(worker->backend.get(),
                                                worker->metrics.get());
    }
    if (workload.shards > 1) {
      std::vector<net::WorkerAddress> addresses;
      for (const auto& worker : workers_) {
        addresses.push_back({"127.0.0.1", worker->server->port()});
      }
      router_metrics_ = std::make_unique<obs::MetricsRegistry>();
      net::RouterOptions options;
      options.metrics = router_metrics_.get();
      options.client = BenchClientOptions();
      // The router's scatter pool keeps its default size (one thread per
      // worker), as `lash_served` deploys it.
      router_ = std::make_unique<net::RouterBackend>(std::move(addresses),
                                                     std::move(options));
      router_server_ =
          std::make_unique<Server>(router_.get(), router_metrics_.get());
    }
  });
}

uint16_t Stack::front_port() const {
  return router_server_ != nullptr ? router_server_->port()
                                   : workers_.front()->server->port();
}

std::vector<uint16_t> Stack::worker_ports() const {
  std::vector<uint16_t> ports;
  for (const auto& worker : workers_) ports.push_back(worker->server->port());
  return ports;
}

}  // namespace lash::perfbench
