// lash_perfbench — the repo benchmark (perfbench/README.md).
//
// Two steps, each its own process, both driven by perfbench/run.py:
//
//   lash_perfbench prepare --workload NAME --seed N --data-dir DIR
//     generates the workload's corpus, writes its shard snapshots, and
//     computes each spec's answer in process (the oracle). Untimed.
//   lash_perfbench measure --workload NAME --seed N --data-dir DIR
//                          --seconds S --trace 0|1 [--trace-out FILE]
//     stands the serving stack up on loopback from those snapshots, drives
//     the workload's closed loop for S seconds, checks every reply against
//     the oracle, and prints the end-to-end metrics (or, with --trace 1,
//     the per-layer ledger) as the last stdout line:
//       {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Exit codes: 0 ok; 1 a reply differed from the oracle, the workload left
// its shape, or set-up failed; 2 bad arguments.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "api/lash_api.h"
#include "io/result_io.h"
#include "ledger.h"
#include "net/client.h"
#include "obs/trace.h"
#include "serve/support_count.h"
#include "stack.h"
#include "stats.h"
#include "util/timer.h"
#include "workloads.h"

namespace lash::perfbench {
namespace {

/// A run must complete this many queries so p90 has ten samples above it;
/// each half of a traced run needs half as many for its median.
constexpr size_t kMinQueries = 100;
/// A phase that has not reached kMinQueries stops this long after its
/// nominal end anyway, so a broken build fails fast instead of hanging.
constexpr double kOvertimeSeconds = 60;

struct Options {
  bool prepare = false;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;
  int trace = -1;
  std::string data_dir;
  std::string trace_out;
};

Options ParseOptions(int argc, char** argv) {
  Options options;
  if (argc < 2 || (std::strcmp(argv[1], "prepare") != 0 &&
                   std::strcmp(argv[1], "measure") != 0)) {
    throw std::invalid_argument("first argument must be prepare or measure");
  }
  options.prepare = std::strcmp(argv[1], "prepare") == 0;
  bool have_seed = false;
  auto number = [](const std::string& flag, const char* text) {
    char* end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(value >= 0)) {
      throw std::invalid_argument(flag + " needs a number >= 0");
    }
    return value;
  };
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = static_cast<uint64_t>(number(flag, value));
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = number(flag, value);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      options.trace = value[0] - '0';
    } else if (flag == "--data-dir") {
      options.data_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (options.workload.empty() || !have_seed || options.data_dir.empty()) {
    throw std::invalid_argument("required: --workload --seed --data-dir");
  }
  if (!options.prepare && (options.seconds <= 0 || options.trace < 0)) {
    throw std::invalid_argument("measure requires --seconds (> 0) --trace");
  }
  return options;
}

std::string PreparedPath(const Options& options) {
  return options.data_dir + "/prepared.bin";
}

/// Heap bytes the process holds (in use, not merely retained by the
/// allocator), in MB. Unlike RSS this does not move with which thread's
/// arena happened to grow during mining.
double HeapMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

double RssMb() {
  long pages = 0, resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

using MetricMap = std::map<std::string, double>;

double Get(const MetricMap& metrics, const std::string& name) {
  const auto it = metrics.find(name);
  return it == metrics.end() ? 0 : it->second;
}

double Delta(const MetricMap& after, const MetricMap& before,
             const std::string& name) {
  return Get(after, name) - Get(before, name);
}

/// Reads the program's own counters through the metrics RPC, on
/// connections of its own: the shard workers' serve.* and net.server.*
/// summed, and the front server's (the router's, or the single worker's).
class Observer {
 public:
  struct Reading {
    MetricMap workers;
    MetricMap front;
  };

  explicit Observer(const Stack& stack) {
    for (const uint16_t port : stack.worker_ports()) {
      workers_.push_back(std::make_unique<net::NetClient>(
          "127.0.0.1", port, BenchClientOptions()));
    }
    if (stack.routed()) {
      router_ = std::make_unique<net::NetClient>(
          "127.0.0.1", stack.front_port(), BenchClientOptions());
    }
  }

  Reading Read() {
    Reading reading;
    for (const auto& client : workers_) {
      for (const obs::MetricSample& s : client->Metrics()) {
        reading.workers[s.name] += s.value;
      }
    }
    if (router_ == nullptr) {
      reading.front = reading.workers;
    } else {
      for (const obs::MetricSample& s : router_->Metrics()) {
        reading.front[s.name] = s.value;
      }
    }
    return reading;
  }

 private:
  std::vector<std::unique_ptr<net::NetClient>> workers_;
  std::unique_ptr<net::NetClient> router_;
};

/// The benchmark's callers: one connection per closed-loop client, each
/// with its own position in the seeded spec cycle.
struct Clients {
  std::vector<std::unique_ptr<net::NetClient>> connections;
  std::vector<size_t> cursor;
};

Clients Connect(const Workload& workload, const Prepared& prepared,
                uint16_t port) {
  Clients clients;
  for (size_t c = 0; c < workload.clients; ++c) {
    clients.connections.push_back(std::make_unique<net::NetClient>(
        "127.0.0.1", port, BenchClientOptions()));
    clients.cursor.push_back(c * prepared.order.size() / workload.clients);
  }
  return clients;
}

std::string Canonical(const NamedPatternList& patterns) {
  std::string bytes;
  EncodeNamedPatterns(&bytes, patterns);
  return bytes;
}

/// Connects every client and, for warm workloads, mines each spec once so
/// the measured requests find it cached. Replies are checked like
/// measured ones.
void WarmUp(const Workload& workload, const Prepared& prepared,
            Clients& clients, const obs::TraceContext& parent,
            SetupTimes* times) {
  TimedStep(parent, "bench.warmup", &times->warmup_ms, [&] {
    for (const auto& client : clients.connections) client->Metrics();
    if (!workload.warm) return;
    for (size_t i = 0; i < prepared.specs.size(); ++i) {
      const net::MineReply reply =
          clients.connections.front()->Mine(prepared.specs[i]);
      if (Canonical(reply.patterns) != prepared.oracle[i]) {
        throw std::runtime_error("warm-up reply for spec " +
                                 std::to_string(i) +
                                 " differs from the oracle");
      }
    }
  });
}

/// One closed-loop measurement.
struct Phase {
  std::vector<double> latency_ms;  ///< Successful queries only.
  size_t attempted = 0;
  size_t failed = 0;
  uint64_t patterns = 0;  ///< Patterns in the successful replies.
  double seconds = 0;
  std::vector<std::string> mismatches;
  std::vector<std::string> errors;

  size_t completed() const { return attempted - failed; }
};

Phase RunPhase(const Workload& workload, const Prepared& prepared,
               Clients& clients, double seconds, size_t min_queries,
               bool traced) {
  std::vector<Phase> locals(workload.clients);
  std::atomic<bool> stop{false};
  std::atomic<size_t> done{0};
  const Stopwatch clock;

  auto client_loop = [&](size_t c) {
    net::NetClient& client = *clients.connections[c];
    Phase& out = locals[c];
    std::string bytes;
    while (!stop.load(std::memory_order_relaxed)) {
      const size_t spec_index =
          prepared.order[clients.cursor[c]++ % prepared.order.size()];
      serve::TaskSpec spec = prepared.specs[spec_index];
      obs::Span root;
      if (traced) {
        root = obs::Span(&obs::Tracer::Global(),
                         obs::TraceContext{obs::TraceId::Make(), 0},
                         "bench.query");
        root.Tag("spec", std::to_string(spec_index));
        spec.trace = root.context();
      }
      ++out.attempted;
      net::MineReply reply;
      double ms = 0;
      bool ok = true;
      const Stopwatch watch;
      try {
        reply = client.Mine(spec);
        ms = watch.ElapsedMs();
      } catch (const std::exception& e) {
        ok = false;
        ++out.failed;
        if (out.errors.size() < 5) out.errors.push_back(e.what());
      }
      root.End();
      if (ok) {
        // Checked outside the timed interval.
        bytes.clear();
        EncodeNamedPatterns(&bytes, reply.patterns);
        if (bytes != prepared.oracle[spec_index]) {
          out.mismatches.push_back("spec " + std::to_string(spec_index));
        }
        out.latency_ms.push_back(ms);
        out.patterns += reply.patterns.size();
      }
      const size_t total = done.fetch_add(1) + 1;
      const double elapsed = clock.ElapsedSeconds();
      if ((elapsed >= seconds && total >= min_queries) ||
          elapsed >= seconds + kOvertimeSeconds) {
        stop.store(true, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> threads;
  for (size_t c = 0; c < workload.clients; ++c) {
    threads.emplace_back(client_loop, c);
  }
  for (std::thread& t : threads) t.join();

  Phase merged;
  merged.seconds = clock.ElapsedSeconds();
  for (const Phase& p : locals) {
    merged.latency_ms.insert(merged.latency_ms.end(), p.latency_ms.begin(),
                             p.latency_ms.end());
    merged.attempted += p.attempted;
    merged.failed += p.failed;
    merged.patterns += p.patterns;
    merged.mismatches.insert(merged.mismatches.end(), p.mismatches.begin(),
                             p.mismatches.end());
    merged.errors.insert(merged.errors.end(), p.errors.begin(),
                         p.errors.end());
  }
  return merged;
}

/// Direct measurements of single layers, taken after the measured phase
/// on the same loaded datasets, per spec.
struct Probes {
  std::vector<double> encode_ms;      ///< Reply naming + encoding.
  std::vector<double> decode_ms;      ///< Client-side decoding.
  std::vector<double> inproc_hit_ms;  ///< Warm single-worker workloads.
  std::vector<RunResult> engine;      ///< Cold single-worker workloads.
  std::vector<double> count_kernel_ms;  ///< Routed workloads.
  std::vector<double> count_matches;    ///< Candidates × shard sequences.
  std::vector<double> candidates;       ///< Routed workloads.
};

template <typename Fn>
double MedianMs(size_t reps, Fn&& fn) {
  std::vector<double> ms;
  for (size_t r = 0; r < reps; ++r) {
    const Stopwatch watch;
    fn();
    ms.push_back(watch.ElapsedMs());
  }
  return Median(ms);
}

Probes RunProbes(const Workload& workload, const Prepared& prepared,
                 Stack& stack) {
  const size_t n = prepared.specs.size();
  Probes out;
  out.encode_ms.assign(n, 0);
  out.decode_ms.assign(n, 0);
  out.inproc_hit_ms.assign(n, 0);
  out.count_kernel_ms.assign(n, 0);
  out.count_matches.assign(n, 0);
  out.candidates.assign(n, 0);
  if (!stack.routed() && !workload.warm) out.engine.resize(n);
  const Dataset& shard0 = stack.shard(0);

  for (size_t i = 0; i < n; ++i) {
    const serve::TaskSpec& spec = prepared.specs[i];
    NamedPatternList decoded;
    out.decode_ms[i] = MedianMs(5, [&] {
      ByteReader reader(prepared.oracle[i], "oracle patterns");
      decoded = DecodeNamedPatterns(reader);
    });
    std::string bytes;
    if (stack.routed()) {
      // The router already holds names; it only encodes.
      out.encode_ms[i] = MedianMs(5, [&] {
        bytes.clear();
        EncodeNamedPatterns(&bytes, decoded);
      });
      std::vector<const Dataset*> shards;
      for (size_t s = 0; s < stack.num_shards(); ++s) {
        shards.push_back(&stack.shard(s));
      }
      const NamedPatternList candidates = PhaseOneCandidates(shards, spec);
      const serve::CountQuery query{
          spec.params.gamma, spec.params.lambda,
          spec.flat || spec.algorithm == Algorithm::kMgFsm};
      std::vector<Frequency> supports;
      out.count_kernel_ms[i] = MedianMs(3, [&] {
        supports = serve::CountSupports(shard0, candidates, query);
      });
      out.candidates[i] = static_cast<double>(candidates.size());
      out.count_matches[i] = static_cast<double>(candidates.size()) *
                             static_cast<double>(shard0.NumSequences());
      continue;
    }
    auto encode = [&](const PatternMap& patterns, bool flat) {
      out.encode_ms[i] = MedianMs(5, [&] {
        bytes.clear();
        EncodeNamedPatterns(&bytes, NamePatterns(shard0, patterns, flat));
      });
    };
    if (workload.warm) {
      serve::MiningService& service = stack.service(0);
      out.inproc_hit_ms[i] =
          MedianMs(51, [&] { service.Submit(spec).Get(); });
      const serve::PendingResult hit = service.Submit(spec);
      encode(hit.Get().patterns(), hit.Get().run().used_flat_hierarchy);
    } else {
      const PatternMap patterns =
          serve::MakeTask(shard0, spec).Mine(&out.engine[i]);
      encode(patterns, out.engine[i].used_flat_hierarchy);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    std::printf("probe spec %zu: encode %.3f ms, decode %.3f ms, in-process "
                "hit %.4f ms, candidates %.0f, count kernel %.2f ms\n",
                i, out.encode_ms[i], out.decode_ms[i], out.inproc_hit_ms[i],
                out.candidates[i], out.count_kernel_ms[i]);
  }
  return out;
}

using MetricList = std::vector<std::tuple<std::string, double, std::string>>;

/// The per-layer ledger of a traced run (README "Per-layer metrics").
MetricList LayerMetrics(size_t shards, double rss_growth,
                        const std::vector<SetupTimes>& setups,
                        const Phase& untraced, const Phase& traced,
                        const Observer::Reading& before,
                        const Observer::Reading& after, const Probes& probes,
                        const std::vector<QueryLedger>& ledgers) {
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& t : setups) values.push_back(t.*field);
    return Median(values);
  };
  const double queries = static_cast<double>(untraced.completed() +
                                             traced.completed());
  const double n = static_cast<double>(std::max<size_t>(1, ledgers.size()));
  auto per_query = [&](auto&& value) {
    double sum = 0;
    for (const QueryLedger& q : ledgers) sum += value(q);
    return sum / n;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };

  const auto& wb = before.workers;
  const auto& wa = after.workers;
  const double submitted = Delta(wa, wb, "serve.requests.submitted");
  const double hits = Delta(wa, wb, "serve.requests.hits");

  // Engine figures: a query's share is its spec's direct-probe run if the
  // engine ran for it (a serve.mine span in its trace), else nothing.
  auto engine = [&](auto&& field) {
    return per_query([&](const QueryLedger& q) {
      return q.mined && !probes.engine.empty() ? field(probes.engine[q.spec])
                                               : 0.0;
    });
  };
  const double miner_candidates = engine([](const RunResult& r) {
    return static_cast<double>(r.miner_stats.candidates);
  });
  const double miner_outputs = engine([](const RunResult& r) {
    return static_cast<double>(r.miner_stats.outputs);
  });
  auto timeline = [](const RunResult& r, auto&& span) {
    double sum = 0;
    for (const PartitionTimeline& p : r.job.partition_timeline) sum += span(p);
    return sum;
  };

  double residual_sum = 0, latency_sum = 0;
  std::vector<double> residuals;
  for (const QueryLedger& q : ledgers) {
    const double residual =
        std::max(0.0, q.latency_ms - q.covered_ms - probes.encode_ms[q.spec] -
                          probes.decode_ms[q.spec]);
    residuals.push_back(residual);
    residual_sum += residual;
    latency_sum += q.latency_ms;
  }
  const double kernel_ms = per_query(
      [&](const QueryLedger& q) { return probes.count_kernel_ms[q.spec]; });
  const double matches = per_query(
      [&](const QueryLedger& q) { return probes.count_matches[q.spec]; });
  const double untraced_p50 = Percentile(untraced.latency_ms, 0.5).value;
  const double traced_p50 = Percentile(traced.latency_ms, 0.5).value;
  const double candidates = Delta(after.front, before.front,
                                  "router.count.candidates");

  return {
      {"io.snapshot_load_ms", median_of(&SetupTimes::load_ms), "ms"},
      {"io.verify_corpus_ms", median_of(&SetupTimes::verify_ms), "ms"},
      {"serve.warmup_ms", median_of(&SetupTimes::warmup_ms), "ms"},
      {"serve.hit_ratio", ratio(hits, submitted), "ratio"},
      {"serve.inproc_hit_ms",
       per_query([&](const QueryLedger& q) {
         return probes.inproc_hit_ms[q.spec];
       }),
       "ms"},
      {"serve.queue_ms",
       per_query([](const QueryLedger& q) { return q.queue_self_ms; }), "ms"},
      {"serve.mine_ms",
       per_query([](const QueryLedger& q) { return q.mine_ms; }), "ms"},
      {"serve.cache.bytes", Get(wa, "serve.cache.bytes"), "bytes"},
      {"serve.cache.evictions_per_query",
       ratio(Delta(wa, wb, "serve.cache.evictions"), queries), "count"},
      {"serve.count_kernel_ms", kernel_ms, "ms"},
      {"serve.count_ns_per_match", ratio(kernel_ms * 1e6, matches), "ns"},
      {"net.reply_bytes",
       ratio(Delta(after.front, before.front, "net.server.bytes_out"),
             queries),
       "bytes"},
      {"net.encode_ms",
       per_query(
           [&](const QueryLedger& q) { return probes.encode_ms[q.spec]; }),
       "ms"},
      {"net.decode_ms",
       per_query(
           [&](const QueryLedger& q) { return probes.decode_ms[q.spec]; }),
       "ms"},
      {"net.hop_ms", Median(residuals), "ms"},
      {"router.phase1_ms",
       per_query([](const QueryLedger& q) { return q.phase1_ms; }), "ms"},
      {"router.count_ms",
       per_query([](const QueryLedger& q) { return q.count_ms; }), "ms"},
      {"router.merge_ms",
       per_query([](const QueryLedger& q) { return q.merge_ms; }), "ms"},
      {"router.scatter_self_ms",
       per_query([](const QueryLedger& q) { return q.scatter_self_ms; }),
       "ms"},
      {"router.count_runs_per_query",
       ratio(Delta(after.front, before.front, "router.count.requests"),
             queries * static_cast<double>(shards)),
       "count"},
      {"router.candidates", ratio(candidates, queries), "count"},
      {"router.useful_ratio",
       ratio(static_cast<double>(untraced.patterns + traced.patterns),
             candidates),
       "ratio"},
      {"router.leg_skew_ms",
       per_query([](const QueryLedger& q) { return q.leg_skew_ms; }), "ms"},
      {"mapreduce.map_ms",
       engine([](const RunResult& r) { return r.job.times.map_ms; }), "ms"},
      {"mapreduce.shuffle_ms",
       engine([](const RunResult& r) { return r.job.times.shuffle_ms; }),
       "ms"},
      {"mapreduce.reduce_ms",
       engine([](const RunResult& r) { return r.job.times.reduce_ms; }),
       "ms"},
      {"mapreduce.phase_overlap_ms",
       engine([](const RunResult& r) { return r.job.phase_overlap_ms; }),
       "ms"},
      {"mapreduce.group_busy_ms", engine([&](const RunResult& r) {
         return timeline(r, [](const PartitionTimeline& p) {
           return p.grouped_ms - p.start_ms;
         });
       }),
       "ms"},
      {"mapreduce.reduce_busy_ms", engine([&](const RunResult& r) {
         return timeline(r, [](const PartitionTimeline& p) {
           return p.reduced_ms - p.grouped_ms;
         });
       }),
       "ms"},
      {"mapreduce.partition_wait_ms", engine([&](const RunResult& r) {
         return timeline(r, [](const PartitionTimeline& p) {
           return p.start_ms - p.ready_ms;
         });
       }),
       "ms"},
      {"mapreduce.map_output_bytes", engine([](const RunResult& r) {
         return static_cast<double>(r.job.counters.map_output_bytes);
       }),
       "bytes"},
      {"mapreduce.map_output_records", engine([](const RunResult& r) {
         return static_cast<double>(r.job.counters.map_output_records);
       }),
       "count"},
      {"mapreduce.reduce_groups", engine([](const RunResult& r) {
         return static_cast<double>(r.job.counters.reduce_input_groups);
       }),
       "count"},
      {"miner.candidates", miner_candidates, "count"},
      {"miner.outputs", miner_outputs, "count"},
      {"miner.useful_ratio", ratio(miner_outputs, miner_candidates), "ratio"},
      {"obs.trace_overhead_pct",
       untraced_p50 > 0 ? 100 * (traced_p50 - untraced_p50) / untraced_p50
                        : 0,
       "%"},
      {"obs.unattributed_pct", 100 * ratio(residual_sum, latency_sum), "%"},
      {"mem.rss_growth_mb", rss_growth, "MB"},
  };
}

/// A workload-shape violation, or empty: later changes must not move a
/// number by silently changing what a workload measures.
std::string CheckShape(const Workload& workload, const Stack& stack,
                       const Observer::Reading& before,
                       const Observer::Reading& after, size_t completed) {
  const double submitted =
      Delta(after.workers, before.workers, "serve.requests.submitted");
  const double hits =
      Delta(after.workers, before.workers, "serve.requests.hits");
  const double count_runs =
      Delta(after.front, before.front, "router.count.requests");
  const double evictions =
      Delta(after.workers, before.workers, "serve.cache.evictions");
  const double hit_ratio = submitted > 0 ? hits / submitted : 0;
  const double runs_per_query =
      completed > 0 ? count_runs / static_cast<double>(
                                       completed * stack.num_shards())
                    : 0;
  std::printf("shape: hit_ratio %.4f (%g of %g) count_runs_per_query %.3f "
              "evictions %g\n",
              hit_ratio, hits, submitted, runs_per_query, evictions);
  char message[160] = "";
  if (workload.thrash_cache && hits > 0) {
    std::snprintf(message, sizeof message,
                  "%g cache hits; every request must mine", hits);
  } else if (workload.warm && !stack.routed() && hit_ratio < 0.99) {
    std::snprintf(message, sizeof message,
                  "hit ratio %.4f after warm-up; must be >= 0.99", hit_ratio);
  } else if (stack.routed() && runs_per_query < 1) {
    std::snprintf(message, sizeof message,
                  "%.3f count phases per query; every query must count",
                  runs_per_query);
  }
  return message;
}

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0;
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, result.ptr);
}

/// Writes `spans` as JSONL through a tracer of its own, so the span format
/// stays in one place (obs/trace.cc).
void WriteSpans(const std::string& path,
                const std::vector<obs::SpanRecord>& spans) {
  std::filesystem::remove(path);  // OpenFile appends.
  obs::Tracer sink;
  sink.OpenFile(path);
  for (const obs::SpanRecord& span : spans) sink.Record(span);
}

void PrintPhase(const char* label, const Phase& phase) {
  const RankedValue p50 = Percentile(phase.latency_ms, 0.5);
  const RankedValue p90 = Percentile(phase.latency_ms, 0.9);
  std::printf("%s: %zu queries in %.2f s (%zu failed), p50 %.3f ms, "
              "p90 %.3f ms (%zu samples above p90)\n",
              label, phase.attempted, phase.seconds, phase.failed, p50.value,
              p90.value, p90.beyond);
  for (const std::string& error : phase.errors) {
    std::fprintf(stderr, "request failed: %s\n", error.c_str());
  }
}

int PrepareInputs(const Options& options) {
  const Workload workload = MakeWorkload(options.workload, options.seed);
  std::filesystem::create_directories(options.data_dir);
  const Stopwatch watch;
  const Prepared prepared = Prepare(workload, options.seed, options.data_dir);
  SavePrepared(prepared, PreparedPath(options));
  std::printf("workload %s, seed %llu: prepared %zu specs in %.2f s\n",
              workload.name.c_str(),
              static_cast<unsigned long long>(options.seed),
              prepared.specs.size(), watch.ElapsedSeconds());
  for (size_t i = 0; i < prepared.specs.size(); ++i) {
    const serve::TaskSpec& spec = prepared.specs[i];
    std::printf("  spec %zu: sigma %llu gamma %u lambda %u top-k %zu, "
                "answer %zu bytes\n",
                i, static_cast<unsigned long long>(spec.params.sigma),
                spec.params.gamma, spec.params.lambda, spec.top_k,
                prepared.oracle[i].size());
  }
  return 0;
}

int Measure(const Options& options) {
  const Workload workload = MakeWorkload(options.workload, options.seed);
  const Prepared prepared = LoadPrepared(PreparedPath(options));

  obs::Tracer& tracer = obs::Tracer::Global();
  if (options.trace) tracer.StartCollecting();

  std::vector<SetupTimes> setups;
  Phase untraced, traced;
  Observer::Reading before, after;
  Probes probes;
  std::string shape_error;
  double rss_growth = 0, heap_growth = 0;
  size_t shards = 1;
  // The middle set-up serves the measured phase; the others only repeat it
  // so that setup_s is a median. Half of them run before the measured
  // phase and half after, so the median samples the host at both ends of
  // the run rather than in one burst.
  const size_t measured_rep = workload.setup_reps / 2;
  for (size_t rep = 0; rep < workload.setup_reps; ++rep) {
    const double rss_before = RssMb();
    const double heap_before = HeapMb();
    obs::Span setup_span;
    if (options.trace) {
      setup_span =
          obs::Span(&tracer, obs::TraceContext{obs::TraceId::Make(), 0},
                    "bench.setup");
    }
    SetupTimes times;
    Stack stack(workload, prepared, setup_span.context(), &times);
    Clients clients = Connect(workload, prepared, stack.front_port());
    WarmUp(workload, prepared, clients, setup_span.context(), &times);
    setup_span.End();
    setups.push_back(times);
    if (rep != measured_rep) continue;

    shards = stack.num_shards();
    Observer observer(stack);
    before = observer.Read();
    if (options.trace) {
      untraced = RunPhase(workload, prepared, clients, options.seconds / 2,
                          kMinQueries / 2, false);
      traced = RunPhase(workload, prepared, clients, options.seconds / 2,
                        kMinQueries / 2, true);
    } else {
      untraced = RunPhase(workload, prepared, clients, options.seconds,
                          kMinQueries, false);
    }
    after = observer.Read();
    rss_growth = RssMb() - rss_before;
    heap_growth = HeapMb() - heap_before;
    shape_error = CheckShape(workload, stack, before, after,
                             untraced.completed() + traced.completed());
    if (options.trace) probes = RunProbes(workload, prepared, stack);
  }

  PrintPhase(options.trace ? "untraced half" : "measured", untraced);
  if (options.trace) PrintPhase("traced half", traced);
  std::vector<double> setup_s;
  for (const SetupTimes& t : setups) {
    setup_s.push_back(t.TotalSeconds());
    std::printf("setup: load %.3f ms, verify %.3f ms, start %.3f ms, "
                "warm-up %.3f ms\n",
                t.load_ms, t.verify_ms, t.start_ms, t.warmup_ms);
  }

  std::vector<std::string> mismatches = untraced.mismatches;
  mismatches.insert(mismatches.end(), traced.mismatches.begin(),
                    traced.mismatches.end());
  if (!mismatches.empty()) {
    std::fprintf(stderr, "%zu replies differ from the oracle (first: %s)\n",
                 mismatches.size(), mismatches.front().c_str());
    return 1;
  }
  if (!shape_error.empty()) {
    std::fprintf(stderr, "workload %s left its shape: %s\n",
                 workload.name.c_str(), shape_error.c_str());
    return 1;
  }

  const size_t attempted = untraced.attempted + traced.attempted;
  const size_t failed = untraced.failed + traced.failed;
  MetricList metrics;
  if (options.trace) {
    const std::vector<obs::SpanRecord> spans = tracer.TakeCollected();
    tracer.StopCollecting();
    if (!options.trace_out.empty()) WriteSpans(options.trace_out, spans);
    metrics = LayerMetrics(shards, rss_growth, setups, untraced, traced,
                           before, after, probes,
                           BuildLedgers(spans, "bench.query"));
  } else {
    const double completed = static_cast<double>(untraced.completed());
    metrics = {
        {"query_p50_ms", Percentile(untraced.latency_ms, 0.5).value, "ms"},
        {"query_p90_ms", Percentile(untraced.latency_ms, 0.9).value, "ms"},
        {"throughput_qps", completed / untraced.seconds, "1/s"},
        {"success_ratio", completed / static_cast<double>(attempted),
         "ratio"},
        {"setup_s", Median(setup_s), "s"},
        {"heap_mb", heap_growth, "MB"},
    };
    std::printf("rss growth %.3f MB\n", rss_growth);
    std::printf("fail_ratio %.6f (%zu of %zu)\n",
                static_cast<double>(failed) / static_cast<double>(attempted),
                failed, attempted);
  }
  for (const auto& [name, value, unit] : metrics) {
    std::printf("  %-34s %14.6f %s\n", name.c_str(), value, unit.c_str());
  }

  std::string line = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    line += (i == 0 ? "\"" : ", \"") + name + "\": {\"value\": " +
            Number(value) + ", \"unit\": \"" + unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace lash::perfbench

int main(int argc, char** argv) {
  lash::perfbench::Options options;
  try {
    options = lash::perfbench::ParseOptions(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lash_perfbench: %s\n", e.what());
    return 2;
  }
  try {
    return options.prepare ? lash::perfbench::PrepareInputs(options)
                           : lash::perfbench::Measure(options);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "lash_perfbench: %s\n", e.what());
    return 1;
  }
}
