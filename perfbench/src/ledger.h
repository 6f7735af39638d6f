#ifndef LASH_PERFBENCH_LEDGER_H_
#define LASH_PERFBENCH_LEDGER_H_

#include <cstddef>
#include <string_view>
#include <vector>

#include "obs/trace.h"

/// Reads the per-layer ledger of each measured query out of the spans a
/// traced run collected in memory. One query is one trace: the benchmark's
/// `bench.query` root span (the client-observed latency) plus whatever the
/// program recorded under it in any component — serve.* on a worker,
/// router.* on the router, api.mine and mr.* inside a mining run.
namespace lash::perfbench {

struct QueryLedger {
  size_t spec = 0;           ///< The root span's "spec" tag.
  double latency_ms = 0;     ///< Root span duration.
  double covered_ms = 0;     ///< Part of the root covered by any other span.
  double queue_self_ms = 0;  ///< Self time of serve.queue spans, summed.
  double mine_ms = 0;        ///< serve.mine durations, summed.
  double phase1_ms = 0;      ///< Union of the router.leg intervals.
  double count_ms = 0;       ///< Union of the router.count intervals.
  double merge_ms = 0;       ///< router.merge durations, summed.
  /// Self time of router.scatter: the router's own work between its legs
  /// plus the time its legs waited for a worker connection.
  double scatter_self_ms = 0;
  /// Slowest minus fastest leg, for the router.leg fan-out plus the same
  /// for the router.count fan-out: how long the query waited on stragglers.
  double leg_skew_ms = 0;
  bool mined = false;  ///< A serve.mine span ran: the engine did work.
};

/// One ledger per root span named `root_name` with no parent, in no
/// particular order. Spans of a trace without such a root are ignored.
std::vector<QueryLedger> BuildLedgers(const std::vector<obs::SpanRecord>& spans,
                                      std::string_view root_name);

}  // namespace lash::perfbench

#endif  // LASH_PERFBENCH_LEDGER_H_
