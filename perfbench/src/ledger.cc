#include "ledger.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <unordered_map>

#include "stats.h"

namespace lash::perfbench {
namespace {

Interval SpanInterval(const obs::SpanRecord& span) {
  return {span.start_unix_ms, span.start_unix_ms + span.dur_ms};
}

std::string TraceKey(const obs::TraceId& id) {
  return std::string(reinterpret_cast<const char*>(id.bytes.data()),
                     id.bytes.size());
}

/// Slowest minus fastest duration among `durations` (0 for fewer than two).
double Skew(const std::vector<double>& durations) {
  if (durations.size() < 2) return 0;
  const auto [lo, hi] = std::minmax_element(durations.begin(), durations.end());
  return *hi - *lo;
}

QueryLedger Analyze(const obs::SpanRecord& root,
                    const std::vector<const obs::SpanRecord*>& trace) {
  QueryLedger ledger;
  for (const auto& [key, value] : root.tags) {
    if (key == "spec") ledger.spec = std::strtoull(value.c_str(), nullptr, 10);
  }
  const Interval window = SpanInterval(root);
  ledger.latency_ms = root.dur_ms;

  std::unordered_map<uint64_t, std::vector<Interval>> children;
  std::vector<Interval> others, legs, counts;
  std::vector<double> leg_ms, count_leg_ms;
  for (const obs::SpanRecord* span : trace) {
    if (span == &root) continue;
    children[span->parent_id].push_back(SpanInterval(*span));
    others.push_back(SpanInterval(*span));
    if (span->name == "router.leg") {
      legs.push_back(SpanInterval(*span));
      leg_ms.push_back(span->dur_ms);
    } else if (span->name == "router.count") {
      counts.push_back(SpanInterval(*span));
      count_leg_ms.push_back(span->dur_ms);
    } else if (span->name == "router.merge") {
      ledger.merge_ms += span->dur_ms;
    } else if (span->name == "serve.mine") {
      ledger.mine_ms += span->dur_ms;
      ledger.mined = true;
    }
  }
  auto self_time = [&](const obs::SpanRecord& span) {
    const auto it = children.find(span.span_id);
    return it == children.end() ? span.dur_ms
                                : SelfTime(SpanInterval(span), it->second);
  };
  for (const obs::SpanRecord* span : trace) {
    if (span->name == "serve.queue") ledger.queue_self_ms += self_time(*span);
    if (span->name == "router.scatter") {
      ledger.scatter_self_ms += self_time(*span);
    }
  }
  ledger.covered_ms = CoveredLength(window, std::move(others));
  ledger.phase1_ms = CoveredLength(window, std::move(legs));
  ledger.count_ms = CoveredLength(window, std::move(counts));
  ledger.leg_skew_ms = Skew(leg_ms) + Skew(count_leg_ms);
  return ledger;
}

}  // namespace

std::vector<QueryLedger> BuildLedgers(const std::vector<obs::SpanRecord>& spans,
                                      std::string_view root_name) {
  std::unordered_map<std::string, std::vector<const obs::SpanRecord*>> traces;
  for (const obs::SpanRecord& span : spans) {
    traces[TraceKey(span.trace_id)].push_back(&span);
  }
  std::vector<QueryLedger> ledgers;
  for (const auto& [key, trace] : traces) {
    for (const obs::SpanRecord* span : trace) {
      if (span->parent_id == 0 && span->name == root_name) {
        ledgers.push_back(Analyze(*span, trace));
        break;
      }
    }
  }
  return ledgers;
}

}  // namespace lash::perfbench
