#include <gtest/gtest.h>

#include <vector>

#include "ledger.h"
#include "stats.h"

namespace lash::perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> values;
  // Descending, so the helpers must sort.
  for (size_t i = n; i >= 1; --i) values.push_back(static_cast<double>(i));
  return values;
}

TEST(PercentileTest, NearestRankWithSamplesBeyond) {
  const RankedValue p50 = Percentile(OneTo(100), 0.5);
  EXPECT_EQ(p50.value, 50);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p50.beyond, 50u);

  // 100 samples are the fewest that leave ten above p90.
  const RankedValue p90 = Percentile(OneTo(100), 0.9);
  EXPECT_EQ(p90.value, 90);
  EXPECT_EQ(p90.beyond, 10u);
  EXPECT_EQ(Percentile(OneTo(99), 0.9).beyond, 9u);

  const RankedValue small = Percentile(OneTo(10), 0.9);
  EXPECT_EQ(small.value, 9);
  EXPECT_EQ(small.beyond, 1u);

  const RankedValue max = Percentile(OneTo(7), 1.0);
  EXPECT_EQ(max.value, 7);
  EXPECT_EQ(max.beyond, 0u);

  const RankedValue one = Percentile({4.5}, 0.5);
  EXPECT_EQ(one.value, 4.5);
  EXPECT_EQ(one.beyond, 0u);

  const RankedValue empty = Percentile({}, 0.5);
  EXPECT_EQ(empty.value, 0);
  EXPECT_EQ(empty.samples, 0u);
}

TEST(PercentileTest, Median) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(IntervalTest, CoveredLengthMergesOverlapAndNesting) {
  const Interval window{0, 100};
  EXPECT_EQ(CoveredLength(window, {}), 0);
  EXPECT_EQ(CoveredLength(window, {{10, 20}, {30, 40}}), 20);   // Disjoint.
  EXPECT_EQ(CoveredLength(window, {{10, 30}, {20, 40}}), 30);   // Overlap.
  EXPECT_EQ(CoveredLength(window, {{10, 50}, {20, 30}}), 40);   // Nested.
  EXPECT_EQ(CoveredLength(window, {{20, 30}, {10, 20}}), 20);   // Touching.
  EXPECT_EQ(CoveredLength(window, {{-10, 10}, {90, 120}}), 20); // Clipped.
  EXPECT_EQ(CoveredLength(window, {{150, 160}}), 0);            // Outside.
}

TEST(IntervalTest, SelfTimeWithOverlappingAndNestedChildren) {
  // Children [10,30] and [20,40] overlap (30 covered); [50,60] nests in
  // [45,70] (25 covered); [90,120] sticks out of the parent (10 covered).
  const Interval parent{0, 100};
  EXPECT_EQ(SelfTime(parent, {{10, 30}, {20, 40}, {45, 70}, {50, 60},
                              {90, 120}}),
            35);
  EXPECT_EQ(SelfTime(parent, {}), 100);
  EXPECT_EQ(SelfTime(parent, {{0, 100}, {10, 20}}), 0);
}

obs::SpanRecord Span(uint8_t trace, uint64_t id, uint64_t parent,
                     const char* name, double start, double dur) {
  obs::SpanRecord span;
  span.trace_id.bytes[0] = trace;
  span.span_id = id;
  span.parent_id = parent;
  span.name = name;
  span.start_unix_ms = start;
  span.dur_ms = dur;
  return span;
}

TEST(LedgerTest, ReadsOneQueryPerRootTrace) {
  std::vector<obs::SpanRecord> spans;
  spans.push_back(Span(1, 1, 0, "bench.query", 1000, 100));
  spans.back().tags.push_back({"spec", "3"});
  spans.push_back(Span(1, 2, 1, "router.scatter", 1002, 95));
  // Phase-1 legs overlap: union [1005,1025] = 20, skew 15 - 10 = 5.
  spans.push_back(Span(1, 3, 2, "router.leg", 1005, 10));
  spans.push_back(Span(1, 4, 2, "router.leg", 1010, 15));
  // Count legs: union [1030,1090] = 60, skew 60 - 40 = 20.
  spans.push_back(Span(1, 5, 2, "router.count", 1030, 60));
  spans.push_back(Span(1, 6, 2, "router.count", 1030, 40));
  spans.push_back(Span(1, 7, 2, "router.merge", 1091, 4));
  // A worker-side queue span under a leg, with one child inside it.
  spans.push_back(Span(1, 8, 3, "serve.queue", 1006, 4));
  spans.push_back(Span(1, 9, 8, "child", 1007, 1));
  // A second trace: a mined query that nothing routes.
  spans.push_back(Span(2, 10, 0, "bench.query", 2000, 50));
  spans.push_back(Span(2, 11, 10, "serve.mine", 2010, 30));
  // A trace without a bench.query root is not a query.
  spans.push_back(Span(3, 12, 0, "bench.setup", 3000, 10));

  std::vector<QueryLedger> ledgers = BuildLedgers(spans, "bench.query");
  ASSERT_EQ(ledgers.size(), 2u);
  if (ledgers[0].latency_ms != 100) std::swap(ledgers[0], ledgers[1]);

  const QueryLedger& routed = ledgers[0];
  EXPECT_EQ(routed.spec, 3u);
  EXPECT_EQ(routed.latency_ms, 100);
  EXPECT_EQ(routed.covered_ms, 95);  // router.scatter covers the rest.
  EXPECT_EQ(routed.phase1_ms, 20);
  EXPECT_EQ(routed.count_ms, 60);
  EXPECT_EQ(routed.merge_ms, 4);
  EXPECT_EQ(routed.leg_skew_ms, 25);
  // Scatter [1002,1097] minus its children's union [1005,1025] +
  // [1030,1090] + [1091,1095] = 95 - 84.
  EXPECT_EQ(routed.scatter_self_ms, 11);
  EXPECT_EQ(routed.queue_self_ms, 3);
  EXPECT_FALSE(routed.mined);

  const QueryLedger& mined = ledgers[1];
  EXPECT_EQ(mined.spec, 0u);
  EXPECT_EQ(mined.covered_ms, 30);
  EXPECT_EQ(mined.mine_ms, 30);
  EXPECT_TRUE(mined.mined);
}

}  // namespace
}  // namespace lash::perfbench
