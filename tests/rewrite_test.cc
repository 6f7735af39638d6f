#include "core/rewrite.h"

#include <gtest/gtest.h>

#include "miner/enumerate.h"
#include "test_util.h"

namespace lash {
namespace {

class RewritePaperTest : public ::testing::Test {
 protected:
  testing::PaperExample ex_;
};

TEST_F(RewritePaperTest, WGeneralizationOfT2) {
  // T2 = a b3 c c b2 with pivot B: b3 and b2 generalize to B, the two c's
  // (larger than B) become blanks (Sec. 4.2) -> a B _ _ B.
  Rewriter rewriter(&ex_.pre.hierarchy, /*gamma=*/1, /*lambda=*/3);
  Sequence t2 = ex_.RankSeq({"a", "b3", "c", "c", "b2"});
  Sequence expected = {ex_.Rank("a"), ex_.Rank("B"), kBlank, kBlank,
                       ex_.Rank("B")};
  EXPECT_EQ(rewriter.Generalize(t2, ex_.Rank("B")), expected);
}

TEST_F(RewritePaperTest, DistanceTableOfSection43) {
  // T = a b1 a c d1 a d2 c f b2 c, pivot D, gamma=1 (Sec. 4.3):
  // D-generalization gives a b1 a c D a D c _ B c and minimum pivot
  // distances 3 3 2 2 1 2 1 2 2 3 4.
  Rewriter rewriter(&ex_.pre.hierarchy, /*gamma=*/1, /*lambda=*/2);
  Sequence t = ex_.RankSeq(
      {"a", "b1", "a", "c", "d1", "a", "d2", "c", "f", "b2", "c"});
  Sequence gen = rewriter.Generalize(t, ex_.Rank("D"));
  Sequence expected_gen = {ex_.Rank("a"), ex_.Rank("b1"), ex_.Rank("a"),
                           ex_.Rank("c"), ex_.Rank("D"),  ex_.Rank("a"),
                           ex_.Rank("D"), ex_.Rank("c"),  kBlank,
                           ex_.Rank("B"), ex_.Rank("c")};
  ASSERT_EQ(gen, expected_gen);
  std::vector<uint32_t> dist = rewriter.MinPivotDistances(gen, ex_.Rank("D"));
  EXPECT_EQ(dist, (std::vector<uint32_t>{3, 3, 2, 2, 1, 2, 1, 2, 2, 3, 4}));
}

TEST_F(RewritePaperTest, UnreachabilityReductionLambda2) {
  // For lambda=2 the paper reduces to "acDaDc " -> after blank trimming
  // acDaDc (Sec. 4.3).
  Rewriter rewriter(&ex_.pre.hierarchy, /*gamma=*/1, /*lambda=*/2);
  Sequence t = ex_.RankSeq(
      {"a", "b1", "a", "c", "d1", "a", "d2", "c", "f", "b2", "c"});
  EXPECT_EQ(rewriter.Rewrite(t, ex_.Rank("D")),
            ex_.RankSeq({"a", "c", "D", "a", "D", "c"}));
}

TEST_F(RewritePaperTest, UnreachabilityReductionLambda3) {
  // For lambda=3 the paper keeps ab1acDaDc B (Sec. 4.3).
  Rewriter rewriter(&ex_.pre.hierarchy, /*gamma=*/1, /*lambda=*/3);
  Sequence t = ex_.RankSeq(
      {"a", "b1", "a", "c", "d1", "a", "d2", "c", "f", "b2", "c"});
  Sequence expected = {ex_.Rank("a"), ex_.Rank("b1"), ex_.Rank("a"),
                       ex_.Rank("c"), ex_.Rank("D"),  ex_.Rank("a"),
                       ex_.Rank("D"), ex_.Rank("c"),  kBlank,
                       ex_.Rank("B")};
  EXPECT_EQ(rewriter.Rewrite(t, ex_.Rank("D")), expected);
}

TEST_F(RewritePaperTest, PartitionPbMatchesFigure2) {
  // Fig. 2: P_B = {aB aB, aB, B a a, aB} (gamma=1, lambda=3).
  Rewriter rewriter(&ex_.pre.hierarchy, /*gamma=*/1, /*lambda=*/3);
  ItemId pivot = ex_.Rank("B");
  ItemId a = ex_.Rank("a"), B = ex_.Rank("B");
  // T1 = a b1 a b1 -> aBaB.
  EXPECT_EQ(rewriter.Rewrite(ex_.pre.database[0], pivot),
            (Sequence{a, B, a, B}));
  // T2 = a b3 c c b2 -> aB (trailing " _ _ B" : second B is isolated?
  // No — distance: aB__B: B at index 5 has no non-blank within gamma+1=2?
  // Index 3,4 are blanks, so it is isolated and removed; blanks trimmed.
  EXPECT_EQ(rewriter.Rewrite(ex_.pre.database[1], pivot), (Sequence{a, B}));
  // T4 = b11 a e a -> B a _ a (e has no frequent ancestor).
  EXPECT_EQ(rewriter.Rewrite(ex_.pre.database[3], pivot),
            (Sequence{B, a, kBlank, a}));
  // T5 = a b12 d1 c -> aB.
  EXPECT_EQ(rewriter.Rewrite(ex_.pre.database[4], pivot), (Sequence{a, B}));
  // T6 = b13 f d2 -> B alone is isolated -> empty.
  EXPECT_TRUE(rewriter.Rewrite(ex_.pre.database[5], pivot).empty());
  // T3 = a c contains no B item.
  EXPECT_TRUE(rewriter.Rewrite(ex_.pre.database[2], pivot).empty());
}

TEST_F(RewritePaperTest, PartitionPaMatchesFigure2) {
  // Fig. 2: P_a = {a a : 2} — from T1 (a _ a after blanking b1's? No:
  // for pivot a, every other item is irrelevant with no small-enough
  // ancestor -> blanks; T1 = a _ a _ -> a _ a; T4 = _ a _ a -> a _ a.
  Rewriter rewriter(&ex_.pre.hierarchy, /*gamma=*/1, /*lambda=*/3);
  ItemId pivot = ex_.Rank("a");
  ItemId a = ex_.Rank("a");
  EXPECT_EQ(rewriter.Rewrite(ex_.pre.database[0], pivot),
            (Sequence{a, kBlank, a}));
  EXPECT_EQ(rewriter.Rewrite(ex_.pre.database[3], pivot),
            (Sequence{a, kBlank, a}));
  // T3 = a c: single isolated a -> empty.
  EXPECT_TRUE(rewriter.Rewrite(ex_.pre.database[2], pivot).empty());
}

TEST(RewriteTest, RequiresRankMonotoneHierarchy) {
  Hierarchy bad({kInvalidItem, 2, kInvalidItem});
  EXPECT_THROW(Rewriter(&bad, 0, 2), std::invalid_argument);
}

TEST(RewriteTest, BlankRunsCappedAtGammaPlusOne) {
  Hierarchy h = Hierarchy::Flat(2);
  // Pivot 1; item 2 is irrelevant (no ancestor) -> blanks.
  Rewriter rewriter(&h, /*gamma=*/1, /*lambda=*/5);
  Sequence t = {1, 1, 2, 2, 2, 2, 1, 1};
  Sequence rewritten = rewriter.Rewrite(t, 1);
  // The run of 4 blanks (unbridgeable under gamma=1) is capped at
  // gamma+1 = 2 blanks, which is still unbridgeable.
  EXPECT_EQ(rewritten, (Sequence{1, 1, kBlank, kBlank, 1, 1}));
}

TEST(RewriteTest, IsolatedPivotRemoved) {
  Hierarchy h = Hierarchy::Flat(2);
  Rewriter rewriter(&h, /*gamma=*/0, /*lambda=*/5);
  // 1 .. 1: with gamma=0 the two pivots are 5 apart; each pivot's only
  // neighbour within distance 1 is a blank -> everything vanishes.
  Sequence t = {1, 2, 2, 2, 2, 1};
  EXPECT_TRUE(rewriter.Rewrite(t, 1).empty());
}

// The central correctness property (Lemma 3 + Sec. 4.3): rewriting preserves
// the pivot sequences G_{w,λ}(T) exactly, for every pivot.
class WEquivalencyTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(WEquivalencyTest, RewritePreservesPivotSequences) {
  const auto [gamma, lambda] = GetParam();
  Rng rng(4242 + gamma * 31 + lambda);
  for (int trial = 0; trial < 150; ++trial) {
    const size_t num_items = 2 + rng.Uniform(9);
    Hierarchy h = testing::RandomRankHierarchy(num_items, 0.4, &rng);
    Rewriter rewriter(&h, gamma, lambda);
    Sequence t;
    size_t len = 1 + rng.Uniform(12);
    for (size_t i = 0; i < len; ++i) {
      t.push_back(static_cast<ItemId>(1 + rng.Uniform(num_items)));
    }
    for (ItemId pivot = 1; pivot <= num_items; ++pivot) {
      SequenceSet before, after;
      EnumeratePivotSequences(t, h, gamma, lambda, pivot, &before);
      Sequence rewritten = rewriter.Rewrite(t, pivot);
      EnumeratePivotSequences(rewritten, h, gamma, lambda, pivot, &after);
      EXPECT_EQ(before == after, true)
          << "pivot=" << pivot << " trial=" << trial << " gamma=" << gamma
          << " lambda=" << lambda;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Params, WEquivalencyTest,
    ::testing::Combine(::testing::Values(0u, 1u, 2u),
                       ::testing::Values(2u, 3u, 5u)));

// ScratchRewriter::Generalize (the generalize-only ablation level) must be
// output-identical to Rewriter::Generalize, including on sequences that
// already contain blanks (rewrites of rewrites).
class ScratchRewriterTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(ScratchRewriterTest, GeneralizeMatchesReferenceRewriter) {
  const auto [gamma, lambda] = GetParam();
  Rng rng(90125 + gamma * 17 + lambda);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t num_items = 2 + rng.Uniform(9);
    Hierarchy h = testing::RandomRankHierarchy(num_items, 0.4, &rng);
    Rewriter reference(&h, gamma, lambda);
    ScratchRewriter scratch(&h, gamma, lambda);
    Sequence t;
    size_t len = 1 + rng.Uniform(14);
    for (size_t i = 0; i < len; ++i) {
      // ~1 in 8 positions blank: exercises runs and IsItem handling.
      t.push_back(rng.Bernoulli(0.125)
                      ? kBlank
                      : static_cast<ItemId>(1 + rng.Uniform(num_items)));
    }
    Sequence gen;  // Reused across pivots, as in the LASH map phase.
    for (ItemId pivot = 1; pivot <= num_items; ++pivot) {
      scratch.Generalize(t, pivot, &gen);
      ASSERT_EQ(gen, reference.Generalize(t, pivot))
          << "pivot=" << pivot << " trial=" << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Params, ScratchRewriterTest,
    ::testing::Combine(::testing::Values(0u, 1u, 2u),
                       ::testing::Values(2u, 3u, 5u)));

// RewriteAllPivots must emit exactly the non-empty [w | P_w(T)] keys,
// pivots ascending, that per-pivot Rewriter rewriting would produce. One
// shared differential driver covers both dispatch targets: the gamma == 0
// run-walk specialization and the gamma > 0 merged occurrence-window DP.
// The sigma axis of the grid is the `num_frequent` rank cut (a random
// prefix of the item ranks counts as frequent), drawn per trial.
void CheckFusedPivotLoop(uint32_t gamma, uint32_t lambda, uint64_t seed,
                         int trials) {
  Rng rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    const size_t num_items = 2 + rng.Uniform(9);
    Hierarchy h = testing::RandomRankHierarchy(num_items, 0.4, &rng);
    Rewriter reference(&h, gamma, lambda);
    ScratchRewriter scratch(&h, gamma, lambda);
    Sequence t;
    // Long enough relative to the (lambda-1)*(gamma+1) window radius that
    // trials exercise disjoint occurrence intervals, merged intervals, and
    // cross-interval isolated-pivot visibility, not just whole-sequence
    // windows.
    size_t len = 1 + rng.Uniform(13 + 8 * gamma * lambda);
    for (size_t i = 0; i < len; ++i) {
      // ~1 in 8 positions blank: the fused loop must treat them as
      // impassable (root_rank_ = kBlank) exactly like the reference.
      t.push_back(rng.Bernoulli(0.125)
                      ? kBlank
                      : static_cast<ItemId>(1 + rng.Uniform(num_items)));
    }
    const ItemId num_frequent =
        static_cast<ItemId>(rng.Uniform(num_items + 1));

    std::vector<Sequence> expected;
    for (ItemId w = 1; w <= num_frequent; ++w) {
      Sequence rewritten = reference.Rewrite(t, w);
      if (rewritten.empty()) continue;
      Sequence key{w};
      key.insert(key.end(), rewritten.begin(), rewritten.end());
      expected.push_back(std::move(key));
    }
    std::vector<Sequence> got;
    scratch.RewriteAllPivots(
        t, num_frequent, [&](const Sequence& key) { got.push_back(key); });
    ASSERT_EQ(got, expected) << "trial=" << trial << " gamma=" << gamma
                             << " lambda=" << lambda
                             << " num_frequent=" << num_frequent
                             << " t=" << ::testing::PrintToString(t);
  }
}

TEST(ScratchRewriterTest, FusedPivotLoopMatchesPerPivotRewrites) {
  CheckFusedPivotLoop(/*gamma=*/0, /*lambda=*/2, 5150, 100);
  CheckFusedPivotLoop(/*gamma=*/0, /*lambda=*/5, 5151, 100);
}

TEST(ScratchRewriterTest, FusedPivotLoopMatchesPerPivotRewritesGammaPositive) {
  for (uint32_t gamma : {1u, 2u, 3u}) {
    for (uint32_t lambda : {2u, 3u, 5u}) {
      CheckFusedPivotLoop(gamma, lambda, 6200 + 10 * gamma + lambda, 60);
    }
  }
}

}  // namespace
}  // namespace lash
