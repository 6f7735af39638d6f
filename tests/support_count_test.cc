// Tests for serve/support_count.h: the worker-side exact recount behind the
// router's two-phase candidate/count protocol.
//
// Two load-bearing properties:
//   * mining vs counting: for ANY (σ, γ, λ, flat) the support CountSupports
//     reports for a mined pattern must equal the frequency mining reported
//     — otherwise the router's phase-2 re-cut at σ would diverge from
//     single-corpus mining and the exactness contract dies;
//   * kernel vs oracle: the one-pass trie kernel must agree, candidate by
//     candidate, with the per-candidate Matches scan it replaced (kept
//     below as the oracle) — on candidates built to hit the kernel's
//     shortcuts: shared prefixes, exact duplicates, generalized items,
//     non-occurring sequences, γ-gap traps, and blanks.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/lash_api.h"
#include "core/match.h"
#include "datagen/corpus_recipes.h"
#include "io/result_io.h"
#include "serve/mining_service.h"
#include "serve/support_count.h"
#include "serve/task_spec.h"
#include "test_util.h"
#include "util/rng.h"

namespace lash {
namespace {

using serve::CountQuery;
using serve::CountSupports;
using serve::SupportCounter;
using serve::TaskSpec;

// ---- The differential oracle ----------------------------------------------

/// Rank-space oracle: one full scan of the corpus per candidate, one
/// Matches call per (candidate, transaction) pair.
std::vector<Frequency> OracleCountRanks(const PreprocessResult& pre,
                                        const std::vector<Sequence>& ranked,
                                        uint32_t gamma, uint32_t lambda) {
  std::vector<Frequency> supports(ranked.size(), 0);
  for (size_t c = 0; c < ranked.size(); ++c) {
    const Sequence& ranks = ranked[c];
    if (ranks.empty() || ranks.size() > lambda) continue;
    const bool known = std::all_of(ranks.begin(), ranks.end(), [&](ItemId w) {
      return IsItem(w) && w <= pre.hierarchy.NumItems();
    });
    if (!known) continue;
    Frequency support = 0;
    for (size_t t = 0; t < pre.database.size(); ++t) {
      if (Matches(ranks, pre.database[t], pre.hierarchy, gamma)) ++support;
    }
    supports[c] = support;
  }
  return supports;
}

/// The per-candidate CountSupports the trie kernel replaced: decode each
/// candidate's names to ranks (an unknown name counts 0), then scan.
std::vector<Frequency> OracleCountSupports(const Dataset& dataset,
                                           const NamedPatternList& candidates,
                                           const CountQuery& query) {
  std::vector<Sequence> ranked(candidates.size());
  for (size_t c = 0; c < candidates.size(); ++c) {
    for (const std::string& name : candidates[c].items) {
      const ItemId rank = dataset.RankOfName(name, query.flat);
      if (rank == kInvalidItem) {
        ranked[c].clear();
        break;
      }
      ranked[c].push_back(rank);
    }
  }
  const PreprocessResult& pre =
      query.flat ? dataset.flat_preprocessed() : dataset.preprocessed();
  return OracleCountRanks(pre, ranked, query.gamma, query.lambda);
}

/// Sums CountRange over `blocks` contiguous transaction ranges — the split
/// the worker's counting pool makes.
std::vector<Frequency> CountInBlocks(const SupportCounter& counter,
                                     size_t blocks) {
  std::vector<Frequency> supports(counter.num_candidates(), 0);
  const size_t n = counter.num_transactions();
  for (size_t b = 0; b < blocks; ++b) {
    counter.CountRange(n * b / blocks, n * (b + 1) / blocks, supports);
  }
  return supports;
}

class SupportCountTest : public ::testing::Test {
 protected:
  SupportCountTest() : dataset_(Dataset::FromMemory(ex_.raw_db, ex_.vocab)) {}

  testing::PaperExample ex_;
  Dataset dataset_;
};

TEST_F(SupportCountTest, CountingMatchesMiningAcrossTheGrid) {
  // Every mined pattern, recounted, must report its mined frequency — over
  // a grid wide enough to cover γ-gapped matching, length cut-offs, both
  // hierarchy modes, and σ=1 (where every occurring pattern surfaces).
  // Some flat/tight-γ cells legitimately mine nothing; the grid as a whole
  // must not, or the differential proved nothing.
  size_t total_patterns = 0;
  for (const Frequency sigma : {Frequency{1}, Frequency{2}, Frequency{3}}) {
    for (const uint32_t gamma : {0u, 1u, 2u}) {
      for (const uint32_t lambda : {2u, 3u, 5u}) {
        for (const bool flat : {false, true}) {
          TaskSpec spec;
          spec.algorithm = Algorithm::kSequential;
          spec.params = {.sigma = sigma, .gamma = gamma, .lambda = lambda};
          spec.flat = flat;
          serve::MiningService service(dataset_);
          const serve::Response response = service.Submit(spec).Get();
          const NamedPatternList mined =
              NamePatterns(dataset_, response.patterns(),
                           response.run().used_flat_hierarchy);
          total_patterns += mined.size();
          const CountQuery query{gamma, lambda,
                                 response.run().used_flat_hierarchy};
          const std::vector<Frequency> counted =
              CountSupports(dataset_, mined, query);
          ASSERT_EQ(counted.size(), mined.size());
          for (size_t i = 0; i < mined.size(); ++i) {
            EXPECT_EQ(counted[i], mined[i].frequency)
                << "pattern " << i << " at sigma=" << sigma
                << " gamma=" << gamma << " lambda=" << lambda
                << " flat=" << flat;
          }
        }
      }
    }
  }
  EXPECT_GT(total_patterns, 0u);
}

TEST_F(SupportCountTest, PaperExampleSpotChecks) {
  // Anchors beyond the self-referential differential: the paper's σ=2 γ=1
  // λ=3 answer is known, so counting its patterns is counting ground truth.
  const CountQuery query{/*gamma=*/1, /*lambda=*/3, /*flat=*/false};
  const NamedPatternList expected =
      NamePatterns(dataset_, ex_.ExpectedOutput(), /*flat=*/false);
  const std::vector<Frequency> counted =
      CountSupports(dataset_, expected, query);
  ASSERT_EQ(counted.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(counted[i], expected[i].frequency) << "pattern " << i;
  }
}

TEST_F(SupportCountTest, DegenerateCandidatesCountZero) {
  const CountQuery query{/*gamma=*/1, /*lambda=*/3, /*flat=*/false};
  const NamedPatternList candidates = {
      {{"no-such-item"}, 0},          // unknown vocabulary name
      {{"a", "no-such-item"}, 0},     // one unknown item poisons the whole
      {{}, 0},                        // empty pattern
      {{"a", "B", "a", "B"}, 0},      // length 4 > λ=3
      {{"a", "B"}, 0},                // a real one, as the control
  };
  const std::vector<Frequency> counted =
      CountSupports(dataset_, candidates, query);
  ASSERT_EQ(counted.size(), candidates.size());
  EXPECT_EQ(counted[0], 0u);
  EXPECT_EQ(counted[1], 0u);
  EXPECT_EQ(counted[2], 0u);
  EXPECT_EQ(counted[3], 0u);
  EXPECT_EQ(counted[4], 3u);  // {a, B} has support 3 in the paper corpus.
}

TEST_F(SupportCountTest, ReportedFrequencyOnCandidatesIsIgnored) {
  // Phase-1 candidates arrive carrying partial per-shard sums; counting
  // must answer from the data alone.
  const CountQuery query{/*gamma=*/1, /*lambda=*/3, /*flat=*/false};
  const NamedPatternList candidates = {{{"a", "B"}, 999}};
  const std::vector<Frequency> counted =
      CountSupports(dataset_, candidates, query);
  ASSERT_EQ(counted.size(), 1u);
  EXPECT_EQ(counted[0], 3u);
}

// ---- Kernel vs oracle --------------------------------------------------

/// A random subsequence of `t` in rank space: up to `length` items, each
/// 1..`max_step` positions after the previous one (so steps past γ+1 probe
/// the gap bound from outside), each item generalized to a random ancestor
/// half the time.
Sequence SampleSubsequence(SequenceView t, const Hierarchy& h, size_t length,
                           uint64_t max_step, Rng* rng) {
  Sequence out;
  size_t pos = rng->Uniform(t.size());
  while (out.size() < length && pos < t.size()) {
    const auto chain = h.AncestorSpan(t[pos]);
    out.push_back(rng->Bernoulli(0.5) ? chain[rng->Uniform(chain.size())]
                                      : t[pos]);
    pos += 1 + rng->Uniform(max_step);
  }
  return out;
}

/// Candidates for one (γ, λ) cell on `dataset`, by name: mined patterns
/// (the router's real input) plus every prefix of each, occurring
/// subsequences with generalized items and borderline gaps, exact
/// duplicates, random non-occurring sequences, over-long sequences, and
/// unknown or empty ones.
NamedPatternList MakeCandidates(const Dataset& dataset, uint32_t gamma,
                                uint32_t lambda, uint64_t seed) {
  const PreprocessResult& pre = dataset.preprocessed();
  Rng rng(seed);
  auto name = [&](const Sequence& ranks) {
    NamedPattern pattern;
    for (const ItemId w : ranks) {
      pattern.items.push_back(dataset.NameOfRank(w));
    }
    return pattern;
  };
  NamedPatternList candidates;

  // Mined at a low σ, with every proper prefix alongside: the trie's
  // shared-prefix shape (ab, abc) and inner terminals.
  const PatternMap mined = MiningTask(dataset)
                               .WithParams({.sigma = 4, .gamma = gamma,
                                            .lambda = lambda})
                               .Mine();
  size_t taken = 0;
  for (const auto& [pattern, frequency] : mined) {
    if (taken++ == 120) break;
    for (size_t len = 1; len <= pattern.size(); ++len) {
      candidates.push_back(name(Sequence(pattern.begin(),
                                         pattern.begin() + len)));
    }
  }

  // Occurring subsequences, generalized and with gaps up to γ+2.
  for (int i = 0; i < 150; ++i) {
    const SequenceView t = pre.database[rng.Uniform(pre.database.size())];
    if (t.empty()) continue;
    const Sequence sample =
        SampleSubsequence(t, pre.hierarchy, 1 + rng.Uniform(lambda + 1),
                          uint64_t{gamma} + 2, &rng);
    candidates.push_back(name(sample));
  }

  // Random sequences over the whole vocabulary: mostly non-occurring.
  for (int i = 0; i < 60; ++i) {
    Sequence ranks(1 + rng.Uniform(lambda));
    for (ItemId& w : ranks) w = 1 + rng.Uniform(pre.hierarchy.NumItems());
    candidates.push_back(name(ranks));
  }

  // Exact duplicates of a spread of the above, each counted on its own.
  const size_t distinct = candidates.size();
  for (size_t i = 0; i < distinct; i += 7) {
    candidates.push_back(candidates[i]);
  }

  candidates.push_back({{"no-such-item"}, 0});
  candidates.push_back({{candidates[0].items[0], "no-such-item"}, 0});
  candidates.push_back({{}, 0});
  return candidates;
}

TEST(SupportCountKernelTest, MatchesOracleOnGeneratedCorpus) {
  NytRecipe recipe;
  recipe.sentences = 200;
  recipe.lemmas = 120;
  GeneratedText data = MakeNytCorpus(recipe);
  const Dataset dataset =
      Dataset::FromMemory(std::move(data.database), std::move(data.vocabulary),
                          std::move(data.hierarchy));
  ASSERT_GT(dataset.preprocessed().hierarchy.MaxDepth(), 0)
      << "the generated corpus must exercise generalized items";

  size_t positive = 0, zero = 0;
  for (const uint32_t gamma : {0u, 1u, 2u}) {
    for (const uint32_t lambda : {2u, 3u, 4u, 5u}) {
      const NamedPatternList candidates =
          MakeCandidates(dataset, gamma, lambda, 1000 * gamma + lambda);
      for (const bool flat : {false, true}) {
        const CountQuery query{gamma, lambda, flat};
        const std::vector<Frequency> expected =
            OracleCountSupports(dataset, candidates, query);
        const std::vector<Frequency> counted =
            CountSupports(dataset, candidates, query);
        ASSERT_EQ(counted.size(), candidates.size());
        for (size_t c = 0; c < candidates.size(); ++c) {
          EXPECT_EQ(counted[c], expected[c])
              << "candidate " << c << " (" << candidates[c].items.size()
              << " items) at gamma=" << gamma << " lambda=" << lambda
              << " flat=" << flat;
          (expected[c] > 0 ? positive : zero) += 1;
        }
        const SupportCounter counter(dataset, candidates, query);
        EXPECT_EQ(CountInBlocks(counter, 5), counted)
            << "blocks must sum to the whole at gamma=" << gamma
            << " lambda=" << lambda << " flat=" << flat;
      }
    }
  }
  // Both outcomes must be well represented, or the differential proved
  // little.
  EXPECT_GT(positive, 1000u);
  EXPECT_GT(zero, 1000u);
}

TEST_F(SupportCountTest, ExactDuplicatesEachGetTheirOwnCount) {
  // Duplicates share one trie terminal; every copy must still report the
  // count, wherever it sits in the list — including a duplicate of an
  // inner node (a prefix of another candidate).
  const CountQuery query{/*gamma=*/1, /*lambda=*/3, /*flat=*/false};
  const NamedPatternList candidates = {
      {{"a", "B"}, 0}, {{"a", "B", "c"}, 0}, {{"a", "B"}, 0},
      {{"a"}, 0},      {{"a", "B"}, 0},      {{"a", "B", "c"}, 0},
  };
  const std::vector<Frequency> counted =
      CountSupports(dataset_, candidates, query);
  EXPECT_EQ(counted, OracleCountSupports(dataset_, candidates, query));
  EXPECT_EQ(counted, (std::vector<Frequency>{3, 2, 3, 5, 3, 2}));
}

TEST_F(SupportCountTest, GapTrapAndBlanksInRankSpace) {
  // Rank space over the paper hierarchy, with hand-built transactions:
  //   * S=ab, γ=0, T=acab — greedy leftmost matching of `a` at 0 fails;
  //     only the second `a` leads to a match;
  //   * blanks occupy gap positions but never match anything;
  //   * a transaction of blanks alone supports nothing.
  const ItemId a = ex_.Rank("a"), b = ex_.Rank("b1"), c = ex_.Rank("c");
  const ItemId B = ex_.Rank("B"), _ = kBlank;
  PreprocessResult pre;
  pre.hierarchy = ex_.pre.hierarchy;
  pre.database = FlatDatabase::FromDatabase({
      {a, c, a, b},     // the γ=0 trap
      {a, _, b},        // a blank inside the gap
      {a, _, _, b},     // two blanks: only γ≥2 bridges them
      {_, _},           // blanks only
      {a, _, c, _, b},  // mixed
      {},               // empty
  });
  const std::vector<Sequence> candidates = {
      {a, b}, {a, B}, {a, c}, {a}, {b}, {c, b}, {a, c, b}, {a, b}, {_},
      {a, _}, {B, B}, {}};
  for (const uint32_t gamma : {0u, 1u, 2u, 3u}) {
    for (const uint32_t lambda : {1u, 2u, 3u}) {
      const SupportCounter counter(pre, candidates, gamma, lambda);
      std::vector<Frequency> counted(candidates.size(), 0);
      counter.CountRange(0, counter.num_transactions(), counted);
      EXPECT_EQ(counted, OracleCountRanks(pre, candidates, gamma, lambda))
          << "gamma=" << gamma << " lambda=" << lambda;
      EXPECT_EQ(CountInBlocks(counter, 4), counted)
          << "gamma=" << gamma << " lambda=" << lambda;
    }
  }
  // The trap's expected numbers, spelled out: ab matches T1 at γ=0 (via
  // the second a) and nothing else; at γ=1 the one-blank gap joins in.
  const SupportCounter gamma0(pre, {{a, b}}, 0, 2);
  std::vector<Frequency> one(1, 0);
  gamma0.CountRange(0, gamma0.num_transactions(), one);
  EXPECT_EQ(one[0], 1u);
  const SupportCounter gamma1(pre, {{a, b}}, 1, 2);
  one[0] = 0;
  gamma1.CountRange(0, gamma1.num_transactions(), one);
  EXPECT_EQ(one[0], 2u);
}

}  // namespace
}  // namespace lash
