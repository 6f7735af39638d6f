#ifndef LASH_CORE_REWRITE_H_
#define LASH_CORE_REWRITE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/flat_database.h"
#include "core/hierarchy.h"
#include "util/types.h"

namespace lash {

/// Partition construction rewrites (Sec. 4).
///
/// Given a pivot item `w`, `Rewriter::Rewrite` turns an input sequence `T`
/// into a w-equivalent sequence `P_w(T)` (Lemma 3) that is as small as
/// possible:
///
///  1. *w-generalization* (Sec. 4.2): every w-irrelevant item (rank > w) is
///     replaced by its most specific ancestor with rank <= w, or by the
///     blank placeholder if no such ancestor exists.
///  2. *Unreachability reduction* (Sec. 4.3): indexes whose minimum pivot
///     distance exceeds lambda are blanked out. The pivot distance of an
///     index is the size of the smallest chain of increasing indexes from a
///     pivot index to it where consecutive chain members are at most gamma
///     items apart and intermediate members are non-blank.
///  3. *Isolated pivot removal* (Sec. 4.3): a pivot occurrence with no
///     non-blank neighbour within gamma+1 positions cannot appear in any
///     pattern of length >= 2 and is blanked out.
///  4. *Blank compression* (Sec. 4.3): leading/trailing blanks are dropped
///     and every run of more than gamma+1 blanks is truncated to exactly
///     gamma+1 (still unbridgeable under the gap constraint).
///
/// Unlike MG-FSM we never *delete* an interior index: deletion changes the
/// positions of surviving items and therefore the gap structure; blanking
/// preserves it exactly, and step 4 recovers (almost all of) the size
/// benefit. The w-equivalency property test in tests/rewrite_test.cc checks
/// G_{w,λ}(T) == G_{w,λ}(Rewrite(T)) against the naive enumerator.
class Rewriter {
 public:
  /// The hierarchy must be in rank space (IsRankMonotone()).
  Rewriter(const Hierarchy* hierarchy, uint32_t gamma, uint32_t lambda);

  /// Computes P_w(T). Returns an empty sequence when the rewrite proves that
  /// T contributes no pivot sequence for pivot `w` (no pivot index survives
  /// or fewer than 2 items remain).
  Sequence Rewrite(SequenceView t, ItemId pivot) const;

  /// Step 1 alone; exposed for tests.
  Sequence Generalize(SequenceView t, ItemId pivot) const;

  /// Computes the minimum pivot distances of every index of a
  /// w-generalized sequence; "infinite" is represented by kUnreachable.
  /// Exposed for tests (reproduces the distance table of Sec. 4.3).
  std::vector<uint32_t> MinPivotDistances(SequenceView t,
                                          ItemId pivot) const;

  static constexpr uint32_t kUnreachable = 0xffffffffu;

 private:
  const Hierarchy* hierarchy_;
  uint32_t gamma_;
  uint32_t lambda_;
};

/// Allocation-free rewriter for the LASH map hot loop (the partitioning
/// phase rewrites every transaction once per frequent pivot of G1(T), so
/// the rewrite pipeline runs |D| * avg|G1(T)| times per job). All
/// temporaries live in the object and are reused across calls; a warm
/// instance performs no heap allocation.
///
/// `RewriteAllPivots` computes every pivot's [w | P_w(T)] key of one
/// transaction in a single occurrence-driven pass, with a run-walk
/// specialization for gamma == 0 (the paper's n-gram setting, used by
/// every NYT series) and a windowed distance DP for gamma > 0. Both are
/// output-identical to Rewriter::Rewrite per pivot (differential-tested in
/// tests/rewrite_test.cc). `Generalize` serves the generalize-only
/// ablation level.
///
/// Instances are NOT thread-safe; the LASH driver keeps one per pool worker.
class ScratchRewriter {
 public:
  /// The hierarchy must be in rank space (IsRankMonotone()).
  ScratchRewriter(const Hierarchy* hierarchy, uint32_t gamma, uint32_t lambda);

  /// Step 1 (w-generalization) alone, into *out (clobbered).
  void Generalize(SequenceView t, ItemId pivot, Sequence* out) const;

  /// The fused LASH partitioning loop: computes [w | P_w(T)] for *every*
  /// frequent pivot w of G1(T) and calls `emit_key(key)` for each
  /// non-empty rewrite, with pivots ascending. Exactly equivalent to
  /// collecting G1(T), calling Rewriter::Rewrite per pivot and prepending
  /// the pivot — but occurrence-driven: one ancestor-chain walk collects
  /// (pivot, position) occurrence pairs (gen_w(T)[i] == w iff w is an
  /// ancestor-or-self of T[i]), then each pivot rewrites only the bounded
  /// neighborhood of its occurrences instead of re-scanning the whole
  /// transaction. For gamma == 0 that neighborhood is the lambda-1 run
  /// walk of RewriteAllPivotsGammaZero; for gamma > 0 it is the merged
  /// (lambda-1)*(gamma+1)-radius occurrence windows of
  /// RewriteAllPivotsGammaPositive, with the full distance DP run inside
  /// each window (a chain of size <= lambda never leaves the window of the
  /// occurrence it starts from, so the windowed DP is exact).
  template <typename EmitKey>
  void RewriteAllPivots(SequenceView t, ItemId num_frequent,
                        EmitKey&& emit_key) {
    if (gamma_ == 0) {
      RewriteAllPivotsGammaZero(t, num_frequent,
                                std::forward<EmitKey>(emit_key));
    } else {
      RewriteAllPivotsGammaPositive(t, num_frequent,
                                    std::forward<EmitKey>(emit_key));
    }
  }

  /// The gamma == 0 specialization of RewriteAllPivots: chains cannot
  /// cross blanks, so reachability is a run walk and no distance DP is
  /// needed. Reachability is a root-rank test: gen_w(T)[j] is blank iff
  /// rank(root(T[j])) > w, so the interval walks never generalize
  /// positions they do not keep. Requires gamma == 0 (callers dispatch).
  template <typename EmitKey>
  void RewriteAllPivotsGammaZero(SequenceView t, ItemId num_frequent,
                                 EmitKey&& emit_key) {
    const size_t m = t.size();
    const size_t reach = static_cast<size_t>(lambda_) - 1;
    // Occurrence pairs (pivot << 32 | position) and per-position chain
    // roots; both reused across calls.
    pairs_.clear();
    root_rank_.resize(m);
    for (size_t i = 0; i < m; ++i) {
      if (!IsItem(t[i])) {
        root_rank_[i] = kBlank;
        continue;
      }
      auto chain = hierarchy_->AncestorSpan(t[i]);
      root_rank_[i] = chain.back();
      for (ItemId a : chain) {
        if (a <= num_frequent) {
          pairs_.push_back(static_cast<uint64_t>(a) << 32 | i);
        }
      }
    }
    std::sort(pairs_.begin(), pairs_.end());

    constexpr size_t kNone = static_cast<size_t>(-1);
    size_t g = 0;
    while (g < pairs_.size()) {
      const ItemId w = static_cast<ItemId>(pairs_[g] >> 32);
      gen_.clear();  // Key buffer: [w | P_w(T)].
      gen_.push_back(w);
      size_t cur_lo = kNone, cur_hi = kNone;
      auto flush = [&](size_t next_lo) {
        // Emits [cur_lo, cur_hi]; a following interval is separated by one
        // blank (the compressed remains of everything between them).
        if (cur_lo == kNone) return;
        if (gen_.size() > 1) gen_.push_back(kBlank);
        for (size_t j = cur_lo; j <= cur_hi; ++j) {
          ItemId value = kBlank;
          for (ItemId a : hierarchy_->AncestorSpan(t[j])) {
            if (a <= w) {
              value = a;
              break;
            }
          }
          gen_.push_back(value);
        }
        cur_lo = next_lo;
      };
      for (; g < pairs_.size() && (pairs_[g] >> 32) == w; ++g) {
        const size_t p = static_cast<size_t>(
            static_cast<uint32_t>(pairs_[g]));
        // Walk to the farthest reachable index on each side: adjacent
        // steps only (gamma == 0), never across a blank (root > w), chain
        // size |p - j| + 1 <= lambda.
        size_t lo = p;
        while (lo > 0 && p - (lo - 1) <= reach && root_rank_[lo - 1] <= w) {
          --lo;
        }
        size_t hi = p;
        while (hi + 1 < m && (hi + 1) - p <= reach &&
               root_rank_[hi + 1] <= w) {
          ++hi;
        }
        if (lo == hi) continue;  // Isolated pivot occurrence (Sec. 4.3).
        if (cur_lo != kNone && lo <= cur_hi + 1) {
          if (hi > cur_hi) cur_hi = hi;  // Merge into the open interval.
        } else {
          flush(lo);
          if (cur_lo == kNone) cur_lo = lo;
          cur_hi = hi;
        }
      }
      flush(kNone);
      if (gen_.size() > 1) emit_key(static_cast<const Sequence&>(gen_));
    }
  }

  /// The gamma > 0 generalization of the fused loop. A chain of size
  /// <= lambda with steps <= gamma+1 apart spans at most
  /// R = (lambda-1)*(gamma+1) positions, so everything a pivot occurrence
  /// at position p can keep lives in [p-R, p+R]. Overlapping/adjacent
  /// occurrence windows are merged and the Rewriter distance recurrence
  /// runs inside each merged interval only (no chain of size <= lambda
  /// leaves its interval: every member is within R of the occurrence the
  /// chain starts at). Isolated-pivot removal needs cross-interval
  /// visibility — two survivors in different intervals can still be
  /// within gamma+1 positions of each other — so it runs on the global
  /// survivor list, with the same mark-then-remove two-phase semantics as
  /// Rewriter::Rewrite. Blank compression falls out of the emission:
  /// every position between two survivors is blank post-reduction, so
  /// min(position gap, gamma+1) blanks separate them.
  template <typename EmitKey>
  void RewriteAllPivotsGammaPositive(SequenceView t, ItemId num_frequent,
                                     EmitKey&& emit_key) {
    const size_t m = t.size();
    const size_t window = static_cast<size_t>(gamma_) + 1;
    const size_t reach = static_cast<size_t>(lambda_ - 1) * window;
    constexpr uint32_t kUnreachable = Rewriter::kUnreachable;
    constexpr size_t kNone = static_cast<size_t>(-1);
    pairs_.clear();
    root_rank_.resize(m);
    for (size_t i = 0; i < m; ++i) {
      if (!IsItem(t[i])) {
        root_rank_[i] = kBlank;
        continue;
      }
      auto chain = hierarchy_->AncestorSpan(t[i]);
      root_rank_[i] = chain.back();
      for (ItemId a : chain) {
        if (a <= num_frequent) {
          pairs_.push_back(static_cast<uint64_t>(a) << 32 | i);
        }
      }
    }
    std::sort(pairs_.begin(), pairs_.end());
    if (pivot_mark_.size() < m) pivot_mark_.resize(m, 0);
    left_.resize(m);
    right_.resize(m);

    size_t g = 0;
    while (g < pairs_.size()) {
      const ItemId w = static_cast<ItemId>(pairs_[g] >> 32);
      const size_t g0 = g;
      if (++pivot_epoch_ == 0) {  // Wrapped: stale marks could collide.
        std::fill(pivot_mark_.begin(), pivot_mark_.end(), 0u);
        pivot_epoch_ = 1;
      }
      for (; g < pairs_.size() && (pairs_[g] >> 32) == w; ++g) {
        pivot_mark_[static_cast<uint32_t>(pairs_[g])] = pivot_epoch_;
      }
      surv_.clear();

      // Distance DP over one merged interval [lo, hi]; survivors (non-blank
      // positions with min chain size <= lambda) append to surv_ with a
      // pivot flag in the low bit. Same recurrence as
      // Rewriter::MinPivotDistances, with the scan clamped to the interval.
      auto run_interval = [&](size_t lo, size_t hi) {
        for (size_t i = lo; i <= hi; ++i) {
          left_[i] = pivot_mark_[i] == pivot_epoch_ ? 1 : kUnreachable;
          const size_t jlo = i >= lo + window ? i - window : lo;
          for (size_t j = jlo; j < i; ++j) {
            if (root_rank_[j] <= w && left_[j] != kUnreachable &&
                left_[j] + 1 < left_[i]) {
              left_[i] = left_[j] + 1;
            }
          }
        }
        for (size_t ii = hi + 1; ii-- > lo;) {
          right_[ii] = pivot_mark_[ii] == pivot_epoch_ ? 1 : kUnreachable;
          const size_t jhi = std::min(hi, ii + window);
          for (size_t j = ii + 1; j <= jhi; ++j) {
            if (root_rank_[j] <= w && right_[j] != kUnreachable &&
                right_[j] + 1 < right_[ii]) {
              right_[ii] = right_[j] + 1;
            }
          }
        }
        for (size_t i = lo; i <= hi; ++i) {
          if (root_rank_[i] > w) continue;  // Blank in gen_w(T).
          const uint32_t d = std::min(left_[i], right_[i]);
          if (d == kUnreachable || d > lambda_) continue;  // Unreachable.
          surv_.push_back(static_cast<uint32_t>(i) << 1 |
                          (pivot_mark_[i] == pivot_epoch_ ? 1u : 0u));
        }
      };
      size_t cur_lo = kNone, cur_hi = 0;
      for (size_t k = g0; k < g; ++k) {
        const size_t p = static_cast<uint32_t>(pairs_[k]);
        const size_t lo = p >= reach ? p - reach : 0;
        const size_t hi = std::min(m - 1, p + reach);
        if (cur_lo != kNone && lo <= cur_hi + 1) {
          if (hi > cur_hi) cur_hi = hi;
        } else {
          if (cur_lo != kNone) run_interval(cur_lo, cur_hi);
          cur_lo = lo;
          cur_hi = hi;
        }
      }
      if (cur_lo != kNone) run_interval(cur_lo, cur_hi);

      // Isolated pivot removal + blank compression + emit. A surviving
      // pivot with no other survivor within gamma+1 positions is dropped;
      // nearest-survivor distance suffices because surv_ is position-
      // sorted, and checking against the pre-removal list reproduces
      // Rewriter's mark-then-remove order (a pivot that is itself about
      // to be removed still counts as a neighbor during marking).
      const size_t ns = surv_.size();
      gen_.clear();
      gen_.push_back(w);
      size_t non_blank = 0;
      bool has_pivot = false;
      size_t last_pos = kNone;
      for (size_t k = 0; k < ns; ++k) {
        const size_t pos = surv_[k] >> 1;
        if (surv_[k] & 1) {
          const bool near_prev = k > 0 && pos - (surv_[k - 1] >> 1) <= window;
          const bool near_next =
              k + 1 < ns && (surv_[k + 1] >> 1) - pos <= window;
          if (!near_prev && !near_next) continue;  // Isolated (Sec. 4.3).
          has_pivot = true;
        }
        if (last_pos != kNone) {
          const size_t blanks = std::min(pos - last_pos - 1, window);
          gen_.insert(gen_.end(), blanks, kBlank);
        }
        // Most specific ancestor with rank <= w (first chain hit; ranks
        // strictly decrease along the chain). Never blank: root_rank <= w.
        ItemId value = kBlank;
        for (ItemId a : hierarchy_->AncestorSpan(t[pos])) {
          if (a <= w) {
            value = a;
            break;
          }
        }
        gen_.push_back(value);
        ++non_blank;
        last_pos = pos;
      }
      if (has_pivot && non_blank >= 2) {
        emit_key(static_cast<const Sequence&>(gen_));
      }
    }
  }

 private:
  const Hierarchy* hierarchy_;
  uint32_t gamma_;
  uint32_t lambda_;
  Sequence gen_;
  std::vector<uint32_t> left_;
  std::vector<uint32_t> right_;
  std::vector<uint64_t> pairs_;
  std::vector<ItemId> root_rank_;
  std::vector<uint32_t> surv_;        // Gamma > 0 loop: pos << 1 | is_pivot.
  std::vector<uint32_t> pivot_mark_;  // Epoch-stamped pivot occurrence marks.
  uint32_t pivot_epoch_ = 0;
};

}  // namespace lash

#endif  // LASH_CORE_REWRITE_H_
