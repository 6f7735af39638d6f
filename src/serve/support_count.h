#ifndef LASH_SERVE_SUPPORT_COUNT_H_
#define LASH_SERVE_SUPPORT_COUNT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "api/lash_api.h"
#include "io/result_io.h"

namespace lash::serve {

/// Exact support counting of named candidate patterns — phase 2 of the
/// router's two-phase candidate/count protocol (net/router.h).
///
/// Counting is deliberately not mining: there is no candidate generation,
/// no σ, no output stream — just the Sec. 2 matching predicate `S ⊑γ T`
/// (core/match.h) evaluated for every candidate against every transaction
/// of the shard. It is evaluated the way GSP counts (Srikant & Agrawal):
/// one pass per transaction, enumerating only what the candidate set
/// allows. The candidates form a trie over shard-local ranks; a
/// transaction's walk starts at every position whose ancestor chain
/// (Hierarchy::AncestorSpan) meets a root edge, and extends a trie node's
/// sorted end positions only along the node's own edges, to positions
/// `p+1 .. p+γ+1`. Blanks fill gaps but never match. Every trie node is
/// reached at most once per transaction, so each candidate ending there is
/// counted once per supporting transaction — duplicates included.
///
/// The cost is one pass per transaction, proportional to the trie nodes
/// that transaction reaches × (γ+1) window positions × the ancestor-chain
/// length, plus a sort of each expansion's (child, position) pairs. It no
/// longer grows as |candidates| × |shard|: a candidate whose prefix never
/// occurs in a transaction costs that transaction nothing.

/// The match parameters of one counting request. γ and λ come from the
/// query; `flat` selects the flat rank space and must equal the
/// canonicalized `flat || MgFsm` bit of the mine spec
/// (RunResult::used_flat_hierarchy) for counts to agree with mining.
struct CountQuery {
  uint32_t gamma = 0;
  uint32_t lambda = 0;
  bool flat = false;
};

/// The one-pass counting kernel over one request's candidates.
class SupportCounter {
 public:
  /// Decodes every candidate's item names to shard-local ranks once and
  /// builds the rank trie; a candidate containing an unknown name, an empty
  /// candidate, and a candidate longer than λ are left out of the trie and
  /// always count 0 (they cannot be an answer of any shard's mine, so a 0
  /// sums correctly in the router's union). Candidate frequencies are
  /// ignored. Borrows `dataset`, which must outlive the counter;
  /// `candidates` is not retained.
  SupportCounter(const Dataset& dataset, const NamedPatternList& candidates,
                 const CountQuery& query);

  /// The rank-space kernel the named form delegates to: `candidates` are
  /// sequences of ranks of `pre`, counted against `pre.database` under
  /// `pre.hierarchy`. A candidate that is empty, longer than λ, or holds a
  /// rank that is not an item of `pre` counts 0. Borrows `pre`.
  SupportCounter(const PreprocessResult& pre,
                 const std::vector<Sequence>& candidates, uint32_t gamma,
                 uint32_t lambda);

  /// Transactions of the counted corpus (the shard's sequence count).
  size_t num_transactions() const;
  size_t num_candidates() const { return terminal_.size(); }
  /// Trie size, root included: the kernel's state per transaction.
  size_t trie_nodes() const { return inner_.size(); }

  /// Adds, to `supports[c]`, the number of transactions in
  /// `[tid_begin, tid_end)` that support candidate `c`. `supports` is
  /// index-aligned with the constructor's candidates. Thread-compatible:
  /// concurrent calls on disjoint (or even overlapping) ranges are safe as
  /// long as each writes its own `supports`, so a shard can be split into
  /// blocks and the per-block counts summed.
  void CountRange(size_t tid_begin, size_t tid_end,
                  std::span<Frequency> supports) const;

 private:
  struct Scratch;

  /// Child of the non-root `node` along `rank`, or 0 (the root is nobody's
  /// child, so 0 doubles as "no edge").
  uint32_t Child(uint32_t node, ItemId rank) const;
  /// Build-time: the child of `node` along `rank`, created if missing.
  uint32_t AddChild(uint32_t node, ItemId rank);
  /// Walks one transaction, incrementing `hits[v]` for every node reached.
  void Walk(SequenceView t, std::vector<uint32_t>& hits, Scratch& s) const;

  const PreprocessResult* pre_;
  uint32_t gamma_;
  /// Per candidate: its trie node, or 0 when it always counts 0.
  std::vector<uint32_t> terminal_;
  /// Per node: 1 iff it has children (only those are extended).
  std::vector<char> inner_;
  /// Root edges by rank (dense: every walk probes them at every position).
  std::vector<uint32_t> root_child_;
  /// Non-root edges in an open-addressing table keyed by
  /// `parent << 32 | rank` (never 0, since parents are non-root), linear
  /// probing, power-of-two capacity.
  std::vector<uint64_t> edge_keys_;
  std::vector<uint32_t> edge_child_;
  int edge_shift_ = 64;
};

/// Returns the exact (γ, λ)-support of each candidate on `dataset`,
/// index-aligned with `candidates` — one SupportCounter over the whole
/// corpus, single-threaded. Candidate item names are decoded to
/// shard-local ranks via the dataset vocabulary; a candidate containing an
/// unknown name, an empty candidate, and a candidate longer than λ all
/// count 0. Candidate frequencies are ignored. Thread-compatible: safe to
/// call concurrently on one dataset, and safe to split `candidates` across
/// threads and concatenate.
std::vector<Frequency> CountSupports(const Dataset& dataset,
                                     const NamedPatternList& candidates,
                                     const CountQuery& query);

}  // namespace lash::serve

#endif  // LASH_SERVE_SUPPORT_COUNT_H_
