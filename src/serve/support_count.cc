#include "serve/support_count.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace lash::serve {

namespace {

size_t EdgeSlot(uint64_t key, int shift) {
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift);
}

/// Shard-local ranks of each countable candidate; a candidate that is
/// empty, longer than λ, or names an unknown item decodes to an empty
/// sequence, which counts 0.
std::vector<Sequence> DecodeCandidates(const Dataset& dataset,
                                       const NamedPatternList& candidates,
                                       const CountQuery& query) {
  std::vector<Sequence> ranks(candidates.size());
  for (size_t c = 0; c < candidates.size(); ++c) {
    const std::vector<std::string>& items = candidates[c].items;
    if (items.size() > query.lambda) continue;
    for (const std::string& name : items) {
      const ItemId rank = dataset.RankOfName(name, query.flat);
      if (rank == kInvalidItem) {
        ranks[c].clear();  // Absent from this shard's vocabulary.
        break;
      }
      ranks[c].push_back(rank);
    }
  }
  return ranks;
}

}  // namespace

/// Per-CountRange walk state, reused across the range's transactions.
struct SupportCounter::Scratch {
  struct Frame {
    uint32_t node;
    uint32_t begin;  // The node's end positions: positions[begin, end).
    uint32_t end;
  };
  /// One expansion's `child << 32 | position` pairs.
  std::vector<uint64_t> pairs;
  /// End-position lists of the queued frames, in stack order.
  std::vector<uint32_t> positions;
  std::vector<Frame> stack;
};

SupportCounter::SupportCounter(const Dataset& dataset,
                               const NamedPatternList& candidates,
                               const CountQuery& query)
    : SupportCounter(query.flat ? dataset.flat_preprocessed()
                                : dataset.preprocessed(),
                     DecodeCandidates(dataset, candidates, query), query.gamma,
                     query.lambda) {}

SupportCounter::SupportCounter(const PreprocessResult& pre,
                               const std::vector<Sequence>& candidates,
                               uint32_t gamma, uint32_t lambda)
    : pre_(&pre),
      gamma_(gamma),
      terminal_(candidates.size(), 0),
      inner_(1, 0),
      root_child_(pre.hierarchy.NumItems() + 1, 0) {
  const size_t num_items = pre.hierarchy.NumItems();
  auto countable = [&](const Sequence& candidate) {
    return !candidate.empty() && candidate.size() <= lambda &&
           std::all_of(candidate.begin(), candidate.end(), [&](ItemId w) {
             return IsItem(w) && w <= num_items;
           });
  };
  size_t edges = 0;
  for (const Sequence& candidate : candidates) {
    if (countable(candidate)) edges += candidate.size() - 1;
  }
  const size_t capacity = std::bit_ceil(std::max<size_t>(2, 2 * edges));
  edge_keys_.assign(capacity, 0);
  edge_child_.assign(capacity, 0);
  edge_shift_ = 64 - std::countr_zero(capacity);
  for (size_t c = 0; c < candidates.size(); ++c) {
    if (!countable(candidates[c])) continue;
    uint32_t node = 0;
    for (const ItemId rank : candidates[c]) node = AddChild(node, rank);
    terminal_[c] = node;
  }
}

size_t SupportCounter::num_transactions() const {
  return pre_->database.size();
}

uint32_t SupportCounter::Child(uint32_t node, ItemId rank) const {
  const uint64_t key = uint64_t{node} << 32 | rank;
  const size_t mask = edge_keys_.size() - 1;
  for (size_t i = EdgeSlot(key, edge_shift_);; i = (i + 1) & mask) {
    if (edge_keys_[i] == key) return edge_child_[i];
    if (edge_keys_[i] == 0) return 0;
  }
}

uint32_t SupportCounter::AddChild(uint32_t node, ItemId rank) {
  uint32_t* slot = &root_child_[rank];
  if (node != 0) {
    const uint64_t key = uint64_t{node} << 32 | rank;
    const size_t mask = edge_keys_.size() - 1;
    size_t i = EdgeSlot(key, edge_shift_);
    while (edge_keys_[i] != 0 && edge_keys_[i] != key) i = (i + 1) & mask;
    edge_keys_[i] = key;
    slot = &edge_child_[i];
  }
  if (*slot == 0) {
    *slot = static_cast<uint32_t>(inner_.size());
    inner_.push_back(0);
    inner_[node] = 1;
  }
  return *slot;
}

void SupportCounter::Walk(SequenceView t, std::vector<uint32_t>& hits,
                          Scratch& s) const {
  const Hierarchy& h = pre_->hierarchy;
  const size_t n = t.size();
  // Groups one expansion's pairs by child. Each child is reached exactly
  // once here (its parent is expanded once), and an inner child is queued
  // with its end positions, which the sort leaves ascending.
  auto reach_children = [&] {
    std::sort(s.pairs.begin(), s.pairs.end());
    for (size_t i = 0; i < s.pairs.size();) {
      const uint32_t child = static_cast<uint32_t>(s.pairs[i] >> 32);
      const bool inner = inner_[child] != 0;
      ++hits[child];
      const uint32_t begin = static_cast<uint32_t>(s.positions.size());
      for (; i < s.pairs.size() && (s.pairs[i] >> 32) == child; ++i) {
        if (inner) s.positions.push_back(static_cast<uint32_t>(s.pairs[i]));
      }
      if (inner) {
        s.stack.push_back(
            {child, begin, static_cast<uint32_t>(s.positions.size())});
      }
    }
  };

  s.pairs.clear();
  s.positions.clear();
  s.stack.clear();
  for (size_t i = 0; i < n; ++i) {
    if (!IsItem(t[i])) continue;
    for (const ItemId a : h.AncestorSpan(t[i])) {
      const uint32_t child = root_child_[a];
      if (child != 0) s.pairs.push_back(uint64_t{child} << 32 | i);
    }
  }
  reach_children();

  const uint64_t window = uint64_t{gamma_} + 1;
  while (!s.stack.empty()) {
    const Scratch::Frame frame = s.stack.back();
    s.stack.pop_back();
    s.pairs.clear();
    // Sweep the union of the windows [p+1, p+γ+1] once, in order: the end
    // positions are sorted, so `next` skips what an earlier window covered.
    uint64_t next = 0;
    for (uint32_t k = frame.begin; k < frame.end; ++k) {
      const uint64_t p = s.positions[k];
      const uint64_t last = std::min<uint64_t>(p + window, n - 1);
      for (uint64_t q = std::max(p + 1, next); q <= last; ++q) {
        if (!IsItem(t[q])) continue;
        for (const ItemId a : h.AncestorSpan(t[q])) {
          const uint32_t child = Child(frame.node, a);
          if (child != 0) s.pairs.push_back(uint64_t{child} << 32 | q);
        }
      }
      next = std::max(next, last + 1);
    }
    // The frame was the last one queued, so its positions are the tail.
    s.positions.resize(frame.begin);
    reach_children();
  }
}

void SupportCounter::CountRange(size_t tid_begin, size_t tid_end,
                                std::span<Frequency> supports) const {
  if (supports.size() != terminal_.size()) {
    throw std::invalid_argument(
        "SupportCounter::CountRange: supports must be index-aligned with "
        "the candidates");
  }
  const FlatDatabase& database = pre_->database;
  tid_end = std::min(tid_end, database.size());
  std::vector<uint32_t> hits(inner_.size(), 0);
  Scratch scratch;
  for (size_t tid = tid_begin; tid < tid_end; ++tid) {
    Walk(database[tid], hits, scratch);
  }
  for (size_t c = 0; c < terminal_.size(); ++c) {
    if (terminal_[c] != 0) supports[c] += hits[terminal_[c]];
  }
}

std::vector<Frequency> CountSupports(const Dataset& dataset,
                                     const NamedPatternList& candidates,
                                     const CountQuery& query) {
  const SupportCounter counter(dataset, candidates, query);
  std::vector<Frequency> supports(candidates.size(), 0);
  counter.CountRange(0, counter.num_transactions(), supports);
  return supports;
}

}  // namespace lash::serve
