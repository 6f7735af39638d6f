#include "core/rewrite.h"

#include <algorithm>
#include <stdexcept>

namespace lash {

Rewriter::Rewriter(const Hierarchy* hierarchy, uint32_t gamma, uint32_t lambda)
    : hierarchy_(hierarchy), gamma_(gamma), lambda_(lambda) {
  if (!hierarchy_->IsRankMonotone()) {
    throw std::invalid_argument("Rewriter: hierarchy must be rank-monotone");
  }
}

Sequence Rewriter::Generalize(SequenceView t, ItemId pivot) const {
  Sequence out;
  out.reserve(t.size());
  for (ItemId w : t) {
    if (!IsItem(w)) {
      out.push_back(kBlank);
      continue;
    }
    if (w <= pivot) {
      out.push_back(w);
      continue;
    }
    // Scan the packed chain above w; ancestor ranks strictly decrease, so
    // the first ancestor with rank <= pivot is the most specific
    // ("largest") sufficiently small one.
    ItemId replacement = kBlank;
    for (ItemId a : hierarchy_->AncestorSpan(w).subspan(1)) {
      if (a <= pivot) {
        replacement = a;
        break;
      }
    }
    out.push_back(replacement);
  }
  return out;
}

std::vector<uint32_t> Rewriter::MinPivotDistances(SequenceView t,
                                                  ItemId pivot) const {
  const size_t m = t.size();
  const size_t window = static_cast<size_t>(gamma_) + 1;
  std::vector<uint32_t> left(m, kUnreachable), right(m, kUnreachable);
  // Left distances: chains move rightward from a pivot index; chain members
  // other than the target must be non-blank.
  for (size_t i = 0; i < m; ++i) {
    if (t[i] == pivot) left[i] = 1;
    size_t lo = i >= window ? i - window : 0;
    for (size_t j = lo; j < i; ++j) {
      if (t[j] != kBlank && left[j] != kUnreachable && left[j] + 1 < left[i]) {
        left[i] = left[j] + 1;
      }
    }
  }
  for (size_t ii = m; ii-- > 0;) {
    if (t[ii] == pivot) right[ii] = 1;
    size_t hi = std::min(m, ii + window + 1);
    for (size_t j = ii + 1; j < hi; ++j) {
      if (t[j] != kBlank && right[j] != kUnreachable && right[j] + 1 < right[ii]) {
        right[ii] = right[j] + 1;
      }
    }
  }
  std::vector<uint32_t> dist(m);
  for (size_t i = 0; i < m; ++i) dist[i] = std::min(left[i], right[i]);
  return dist;
}

Sequence Rewriter::Rewrite(SequenceView t, ItemId pivot) const {
  Sequence gen = Generalize(t, pivot);

  // Unreachability reduction: blank out indexes farther than lambda from
  // every pivot occurrence.
  std::vector<uint32_t> dist = MinPivotDistances(gen, pivot);
  bool has_pivot = false;
  for (size_t i = 0; i < gen.size(); ++i) {
    if (dist[i] == kUnreachable || dist[i] > lambda_) gen[i] = kBlank;
    if (gen[i] == pivot) has_pivot = true;
  }
  if (!has_pivot) return {};

  // Isolated pivot removal: a pivot with no non-blank item within gamma+1
  // positions cannot be part of a pattern of length >= 2.
  const size_t m = gen.size();
  const size_t window = static_cast<size_t>(gamma_) + 1;
  std::vector<char> isolated(m, 0);
  for (size_t i = 0; i < m; ++i) {
    if (gen[i] != pivot) continue;
    bool has_neighbor = false;
    size_t lo = i >= window ? i - window : 0;
    size_t hi = std::min(m, i + window + 1);
    for (size_t j = lo; j < hi && !has_neighbor; ++j) {
      if (j != i && gen[j] != kBlank) has_neighbor = true;
    }
    if (!has_neighbor) isolated[i] = 1;
  }
  has_pivot = false;
  for (size_t i = 0; i < m; ++i) {
    if (isolated[i]) gen[i] = kBlank;
    if (gen[i] == pivot) has_pivot = true;
  }
  if (!has_pivot) return {};

  // Blank compression: strip leading/trailing blanks; cap runs at gamma+1.
  Sequence out;
  out.reserve(m);
  size_t run = 0;
  for (ItemId w : gen) {
    if (w == kBlank) {
      ++run;
      if (!out.empty() && run <= window) out.push_back(kBlank);
    } else {
      run = 0;
      out.push_back(w);
    }
  }
  while (!out.empty() && out.back() == kBlank) out.pop_back();

  size_t non_blank = 0;
  for (ItemId w : out) {
    if (w != kBlank) ++non_blank;
  }
  if (non_blank < 2) return {};
  return out;
}

ScratchRewriter::ScratchRewriter(const Hierarchy* hierarchy, uint32_t gamma,
                                 uint32_t lambda)
    : hierarchy_(hierarchy), gamma_(gamma), lambda_(lambda) {
  if (!hierarchy_->IsRankMonotone()) {
    throw std::invalid_argument(
        "ScratchRewriter: hierarchy must be rank-monotone");
  }
}

void ScratchRewriter::Generalize(SequenceView t, ItemId pivot,
                                 Sequence* out) const {
  out->clear();
  out->reserve(t.size());
  for (ItemId w : t) {
    if (!IsItem(w)) {
      out->push_back(kBlank);
      continue;
    }
    if (w <= pivot) {
      out->push_back(w);
      continue;
    }
    ItemId replacement = kBlank;
    for (ItemId a : hierarchy_->AncestorSpan(w).subspan(1)) {
      if (a <= pivot) {
        replacement = a;
        break;
      }
    }
    out->push_back(replacement);
  }
}

}  // namespace lash
