#ifndef LASH_IO_RESULT_IO_H_
#define LASH_IO_RESULT_IO_H_

#include <string>
#include <vector>

#include "api/lash_api.h"
#include "io/io_error.h"

namespace lash {

/// Binary serialization of mining results — the payload side of the wire
/// protocol (net/wire.h).
///
/// Patterns cross process boundaries as item *names*, not ranks: each
/// Dataset assigns ranks from its own f-list, so two shard workers loaded
/// from different snapshot files rank the same item differently. Names are
/// the dataset-independent pattern identity, which is what makes the
/// cross-shard merge (net/router.h) a plain key-wise frequency sum. All
/// decoders fail with the typed IoError of io/io_error.h via ByteReader, so
/// a malformed response is distinguishable from a truncated one.

/// One mined pattern decoded to item names.
struct NamedPattern {
  std::vector<std::string> items;
  Frequency frequency = 0;

  bool operator==(const NamedPattern& other) const {
    return frequency == other.frequency && items == other.items;
  }
};

using NamedPatternList = std::vector<NamedPattern>;

/// The canonical wire order: descending frequency, ascending lexicographic
/// item vectors on ties. Every server sorts before encoding, so equal
/// pattern sets serialize to equal bytes — the property the loopback parity
/// tests and the router merge assert.
bool NamedPatternBefore(const NamedPattern& a, const NamedPattern& b);

/// Sorts into the canonical wire order.
void SortNamedPatterns(NamedPatternList* patterns);

/// Decodes a rank-space PatternMap to names through `dataset` (`flat`
/// selects the flat rank space, i.e. RunResult::used_flat_hierarchy), in
/// canonical wire order.
NamedPatternList NamePatterns(const Dataset& dataset,
                              const PatternMap& patterns, bool flat);

/// The canonical byte identity of a pattern's items (length-prefixed name
/// bytes, no frequency). Two patterns are the same sequence iff their keys
/// are byte-equal — the merge identity of the cross-shard reducer, same
/// contract as the shuffle's encoded-key-bytes combiner.
std::string NamedPatternKey(const NamedPattern& pattern);

/// Appends a double as its 8 IEEE-754 bytes, little-endian.
void PutDoubleBits(std::string* out, double value);

/// Inverse of PutDoubleBits.
double ReadDoubleBits(ByteReader& reader, const char* field);

/// Serializes the scalar summary of a RunResult: algorithm, flat flag,
/// pattern accounting, miner/GSP/partition statistics, phase times and
/// Hadoop-style counters, and the wall-clock fields. The per-task duration
/// vectors and the per-partition pipeline timeline are deliberately not
/// transmitted (they are profiling detail of one worker's execution, not
/// part of the answer); they come back empty.
void EncodeRunResult(std::string* out, const RunResult& result);

/// Inverse of EncodeRunResult (see caveat there).
RunResult DecodeRunResult(ByteReader& reader);

/// Serializes a pattern list: varint count, then per pattern the varint
/// item count, each item as varint-length-prefixed name bytes, and the
/// varint64 frequency. Reserves the encoded length up front, so a block
/// encoded into an empty string holds exactly its own bytes (the result
/// cache keeps such blocks and counts them in its budget).
void EncodeNamedPatterns(std::string* out, const NamedPatternList& patterns);

/// Inverse of EncodeNamedPatterns.
NamedPatternList DecodeNamedPatterns(ByteReader& reader);

/// Serializes a bare frequency vector: varint count, then each value as a
/// varint64. The payload of a count response (net/wire.h) — supports ride
/// index-aligned with the candidate list of the request, so no names repeat.
void EncodeFrequencyList(std::string* out,
                         const std::vector<Frequency>& frequencies);

/// Inverse of EncodeFrequencyList.
std::vector<Frequency> DecodeFrequencyList(ByteReader& reader);

}  // namespace lash

#endif  // LASH_IO_RESULT_IO_H_
