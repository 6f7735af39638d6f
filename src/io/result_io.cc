#include "io/result_io.h"

#include <algorithm>
#include <cstring>

#include "util/varint.h"

namespace lash {

bool NamedPatternBefore(const NamedPattern& a, const NamedPattern& b) {
  if (a.frequency != b.frequency) return a.frequency > b.frequency;
  return a.items < b.items;
}

void SortNamedPatterns(NamedPatternList* patterns) {
  std::sort(patterns->begin(), patterns->end(), NamedPatternBefore);
}

NamedPatternList NamePatterns(const Dataset& dataset,
                              const PatternMap& patterns, bool flat) {
  NamedPatternList named;
  named.reserve(patterns.size());
  for (const auto& [ranks, frequency] : patterns) {
    NamedPattern pattern;
    pattern.items.reserve(ranks.size());
    for (ItemId rank : ranks) {
      pattern.items.push_back(dataset.NameOfRank(rank, flat));
    }
    pattern.frequency = frequency;
    named.push_back(std::move(pattern));
  }
  SortNamedPatterns(&named);
  return named;
}

std::string NamedPatternKey(const NamedPattern& pattern) {
  std::string key;
  PutVarint64(&key, pattern.items.size());
  for (const std::string& item : pattern.items) {
    PutVarint64(&key, item.size());
    key.append(item);
  }
  return key;
}

void PutDoubleBits(std::string* out, double value) {
  static_assert(sizeof(double) == sizeof(uint64_t));
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
  }
}

double ReadDoubleBits(ByteReader& reader, const char* field) {
  const std::string bytes = reader.ReadBytes(8, field);
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[i])) << (8 * i);
  }
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

void EncodeRunResult(std::string* out, const RunResult& result) {
  out->push_back(static_cast<char>(result.algorithm));
  out->push_back(result.used_flat_hierarchy ? 1 : 0);
  out->push_back(result.aborted ? 1 : 0);
  PutVarint64(out, result.patterns_mined);
  PutVarint64(out, result.patterns_emitted);
  PutVarint64(out, result.miner_stats.candidates);
  PutVarint64(out, result.miner_stats.outputs);
  PutVarint64(out, result.gsp_stats.extended_items);
  PutVarint64(out, result.gsp_stats.candidates);
  PutVarint64(out, result.gsp_stats.database_scans);
  PutVarint64(out, result.partition_shape.partitions);
  PutVarint64(out, result.partition_shape.total_sequences);
  PutVarint64(out, result.partition_shape.max_partition);
  PutDoubleBits(out, result.job.times.map_ms);
  PutDoubleBits(out, result.job.times.shuffle_ms);
  PutDoubleBits(out, result.job.times.reduce_ms);
  PutVarint64(out, result.job.counters.map_input_records);
  PutVarint64(out, result.job.counters.map_output_records);
  PutVarint64(out, result.job.counters.map_output_bytes);
  PutVarint64(out, result.job.counters.reduce_input_groups);
  PutVarint64(out, result.job.counters.reduce_output_records);
  PutDoubleBits(out, result.mine_ms);
  PutDoubleBits(out, result.filter_ms);
  PutDoubleBits(out, result.total_ms);
}

RunResult DecodeRunResult(ByteReader& reader) {
  RunResult result;
  const std::string head = reader.ReadBytes(3, "run-result flags");
  const uint8_t algorithm = static_cast<uint8_t>(head[0]);
  if (algorithm > static_cast<uint8_t>(Algorithm::kSemiNaive)) {
    reader.Malformed("run-result algorithm byte out of range");
  }
  result.algorithm = static_cast<Algorithm>(algorithm);
  if (static_cast<uint8_t>(head[1]) > 1 || static_cast<uint8_t>(head[2]) > 1) {
    reader.Malformed("run-result flag byte out of range");
  }
  result.used_flat_hierarchy = head[1] != 0;
  result.aborted = head[2] != 0;
  result.patterns_mined = reader.ReadVarint64("patterns mined");
  result.patterns_emitted = reader.ReadVarint64("patterns emitted");
  result.miner_stats.candidates = reader.ReadVarint64("miner candidates");
  result.miner_stats.outputs = reader.ReadVarint64("miner outputs");
  result.gsp_stats.extended_items = reader.ReadVarint64("gsp extended items");
  result.gsp_stats.candidates = reader.ReadVarint64("gsp candidates");
  result.gsp_stats.database_scans = reader.ReadVarint64("gsp database scans");
  result.partition_shape.partitions = reader.ReadVarint64("partitions");
  result.partition_shape.total_sequences =
      reader.ReadVarint64("partition sequences");
  result.partition_shape.max_partition = reader.ReadVarint64("max partition");
  result.job.times.map_ms = ReadDoubleBits(reader, "map ms");
  result.job.times.shuffle_ms = ReadDoubleBits(reader, "shuffle ms");
  result.job.times.reduce_ms = ReadDoubleBits(reader, "reduce ms");
  result.job.counters.map_input_records =
      reader.ReadVarint64("map input records");
  result.job.counters.map_output_records =
      reader.ReadVarint64("map output records");
  result.job.counters.map_output_bytes =
      reader.ReadVarint64("map output bytes");
  result.job.counters.reduce_input_groups =
      reader.ReadVarint64("reduce input groups");
  result.job.counters.reduce_output_records =
      reader.ReadVarint64("reduce output records");
  result.mine_ms = ReadDoubleBits(reader, "mine ms");
  result.filter_ms = ReadDoubleBits(reader, "filter ms");
  result.total_ms = ReadDoubleBits(reader, "total ms");
  return result;
}

namespace {

/// Exact byte length EncodeNamedPatterns appends for `patterns`.
size_t EncodedNamedPatternsSize(const NamedPatternList& patterns) {
  size_t bytes = Varint64Size(patterns.size());
  for (const NamedPattern& pattern : patterns) {
    bytes += Varint64Size(pattern.items.size()) +
             Varint64Size(pattern.frequency);
    for (const std::string& item : pattern.items) {
      bytes += Varint64Size(item.size()) + item.size();
    }
  }
  return bytes;
}

}  // namespace

void EncodeNamedPatterns(std::string* out, const NamedPatternList& patterns) {
  out->reserve(out->size() + EncodedNamedPatternsSize(patterns));
  PutVarint64(out, patterns.size());
  for (const NamedPattern& pattern : patterns) {
    PutVarint64(out, pattern.items.size());
    for (const std::string& item : pattern.items) {
      PutVarint64(out, item.size());
      out->append(item);
    }
    PutVarint64(out, pattern.frequency);
  }
}

NamedPatternList DecodeNamedPatterns(ByteReader& reader) {
  const uint64_t count = reader.ReadVarint64("pattern count");
  NamedPatternList patterns;
  patterns.reserve(count < 4096 ? count : 4096);
  for (uint64_t p = 0; p < count; ++p) {
    NamedPattern pattern;
    const uint64_t items = reader.ReadVarint64("item count");
    pattern.items.reserve(items < 4096 ? items : 4096);
    for (uint64_t i = 0; i < items; ++i) {
      const uint64_t length = reader.ReadVarint64("item name length");
      pattern.items.push_back(reader.ReadBytes(length, "item name"));
    }
    pattern.frequency = reader.ReadVarint64("pattern frequency");
    patterns.push_back(std::move(pattern));
  }
  return patterns;
}

void EncodeFrequencyList(std::string* out,
                         const std::vector<Frequency>& frequencies) {
  PutVarint64(out, frequencies.size());
  for (Frequency frequency : frequencies) {
    PutVarint64(out, frequency);
  }
}

std::vector<Frequency> DecodeFrequencyList(ByteReader& reader) {
  const uint64_t count = reader.ReadVarint64("frequency count");
  std::vector<Frequency> frequencies;
  frequencies.reserve(count < 4096 ? count : 4096);
  for (uint64_t i = 0; i < count; ++i) {
    frequencies.push_back(reader.ReadVarint64("frequency"));
  }
  return frequencies;
}

}  // namespace lash
