#include "io/snapshot.h"

#include <cstring>
#include <deque>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "io/io_error.h"
#include "util/hash.h"

namespace lash {

namespace {

constexpr char kMagic[8] = {'L', 'A', 'S', 'H', 'S', 'N', 'A', 'P'};

// v2 section ids (see the layout comment in snapshot.h). New sections may
// be added freely (readers skip unknown ids); changing the encoding of an
// existing section requires a version bump.
enum SectionId : uint32_t {
  kVocabulary = 1,     // u32 n; u32 ends[n]; name bytes.
  kHierarchy = 2,      // u32 n; u32 parent[n] (0 = root).
  kCorpusOffsets = 3,  // u64 num_sequences; u64 offsets[num_sequences + 1].
  kFlist = 4,          // u32 n; u32 pad; u64 freq[n + 1].
  kStats = 5,          // u64 x 4.
  kRankOrder = 6,      // u32 n; u32 rank_of_raw[n + 1].
  kCorpusArena = 7,    // u64 total_items; u32 items[total_items].
};

constexpr size_t kHeaderFixedBytes = 13;   // magic + version byte + u32 count.
constexpr size_t kTableEntryBytes = 32;
constexpr size_t kSectionAlignment = 64;
constexpr uint32_t kMaxSections = 4096;    // Sanity bound on the table.

bool HostIsLittleEndian() {
  const uint32_t probe = 1;
  return *reinterpret_cast<const unsigned char*>(&probe) == 1;
}

// Byte-composed LE load/store: endian-agnostic and alignment-free (the
// compilers turn these into single loads/stores on little-endian targets).
uint32_t LoadLeU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t LoadLeU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

void AppendLeU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendLeU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// The LE file bytes of `count` integers: on little-endian hosts, a view
/// straight over the array (the zero-copy write path); elsewhere an owned
/// byteswapped copy parked in `keeper`.
template <typename T>
std::string_view ArrayBytes(const T* data, size_t count,
                            std::deque<std::string>* keeper) {
  static_assert(sizeof(T) == 4 || sizeof(T) == 8);
  if (HostIsLittleEndian()) {
    return std::string_view(reinterpret_cast<const char*>(data),
                            count * sizeof(T));
  }
  std::string owned;
  owned.reserve(count * sizeof(T));
  for (size_t i = 0; i < count; ++i) {
    if constexpr (sizeof(T) == 4) {
      AppendLeU32(&owned, static_cast<uint32_t>(data[i]));
    } else {
      AppendLeU64(&owned, static_cast<uint64_t>(data[i]));
    }
  }
  keeper->push_back(std::move(owned));
  return keeper->back();
}

uint64_t AlignUp(uint64_t offset) {
  return (offset + kSectionAlignment - 1) & ~uint64_t{kSectionAlignment - 1};
}

// ---- v2 writer -----------------------------------------------------------

struct SectionOut {
  uint32_t id = 0;
  uint32_t flags = 0;
  std::vector<std::string_view> pieces;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint64_t checksum = 0;
};

void FinishSection(SectionOut* section) {
  FnvStream sum;
  uint64_t length = 0;
  for (std::string_view piece : section->pieces) {
    sum.Update(piece.data(), piece.size());
    length += piece.size();
  }
  section->length = length;
  section->checksum = sum.Digest();
}

// ---- v2 shared section parsers ------------------------------------------
//
// Each parses one section payload that is fully in memory. With `borrow`,
// arrays are reinterpreted in place (callers guarantee a little-endian
// host and 64-byte-aligned, outliving memory — the mmap path); without it,
// elements are copied through the alignment-free LE loads (the streaming
// and big-endian paths, where `p` may be an unaligned temp buffer).

[[noreturn]] void SectionMalformed(uint64_t file_offset, const char* what,
                                   const std::string& message) {
  throw IoError(IoErrorKind::kMalformed, file_offset,
                std::string("snapshot ") + what + " section: " + message);
}

Vocabulary ParseVocabularySection(const char* p, uint64_t len,
                                  uint64_t file_offset, bool borrow) {
  if (len < 4) SectionMalformed(file_offset, "vocabulary", "too short");
  const uint64_t n = LoadLeU32(p);
  if (n > (len - 4) / 4) {
    SectionMalformed(file_offset, "vocabulary",
                     "item count exceeds section size");
  }
  const char* ends_bytes = p + 4;
  const char* blob = p + 4 + 4 * n;
  const uint64_t blob_size = len - 4 - 4 * n;
  const uint64_t total = n == 0 ? 0 : LoadLeU32(ends_bytes + 4 * (n - 1));
  if (total != blob_size) {
    SectionMalformed(file_offset, "vocabulary",
                     "name bytes disagree with offsets");
  }
  try {
    if (borrow) {
      return Vocabulary::Restore(blob, blob_size,
                                 reinterpret_cast<const uint32_t*>(ends_bytes),
                                 n, /*copy_blob=*/false);
    }
    std::vector<uint32_t> ends(n);
    for (uint64_t i = 0; i < n; ++i) ends[i] = LoadLeU32(ends_bytes + 4 * i);
    return Vocabulary::Restore(blob, blob_size, ends.data(), n,
                               /*copy_blob=*/true);
  } catch (const std::invalid_argument& e) {
    SectionMalformed(file_offset, "vocabulary", e.what());
  }
}

void ApplyHierarchySection(const char* p, uint64_t len, uint64_t file_offset,
                           Vocabulary* vocab) {
  const uint64_t n = vocab->NumItems();
  if (len != 4 + 4 * n || LoadLeU32(p) != n) {
    SectionMalformed(file_offset, "hierarchy",
                     "item count disagrees with vocabulary");
  }
  try {
    for (uint64_t id = 1; id <= n; ++id) {
      const uint32_t parent = LoadLeU32(p + 4 * id);
      if (parent != 0) {
        vocab->SetParent(static_cast<ItemId>(id), parent);
      }
    }
  } catch (const std::invalid_argument& e) {
    SectionMalformed(file_offset, "hierarchy", e.what());
  }
}

ArrayRef<Frequency> ParseFlistSection(const char* p, uint64_t len,
                                      uint64_t file_offset, size_t n,
                                      bool borrow) {
  if (len != 8 + 8 * (uint64_t{n} + 1) || LoadLeU32(p) != n) {
    SectionMalformed(file_offset, "f-list",
                     "rank count disagrees with vocabulary");
  }
  const char* array = p + 8;
  if (borrow) {
    return ArrayRef<Frequency>::Borrowed(
        reinterpret_cast<const Frequency*>(array), n + 1);
  }
  std::vector<Frequency> freq(n + 1);
  for (size_t i = 0; i <= n; ++i) freq[i] = LoadLeU64(array + 8 * i);
  return freq;
}

ArrayRef<ItemId> ParseRankOrderSection(const char* p, uint64_t len,
                                       uint64_t file_offset, size_t n,
                                       bool borrow) {
  if (len != 4 + 4 * (uint64_t{n} + 1) || LoadLeU32(p) != n) {
    SectionMalformed(file_offset, "rank-order",
                     "item count disagrees with vocabulary");
  }
  const char* array = p + 4;
  if (borrow) {
    return ArrayRef<ItemId>::Borrowed(reinterpret_cast<const ItemId*>(array),
                                      n + 1);
  }
  std::vector<ItemId> ranks(n + 1);
  for (size_t i = 0; i <= n; ++i) ranks[i] = LoadLeU32(array + 4 * i);
  return ranks;
}

DatasetStats ParseStatsSection(const char* p, uint64_t len,
                               uint64_t file_offset) {
  if (len != 32) SectionMalformed(file_offset, "stats", "wrong size");
  DatasetStats stats;
  stats.num_sequences = LoadLeU64(p);
  stats.total_items = LoadLeU64(p + 8);
  stats.max_length = LoadLeU64(p + 16);
  stats.unique_items = LoadLeU64(p + 24);
  stats.avg_length = stats.num_sequences == 0
                         ? 0.0
                         : static_cast<double>(stats.total_items) /
                               static_cast<double>(stats.num_sequences);
  return stats;
}

/// Cross-section invariants shared by every v2 load path. Corpus interior
/// checks (offset monotonicity, item ranks in range) are O(corpus bytes)
/// and run only when `check_corpus` — the copying loads; a mapped load
/// defers them to Dataset::VerifyCorpus alongside the corpus checksums.
void ValidateSnapshotSemantics(const DatasetSnapshot& snap, bool check_corpus) {
  const size_t n = snap.vocabulary.NumItems();
  auto malformed = [](const std::string& message) -> void {
    throw IoError(IoErrorKind::kMalformed, 0, "snapshot: " + message);
  };
  if (snap.freq.size() != n + 1 || snap.rank_of_raw.size() != n + 1) {
    malformed("f-list / rank-order sizes disagree with vocabulary");
  }
  if (n > 0) {
    if (snap.freq.data()[0] != 0) malformed("f-list slot 0 is not zero");
    for (size_t r = 2; r <= n; ++r) {
      // NumFrequent binary-searches the f-list assuming non-increasing
      // frequencies over ranks; a violation would silently mis-mine.
      if (snap.freq.data()[r] > snap.freq.data()[r - 1]) {
        malformed("f-list is not non-increasing over ranks");
      }
    }
    std::vector<char> seen(n + 1, 0);
    for (size_t raw = 1; raw <= n; ++raw) {
      const ItemId rank = snap.rank_of_raw.data()[raw];
      if (rank == kInvalidItem || rank > n || seen[rank]) {
        malformed("rank order is not a permutation of 1..n");
      }
      seen[rank] = 1;
    }
  }
  if (check_corpus) {
    const FlatDatabase& db = snap.ranked_corpus;
    const uint64_t* offsets = db.offset_table();
    for (size_t i = 1; i <= db.size(); ++i) {
      if (offsets[i] < offsets[i - 1]) {
        malformed("corpus offset table is not monotone");
      }
    }
    const ItemId* arena = db.arena();
    for (size_t i = 0; i < db.TotalItems(); ++i) {
      if (arena[i] == kInvalidItem || arena[i] > n) {
        malformed("corpus item rank out of range");
      }
    }
  }
}

// ---- v2 section table ----------------------------------------------------

struct V2Entry {
  uint32_t id;
  uint32_t flags;
  uint64_t offset;
  uint64_t length;
  uint64_t checksum;
};

/// Decodes and validates the table entries from their raw bytes.
/// `total_size` is the container size (for bounds); both readers know it.
std::vector<V2Entry> ParseV2Entries(const char* table, uint32_t count,
                                    uint64_t total_size) {
  std::vector<V2Entry> entries;
  entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    const char* p = table + kTableEntryBytes * i;
    V2Entry e;
    e.id = LoadLeU32(p);
    e.flags = LoadLeU32(p + 4);
    e.offset = LoadLeU64(p + 8);
    e.length = LoadLeU64(p + 16);
    e.checksum = LoadLeU64(p + 24);
    const uint64_t table_pos = kHeaderFixedBytes + kTableEntryBytes * i;
    if (e.offset % kSectionAlignment != 0) {
      throw IoError(IoErrorKind::kMalformed, table_pos,
                    "snapshot: section " + std::to_string(e.id) +
                        " does not start at a 64-byte-aligned offset");
    }
    if (e.offset > total_size || e.length > total_size - e.offset) {
      throw IoError(IoErrorKind::kTruncated, table_pos,
                    "snapshot: section " + std::to_string(e.id) +
                        " extends past end of file");
    }
    entries.push_back(e);
  }
  return entries;
}

const V2Entry* FindEntry(const std::vector<V2Entry>& entries, uint32_t id) {
  for (const V2Entry& e : entries) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

const V2Entry& RequireEntry(const std::vector<V2Entry>& entries, uint32_t id,
                            const char* what) {
  const V2Entry* e = FindEntry(entries, id);
  if (e == nullptr) {
    throw IoError(IoErrorKind::kMalformed, 0,
                  std::string("snapshot: missing required section ") + what);
  }
  return *e;
}

/// Checks the leading magic + version byte. Throws kBadMagic / kTruncated,
/// and kBadVersion for every version other than kSnapshotVersion.
void CheckMagicAndVersion(const char* data, size_t size) {
  if (size < sizeof(kMagic) ||
      std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    throw IoError(IoErrorKind::kBadMagic, 0,
                  "snapshot: not a LASHSNAP container");
  }
  if (size < sizeof(kMagic) + 1) {
    throw IoError(IoErrorKind::kTruncated, size,
                  "snapshot: cannot decode version");
  }
  const unsigned char version = static_cast<unsigned char>(data[8]);
  if (version != kSnapshotVersion) {
    throw IoError(IoErrorKind::kBadVersion, 8,
                  "snapshot: version " + std::to_string(version) +
                      " is not the supported version " +
                      std::to_string(kSnapshotVersion));
  }
}

// ---- v2 mapped reader ----------------------------------------------------

DatasetSnapshot ParseV2Mapped(const char* data, size_t size) {
  if (size < kHeaderFixedBytes) {
    throw IoError(IoErrorKind::kTruncated, size,
                  "snapshot: cannot decode section count");
  }
  const uint32_t count = LoadLeU32(data + 9);
  if (count > kMaxSections) {
    throw IoError(IoErrorKind::kMalformed, 9,
                  "snapshot: unreasonable section count");
  }
  if (kHeaderFixedBytes + uint64_t{kTableEntryBytes} * count > size) {
    throw IoError(IoErrorKind::kTruncated, size,
                  "snapshot: section table extends past end of file");
  }
  const std::vector<V2Entry> entries =
      ParseV2Entries(data + kHeaderFixedBytes, count, size);

  // Borrow only on little-endian hosts: the on-disk arrays are LE, so a BE
  // host must decode by copying (the interface stays identical).
  const bool borrow = HostIsLittleEndian();
  DatasetSnapshot snap;

  auto verify = [&](const V2Entry& e, const char* what) {
    if (FnvHashBytes(data + e.offset, e.length) != e.checksum) {
      throw IoError(IoErrorKind::kChecksumMismatch, e.offset,
                    std::string("snapshot: section ") + what +
                        " failed checksum verification");
    }
  };

  const V2Entry& ev = RequireEntry(entries, kVocabulary, "vocabulary");
  verify(ev, "vocabulary");
  snap.vocabulary =
      ParseVocabularySection(data + ev.offset, ev.length, ev.offset, borrow);
  const size_t n = snap.vocabulary.NumItems();

  const V2Entry& eh = RequireEntry(entries, kHierarchy, "hierarchy");
  verify(eh, "hierarchy");
  ApplyHierarchySection(data + eh.offset, eh.length, eh.offset,
                        &snap.vocabulary);

  const V2Entry& ef = RequireEntry(entries, kFlist, "f-list");
  verify(ef, "f-list");
  snap.freq = ParseFlistSection(data + ef.offset, ef.length, ef.offset, n,
                                borrow);

  const V2Entry& er = RequireEntry(entries, kRankOrder, "rank-order");
  verify(er, "rank-order");
  snap.rank_of_raw =
      ParseRankOrderSection(data + er.offset, er.length, er.offset, n, borrow);

  const V2Entry& es = RequireEntry(entries, kStats, "stats");
  verify(es, "stats");
  snap.stats = ParseStatsSection(data + es.offset, es.length, es.offset);

  const V2Entry& eo = RequireEntry(entries, kCorpusOffsets, "corpus-offsets");
  const V2Entry& ea = RequireEntry(entries, kCorpusArena, "corpus-arena");
  // The two corpus sections are the O(corpus bytes) ones: with the writer's
  // lazy flag and a borrowing host, their checksums are deferred to
  // Dataset::VerifyCorpus so the mapped load stays O(page faults).
  auto corpus_checksum = [&](const V2Entry& e, const char* what) {
    if (borrow && (e.flags & kSectionFlagLazyVerify) != 0) {
      snap.deferred.push_back({what, data + e.offset, e.length, e.checksum,
                               e.offset});
    } else {
      verify(e, what);
    }
  };
  corpus_checksum(eo, "corpus-offsets");
  corpus_checksum(ea, "corpus-arena");

  if (eo.length < 8 || ea.length < 8) {
    throw IoError(IoErrorKind::kMalformed, eo.offset,
                  "snapshot corpus section: too short");
  }
  const uint64_t num_sequences = LoadLeU64(data + eo.offset);
  const uint64_t total_items = LoadLeU64(data + ea.offset);
  if (num_sequences > size / 8 ||
      eo.length != 8 + 8 * (num_sequences + 1)) {
    SectionMalformed(eo.offset, "corpus-offsets",
                     "sequence count disagrees with section size");
  }
  if (total_items > size / 4 || ea.length != 8 + 4 * total_items) {
    SectionMalformed(ea.offset, "corpus-arena",
                     "item count disagrees with section size");
  }
  try {
    if (borrow) {
      snap.ranked_corpus = FlatDatabase::Borrowed(
          reinterpret_cast<const ItemId*>(data + ea.offset + 8), total_items,
          reinterpret_cast<const uint64_t*>(data + eo.offset + 8),
          num_sequences);
    } else {
      std::vector<uint64_t> offsets(num_sequences + 1);
      for (uint64_t i = 0; i <= num_sequences; ++i) {
        offsets[i] = LoadLeU64(data + eo.offset + 8 + 8 * i);
      }
      std::vector<ItemId> arena(total_items);
      for (uint64_t i = 0; i < total_items; ++i) {
        arena[i] = LoadLeU32(data + ea.offset + 8 + 4 * i);
      }
      snap.ranked_corpus =
          FlatDatabase::FromBuffers(std::move(arena), std::move(offsets));
    }
  } catch (const std::invalid_argument& e) {
    SectionMalformed(eo.offset, "corpus", e.what());
  }

  ValidateSnapshotSemantics(snap, /*check_corpus=*/!borrow);
  return snap;
}

// ---- v2 streaming (copying) reader ---------------------------------------

[[noreturn]] void StreamTruncated(const char* what) {
  throw IoError(IoErrorKind::kTruncated, 0,
                std::string("snapshot: unexpected end of file reading ") +
                    what);
}

void ReadExact(std::istream& in, char* dst, size_t size, const char* what) {
  in.read(dst, static_cast<std::streamsize>(size));
  if (static_cast<size_t>(in.gcount()) != size) StreamTruncated(what);
}

DatasetSnapshot ParseV2Stream(std::istream& in, std::streampos base) {
  // Learn the container size (the table bounds check needs it), then pick
  // each section up with an absolute seek — sections are streamed straight
  // into their destination arenas, never into a whole-file buffer.
  in.clear();
  if (!in.seekg(0, std::ios::end)) {
    throw IoError(IoErrorKind::kOpenFailed, 0,
                  "snapshot: stream is not seekable (v2 requires seeking)");
  }
  const uint64_t total_size = static_cast<uint64_t>(in.tellg() - base);

  auto seek_to = [&](uint64_t offset, const char* what) {
    in.clear();
    if (!in.seekg(base + static_cast<std::streamoff>(offset))) {
      StreamTruncated(what);
    }
  };

  seek_to(9, "section count");
  char count_bytes[4];
  ReadExact(in, count_bytes, 4, "section count");
  const uint32_t count = LoadLeU32(count_bytes);
  if (count > kMaxSections) {
    throw IoError(IoErrorKind::kMalformed, 9,
                  "snapshot: unreasonable section count");
  }
  if (kHeaderFixedBytes + uint64_t{kTableEntryBytes} * count > total_size) {
    throw IoError(IoErrorKind::kTruncated, total_size,
                  "snapshot: section table extends past end of file");
  }
  std::string table(kTableEntryBytes * count, '\0');
  ReadExact(in, table.data(), table.size(), "section table");
  const std::vector<V2Entry> entries =
      ParseV2Entries(table.data(), count, total_size);

  DatasetSnapshot snap;

  /// Reads + checksum-verifies a (small) section payload into a buffer.
  auto read_small = [&](const V2Entry& e, const char* what) {
    seek_to(e.offset, what);
    std::string payload(e.length, '\0');
    ReadExact(in, payload.data(), payload.size(), what);
    if (FnvHashBytes(payload.data(), payload.size()) != e.checksum) {
      throw IoError(IoErrorKind::kChecksumMismatch, e.offset,
                    std::string("snapshot: section ") + what +
                        " failed checksum verification");
    }
    return payload;
  };

  const V2Entry& ev = RequireEntry(entries, kVocabulary, "vocabulary");
  {
    const std::string payload = read_small(ev, "vocabulary");
    snap.vocabulary = ParseVocabularySection(payload.data(), payload.size(),
                                             ev.offset, /*borrow=*/false);
  }
  const size_t n = snap.vocabulary.NumItems();

  const V2Entry& eh = RequireEntry(entries, kHierarchy, "hierarchy");
  {
    const std::string payload = read_small(eh, "hierarchy");
    ApplyHierarchySection(payload.data(), payload.size(), eh.offset,
                          &snap.vocabulary);
  }

  const V2Entry& ef = RequireEntry(entries, kFlist, "f-list");
  {
    const std::string payload = read_small(ef, "f-list");
    snap.freq = ParseFlistSection(payload.data(), payload.size(), ef.offset,
                                  n, /*borrow=*/false);
  }

  const V2Entry& er = RequireEntry(entries, kRankOrder, "rank-order");
  {
    const std::string payload = read_small(er, "rank-order");
    snap.rank_of_raw = ParseRankOrderSection(payload.data(), payload.size(),
                                             er.offset, n, /*borrow=*/false);
  }

  const V2Entry& es = RequireEntry(entries, kStats, "stats");
  {
    const std::string payload = read_small(es, "stats");
    snap.stats = ParseStatsSection(payload.data(), payload.size(), es.offset);
  }

  // Corpus: stream the arrays straight into their destination buffers,
  // never through a whole-file buffer.
  // The checksum runs over the destination bytes as read; on big-endian
  // hosts the elements are fixed up in place afterwards.
  const V2Entry& eo = RequireEntry(entries, kCorpusOffsets, "corpus-offsets");
  const V2Entry& ea = RequireEntry(entries, kCorpusArena, "corpus-arena");
  if (eo.length < 8 || ea.length < 8) {
    throw IoError(IoErrorKind::kMalformed, eo.offset,
                  "snapshot corpus section: too short");
  }

  auto read_array_section =
      [&](const V2Entry& e, const char* what, char* dst, uint64_t dst_bytes) {
        // Caller seeked past the 8-byte count; dst_bytes == e.length - 8.
        ReadExact(in, dst, dst_bytes, what);
        FnvStream sum;
        char head[8];
        seek_to(e.offset, what);
        ReadExact(in, head, 8, what);
        sum.Update(head, 8);
        sum.Update(dst, dst_bytes);
        if (sum.Digest() != e.checksum) {
          throw IoError(IoErrorKind::kChecksumMismatch, e.offset,
                        std::string("snapshot: section ") + what +
                            " failed checksum verification");
        }
      };

  seek_to(eo.offset, "corpus-offsets");
  char head[8];
  ReadExact(in, head, 8, "corpus-offsets");
  const uint64_t num_sequences = LoadLeU64(head);
  if (num_sequences > total_size / 8 ||
      eo.length != 8 + 8 * (num_sequences + 1)) {
    SectionMalformed(eo.offset, "corpus-offsets",
                     "sequence count disagrees with section size");
  }
  std::vector<uint64_t> offsets(num_sequences + 1);
  read_array_section(eo, "corpus-offsets",
                     reinterpret_cast<char*>(offsets.data()),
                     eo.length - 8);
  if (!HostIsLittleEndian()) {
    for (uint64_t i = 0; i <= num_sequences; ++i) {
      char bytes[8];
      std::memcpy(bytes, &offsets[i], 8);
      offsets[i] = LoadLeU64(bytes);
    }
  }

  seek_to(ea.offset, "corpus-arena");
  ReadExact(in, head, 8, "corpus-arena");
  const uint64_t total_items = LoadLeU64(head);
  if (total_items > total_size / 4 || ea.length != 8 + 4 * total_items) {
    SectionMalformed(ea.offset, "corpus-arena",
                     "item count disagrees with section size");
  }
  std::vector<ItemId> arena(total_items);
  read_array_section(ea, "corpus-arena", reinterpret_cast<char*>(arena.data()),
                     ea.length - 8);
  if (!HostIsLittleEndian()) {
    for (uint64_t i = 0; i < total_items; ++i) {
      char bytes[4];
      std::memcpy(bytes, &arena[i], 4);
      arena[i] = LoadLeU32(bytes);
    }
  }

  try {
    snap.ranked_corpus =
        FlatDatabase::FromBuffers(std::move(arena), std::move(offsets));
  } catch (const std::invalid_argument& e) {
    SectionMalformed(eo.offset, "corpus", e.what());
  }

  ValidateSnapshotSemantics(snap, /*check_corpus=*/true);
  return snap;
}

}  // namespace

// ---- public API ----------------------------------------------------------

void WriteDatasetSnapshot(std::ostream& out, const DatasetSnapshot& snapshot) {
  WriteDatasetSnapshotParts(out, snapshot.vocabulary, snapshot.ranked_corpus,
                            snapshot.freq, snapshot.rank_of_raw,
                            snapshot.stats);
}

void WriteDatasetSnapshotParts(std::ostream& out, const Vocabulary& vocab,
                               const FlatDatabase& ranked_corpus,
                               const ArrayRef<Frequency>& freq,
                               const ArrayRef<ItemId>& rank_of_raw,
                               const DatasetStats& stats) {
  const size_t n = vocab.NumItems();
  if (freq.size() != n + 1 || rank_of_raw.size() != n + 1) {
    throw IoError(IoErrorKind::kMalformed, 0,
                  "snapshot: inconsistent vocabulary/f-list sizes");
  }

  // Section payloads are assembled as *views* wherever possible: the big
  // arrays (corpus arena/offsets, f-list, rank order) are checksummed and
  // written straight from their in-memory buffers — a save never
  // duplicates them. `keeper` owns the small headers (and, on big-endian
  // hosts, byteswapped array copies).
  std::deque<std::string> keeper;
  auto own = [&keeper](std::string bytes) -> std::string_view {
    keeper.push_back(std::move(bytes));
    return keeper.back();
  };

  std::vector<SectionOut> sections;

  {
    SectionOut vocab_section;
    vocab_section.id = kVocabulary;
    std::string header;
    AppendLeU32(&header, static_cast<uint32_t>(n));
    std::vector<uint32_t> ends(n);
    uint64_t cursor = 0;
    for (size_t id = 1; id <= n; ++id) {
      cursor += vocab.Name(static_cast<ItemId>(id)).size();
      ends[id - 1] = static_cast<uint32_t>(cursor);
    }
    vocab_section.pieces.push_back(own(std::move(header)));
    vocab_section.pieces.push_back(
        own(std::string(ArrayBytes(ends.data(), ends.size(), &keeper))));
    for (size_t id = 1; id <= n; ++id) {
      vocab_section.pieces.push_back(vocab.Name(static_cast<ItemId>(id)));
    }
    sections.push_back(std::move(vocab_section));
  }

  {
    SectionOut hierarchy;
    hierarchy.id = kHierarchy;
    std::string payload;
    AppendLeU32(&payload, static_cast<uint32_t>(n));
    for (size_t id = 1; id <= n; ++id) {
      ItemId parent = vocab.Parent(static_cast<ItemId>(id));
      AppendLeU32(&payload, parent == kInvalidItem ? 0 : parent);
    }
    hierarchy.pieces.push_back(own(std::move(payload)));
    sections.push_back(std::move(hierarchy));
  }

  {
    SectionOut corpus_offsets;
    corpus_offsets.id = kCorpusOffsets;
    corpus_offsets.flags = kSectionFlagLazyVerify;
    std::string header;
    AppendLeU64(&header, ranked_corpus.size());
    corpus_offsets.pieces.push_back(own(std::move(header)));
    corpus_offsets.pieces.push_back(ArrayBytes(
        ranked_corpus.offset_table(), ranked_corpus.size() + 1, &keeper));
    sections.push_back(std::move(corpus_offsets));
  }

  {
    SectionOut flist;
    flist.id = kFlist;
    std::string header;
    AppendLeU32(&header, static_cast<uint32_t>(n));
    AppendLeU32(&header, 0);  // Padding: the u64 array starts 8-aligned.
    AppendLeU64(&header, 0);  // freq slot 0, normalized.
    flist.pieces.push_back(own(std::move(header)));
    flist.pieces.push_back(ArrayBytes(freq.data() + 1, n, &keeper));
    sections.push_back(std::move(flist));
  }

  {
    SectionOut stats_section;
    stats_section.id = kStats;
    std::string payload;
    AppendLeU64(&payload, stats.num_sequences);
    AppendLeU64(&payload, stats.total_items);
    AppendLeU64(&payload, stats.max_length);
    AppendLeU64(&payload, stats.unique_items);
    stats_section.pieces.push_back(own(std::move(payload)));
    sections.push_back(std::move(stats_section));
  }

  {
    SectionOut rank_order;
    rank_order.id = kRankOrder;
    std::string header;
    AppendLeU32(&header, static_cast<uint32_t>(n));
    AppendLeU32(&header, 0);  // rank_of_raw slot 0, normalized.
    rank_order.pieces.push_back(own(std::move(header)));
    rank_order.pieces.push_back(ArrayBytes(rank_of_raw.data() + 1, n,
                                           &keeper));
    sections.push_back(std::move(rank_order));
  }

  {
    SectionOut arena;
    arena.id = kCorpusArena;
    arena.flags = kSectionFlagLazyVerify;
    std::string header;
    AppendLeU64(&header, ranked_corpus.TotalItems());
    arena.pieces.push_back(own(std::move(header)));
    arena.pieces.push_back(ArrayBytes(ranked_corpus.arena(),
                                      ranked_corpus.TotalItems(), &keeper));
    sections.push_back(std::move(arena));
  }

  // Fixed-width table: offsets are computable in one pass. Every payload
  // starts 64-byte-aligned so a page-aligned mapping yields aligned arrays.
  uint64_t offset =
      kHeaderFixedBytes + kTableEntryBytes * sections.size();
  for (SectionOut& s : sections) {
    FinishSection(&s);
    offset = AlignUp(offset);
    s.offset = offset;
    offset += s.length;
  }

  std::string header(kMagic, sizeof(kMagic));
  header.push_back(static_cast<char>(kSnapshotVersion));
  AppendLeU32(&header, static_cast<uint32_t>(sections.size()));
  for (const SectionOut& s : sections) {
    AppendLeU32(&header, s.id);
    AppendLeU32(&header, s.flags);
    AppendLeU64(&header, s.offset);
    AppendLeU64(&header, s.length);
    AppendLeU64(&header, s.checksum);
  }

  const char zeros[kSectionAlignment] = {};
  uint64_t pos = header.size();
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  for (const SectionOut& s : sections) {
    if (s.offset > pos) {
      out.write(zeros, static_cast<std::streamsize>(s.offset - pos));
      pos = s.offset;
    }
    for (std::string_view piece : s.pieces) {
      out.write(piece.data(), static_cast<std::streamsize>(piece.size()));
      pos += piece.size();
    }
  }
  if (!out) {
    throw IoError(IoErrorKind::kWriteFailed, 0, "snapshot: write failed");
  }
}

DatasetSnapshot ReadDatasetSnapshot(std::istream& in) {
  const std::streampos base = in.tellg();
  char prefix[9];
  in.read(prefix, sizeof(prefix));
  CheckMagicAndVersion(prefix, static_cast<size_t>(in.gcount()));
  return ParseV2Stream(in, base);
}

DatasetSnapshot ReadDatasetSnapshotMapped(const char* data, size_t size) {
  CheckMagicAndVersion(data, size);
  return ParseV2Mapped(data, size);
}

}  // namespace lash
