#ifndef LASH_IO_IO_ERROR_H_
#define LASH_IO_IO_ERROR_H_

#include <cstdint>
#include <string_view>
#include <stdexcept>
#include <string>

#include "util/types.h"
#include "util/varint.h"

namespace lash {

/// What went wrong while decoding binary input (the snapshot of
/// io/snapshot.h, result codecs, wire frames, cache keys). One typed
/// taxonomy shared by every reader, so callers can distinguish "not this
/// format at all" (kBadMagic), "a version this reader does not read"
/// (kBadVersion), "cut short" (kTruncated), and "bit rot"
/// (kChecksumMismatch) without string matching.
enum class IoErrorKind {
  kOpenFailed,        ///< File/stream could not be opened or read.
  kTruncated,         ///< Input ended inside a field.
  kBadMagic,          ///< Leading magic does not identify the format.
  kBadVersion,        ///< Version this reader does not understand.
  kChecksumMismatch,  ///< Section bytes do not hash to the stored checksum.
  kMalformed,         ///< Structurally invalid (bad varint, bounds, counts).
  kWriteFailed,       ///< Output stream rejected a write.
};

/// Human-readable kind name ("truncated", "bad-magic", ...).
const char* IoErrorKindName(IoErrorKind kind);

/// The one error every binary reader/writer in io/ throws. Derives from
/// std::runtime_error (what the pre-hardening readers threw), so existing
/// catch sites keep working; new code can switch on `kind()` and report
/// `byte_offset()` — the position in the input at which decoding failed.
class IoError : public std::runtime_error {
 public:
  IoError(IoErrorKind kind, uint64_t byte_offset, const std::string& message)
      : std::runtime_error(std::string(IoErrorKindName(kind)) +
                           " at byte offset " + std::to_string(byte_offset) +
                           ": " + message),
        kind_(kind),
        byte_offset_(byte_offset) {}

  IoErrorKind kind() const { return kind_; }
  uint64_t byte_offset() const { return byte_offset_; }

 private:
  IoErrorKind kind_;
  uint64_t byte_offset_;
};

/// Cursor over an in-memory buffer with hardened decoding: every failure is
/// an IoError carrying the byte offset at which it happened. Shared by the
/// result codecs (io/result_io.cc), the wire decoders (net/wire.cc) and the
/// cache-key decoder (serve/task_spec.cc), so all of them fail the same way.
class ByteReader {
 public:
  /// `what` names the container in error messages ("database", "snapshot
  /// vocabulary section", ...). `base_offset` is added to reported offsets
  /// (sections of a larger file report file-absolute positions). The view
  /// may be a bounded window of a larger buffer — decoding never reads
  /// past it — and must outlive the reader.
  ByteReader(std::string_view data, std::string what, uint64_t base_offset = 0)
      : data_(data), what_(std::move(what)), base_(base_offset) {}

  size_t pos() const { return pos_; }
  bool AtEnd() const { return pos_ >= data_.size(); }

  uint32_t ReadVarint32(const char* field) {
    uint32_t value = 0;
    if (!GetVarint32(data_, &pos_, &value)) Fail(field);
    return value;
  }

  uint64_t ReadVarint64(const char* field) {
    uint64_t value = 0;
    if (!GetVarint64(data_, &pos_, &value)) Fail(field);
    return value;
  }

  /// Reads `n` raw bytes (e.g. a name) into a string.
  std::string ReadBytes(uint64_t n, const char* field) {
    if (n > data_.size() - pos_) Fail(field);
    std::string out(data_.substr(pos_, n));
    pos_ += n;
    return out;
  }

  /// Throws kMalformed at the current offset.
  [[noreturn]] void Malformed(const std::string& message) const {
    throw IoError(IoErrorKind::kMalformed, base_ + pos_,
                  what_ + ": " + message);
  }

 private:
  [[noreturn]] void Fail(const char* field) const {
    // A field that cannot be decoded at the end of the buffer is a
    // truncation; mid-buffer it is a malformed varint.
    const IoErrorKind kind = pos_ >= data_.size() ? IoErrorKind::kTruncated
                                                  : IoErrorKind::kMalformed;
    throw IoError(kind, base_ + pos_,
                  what_ + ": cannot decode " + std::string(field));
  }

  std::string_view data_;
  size_t pos_ = 0;
  std::string what_;
  uint64_t base_;
};

}  // namespace lash

#endif  // LASH_IO_IO_ERROR_H_
