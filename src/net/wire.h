#ifndef LASH_NET_WIRE_H_
#define LASH_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include <vector>

#include "io/result_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/mining_service.h"
#include "serve/task_spec.h"

/// The length-prefixed binary wire protocol of the serving tier (ROADMAP
/// "Network tier").
///
/// Framing rule: every message is `u32 LE payload length | payload`, and
/// every payload starts `u8 wire version | u8 message type | body`. The
/// length prefix covers the payload only (not itself); a peer can therefore
/// always read exactly 4 bytes, then exactly `length` bytes, with no
/// scanning or resynchronization. Frames above kMaxFramePayloadBytes and
/// payloads whose version byte is not kWireVersion are protocol errors — the
/// receiving side drops the connection rather than guessing.
///
/// Bodies reuse the repo's existing canonical encodings: a mine request
/// carries EncodeCacheKey bytes verbatim (serve/task_spec.h — the same bytes
/// that key the result cache key the wire), results use io/result_io.h, and
/// everything multi-byte is varint or 8-byte-LE double bits. All decoders go
/// through ByteReader, so malformed and truncated frames surface as the
/// typed IoError of io/io_error.h.
namespace lash::net {

/// Bump when any payload layout changes — a new field costs one bump, not a
/// new message type, since every client lives in this repository. Byte 0 of
/// every payload.
inline constexpr uint8_t kWireVersion = 2;

/// Frame header: the u32 little-endian payload length.
inline constexpr size_t kFrameHeaderBytes = 4;

/// Hard cap on one payload (defense against hostile/garbage length
/// prefixes; also the practical bound on one response's pattern stream).
inline constexpr uint32_t kMaxFramePayloadBytes = 256u << 20;

/// Byte 1 of every payload, numbered densely from 1. A type byte outside
/// [kMineRequest, kCountResponse] is malformed — keep kCountResponse last
/// or widen the check in PeekMessageType.
enum class MessageType : uint8_t {
  kMineRequest = 1,
  kMineResponse = 2,
  kErrorResponse = 3,
  kMetricsRequest = 4,
  kMetricsResponse = 5,
  /// Phase 2 of the router's two-phase candidate/count protocol: "here are
  /// named candidate patterns — return this shard's exact support of each".
  /// Counting needs no mining, just hierarchy-aware (γ, λ)-matching against
  /// the shard corpus (serve/support_count.h).
  kCountRequest = 6,
  /// Index-aligned exact supports for one kCountRequest.
  kCountResponse = 7,
};

/// Appends `payload` to `out` as one frame (length prefix + payload).
/// Throws IoError kMalformed if the payload exceeds kMaxFramePayloadBytes.
void AppendFrame(std::string* out, std::string_view payload);

/// Result of TryExtractFrame.
enum class FrameStatus {
  kNeedMore,  ///< `buffer` does not yet hold a complete frame.
  kFrame,     ///< One payload extracted; its bytes were consumed.
};

/// Extracts the next complete frame from the front of `buffer`. On kFrame,
/// `*payload` receives the payload bytes and the frame is erased from
/// `buffer`. Throws IoError kMalformed as soon as the length prefix exceeds
/// kMaxFramePayloadBytes (before the oversized payload is buffered).
FrameStatus TryExtractFrame(std::string* buffer, std::string* payload);

/// Validates the version byte of `payload` and returns its message type.
/// Throws IoError kBadVersion / kTruncated / kMalformed.
MessageType PeekMessageType(std::string_view payload);

/// A mining request as it crosses the wire. The spec carries the target
/// shard, the client-side deadline, the trace context, the router's shard-σ
/// override, and the canonical cache-key fields. Execution-shape knobs
/// (threads, job config) deliberately do not cross the wire — they are the
/// *server's* resources to shape, exactly as they are excluded from the
/// cache key.
struct MineRequest {
  serve::TaskSpec spec;
};

/// Payload of one kMineRequest, every field always present:
///
///   24B trace context | varint shard | LE-double deadline |
///   varint shard_sigma | EncodeCacheKey(0, spec)
///
/// An inactive trace travels as 24 zero bytes and no override as
/// `shard_sigma = 0`; both decode back to the defaults. Trace, shard,
/// deadline and shard_sigma sit outside the cache-key bytes, so none of
/// them changes what a request hits or coalesces with.
std::string EncodeMineRequest(const serve::TaskSpec& spec);

/// Decodes a kMineRequest payload (re-checks version and type; a strict
/// prefix or trailing bytes are typed IoErrors).
MineRequest DecodeMineRequest(std::string_view payload);

/// A successful mining answer: the run summary, the serving-layer
/// provenance bits, and the pattern stream in canonical wire order.
struct MineResponse {
  RunResult run;
  bool cache_hit = false;
  bool coalesced = false;
  double server_ms = 0;  ///< Submit → resolve latency inside the service.
  NamedPatternList patterns;
};

/// The one mine-response encoder:
///
///   u8 flags (1 = cache hit, 2 = coalesced) | LE-double server_ms |
///   EncodeRunResult(run) | pattern_block
///
/// `pattern_block` is spliced verbatim and must be one EncodeNamedPatterns
/// byte string in canonical order. A worker passes its cache entry's block
/// (serve::Response::pattern_block()), so a hit names and encodes nothing;
/// the router encodes its merged list into a block first.
std::string EncodeMineResponse(const RunResult& run, bool cache_hit,
                               bool coalesced, double server_ms,
                               std::string_view pattern_block);
MineResponse DecodeMineResponse(std::string_view payload);

/// A typed failure. The code survives the wire, so a client distinguishes
/// deadline_exceeded from queue_full without string matching — the same
/// contract ServeError gives in-process callers.
struct ErrorResponse {
  serve::ServeErrorCode code = serve::ServeErrorCode::kExecutionFailed;
  std::string message;
};

std::string EncodeErrorResponse(serve::ServeErrorCode code,
                                std::string_view message);
ErrorResponse DecodeErrorResponse(std::string_view payload);

/// Payload of one kMetricsRequest (no body).
std::string EncodeMetricsRequest();

/// Payload of one kMetricsResponse: a MetricsRegistry snapshot as a flat
/// sample list (the serving tier's one telemetry RPC) — `varint count`, then per sample `varint name length | name
/// bytes | 8-byte LE double bits`. Samples keep the registry's sorted-by-
/// name order.
std::string EncodeMetricsResponse(const std::vector<obs::MetricSample>& samples);
std::vector<obs::MetricSample> DecodeMetricsResponse(std::string_view payload);

/// One support-counting request (phase 2 of the router's two-phase
/// protocol): count the exact (γ, λ)-support of each named candidate on
/// one shard. The match parameters travel explicitly — counting is not
/// mining, so there is no cache key to reuse — and the candidates ride the
/// canonical EncodeNamedPatterns layout with frequency 0.
struct CountRequest {
  /// Trace context (always present on the wire; 24 zero bytes = inactive).
  obs::TraceContext trace{};
  /// Which Dataset shard of the worker answers (0 for single-shard workers).
  size_t shard = 0;
  /// Milliseconds from receipt (0 = none); checked before each block of
  /// transactions the worker counts.
  double deadline_ms = 0;
  /// Count in the flat rank space (the canonicalized `flat || MgFsm` bit
  /// of the mine spec, i.e. RunResult::used_flat_hierarchy).
  bool flat = false;
  uint32_t gamma = 0;
  uint32_t lambda = 0;
  /// Candidate patterns by item names; frequencies are ignored.
  NamedPatternList candidates;
};

/// One shard's exact answer: `supports[i]` is the support of
/// `request.candidates[i]` (index-aligned; unknown item names count 0).
struct CountResponse {
  double server_ms = 0;  ///< Receipt → reply inside the worker.
  std::vector<Frequency> supports;
};

std::string EncodeCountRequest(const CountRequest& request);
CountRequest DecodeCountRequest(std::string_view payload);

std::string EncodeCountResponse(const CountResponse& response);
CountResponse DecodeCountResponse(std::string_view payload);

}  // namespace lash::net

#endif  // LASH_NET_WIRE_H_
