#include "net/wire.h"

#include <algorithm>

#include "io/io_error.h"
#include "util/varint.h"

namespace lash::net {

namespace {

/// 8-byte little-endian u64 (span ids cross the wire fixed-width — they are
/// opaque 64-bit tokens, not counts, so varint would only obscure them).
void PutFixed64(std::string* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

uint64_t ReadFixed64(ByteReader& reader, const char* what) {
  const auto bytes = reader.ReadBytes(8, what);
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[i])) << (8 * i);
  }
  return value;
}

/// Starts every payload: version byte + message type.
void AppendPayloadHeader(std::string* out, MessageType type) {
  out->push_back(static_cast<char>(kWireVersion));
  out->push_back(static_cast<char>(type));
}

/// The 24-byte trace header shared by kMineRequest and kCountRequest:
/// 16-byte trace id + 8-byte LE parent span. An inactive context encodes
/// as 24 zero bytes and decodes back inactive.
void AppendTraceContext(std::string* out, const obs::TraceContext& trace) {
  out->append(reinterpret_cast<const char*>(trace.trace_id.bytes.data()),
              trace.trace_id.bytes.size());
  PutFixed64(out, trace.parent_span);
}

obs::TraceContext ReadTraceContext(ByteReader& reader) {
  obs::TraceContext trace;
  const auto id = reader.ReadBytes(trace.trace_id.bytes.size(), "trace id");
  std::copy(id.begin(), id.end(),
            reinterpret_cast<char*>(trace.trace_id.bytes.data()));
  trace.parent_span = ReadFixed64(reader, "parent span");
  return trace;
}

/// Consumes and validates the payload header, returning a reader positioned
/// at the body. `expected` rejects a payload of the wrong type (a metrics
/// reply arriving where a mine reply was awaited is a protocol error, not
/// something to reinterpret).
ByteReader OpenPayload(std::string_view payload, MessageType expected,
                       const char* what) {
  ByteReader reader(payload, what);
  const uint8_t version =
      static_cast<uint8_t>(reader.ReadBytes(1, "wire version")[0]);
  if (version != kWireVersion) {
    throw IoError(IoErrorKind::kBadVersion, 0,
                  std::string(what) + ": wire version " +
                      std::to_string(version) + " (this peer understands " +
                      std::to_string(kWireVersion) + ")");
  }
  const uint8_t type =
      static_cast<uint8_t>(reader.ReadBytes(1, "message type")[0]);
  if (type != static_cast<uint8_t>(expected)) {
    reader.Malformed("unexpected message type " + std::to_string(type));
  }
  return reader;
}

[[noreturn]] void ThrowOversized(uint64_t size) {
  throw IoError(IoErrorKind::kMalformed, 0,
                "wire frame: payload of " + std::to_string(size) +
                    " bytes exceeds the " +
                    std::to_string(kMaxFramePayloadBytes) + "-byte cap");
}

}  // namespace

void AppendFrame(std::string* out, std::string_view payload) {
  if (payload.size() > kMaxFramePayloadBytes) ThrowOversized(payload.size());
  const uint32_t length = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((length >> (8 * i)) & 0xff));
  }
  out->append(payload);
}

FrameStatus TryExtractFrame(std::string* buffer, std::string* payload) {
  if (buffer->size() < kFrameHeaderBytes) return FrameStatus::kNeedMore;
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(static_cast<uint8_t>((*buffer)[i]))
              << (8 * i);
  }
  if (length > kMaxFramePayloadBytes) ThrowOversized(length);
  if (buffer->size() < kFrameHeaderBytes + length) return FrameStatus::kNeedMore;
  payload->assign(*buffer, kFrameHeaderBytes, length);
  buffer->erase(0, kFrameHeaderBytes + length);
  return FrameStatus::kFrame;
}

MessageType PeekMessageType(std::string_view payload) {
  ByteReader reader(payload, "wire payload");
  const uint8_t version =
      static_cast<uint8_t>(reader.ReadBytes(1, "wire version")[0]);
  if (version != kWireVersion) {
    throw IoError(IoErrorKind::kBadVersion, 0,
                  "wire payload: wire version " + std::to_string(version) +
                      " (this peer understands " +
                      std::to_string(kWireVersion) + ")");
  }
  const uint8_t type =
      static_cast<uint8_t>(reader.ReadBytes(1, "message type")[0]);
  if (type < static_cast<uint8_t>(MessageType::kMineRequest) ||
      type > static_cast<uint8_t>(MessageType::kCountResponse)) {
    reader.Malformed("unknown message type " + std::to_string(type));
  }
  return static_cast<MessageType>(type);
}

std::string EncodeMineRequest(const serve::TaskSpec& spec) {
  std::string payload;
  AppendPayloadHeader(&payload, MessageType::kMineRequest);
  AppendTraceContext(&payload, spec.trace);
  PutVarint64(&payload, spec.shard);
  PutDoubleBits(&payload, spec.deadline_ms);
  PutVarint64(&payload, spec.shard_sigma);
  // Dataset id 0 on the wire: the client cannot know the server's
  // process-unique dataset id, and the server re-keys against its own
  // shard ids anyway.
  payload.append(serve::EncodeCacheKey(0, spec));
  return payload;
}

MineRequest DecodeMineRequest(std::string_view payload) {
  ByteReader reader =
      OpenPayload(payload, MessageType::kMineRequest, "mine request");
  const obs::TraceContext trace = ReadTraceContext(reader);
  const uint64_t shard = reader.ReadVarint64("shard");
  const double deadline_ms = ReadDoubleBits(reader, "deadline");
  const Frequency shard_sigma = reader.ReadVarint64("shard sigma");
  MineRequest request;
  request.spec = serve::DecodeTaskSpec(payload.substr(reader.pos()));
  request.spec.shard = shard;
  request.spec.deadline_ms = deadline_ms;
  request.spec.shard_sigma = shard_sigma;
  request.spec.trace = trace;
  return request;
}

std::string EncodeMineResponse(const RunResult& run, bool cache_hit,
                               bool coalesced, double server_ms,
                               std::string_view pattern_block) {
  std::string payload;
  AppendPayloadHeader(&payload, MessageType::kMineResponse);
  payload.push_back((cache_hit ? 1 : 0) | (coalesced ? 2 : 0));
  PutDoubleBits(&payload, server_ms);
  EncodeRunResult(&payload, run);
  payload.append(pattern_block);
  return payload;
}

MineResponse DecodeMineResponse(std::string_view payload) {
  ByteReader reader = OpenPayload(payload, MessageType::kMineResponse,
                                  "mine response");
  const uint8_t flags =
      static_cast<uint8_t>(reader.ReadBytes(1, "response flags")[0]);
  if (flags > 3) reader.Malformed("response flag byte out of range");
  MineResponse response;
  response.cache_hit = (flags & 1) != 0;
  response.coalesced = (flags & 2) != 0;
  response.server_ms = ReadDoubleBits(reader, "server ms");
  response.run = DecodeRunResult(reader);
  response.patterns = DecodeNamedPatterns(reader);
  if (!reader.AtEnd()) {
    reader.Malformed("trailing bytes after mine response");
  }
  return response;
}

std::string EncodeErrorResponse(serve::ServeErrorCode code,
                                std::string_view message) {
  std::string payload;
  AppendPayloadHeader(&payload, MessageType::kErrorResponse);
  payload.push_back(static_cast<char>(code));
  PutVarint64(&payload, message.size());
  payload.append(message);
  return payload;
}

ErrorResponse DecodeErrorResponse(std::string_view payload) {
  ByteReader reader = OpenPayload(payload, MessageType::kErrorResponse,
                                  "error response");
  const uint8_t code =
      static_cast<uint8_t>(reader.ReadBytes(1, "error code")[0]);
  if (code > static_cast<uint8_t>(serve::ServeErrorCode::kExecutionFailed)) {
    reader.Malformed("error code byte out of range");
  }
  ErrorResponse error;
  error.code = static_cast<serve::ServeErrorCode>(code);
  const uint64_t length = reader.ReadVarint64("error message length");
  error.message = reader.ReadBytes(length, "error message");
  if (!reader.AtEnd()) {
    reader.Malformed("trailing bytes after error response");
  }
  return error;
}

std::string EncodeMetricsRequest() {
  std::string payload;
  AppendPayloadHeader(&payload, MessageType::kMetricsRequest);
  return payload;
}

std::string EncodeMetricsResponse(
    const std::vector<obs::MetricSample>& samples) {
  std::string payload;
  AppendPayloadHeader(&payload, MessageType::kMetricsResponse);
  PutVarint64(&payload, samples.size());
  for (const obs::MetricSample& sample : samples) {
    PutVarint64(&payload, sample.name.size());
    payload.append(sample.name);
    PutDoubleBits(&payload, sample.value);
  }
  return payload;
}

std::vector<obs::MetricSample> DecodeMetricsResponse(
    std::string_view payload) {
  ByteReader reader = OpenPayload(payload, MessageType::kMetricsResponse,
                                  "metrics response");
  const uint64_t count = reader.ReadVarint64("sample count");
  std::vector<obs::MetricSample> samples;
  // Reserve conservatively: `count` is attacker-controlled until the reads
  // below prove the payload actually holds that many samples.
  samples.reserve(std::min<uint64_t>(count, 4096));
  for (uint64_t i = 0; i < count; ++i) {
    obs::MetricSample sample;
    const uint64_t length = reader.ReadVarint64("metric name length");
    sample.name = reader.ReadBytes(length, "metric name");
    sample.value = ReadDoubleBits(reader, "metric value");
    samples.push_back(std::move(sample));
  }
  if (!reader.AtEnd()) {
    reader.Malformed("trailing bytes after metrics response");
  }
  return samples;
}

std::string EncodeCountRequest(const CountRequest& request) {
  std::string payload;
  AppendPayloadHeader(&payload, MessageType::kCountRequest);
  AppendTraceContext(&payload, request.trace);
  PutVarint64(&payload, request.shard);
  PutDoubleBits(&payload, request.deadline_ms);
  payload.push_back(request.flat ? 1 : 0);
  PutVarint32(&payload, request.gamma);
  PutVarint32(&payload, request.lambda);
  EncodeNamedPatterns(&payload, request.candidates);
  return payload;
}

CountRequest DecodeCountRequest(std::string_view payload) {
  ByteReader reader = OpenPayload(payload, MessageType::kCountRequest,
                                  "count request");
  CountRequest request;
  request.trace = ReadTraceContext(reader);
  request.shard = reader.ReadVarint64("shard");
  request.deadline_ms = ReadDoubleBits(reader, "deadline");
  const uint8_t flat = static_cast<uint8_t>(reader.ReadBytes(1, "flat")[0]);
  if (flat > 1) reader.Malformed("flat byte out of range");
  request.flat = flat != 0;
  request.gamma = reader.ReadVarint32("gamma");
  request.lambda = reader.ReadVarint32("lambda");
  request.candidates = DecodeNamedPatterns(reader);
  if (!reader.AtEnd()) {
    reader.Malformed("trailing bytes after count request");
  }
  return request;
}

std::string EncodeCountResponse(const CountResponse& response) {
  std::string payload;
  AppendPayloadHeader(&payload, MessageType::kCountResponse);
  PutDoubleBits(&payload, response.server_ms);
  EncodeFrequencyList(&payload, response.supports);
  return payload;
}

CountResponse DecodeCountResponse(std::string_view payload) {
  ByteReader reader = OpenPayload(payload, MessageType::kCountResponse,
                                  "count response");
  CountResponse response;
  response.server_ms = ReadDoubleBits(reader, "server ms");
  response.supports = DecodeFrequencyList(reader);
  if (!reader.AtEnd()) {
    reader.Malformed("trailing bytes after count response");
  }
  return response;
}

}  // namespace lash::net
