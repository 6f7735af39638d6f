// Tests of the network serving tier: the TaskSpec codec (DecodeTaskSpec as
// the inverse of EncodeCacheKey), the framed wire protocol (net/wire.h),
// the result serialization (io/result_io.h), and — on Linux, where the
// epoll server exists — end-to-end loopback parity for all six algorithms,
// the two-shard router merge vs the union corpus, and the typed fault
// paths (dead worker, client timeout, malformed frame).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/lash_api.h"
#include "datagen/corpus_recipes.h"
#include "io/io_error.h"
#include "io/result_io.h"
#include "net/client.h"
#include "net/router.h"
#include "net/server.h"
#include "net/service_backend.h"
#include "net/socket.h"
#include "net/wire.h"
#include "serve/mining_service.h"
#include "serve/support_count.h"
#include "serve/task_spec.h"
#include "test_util.h"

#ifdef __linux__
#include <poll.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>
#endif

namespace lash::net {
namespace {

using serve::ServeError;
using serve::ServeErrorCode;
using serve::TaskSpec;

constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kSequential, Algorithm::kLash,  Algorithm::kMgFsm,
    Algorithm::kGsp,        Algorithm::kNaive, Algorithm::kSemiNaive,
};

TaskSpec PaperSpec(Algorithm algorithm) {
  TaskSpec spec;
  spec.algorithm = algorithm;
  spec.params = {.sigma = 2, .gamma = 1, .lambda = 3};
  return spec;
}

/// A MineResponse through the one mine-response encoder: its patterns are
/// encoded into a block first, exactly as the router does.
std::string EncodeSpliced(const MineResponse& response) {
  std::string block;
  EncodeNamedPatterns(&block, response.patterns);
  return EncodeMineResponse(response.run, response.cache_hit,
                            response.coalesced, response.server_ms, block);
}

// ---- TaskSpec codec -------------------------------------------------------

TEST(TaskSpecCodec, RoundTripsEveryCoveredKnobCombination) {
  for (Algorithm algorithm : kAllAlgorithms) {
    for (PatternFilter filter : {PatternFilter::kNone, PatternFilter::kClosed,
                                 PatternFilter::kMaximal}) {
      for (size_t top_k : {size_t{0}, size_t{17}}) {
        for (bool engage_optionals : {false, true}) {
          TaskSpec spec = PaperSpec(algorithm);
          spec.filter = filter;
          spec.top_k = top_k;
          spec.flat = algorithm == Algorithm::kSequential && top_k == 0;
          if (engage_optionals) {
            spec.miner = MinerKind::kBfs;
            spec.rewrite = RewriteLevel::kGeneralizeOnly;
            spec.combiner = false;
          }
          spec.limits.max_emitted_records = 12345;

          const std::string key = serve::EncodeCacheKey(42, spec);
          uint64_t dataset_id = 0;
          const TaskSpec decoded = serve::DecodeTaskSpec(key, &dataset_id);
          EXPECT_EQ(dataset_id, 42u);
          EXPECT_EQ(decoded.algorithm, spec.algorithm);
          EXPECT_EQ(decoded.params.sigma, spec.params.sigma);
          EXPECT_EQ(decoded.params.gamma, spec.params.gamma);
          EXPECT_EQ(decoded.params.lambda, spec.params.lambda);
          EXPECT_EQ(decoded.filter, spec.filter);
          EXPECT_EQ(decoded.top_k, spec.top_k);
          EXPECT_EQ(decoded.miner, spec.miner);
          EXPECT_EQ(decoded.rewrite, spec.rewrite);
          EXPECT_EQ(decoded.combiner, spec.combiner);
          // Canonicalizing-stable: re-encoding reproduces the key bytes.
          EXPECT_EQ(serve::EncodeCacheKey(42, decoded), key);
        }
      }
    }
  }
}

TEST(TaskSpecCodec, ExecutionShapeKnobsDoNotSurvive) {
  TaskSpec spec = PaperSpec(Algorithm::kLash);
  spec.shard = 3;
  spec.threads = 7;
  spec.job_config.num_map_tasks = 11;
  spec.deadline_ms = 1500;
  spec.shard_sigma = 9;
  const TaskSpec decoded =
      serve::DecodeTaskSpec(serve::EncodeCacheKey(0, spec));
  EXPECT_EQ(decoded.shard, 0u);
  EXPECT_EQ(decoded.threads, 0u);
  EXPECT_EQ(decoded.deadline_ms, 0.0);
  EXPECT_EQ(decoded.shard_sigma, 0u);
  EXPECT_EQ(decoded.job_config.num_map_tasks, TaskSpec{}.job_config.num_map_tasks);
  // And the key bytes themselves are invariant under the override — how a
  // router gathers candidates must not change what a worker's answer hits
  // or coalesces with.
  TaskSpec plain = PaperSpec(Algorithm::kLash);
  TaskSpec overridden = plain;
  overridden.shard_sigma = 9;
  EXPECT_EQ(serve::EncodeCacheKey(0, overridden),
            serve::EncodeCacheKey(0, plain));
}

TEST(TaskSpecCodec, EveryStrictPrefixThrowsTypedError) {
  TaskSpec spec = PaperSpec(Algorithm::kSemiNaive);  // Includes the emit cap.
  spec.miner = MinerKind::kPsmIndex;
  spec.combiner = true;
  const std::string key = serve::EncodeCacheKey(7, spec);
  for (size_t len = 0; len < key.size(); ++len) {
    EXPECT_THROW(serve::DecodeTaskSpec(key.substr(0, len)), IoError)
        << "prefix of length " << len << " did not throw";
  }
  EXPECT_NO_THROW(serve::DecodeTaskSpec(key));
}

TEST(TaskSpecCodec, RejectsBadVersionEnumAndTrailingGarbage) {
  const std::string key = serve::EncodeCacheKey(0, PaperSpec(Algorithm::kGsp));

  std::string bad_version = key;
  bad_version[0] = 99;
  try {
    serve::DecodeTaskSpec(bad_version);
    FAIL() << "bad version accepted";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kBadVersion);
  }

  // Byte 2 (after version + varint dataset id 0) is the algorithm.
  std::string bad_algorithm = key;
  bad_algorithm[2] = 17;
  try {
    serve::DecodeTaskSpec(bad_algorithm);
    FAIL() << "bad algorithm byte accepted";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kMalformed);
  }

  try {
    serve::DecodeTaskSpec(key + "x");
    FAIL() << "trailing garbage accepted";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kMalformed);
  }
}

// ---- Framing --------------------------------------------------------------

TEST(WireFraming, FrameRoundTripsByteByByte) {
  std::string wire;
  AppendFrame(&wire, "hello");
  AppendFrame(&wire, "");  // Empty payloads are legal frames.

  std::string buffer, payload;
  std::vector<std::string> frames;
  for (char byte : wire) {
    buffer.push_back(byte);
    while (TryExtractFrame(&buffer, &payload) == FrameStatus::kFrame) {
      frames.push_back(payload);
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], "hello");
  EXPECT_EQ(frames[1], "");
  EXPECT_TRUE(buffer.empty());
}

TEST(WireFraming, ExtractsBackToBackFrames) {
  std::string buffer;
  AppendFrame(&buffer, "one");
  AppendFrame(&buffer, "two");
  std::string payload;
  ASSERT_EQ(TryExtractFrame(&buffer, &payload), FrameStatus::kFrame);
  EXPECT_EQ(payload, "one");
  ASSERT_EQ(TryExtractFrame(&buffer, &payload), FrameStatus::kFrame);
  EXPECT_EQ(payload, "two");
  EXPECT_EQ(TryExtractFrame(&buffer, &payload), FrameStatus::kNeedMore);
}

TEST(WireFraming, OversizedLengthPrefixThrowsBeforeBuffering) {
  // A 4GiB-1 length prefix: the receiver must throw on the header alone,
  // without waiting for (or allocating) the announced payload.
  std::string buffer("\xff\xff\xff\xff", 4);
  std::string payload;
  try {
    TryExtractFrame(&buffer, &payload);
    FAIL() << "oversized frame accepted";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kMalformed);
  }
}

// ---- Message payloads -----------------------------------------------------

TEST(WireMessages, MineRequestRoundTripsEveryField) {
  // One mine request carries every field on every request: the trace
  // context (24 zero bytes when inactive) and the shard-σ override (0 when
  // unset) are always on the wire, so the active/inactive and zero/non-zero
  // cases are four instances of the same layout.
  for (bool traced : {false, true}) {
    for (Frequency shard_sigma : {Frequency{0}, Frequency{7}}) {
      TaskSpec spec = PaperSpec(Algorithm::kLash);
      spec.shard = 2;
      spec.deadline_ms = 750.5;
      spec.top_k = 9;
      spec.shard_sigma = shard_sigma;
      if (traced) {
        spec.trace.trace_id = obs::TraceId::Make();
        spec.trace.parent_span = 0xdeadbeefcafef00dULL;
      }
      SCOPED_TRACE(std::string(traced ? "traced" : "untraced") +
                   ", shard_sigma " + std::to_string(shard_sigma));

      const std::string payload = EncodeMineRequest(spec);
      EXPECT_EQ(PeekMessageType(payload), MessageType::kMineRequest);
      const MineRequest decoded = DecodeMineRequest(payload);
      EXPECT_EQ(decoded.spec.trace.active(), traced);
      EXPECT_EQ(decoded.spec.trace.trace_id, spec.trace.trace_id);
      EXPECT_EQ(decoded.spec.trace.parent_span, spec.trace.parent_span);
      EXPECT_EQ(decoded.spec.shard, 2u);
      EXPECT_EQ(decoded.spec.deadline_ms, 750.5);
      EXPECT_EQ(decoded.spec.shard_sigma, shard_sigma);
      EXPECT_EQ(decoded.spec.algorithm, Algorithm::kLash);
      EXPECT_EQ(decoded.spec.top_k, 9u);
      EXPECT_EQ(decoded.spec.params.sigma, 2u);
      // Re-encoding the decoded request reproduces the payload bytes.
      EXPECT_EQ(EncodeMineRequest(decoded.spec), payload);

      // Every strict prefix is a typed decode error, and so is trailing junk.
      for (size_t len = 0; len < payload.size(); ++len) {
        EXPECT_THROW(DecodeMineRequest(payload.substr(0, len)), IoError)
            << "prefix of length " << len << " did not throw";
      }
      EXPECT_THROW(DecodeMineRequest(payload + "x"), IoError);
    }
  }
}

TEST(WireMessages, MineRequestRejectsOldVersionsAndUnknownTypes) {
  const std::string payload =
      EncodeMineRequest(PaperSpec(Algorithm::kSequential));
  // A version-1 payload (the retired multi-encoding protocol) is refused
  // by its version byte, before any body byte is read.
  std::string v1 = payload;
  v1[0] = 1;
  for (auto decode : {+[](std::string_view p) { PeekMessageType(p); },
                      +[](std::string_view p) { DecodeMineRequest(p); }}) {
    try {
      decode(v1);
      FAIL() << "version-1 payload accepted";
    } catch (const IoError& e) {
      EXPECT_EQ(e.kind(), IoErrorKind::kBadVersion);
    }
  }
  // Type bytes outside the dense [kMineRequest, kCountResponse] range are
  // malformed.
  for (uint8_t type : {uint8_t{0},
                       static_cast<uint8_t>(
                           static_cast<uint8_t>(MessageType::kCountResponse) +
                           1),
                       uint8_t{0xff}}) {
    std::string bad = payload;
    bad[1] = static_cast<char>(type);
    try {
      PeekMessageType(bad);
      FAIL() << "type byte " << int{type} << " accepted";
    } catch (const IoError& e) {
      EXPECT_EQ(e.kind(), IoErrorKind::kMalformed);
    }
    EXPECT_THROW(DecodeMineRequest(bad), IoError);
  }
}

TEST(WireMessages, MineResponseRoundTrip) {
  MineResponse response;
  response.run.algorithm = Algorithm::kMgFsm;
  response.run.used_flat_hierarchy = true;
  response.run.patterns_mined = 120;
  response.run.patterns_emitted = 2;
  response.run.mine_ms = 3.25;
  response.run.total_ms = 4.5;
  response.cache_hit = true;
  response.server_ms = 0.125;
  response.patterns = {{{"a", "B"}, 3}, {{"a"}, 2}};

  const std::string payload = EncodeSpliced(response);
  EXPECT_EQ(PeekMessageType(payload), MessageType::kMineResponse);
  // The spliced block is the payload's tail, byte for byte.
  std::string block;
  EncodeNamedPatterns(&block, response.patterns);
  ASSERT_GE(payload.size(), block.size());
  EXPECT_EQ(payload.substr(payload.size() - block.size()), block);
  const MineResponse decoded = DecodeMineResponse(payload);
  EXPECT_TRUE(decoded.cache_hit);
  EXPECT_FALSE(decoded.coalesced);
  EXPECT_EQ(decoded.server_ms, 0.125);
  EXPECT_EQ(decoded.patterns, response.patterns);
  EXPECT_EQ(decoded.run.algorithm, Algorithm::kMgFsm);
  EXPECT_TRUE(decoded.run.used_flat_hierarchy);
  EXPECT_EQ(decoded.run.patterns_mined, 120u);
  EXPECT_EQ(decoded.run.mine_ms, 3.25);
  // Re-encoding the decoded response reproduces the payload bytes — every
  // transmitted RunResult field round-trips.
  EXPECT_EQ(EncodeSpliced(decoded), payload);
  // Every strict prefix and any trailing byte is a typed error.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_THROW(DecodeMineResponse(std::string_view(payload).substr(0, cut)),
                 IoError)
        << "prefix " << cut;
  }
  EXPECT_THROW(DecodeMineResponse(payload + '\0'), IoError);
}

TEST(WireMessages, ErrorRoundTrip) {
  const std::string error_payload =
      EncodeErrorResponse(ServeErrorCode::kQueueFull, "try later");
  EXPECT_EQ(PeekMessageType(error_payload), MessageType::kErrorResponse);
  const ErrorResponse error = DecodeErrorResponse(error_payload);
  EXPECT_EQ(error.code, ServeErrorCode::kQueueFull);
  EXPECT_EQ(error.message, "try later");
}

TEST(WireMessages, CountRequestRoundTripAndTruncationMatrix) {
  CountRequest request;
  request.trace.trace_id = obs::TraceId::Make();
  request.trace.parent_span = 0xdeadbeef12345678ULL;
  request.shard = 3;
  request.deadline_ms = 125.5;
  request.flat = true;
  request.gamma = 2;
  request.lambda = 5;
  request.candidates = {{{"a", "B"}, 0}, {{"c"}, 0}, {{"d1", "e", "f"}, 0}};

  const std::string payload = EncodeCountRequest(request);
  EXPECT_EQ(PeekMessageType(payload), MessageType::kCountRequest);
  const CountRequest decoded = DecodeCountRequest(payload);
  EXPECT_EQ(decoded.trace.trace_id, request.trace.trace_id);
  EXPECT_EQ(decoded.trace.parent_span, request.trace.parent_span);
  EXPECT_EQ(decoded.shard, 3u);
  EXPECT_EQ(decoded.deadline_ms, 125.5);
  EXPECT_TRUE(decoded.flat);
  EXPECT_EQ(decoded.gamma, 2u);
  EXPECT_EQ(decoded.lambda, 5u);
  EXPECT_EQ(decoded.candidates, request.candidates);
  // Re-encoding the decoded request reproduces the payload bytes.
  EXPECT_EQ(EncodeCountRequest(decoded), payload);

  // Every strict prefix is a typed decode error, and so is trailing junk.
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_THROW(DecodeCountRequest(payload.substr(0, len)), IoError)
        << "prefix of length " << len << " did not throw";
  }
  EXPECT_THROW(DecodeCountRequest(payload + "x"), IoError);
}

TEST(WireMessages, CountResponseRoundTripAndTruncationMatrix) {
  CountResponse response;
  response.server_ms = 1.75;
  response.supports = {4, 0, 123456789012ULL};

  const std::string payload = EncodeCountResponse(response);
  EXPECT_EQ(PeekMessageType(payload), MessageType::kCountResponse);
  const CountResponse decoded = DecodeCountResponse(payload);
  EXPECT_EQ(decoded.server_ms, 1.75);
  EXPECT_EQ(decoded.supports, response.supports);
  EXPECT_EQ(EncodeCountResponse(decoded), payload);

  // The empty support list is legal (a count of zero candidates).
  EXPECT_TRUE(DecodeCountResponse(EncodeCountResponse(CountResponse{}))
                  .supports.empty());

  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_THROW(DecodeCountResponse(payload.substr(0, len)), IoError)
        << "prefix of length " << len << " did not throw";
  }
  EXPECT_THROW(DecodeCountResponse(payload + "x"), IoError);
}

TEST(WireMessages, MetricsMessagesRoundTrip) {
  EXPECT_EQ(PeekMessageType(EncodeMetricsRequest()),
            MessageType::kMetricsRequest);

  const std::vector<obs::MetricSample> samples = {
      {"serve.requests.submitted", 12},
      {"serve.latency.hit_ms.p95_ms", 0.256},
      {"net.server.bytes_in", 1.5e9},
  };
  const std::string payload = EncodeMetricsResponse(samples);
  EXPECT_EQ(PeekMessageType(payload), MessageType::kMetricsResponse);
  const std::vector<obs::MetricSample> decoded =
      DecodeMetricsResponse(payload);
  ASSERT_EQ(decoded.size(), samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(decoded[i].name, samples[i].name);
    EXPECT_EQ(decoded[i].value, samples[i].value);
  }

  // The empty snapshot is a legal response (a router with no registry).
  EXPECT_TRUE(DecodeMetricsResponse(EncodeMetricsResponse({})).empty());
  // Truncation and trailing garbage are typed decode errors.
  EXPECT_THROW(DecodeMetricsResponse(
                   std::string_view(payload).substr(0, payload.size() - 3)),
               IoError);
  EXPECT_THROW(DecodeMetricsResponse(payload + "x"), IoError);
}

TEST(WireMessages, MalformedPayloadsThrow) {
  // Wrong type for the decoder.
  EXPECT_THROW(DecodeMineResponse(EncodeMetricsRequest()), IoError);
  EXPECT_THROW(DecodeMineRequest(EncodeMetricsRequest()), IoError);
  // Unknown wire version.
  std::string bad_version = EncodeMetricsRequest();
  bad_version[0] = 9;
  try {
    PeekMessageType(bad_version);
    FAIL() << "bad wire version accepted";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kBadVersion);
  }
  // Truncated mid-message.
  const std::string response = EncodeSpliced(MineResponse{});
  EXPECT_THROW(DecodeMineResponse(
                   std::string_view(response).substr(0, response.size() - 1)),
               IoError);
  // Empty payload.
  EXPECT_THROW(PeekMessageType(""), IoError);
}

// ---- Canonical pattern order ----------------------------------------------

TEST(ResultIo, CanonicalOrderIsDescFrequencyThenLexItems) {
  NamedPatternList patterns = {
      {{"b"}, 2}, {{"a", "c"}, 5}, {{"a", "b"}, 5}, {{"a"}, 2}};
  SortNamedPatterns(&patterns);
  const NamedPatternList expected = {
      {{"a", "b"}, 5}, {{"a", "c"}, 5}, {{"a"}, 2}, {{"b"}, 2}};
  EXPECT_EQ(patterns, expected);
  // The merge key ignores frequency and is injective on item vectors.
  EXPECT_EQ(NamedPatternKey({{"a", "b"}, 5}), NamedPatternKey({{"a", "b"}, 9}));
  EXPECT_NE(NamedPatternKey({{"a", "b"}, 5}), NamedPatternKey({{"ab"}, 5}));
}

#ifdef __linux__

// ---- Loopback end-to-end --------------------------------------------------

/// A server on its own thread, bound to an ephemeral loopback port.
struct TestServer {
  explicit TestServer(Backend* backend, ServerOptions options = {})
      : server(std::move(options), backend),
        thread([this] { server.Run(); }) {}
  ~TestServer() {
    server.Shutdown();
    thread.join();
  }
  uint16_t port() const { return server.port(); }

  NetServer server;
  std::thread thread;
};

class NetLoopbackTest : public ::testing::Test {
 protected:
  NetLoopbackTest() : dataset_(Dataset::FromMemory(ex_.raw_db, ex_.vocab)) {}

  /// Canonical wire bytes of the in-process answer for `spec` — the parity
  /// baseline both network paths must reproduce exactly.
  std::string BaselineBytes(const TaskSpec& spec) {
    serve::MiningService service(dataset_);
    const serve::Response response = service.Submit(spec).Get();
    std::string bytes;
    EncodeNamedPatterns(&bytes,
                        NamePatterns(dataset_, response.patterns(),
                                     response.run().used_flat_hierarchy));
    return bytes;
  }

  static std::string Bytes(const NamedPatternList& patterns) {
    std::string bytes;
    EncodeNamedPatterns(&bytes, patterns);
    return bytes;
  }

  testing::PaperExample ex_;
  Dataset dataset_;
};

TEST_F(NetLoopbackTest, AllSixAlgorithmsAreByteIdenticalOverTheWire) {
  ServiceBackend backend({&dataset_}, serve::ServiceOptions{});
  TestServer server(&backend);
  NetClient client("127.0.0.1", server.port());
  for (Algorithm algorithm : kAllAlgorithms) {
    const TaskSpec spec = PaperSpec(algorithm);
    const MineReply reply = client.Mine(spec);
    EXPECT_EQ(Bytes(reply.patterns), BaselineBytes(spec))
        << "algorithm " << static_cast<int>(algorithm);
    EXPECT_EQ(reply.run.algorithm, algorithm);
  }
}

TEST_F(NetLoopbackTest, SecondRequestHitsTheCacheAndStatsTravel) {
  ServiceBackend backend({&dataset_}, serve::ServiceOptions{});
  TestServer server(&backend);
  NetClient client("127.0.0.1", server.port());

  const TaskSpec spec = PaperSpec(Algorithm::kSequential);
  const MineReply cold = client.Mine(spec);
  EXPECT_FALSE(cold.cache_hit);
  const MineReply hit = client.Mine(spec);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(Bytes(hit.patterns), Bytes(cold.patterns));

  // The service's counters travel over the metrics RPC.
  std::map<std::string, double> metrics;
  for (const obs::MetricSample& sample : client.Metrics()) {
    metrics[sample.name] = sample.value;
  }
  EXPECT_EQ(metrics["serve.requests.submitted"], 2.0);
  EXPECT_EQ(metrics["serve.requests.hits"], 1.0);
  EXPECT_EQ(metrics["serve.requests.misses"], 1.0);
  EXPECT_EQ(metrics["serve.cache.entries"], 1.0);
}

/// A raw loopback connection that speaks frames but decodes nothing, so a
/// test can compare reply payloads byte for byte.
class RawConnection {
 public:
  explicit RawConnection(uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        fd_ >= 0 &&
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  bool connected() const { return connected_; }

  bool Send(std::string_view payload) {
    std::string frame;
    AppendFrame(&frame, payload);
    return ::send(fd_, frame.data(), frame.size(), 0) ==
           static_cast<ssize_t>(frame.size());
  }

  /// Blocks until one whole reply frame arrived; "" if the peer closed.
  std::string Receive() {
    std::string buffer, payload;
    char chunk[4096];
    while (TryExtractFrame(&buffer, &payload) == FrameStatus::kNeedMore) {
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got <= 0) return "";
      buffer.append(chunk, static_cast<size_t>(got));
    }
    return payload;
  }

 private:
  int fd_;
  bool connected_ = false;
};

/// The pattern block of a kMineResponse payload: every byte after the run
/// summary.
std::string PatternBlockOf(std::string_view payload) {
  ByteReader reader(payload, "mine response");
  reader.ReadBytes(3, "header and flags");
  ReadDoubleBits(reader, "server ms");
  DecodeRunResult(reader);
  return std::string(payload.substr(reader.pos()));
}

TEST_F(NetLoopbackTest, MissHitAndCoalescedRepliesSpliceOneBlock) {
  // The executor is held at the mine stage until a second request for the
  // same spec has coalesced onto the execution; a third request then hits
  // the filled entry. All three replies must carry the same block bytes,
  // and those must be the in-process canonical bytes.
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> executions{0};
  serve::ServiceOptions options;
  options.executor_threads = 1;
  options.pre_execute_hook = [&](const TaskSpec&) {
    if (executions.fetch_add(1) == 0) entered.set_value();
    released.wait();
  };
  ServiceBackend backend({&dataset_}, std::move(options));
  TestServer server(&backend);

  const TaskSpec spec = PaperSpec(Algorithm::kLash);
  const std::string request = EncodeMineRequest(spec);
  RawConnection leader(server.port());
  RawConnection joiner(server.port());
  {
    // Releases the executor on every exit from this scope, so a failed
    // assertion cannot leave it parked in the hook while the backend
    // drains.
    struct ReleaseOnExit {
      std::promise<void>* release;
      ~ReleaseOnExit() { release->set_value(); }
    } release_on_exit{&release};
    ASSERT_TRUE(leader.connected() && joiner.connected());
    ASSERT_TRUE(leader.Send(request));
    entered.get_future().wait();
    ASSERT_TRUE(joiner.Send(request));
    for (int i = 0; i < 10000 && backend.service().Stats().coalesced < 1;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(backend.service().Stats().coalesced, 1u);
  }
  const std::string miss = leader.Receive();
  const std::string coalesced = joiner.Receive();

  RawConnection late(server.port());
  ASSERT_TRUE(late.connected());
  ASSERT_TRUE(late.Send(request));
  const std::string hit = late.Receive();

  ASSERT_EQ(PeekMessageType(miss), MessageType::kMineResponse);
  ASSERT_EQ(PeekMessageType(coalesced), MessageType::kMineResponse);
  ASSERT_EQ(PeekMessageType(hit), MessageType::kMineResponse);
  EXPECT_EQ(miss[2], 0);       // Flags: neither hit nor coalesced.
  EXPECT_EQ(coalesced[2], 2);  // Coalesced.
  EXPECT_EQ(hit[2], 1);        // Cache hit.
  EXPECT_EQ(executions.load(), 1);

  const std::string baseline = BaselineBytes(spec);
  EXPECT_EQ(PatternBlockOf(miss), baseline);
  EXPECT_EQ(PatternBlockOf(coalesced), baseline);
  EXPECT_EQ(PatternBlockOf(hit), baseline);
  EXPECT_FALSE(DecodeMineResponse(hit).patterns.empty());
}

TEST_F(NetLoopbackTest, RouterMergesTwoShardsExactly) {
  // Even/odd transaction split of the paper corpus, sharing the vocabulary:
  // the shard union IS dataset_, so the router's merged answer must be
  // byte-identical to mining dataset_ in process.
  Database even_db, odd_db;
  for (size_t i = 0; i < ex_.raw_db.size(); ++i) {
    (i % 2 == 0 ? even_db : odd_db).push_back(ex_.raw_db[i]);
  }
  Dataset even(Dataset::FromMemory(even_db, ex_.vocab));
  Dataset odd(Dataset::FromMemory(odd_db, ex_.vocab));

  ServiceBackend backend_even({&even}, serve::ServiceOptions{});
  ServiceBackend backend_odd({&odd}, serve::ServiceOptions{});
  TestServer worker_even(&backend_even);
  TestServer worker_odd(&backend_odd);
  RouterBackend router({{"127.0.0.1", worker_even.port()},
                        {"127.0.0.1", worker_odd.port()}},
                       RouterOptions{});
  TestServer router_server(&router);
  NetClient client("127.0.0.1", router_server.port());

  for (Algorithm algorithm : kAllAlgorithms) {
    const TaskSpec spec = PaperSpec(algorithm);
    const MineReply merged = client.Mine(spec);
    EXPECT_EQ(Bytes(merged.patterns), BaselineBytes(spec))
        << "algorithm " << static_cast<int>(algorithm);
  }

  // The router's reply comes out of the same spliced encoder: its raw
  // pattern block is the union's in-process canonical bytes.
  RawConnection raw(router_server.port());
  ASSERT_TRUE(raw.connected());
  const TaskSpec lash_spec = PaperSpec(Algorithm::kLash);
  ASSERT_TRUE(raw.Send(EncodeMineRequest(lash_spec)));
  const std::string payload = raw.Receive();
  ASSERT_EQ(PeekMessageType(payload), MessageType::kMineResponse);
  EXPECT_EQ(PatternBlockOf(payload), BaselineBytes(lash_spec));

  // Top-k re-cut: the merged answer truncated to k is the prefix of the
  // full merged answer in canonical order.
  const TaskSpec full_spec = PaperSpec(Algorithm::kSequential);
  TaskSpec topk_spec = full_spec;
  topk_spec.top_k = 3;
  const MineReply full = client.Mine(full_spec);
  const MineReply topk = client.Mine(topk_spec);
  ASSERT_EQ(topk.patterns.size(), 3u);
  EXPECT_EQ(topk.patterns,
            NamedPatternList(full.patterns.begin(), full.patterns.begin() + 3));
}

TEST_F(NetLoopbackTest, TwoPhaseCountPhaseMatchesLegacyAndInProcess) {
  // σ=3 over the 2-shard split pigeonholes to σ′=2 > 1, so the count phase
  // actually runs (unlike the σ=2 paper spec, where σ′=1 and phase 1 is
  // already exact). The two-phase answer must be byte-identical to both the
  // legacy σ′=1 router and the in-process union mine, for every algorithm.
  Database even_db, odd_db;
  for (size_t i = 0; i < ex_.raw_db.size(); ++i) {
    (i % 2 == 0 ? even_db : odd_db).push_back(ex_.raw_db[i]);
  }
  Dataset even(Dataset::FromMemory(even_db, ex_.vocab));
  Dataset odd(Dataset::FromMemory(odd_db, ex_.vocab));
  ServiceBackend backend_even({&even}, serve::ServiceOptions{});
  ServiceBackend backend_odd({&odd}, serve::ServiceOptions{});
  TestServer worker_even(&backend_even);
  TestServer worker_odd(&backend_odd);
  const std::vector<WorkerAddress> addresses = {
      {"127.0.0.1", worker_even.port()}, {"127.0.0.1", worker_odd.port()}};

  RouterBackend two_phase(addresses, RouterOptions{});
  RouterOptions legacy_options;
  legacy_options.two_phase = false;
  RouterBackend legacy(addresses, legacy_options);

  for (Algorithm algorithm : kAllAlgorithms) {
    TaskSpec spec = PaperSpec(algorithm);
    spec.params.sigma = 3;
    const MineResponse fast = two_phase.Scatter(spec);
    const MineResponse exact = legacy.Scatter(spec);
    EXPECT_EQ(Bytes(fast.patterns), BaselineBytes(spec))
        << "two-phase vs in-process, algorithm " << static_cast<int>(algorithm);
    EXPECT_EQ(Bytes(fast.patterns), Bytes(exact.patterns))
        << "two-phase vs legacy, algorithm " << static_cast<int>(algorithm);
  }
}

TEST_F(NetLoopbackTest, PigeonholeBoundIsLoadBearing) {
  // The adversarial corpus: "x y" has support 2 on each shard and 4 in the
  // union — below σ=4 on every individual shard, so any scatter at σ′=σ
  // loses it. The pigeonhole bound σ′=⌈4/2⌉=2 keeps it as a candidate and
  // the count phase restores its exact union support.
  Vocabulary vocab;
  const ItemId x = vocab.AddItem("x");
  const ItemId y = vocab.AddItem("y");
  const ItemId z = vocab.AddItem("z");
  const Database shard_db = {{x, y}, {x, y}, {z}};
  Database union_db = shard_db;
  union_db.insert(union_db.end(), shard_db.begin(), shard_db.end());
  Dataset a(Dataset::FromMemory(shard_db, vocab));
  Dataset b(Dataset::FromMemory(shard_db, vocab));
  Dataset u(Dataset::FromMemory(union_db, vocab));

  ServiceBackend backend_a({&a}, serve::ServiceOptions{});
  ServiceBackend backend_b({&b}, serve::ServiceOptions{});
  TestServer worker_a(&backend_a);
  TestServer worker_b(&backend_b);
  RouterBackend router({{"127.0.0.1", worker_a.port()},
                        {"127.0.0.1", worker_b.port()}},
                       RouterOptions{});
  TestServer router_server(&router);
  NetClient client("127.0.0.1", router_server.port());

  TaskSpec spec;
  spec.algorithm = Algorithm::kSequential;
  spec.params = {.sigma = 4, .gamma = 0, .lambda = 2};

  // Traced, so the count phase's spans are visible below.
  obs::Tracer::Global().StartCollecting();
  TaskSpec traced = spec;
  traced.trace.trace_id = obs::TraceId::Make();
  const MineReply found = client.Mine(traced);
  const std::vector<obs::SpanRecord> spans =
      obs::Tracer::Global().TakeCollected();
  obs::Tracer::Global().StopCollecting();

  // The union answer, exactly: in-process parity over the union corpus.
  serve::MiningService service(u);
  const serve::Response baseline = service.Submit(spec).Get();
  std::string baseline_bytes;
  EncodeNamedPatterns(&baseline_bytes,
                      NamePatterns(u, baseline.patterns(),
                                   baseline.run().used_flat_hierarchy));
  EXPECT_EQ(Bytes(found.patterns), baseline_bytes);
  ASSERT_FALSE(found.patterns.empty());
  const NamedPattern expected{{"x", "y"}, 4};
  EXPECT_NE(std::find(found.patterns.begin(), found.patterns.end(), expected),
            found.patterns.end())
      << "the union-frequent pattern below per-shard sigma is missing";

  // The count phase ran and its spans joined the trace: one router.count
  // per worker under router.scatter, one serve.count per worker.
  uint64_t scatter_id = 0;
  size_t count_legs = 0, serve_counts = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "router.scatter") scatter_id = span.span_id;
  }
  ASSERT_NE(scatter_id, 0u);
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "router.count") {
      ++count_legs;
      EXPECT_EQ(span.parent_id, scatter_id);
    }
    if (span.name == "serve.count") ++serve_counts;
  }
  EXPECT_EQ(count_legs, 2u);
  EXPECT_EQ(serve_counts, 2u);

  // The per-request override proves the bound is load-bearing: scattering
  // at σ′=σ=4 finds nothing on either shard, so the answer is empty — the
  // exactness/latency trade the override exists to expose.
  TaskSpec overridden = spec;
  overridden.shard_sigma = 4;
  const MineReply dropped = client.Mine(overridden);
  EXPECT_TRUE(dropped.patterns.empty());

  // And an explicit override at the pigeonhole bound is the default answer.
  TaskSpec pigeonhole = spec;
  pigeonhole.shard_sigma = 2;
  const MineReply same = client.Mine(pigeonhole);
  EXPECT_EQ(Bytes(same.patterns), baseline_bytes);
}

TEST(NetCountTest, ConcurrentCountsSplitAcrossThePoolExactly) {
  // A shard of several hundred transactions spans several count blocks,
  // so each request's blocks run on more than one counting-pool thread;
  // two clients keep two requests in the pool at once. Every reply must
  // equal the single-threaded in-process count.
  NytRecipe recipe;
  recipe.sentences = 600;
  recipe.lemmas = 200;
  GeneratedText data = MakeNytCorpus(recipe);
  const Dataset dataset =
      Dataset::FromMemory(std::move(data.database), std::move(data.vocabulary),
                          std::move(data.hierarchy));
  CountRequest request;
  request.gamma = 1;
  request.lambda = 3;
  request.candidates = NamePatterns(
      dataset,
      MiningTask(dataset).WithParams({.sigma = 10, .gamma = 1, .lambda = 3})
          .Mine(),
      /*flat=*/false);
  ASSERT_GT(request.candidates.size(), 50u);
  const std::vector<Frequency> expected = serve::CountSupports(
      dataset, request.candidates, serve::CountQuery{1, 3, false});

  ServiceBackend backend({&dataset}, serve::ServiceOptions{});
  TestServer server(&backend);
  auto run_client = [&] {
    NetClient client("127.0.0.1", server.port());
    std::vector<std::vector<Frequency>> replies;
    for (int i = 0; i < 3; ++i) {
      replies.push_back(client.Count(request).supports);
    }
    return replies;
  };
  std::future<std::vector<std::vector<Frequency>>> other =
      std::async(std::launch::async, run_client);
  const std::vector<std::vector<Frequency>> mine = run_client();
  for (const std::vector<Frequency>& supports : mine) {
    EXPECT_EQ(supports, expected);
  }
  for (const std::vector<Frequency>& supports : other.get()) {
    EXPECT_EQ(supports, expected);
  }
}

TEST_F(NetLoopbackTest, SpentCountDeadlineIsTypedAndTheWorkerKeepsServing) {
  // A count request whose deadline is spent on arrival: the worker checks
  // it before its first transaction block and answers with a typed
  // kDeadlineExceeded. The same connection then gets the undeadlined
  // request counted — traced, so the serve.count span's work tags show —
  // and a mine served.
  ServiceBackend backend({&dataset_}, serve::ServiceOptions{});
  TestServer server(&backend);
  NetClient client("127.0.0.1", server.port());

  CountRequest request;
  request.gamma = 1;
  request.lambda = 3;
  request.candidates = {{{"a", "B"}, 0}, {{"a", "B", "c"}, 0}};
  request.deadline_ms = 1e-6;  // One nanosecond after receipt.
  try {
    client.Count(request);
    FAIL() << "counted past a spent deadline";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kDeadlineExceeded);
  }

  request.deadline_ms = 0;
  request.trace = obs::TraceContext{obs::TraceId::Make(), 0};
  obs::Tracer::Global().StartCollecting();
  const CountReply reply = client.Count(request);
  const std::vector<obs::SpanRecord> spans =
      obs::Tracer::Global().TakeCollected();
  obs::Tracer::Global().StopCollecting();
  // Supports of {a, B} and {a, B, c} in the paper corpus at γ=1.
  EXPECT_EQ(reply.supports, (std::vector<Frequency>{3, 2}));

  std::map<std::string, std::string> tags;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "serve.count") {
      tags.insert(span.tags.begin(), span.tags.end());
    }
  }
  EXPECT_EQ(tags["outcome"], "ok");
  EXPECT_EQ(tags["transactions"], "6");
  EXPECT_EQ(tags["trie_nodes"], "4");  // root, a, a→B, a→B→c

  EXPECT_GT(client.Mine(PaperSpec(Algorithm::kSequential)).patterns.size(),
            0u);
}

TEST_F(NetLoopbackTest, MetricsRpcExposesServiceAndServerInstruments) {
  // One registry wired into both the service and the event loop, exactly
  // as lash_served does with the process-global one.
  obs::MetricsRegistry registry;
  serve::ServiceOptions service_options;
  service_options.metrics = &registry;
  ServiceBackend backend({&dataset_}, service_options);
  ServerOptions server_options;
  server_options.metrics = &registry;
  TestServer server(&backend, server_options);
  NetClient client("127.0.0.1", server.port());

  client.Mine(PaperSpec(Algorithm::kSequential));
  const std::vector<obs::MetricSample> samples = client.Metrics();
  auto value_of = [&samples](const std::string& name) -> double {
    for (const obs::MetricSample& s : samples) {
      if (s.name == name) return s.value;
    }
    ADD_FAILURE() << "metric " << name << " missing from snapshot";
    return -1;
  };
  EXPECT_EQ(value_of("serve.requests.submitted"), 1.0);
  EXPECT_EQ(value_of("serve.requests.misses"), 1.0);
  EXPECT_EQ(value_of("serve.cache.entries"), 1.0);
  EXPECT_GT(value_of("serve.cache.bytes"), 0.0);
  EXPECT_GE(value_of("serve.latency.mine_ms.count"), 1.0);
  // The event loop's own instruments: the mine exchange plus this metrics
  // request have both passed through by the time the response arrives.
  EXPECT_GE(value_of("net.server.frames_in"), 2.0);
  EXPECT_GE(value_of("net.server.frames_out"), 1.0);
  EXPECT_GT(value_of("net.server.bytes_in"), 0.0);
  EXPECT_EQ(value_of("net.server.connections"), 1.0);
  EXPECT_EQ(value_of("net.server.accepted"), 1.0);
}

TEST_F(NetLoopbackTest, OneTraceIdSpansClientRouterAndBothWorkers) {
  // The propagation parity check: a traced mine through a 2-shard router
  // must yield ONE trace whose spans cover the router's scatter/merge legs
  // and each worker's serve pipeline, nested by parent ids. Everything
  // runs in-process, so every component records into the same Global
  // tracer — the multi-process analogue (separate JSONL files sharing the
  // trace id) is net_smoke.sh's job.
  Database even_db, odd_db;
  for (size_t i = 0; i < ex_.raw_db.size(); ++i) {
    (i % 2 == 0 ? even_db : odd_db).push_back(ex_.raw_db[i]);
  }
  Dataset even(Dataset::FromMemory(even_db, ex_.vocab));
  Dataset odd(Dataset::FromMemory(odd_db, ex_.vocab));
  ServiceBackend backend_even({&even}, serve::ServiceOptions{});
  ServiceBackend backend_odd({&odd}, serve::ServiceOptions{});
  TestServer worker_even(&backend_even);
  TestServer worker_odd(&backend_odd);
  RouterBackend router({{"127.0.0.1", worker_even.port()},
                        {"127.0.0.1", worker_odd.port()}},
                       RouterOptions{});
  TestServer router_server(&router);
  NetClient client("127.0.0.1", router_server.port());

  // The traced request goes first, so it is a cold miss on both workers
  // and exercises the full pipeline (queue, mine, MapReduce export). The
  // untraced request follows through the same collecting tracer; the
  // single-trace-id assertion below doubles as the proof that it recorded
  // nothing. (Collection drains once, after both: a worker's serve.deliver
  // span lands just after its reply is sent, so a drain between the two
  // requests would race it.)
  obs::Tracer::Global().StartCollecting();
  TaskSpec traced = PaperSpec(Algorithm::kLash);
  traced.trace.trace_id = obs::TraceId::Make();
  const MineReply traced_reply = client.Mine(traced);
  TaskSpec untraced = PaperSpec(Algorithm::kLash);
  const MineReply untraced_reply = client.Mine(untraced);
  std::vector<obs::SpanRecord> spans = obs::Tracer::Global().TakeCollected();
  obs::Tracer::Global().StopCollecting();

  // Tracing must not change the answer: the traced (cold) reply is
  // pattern-identical to the untraced (cache-hit) one.
  EXPECT_EQ(Bytes(traced_reply.patterns), Bytes(untraced_reply.patterns));

  // First pass: index the spans. Every span belongs to THE trace — the
  // untraced request contributed none.
  ASSERT_FALSE(spans.empty());
  std::map<uint64_t, const obs::SpanRecord*> by_id;
  std::multiset<std::string> names;
  uint64_t scatter_id = 0;
  std::set<uint64_t> leg_ids;
  for (const obs::SpanRecord& span : spans) {
    EXPECT_EQ(span.trace_id, traced.trace.trace_id) << span.name;
    by_id[span.span_id] = &span;
    names.insert(span.name);
    if (span.name == "router.scatter") scatter_id = span.span_id;
    if (span.name == "router.leg") leg_ids.insert(span.span_id);
  }
  // The router's legs...
  ASSERT_NE(scatter_id, 0u);
  ASSERT_EQ(names.count("router.scatter"), 1u);
  ASSERT_EQ(leg_ids.size(), 2u);
  ASSERT_EQ(names.count("router.merge"), 1u);
  // ...and each worker's serve pipeline plus its MapReduce timeline.
  EXPECT_EQ(names.count("serve.request"), 2u);
  EXPECT_EQ(names.count("serve.validate"), 2u);
  EXPECT_EQ(names.count("serve.cache"), 2u);
  EXPECT_EQ(names.count("serve.queue"), 2u);
  EXPECT_EQ(names.count("serve.mine"), 2u);
  EXPECT_EQ(names.count("serve.encode"), 2u);
  EXPECT_EQ(names.count("api.mine"), 2u);
  EXPECT_EQ(names.count("mr.job"), 2u);

  // Second pass: nesting by parent ids. leg and merge hang off scatter,
  // each worker's serve.request off a distinct leg, the mine-path spans
  // off their serve.request, the facade span off serve.mine, and the
  // MapReduce job off the facade's api.mine.
  std::set<uint64_t> request_parents;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "router.leg" || span.name == "router.merge") {
      EXPECT_EQ(span.parent_id, scatter_id) << span.name;
    }
    if (span.name == "serve.request") {
      EXPECT_EQ(leg_ids.count(span.parent_id), 1u)
          << "serve.request parented outside the router's legs";
      request_parents.insert(span.parent_id);
    }
    if (span.name == "serve.mine" || span.name == "serve.queue" ||
        span.name == "serve.encode") {
      ASSERT_EQ(by_id.count(span.parent_id), 1u) << span.name;
      EXPECT_EQ(by_id[span.parent_id]->name, "serve.request") << span.name;
    }
    if (span.name == "api.mine") {
      ASSERT_EQ(by_id.count(span.parent_id), 1u);
      EXPECT_EQ(by_id[span.parent_id]->name, "serve.mine");
    }
    if (span.name == "mr.job") {
      ASSERT_EQ(by_id.count(span.parent_id), 1u);
      EXPECT_EQ(by_id[span.parent_id]->name, "api.mine");
    }
  }
  EXPECT_EQ(request_parents, leg_ids);
}

TEST_F(NetLoopbackTest, RouterRejectsFiltersAndExplicitShards) {
  // Validation precedes any worker I/O, so an unreachable worker is fine.
  RouterBackend router({{"127.0.0.1", 1}}, RouterOptions{});

  TaskSpec filtered = PaperSpec(Algorithm::kSequential);
  filtered.filter = PatternFilter::kMaximal;
  try {
    router.Scatter(filtered);
    FAIL() << "filter distributed";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kInvalidTask);
  }

  TaskSpec sharded = PaperSpec(Algorithm::kSequential);
  sharded.shard = 1;
  try {
    router.Scatter(sharded);
    FAIL() << "explicit shard accepted";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kInvalidTask);
  }
}

// ---- Fault paths ----------------------------------------------------------

/// Client options tuned so fault tests fail fast instead of retrying for
/// seconds.
ClientOptions FastFail() {
  ClientOptions options;
  options.connect_timeout_ms = 500;
  options.connect_retries = 0;
  options.retry_backoff_ms = 1;
  return options;
}

/// An ephemeral port with nothing listening: bind, read the port, close.
uint16_t DeadPort() {
  ListenSocket listener = ListenTcp("127.0.0.1", 0);
  return listener.bound_port;  // fd closes on return.
}

TEST(NetFaultTest, DeadWorkerIsExecutionFailed) {
  NetClient client("127.0.0.1", DeadPort(), FastFail());
  try {
    client.Mine(PaperSpec(Algorithm::kSequential));
    FAIL() << "mined through a dead port";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kExecutionFailed);
  }
}

TEST(NetFaultTest, RouterSurfacesDeadWorkerAsExecutionFailed) {
  RouterOptions options;
  options.client = FastFail();
  RouterBackend router({{"127.0.0.1", DeadPort()}}, options);
  try {
    router.Scatter(PaperSpec(Algorithm::kSequential));
    FAIL() << "scattered to a dead worker";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kExecutionFailed);
    EXPECT_NE(std::string(e.what()).find("worker"), std::string::npos);
  }
}

TEST(NetFaultTest, SilentServerTimesOutAsDeadlineExceeded) {
  // A listener that never accepts: the TCP handshake completes from the
  // backlog, the request is buffered, and no reply ever comes.
  ListenSocket listener = ListenTcp("127.0.0.1", 0);
  ClientOptions options = FastFail();
  options.io_timeout_ms = 200;
  NetClient client("127.0.0.1", listener.bound_port, options);
  try {
    client.Mine(PaperSpec(Algorithm::kSequential));
    FAIL() << "mined against a silent server";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kDeadlineExceeded);
  }
}

TEST(NetFaultTest, PeerDeathMidExchangeIsExecutionFailed) {
  // Accept the connection and immediately close it: the client loses the
  // peer between sending the request and reading the reply.
  ListenSocket listener = ListenTcp("127.0.0.1", 0);
  std::promise<void> accepted;
  std::thread killer([&] {
    pollfd pfd{listener.fd.get(), POLLIN, 0};
    ::poll(&pfd, 1, 5000);
    const int conn = ::accept(listener.fd.get(), nullptr, nullptr);
    if (conn >= 0) ::close(conn);
    accepted.set_value();
  });
  NetClient client("127.0.0.1", listener.bound_port, FastFail());
  try {
    client.Mine(PaperSpec(Algorithm::kSequential));
    FAIL() << "mined through a dying peer";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kExecutionFailed);
  }
  accepted.get_future().wait();
  killer.join();
}

TEST(NetFaultTest, MalformedFrameClosesOnlyThatConnection) {
  testing::PaperExample ex;
  Dataset dataset(Dataset::FromMemory(ex.raw_db, ex.vocab));
  ServiceBackend backend({&dataset}, serve::ServiceOptions{});
  TestServer server(&backend);

  // A raw connection speaking garbage: well-formed frame, wire version 9.
  const int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string frame;
  AppendFrame(&frame, std::string("\x09\x01", 2));
  ASSERT_EQ(::send(raw, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  // The server must close this connection (recv returns 0 / reset), not
  // crash or reply.
  char byte;
  const ssize_t got = ::recv(raw, &byte, 1, 0);
  EXPECT_LE(got, 0);
  ::close(raw);

  // ...while a well-behaved client on a fresh connection is still served.
  NetClient client("127.0.0.1", server.port(), FastFail());
  const TaskSpec spec = PaperSpec(Algorithm::kSequential);
  const MineReply reply = client.Mine(spec);
  EXPECT_GT(reply.patterns.size(), 0u);
}

/// A scripted fake worker for client-side connection tests. It serves
/// loopback connections one after another and counts every request frame
/// it reads across all of them; `script(n)` (n = 1-based frame count)
/// picks what happens to frame n. Replies are empty metrics responses.
class ScriptedServer {
 public:
  enum class Action { kReply, kReplyThenClose, kCloseWithoutReply };

  explicit ScriptedServer(std::function<Action(int)> script)
      : listener_(ListenTcp("127.0.0.1", 0)),
        script_(std::move(script)),
        thread_([this] { Run(); }) {}
  ~ScriptedServer() {
    stop_ = true;
    thread_.join();
  }
  ScriptedServer(const ScriptedServer&) = delete;
  ScriptedServer& operator=(const ScriptedServer&) = delete;

  uint16_t port() const { return listener_.bound_port; }
  int requests() const { return requests_; }
  int connections() const { return connections_; }

  /// Blocks until the server has closed `n` connections (5 s cap).
  void WaitClosed(int n) const {
    for (int i = 0; i < 5000 && closed_ < n; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  void Run() {
    while (!stop_) {
      pollfd pfd{listener_.fd.get(), POLLIN, 0};
      if (::poll(&pfd, 1, 10) <= 0) continue;
      UniqueFd conn(::accept(listener_.fd.get(), nullptr, nullptr));
      if (!conn.valid()) continue;
      ++connections_;
      Serve(conn.get());
      conn.Reset();
      ++closed_;
    }
  }

  void Serve(int fd) {
    std::string buffer, payload;
    while (!stop_) {
      if (TryExtractFrame(&buffer, &payload) == FrameStatus::kFrame) {
        const Action action = script_(++requests_);
        if (action == Action::kCloseWithoutReply) return;
        std::string frame;
        AppendFrame(&frame, EncodeMetricsResponse({}));
        ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
        if (action == Action::kReplyThenClose) return;
        continue;
      }
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, 10) <= 0) continue;
      char buf[4096];
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) return;
      buffer.append(buf, static_cast<size_t>(n));
    }
  }

  ListenSocket listener_;
  std::function<Action(int)> script_;
  std::atomic<bool> stop_{false};
  std::atomic<int> requests_{0};
  std::atomic<int> connections_{0};
  std::atomic<int> closed_{0};
  std::thread thread_;
};

TEST(NetFaultTest, LostReplyOnReusedConnectionIsNeverResent) {
  // The peer reads the second request and dies without replying. It may
  // have executed it, so the client must fail rather than send it again.
  using Action = ScriptedServer::Action;
  ScriptedServer server([](int n) {
    return n == 1 ? Action::kReply : Action::kCloseWithoutReply;
  });
  NetClient client("127.0.0.1", server.port(), FastFail());
  EXPECT_TRUE(client.Metrics().empty());
  try {
    client.Metrics();
    FAIL() << "a lost reply was not surfaced";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kExecutionFailed);
  }
  EXPECT_EQ(server.requests(), 2);
  EXPECT_EQ(server.connections(), 1);
}

TEST(NetFaultTest, IdleConnectionClosedByPeerIsReplacedBeforeSending) {
  // The peer closes the pooled connection after the first reply. The next
  // call must notice before sending and go out once, on a new connection.
  using Action = ScriptedServer::Action;
  ScriptedServer server([](int n) {
    return n == 1 ? Action::kReplyThenClose : Action::kReply;
  });
  NetClient client("127.0.0.1", server.port(), FastFail());
  EXPECT_TRUE(client.Metrics().empty());
  server.WaitClosed(1);
  EXPECT_TRUE(client.Metrics().empty());
  EXPECT_EQ(server.requests(), 2);
  EXPECT_EQ(server.connections(), 2);
}

#endif  // __linux__

}  // namespace
}  // namespace lash::net
