// Tests for the networking substrate: codec round-trips, framing (including
// split/partial/oversized frames), sockets over loopback, and the event
// loop.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "net/codec.h"
#include "net/event_loop.h"
#include "net/framing.h"
#include "net/socket.h"
#include "system/protocol.h"
#include "util/rng.h"

namespace bate {
namespace {

/// Peak resident set size of this process, in KiB.
long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// Runs `decode` on `payload` in a child process and exits 0 there when it
/// threw std::out_of_range without raising the child's peak RSS by 16 MiB.
void expect_rejected_without_allocating(
    const std::vector<std::uint8_t>& payload,
    void (*decode)(const std::vector<std::uint8_t>&)) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        const long before = peak_rss_kib();
        bool threw = false;
        try {
          decode(payload);
        } catch (const std::out_of_range&) {
          threw = true;
        }
        std::_Exit(threw && peak_rss_kib() - before < 16 * 1024 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(Codec, RoundTripsScalars) {
  BufferWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.f64(3.14159);
  w.str("hello");
  w.f64_vec({1.5, -2.5, 0.0});

  BufferReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.f64_vec(), (std::vector<double>{1.5, -2.5, 0.0}));
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, ThrowsOnTruncation) {
  BufferWriter w;
  w.u32(7);
  BufferReader r(w.bytes());
  r.u32();
  EXPECT_THROW(r.u8(), std::out_of_range);
}

TEST(Codec, ThrowsOnTruncatedString) {
  BufferWriter w;
  w.u32(100);  // announces a 100-byte string with no payload
  BufferReader r(w.bytes());
  EXPECT_THROW(r.str(), std::out_of_range);
}

TEST(CodecDeathTest, HostileCountsAllocateNothing) {
  // Counts that announce far more elements than the bytes left: 2^23
  // doubles (64 MiB) in a 4-byte vector, and 2^22 pairs (64 MiB of
  // PairDemand) in a 17-byte SubmitDemand.
  BufferWriter vec;
  vec.u32(1u << 23);
  expect_rejected_without_allocating(
      vec.bytes(), [](const std::vector<std::uint8_t>& bytes) {
        BufferReader(bytes).f64_vec();
      });
  BufferWriter submit;
  submit.u8(static_cast<std::uint8_t>(MsgType::kSubmitDemand));
  submit.u64(1);        // request_id
  submit.i32(7);        // demand id
  submit.u32(1u << 22);  // pair count
  ASSERT_EQ(submit.bytes().size(), 17u);
  expect_rejected_without_allocating(
      submit.bytes(), [](const std::vector<std::uint8_t>& bytes) {
        decode_message(bytes);
      });
}

TEST(Framing, EncodeThenDecode) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const auto framed = encode_frame(payload);
  ASSERT_EQ(framed.size(), 9u);
  FrameReader reader;
  reader.feed(framed);
  const auto out = reader.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, payload);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(Framing, HandlesByteAtATimeDelivery) {
  const std::vector<std::uint8_t> payload = {9, 8, 7};
  const auto framed = encode_frame(payload);
  FrameReader reader;
  for (std::size_t i = 0; i < framed.size(); ++i) {
    EXPECT_FALSE(reader.next().has_value());
    reader.feed({&framed[i], 1});
  }
  const auto out = reader.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, payload);
}

TEST(Framing, HandlesMultipleFramesInOneFeed) {
  auto a = encode_frame(std::vector<std::uint8_t>{1});
  const auto b = encode_frame(std::vector<std::uint8_t>{2, 2});
  a.insert(a.end(), b.begin(), b.end());
  FrameReader reader;
  reader.feed(a);
  EXPECT_EQ(reader.next()->size(), 1u);
  EXPECT_EQ(reader.next()->size(), 2u);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(Framing, EmptyPayloadIsValid) {
  const auto framed = encode_frame({});
  FrameReader reader;
  reader.feed(framed);
  const auto out = reader.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
}

TEST(Framing, RejectsOversizedFrames) {
  FrameReader reader;
  // Announce a 1 GiB frame.
  const std::uint8_t evil[] = {0x00, 0x00, 0x00, 0x40};
  EXPECT_THROW(reader.feed(evil), std::length_error);
}

TEST(Framing, TraceContextRoundTrips) {
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  const FrameContext ctx{0xAABBCCDD11223344ull, 0x42u};
  const auto framed = encode_frame(payload, ctx);
  // 4-byte length word + 16-byte context + payload.
  ASSERT_EQ(framed.size(), 4u + 16u + payload.size());
  // Bit 31 of the length word flags the context; the low bits still carry
  // the payload length only.
  const std::uint32_t word = static_cast<std::uint32_t>(framed[0]) |
                             (static_cast<std::uint32_t>(framed[1]) << 8) |
                             (static_cast<std::uint32_t>(framed[2]) << 16) |
                             (static_cast<std::uint32_t>(framed[3]) << 24);
  EXPECT_EQ(word & kFrameTraceFlag, kFrameTraceFlag);
  EXPECT_EQ(word & ~kFrameTraceFlag, payload.size());

  FrameReader reader;
  reader.feed(framed);
  const auto frame = reader.next_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, payload);
  EXPECT_TRUE(frame->context.valid());
  EXPECT_EQ(frame->context.trace_id, ctx.trace_id);
  EXPECT_EQ(frame->context.span_id, ctx.span_id);
}

TEST(Framing, PlainFrameDecodesToInvalidContext) {
  const auto framed = encode_frame(std::vector<std::uint8_t>{9});
  // No context: byte-identical to the pre-context format.
  ASSERT_EQ(framed.size(), 5u);
  FrameReader reader;
  reader.feed(framed);
  const auto frame = reader.next_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_FALSE(frame->context.valid());
  EXPECT_EQ(frame->context.trace_id, 0u);
}

TEST(Framing, ZeroContextIsNotEncoded) {
  // An invalid (zero trace_id) context must not set the flag — old readers
  // keep working against new writers that have nothing to say.
  const auto with_default = encode_frame(std::vector<std::uint8_t>{7});
  const auto with_zero_ctx =
      encode_frame(std::vector<std::uint8_t>{7}, FrameContext{});
  EXPECT_EQ(with_default, with_zero_ctx);
}

TEST(Framing, LegacyNextDiscardsTraceContext) {
  const std::vector<std::uint8_t> payload = {5, 6};
  FrameReader reader;
  reader.feed(encode_frame(payload, FrameContext{77, 88}));
  // next() (the context-unaware accessor) still yields the bare payload.
  const auto out = reader.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, payload);
}

TEST(Framing, MixedBatchRoundTrips) {
  FrameBatch batch;
  batch.add(std::vector<std::uint8_t>{1});                          // plain
  batch.add(std::vector<std::uint8_t>{2, 2}, FrameContext{10, 20});  // traced
  batch.add(std::vector<std::uint8_t>{3, 3, 3});                    // plain
  EXPECT_EQ(batch.frame_count(), 3u);

  FrameReader reader;
  reader.feed(batch.bytes());
  const auto a = reader.next_frame();
  const auto b = reader.next_frame();
  const auto c = reader.next_frame();
  ASSERT_TRUE(a && b && c);
  EXPECT_FALSE(a->context.valid());
  EXPECT_EQ(a->payload.size(), 1u);
  EXPECT_TRUE(b->context.valid());
  EXPECT_EQ(b->context.trace_id, 10u);
  EXPECT_EQ(b->context.span_id, 20u);
  EXPECT_FALSE(c->context.valid());
  EXPECT_EQ(c->payload.size(), 3u);
  EXPECT_FALSE(reader.next_frame().has_value());
}

TEST(Framing, TracedFrameSurvivesByteAtATimeDelivery) {
  const std::vector<std::uint8_t> payload = {4, 5, 6, 7};
  const auto framed = encode_frame(payload, FrameContext{123, 456});
  FrameReader reader;
  for (std::size_t i = 0; i < framed.size(); ++i) {
    EXPECT_FALSE(reader.next_frame().has_value());
    reader.feed({&framed[i], 1});
  }
  const auto frame = reader.next_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, payload);
  EXPECT_EQ(frame->context.trace_id, 123u);
}

TEST(Framing, RejectsOversizedTracedFrames) {
  FrameReader reader;
  // The trace flag must not let an oversized length sneak past the cap:
  // 1 GiB with bit 31 set.
  const std::uint8_t evil[] = {0x00, 0x00, 0x00, 0xC0};
  EXPECT_THROW(reader.feed(evil), std::length_error);
}

TEST(Framing, BatchGrowsGeometrically) {
  // Every reallocation moves the whole batch; a batch that grows by a
  // constant factor moves O(log n) times over n frames.
  FrameBatch batch;
  const std::vector<std::uint8_t> payload(23, 0x5A);
  const std::uint8_t* data = nullptr;
  int moves = 0;
  for (int i = 0; i < 4096; ++i) {
    batch.add(payload, FrameContext{static_cast<std::uint64_t>(i + 1), 7});
    if (batch.bytes().data() != data) {
      data = batch.bytes().data();
      ++moves;
    }
  }
  EXPECT_EQ(batch.frame_count(), 4096u);
  EXPECT_LE(moves, 2 * 12 + 8);  // 2 * log2(4096) + 8
}

TEST(Framing, ReaderReturnsTracedBatchUnderAnySplit) {
  // 200 traced frames of varying size, as one broadcast carries them.
  FrameBatch batch;
  std::vector<std::vector<std::uint8_t>> payloads;
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> p(static_cast<std::size_t>(14 + 8 * (i % 5)));
    for (std::size_t b = 0; b < p.size(); ++b) {
      p[b] = static_cast<std::uint8_t>(i * 31 + static_cast<int>(b));
    }
    batch.add(p, FrameContext{1000u + static_cast<std::uint64_t>(i), 42});
    payloads.push_back(std::move(p));
  }
  const std::vector<std::uint8_t>& bytes = batch.bytes();

  const auto drain = [&](const std::vector<std::size_t>& chunks) {
    FrameReader reader;
    std::vector<Frame> frames;
    std::size_t at = 0;
    for (const std::size_t n : chunks) {
      reader.feed({bytes.data() + at, n});
      at += n;
      while (auto f = reader.next_frame()) frames.push_back(std::move(*f));
    }
    EXPECT_EQ(at, bytes.size());
    ASSERT_EQ(frames.size(), payloads.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(frames[i].payload, payloads[i]) << "frame " << i;
      EXPECT_EQ(frames[i].context.trace_id, 1000u + i);
      EXPECT_EQ(frames[i].context.span_id, 42u);
    }
    EXPECT_EQ(reader.buffered_bytes(), 0u);
  };
  const auto fixed = [&](std::size_t size) {
    std::vector<std::size_t> chunks;
    for (std::size_t at = 0; at < bytes.size(); at += size) {
      chunks.push_back(std::min(size, bytes.size() - at));
    }
    return chunks;
  };
  drain(fixed(4096));
  drain(fixed(1));
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    std::vector<std::size_t> chunks;
    for (std::size_t at = 0; at < bytes.size();) {
      const std::size_t n = std::min<std::size_t>(
          static_cast<std::size_t>(rng.uniform_int(1, 700)), bytes.size() - at);
      chunks.push_back(n);
      at += n;
    }
    drain(chunks);
  }
}

TEST(Socket, LoopbackEcho) {
  TcpListener listener(0);
  std::thread server([&] {
    auto conn = listener.accept();
    ASSERT_TRUE(conn.has_value());
    std::uint8_t buf[16];
    const long n = conn->read_some(buf);
    ASSERT_GT(n, 0);
    conn->write_all({buf, static_cast<std::size_t>(n)});
  });

  Socket client = connect_tcp(listener.port());
  const std::uint8_t msg[] = {'p', 'i', 'n', 'g'};
  client.write_all(msg);
  std::uint8_t buf[16];
  const long n = client.read_some(buf);
  server.join();
  ASSERT_EQ(n, 4);
  EXPECT_EQ(std::memcmp(buf, msg, 4), 0);
}

TEST(Socket, MoveTransfersOwnership) {
  TcpListener listener(0);
  Socket a = connect_tcp(listener.port());
  const int fd = a.fd();
  Socket b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_EQ(b.fd(), fd);
}

TEST(Socket, NonblockingReadReturnsWouldBlock) {
  TcpListener listener(0);
  Socket client = connect_tcp(listener.port());
  client.set_nonblocking(true);
  std::uint8_t buf[8];
  EXPECT_EQ(client.read_some(buf), -1);
}

TEST(EventLoop, DispatchesReadEvents) {
  TcpListener listener(0);
  listener.set_nonblocking(true);
  Socket client = connect_tcp(listener.port());

  EventLoop loop;
  int accepted = 0;
  loop.add_reader(listener.fd(), [&] {
    while (listener.accept()) ++accepted;
  });
  // The pending connection should wake the loop.
  for (int i = 0; i < 50 && accepted == 0; ++i) loop.run_once(20);
  EXPECT_EQ(accepted, 1);
  loop.remove(listener.fd());
}

TEST(EventLoop, RunStopsOnRequest) {
  EventLoop loop;
  int ticks = 0;
  loop.run(1, [&] {
    if (++ticks >= 3) loop.stop();
  });
  EXPECT_GE(ticks, 3);
}

}  // namespace
}  // namespace bate
