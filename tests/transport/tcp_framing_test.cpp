// Stream framing for the socket backend (docs/PROTOCOL.md §13.1): the
// FrameReader must reassemble frames from arbitrary byte-stream fragmentation
// — TCP guarantees order and completeness but nothing about boundaries, so a
// header can arrive split across two reads and a payload across ten.  Also
// covered: the malformed-stream latch (garbage lengths/types stop the reader
// instead of desynchronizing it) and TcpConn's nonblocking short-write /
// partial-read handling over a socketpair.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>

#include <chrono>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include "transport/frame.h"
#include "transport/tcp_transport.h"

namespace aoft::transport {
namespace {

std::vector<unsigned char> bytes_of(std::initializer_list<int> v) {
  std::vector<unsigned char> out;
  for (int b : v) out.push_back(static_cast<unsigned char>(b));
  return out;
}

std::vector<unsigned char> payload_bytes(std::size_t n, unsigned seed) {
  std::vector<unsigned char> p(n);
  for (std::size_t i = 0; i < n; ++i)
    p[i] = static_cast<unsigned char>((seed + i * 131) & 0xff);
  return p;
}

TEST(FrameReader, RoundTripsFramesFedByteAtATime) {
  std::vector<unsigned char> stream;
  const auto p1 = payload_bytes(5, 1);
  const auto p2 = payload_bytes(0, 2);  // heartbeat: empty payload
  const auto p3 = payload_bytes(300, 3);
  append_frame(stream, FrameType::kData, p1);
  append_frame(stream, FrameType::kHeartbeat, p2);
  append_frame(stream, FrameType::kFinish, p3);

  FrameReader r;
  std::vector<std::pair<FrameType, std::vector<unsigned char>>> got;
  for (unsigned char b : stream) {
    r.feed({&b, 1});
    while (auto f = r.next())
      got.emplace_back(f->type, std::vector<unsigned char>(f->payload.begin(),
                                                           f->payload.end()));
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].first, FrameType::kData);
  EXPECT_EQ(got[0].second, p1);
  EXPECT_EQ(got[1].first, FrameType::kHeartbeat);
  EXPECT_TRUE(got[1].second.empty());
  EXPECT_EQ(got[2].first, FrameType::kFinish);
  EXPECT_EQ(got[2].second, p3);
  EXPECT_TRUE(r.empty());
  EXPECT_FALSE(r.malformed());
}

TEST(FrameReader, SplitMidHeaderStaysPending) {
  std::vector<unsigned char> stream;
  const auto p = payload_bytes(16, 9);
  append_frame(stream, FrameType::kConfig, p);

  FrameReader r;
  // First fragment ends 3 bytes into the 8-byte header.
  r.feed({stream.data(), 3});
  EXPECT_FALSE(r.next().has_value());
  EXPECT_FALSE(r.malformed());
  // Second fragment completes the header but not the payload.
  r.feed({stream.data() + 3, sizeof(FrameHdr)});
  EXPECT_FALSE(r.next().has_value());
  // Rest of the payload: the frame pops out whole.
  r.feed({stream.data() + 3 + sizeof(FrameHdr),
          stream.size() - 3 - sizeof(FrameHdr)});
  auto f = r.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, FrameType::kConfig);
  EXPECT_EQ(std::vector<unsigned char>(f->payload.begin(), f->payload.end()),
            p);
}

TEST(FrameReader, ManyFramesAcrossUnevenFragments) {
  std::vector<unsigned char> stream;
  const int kFrames = 200;
  for (int i = 0; i < kFrames; ++i)
    append_frame(stream, FrameType::kData,
                 payload_bytes(static_cast<std::size_t>(i % 37), i));
  FrameReader r;
  int got = 0;
  std::size_t at = 0;
  std::size_t chunk = 1;
  while (at < stream.size()) {
    const std::size_t n = std::min(chunk, stream.size() - at);
    r.feed({stream.data() + at, n});
    at += n;
    chunk = chunk * 3 % 101 + 1;  // uneven, deterministic fragment sizes
    while (auto f = r.next()) {
      EXPECT_EQ(f->payload.size(), static_cast<std::size_t>(got % 37));
      ++got;
    }
  }
  EXPECT_EQ(got, kFrames);
  EXPECT_TRUE(r.empty());
}

TEST(FrameReader, PayloadSpansStayValidUntilTheNextFeed) {
  // next() hands out spans aliasing the reader's buffer; only feed() may
  // move it (compaction / reallocation).  Make the consumed prefix large
  // enough that eager compaction inside next() would have shifted the
  // bytes under an earlier span.
  std::vector<unsigned char> stream;
  const auto p1 = payload_bytes(6000, 21);
  const auto p2 = payload_bytes(6000, 22);
  const auto p3 = payload_bytes(64, 23);
  append_frame(stream, FrameType::kData, p1);
  append_frame(stream, FrameType::kData, p2);
  append_frame(stream, FrameType::kData, p3);

  FrameReader r;
  r.feed(stream);
  const auto f1 = r.next();
  const auto f2 = r.next();
  const auto f3 = r.next();
  ASSERT_TRUE(f1 && f2 && f3);
  EXPECT_EQ(std::vector<unsigned char>(f1->payload.begin(), f1->payload.end()),
            p1)
      << "the first span must survive the later next() calls";
  EXPECT_EQ(std::vector<unsigned char>(f2->payload.begin(), f2->payload.end()),
            p2);
  EXPECT_EQ(std::vector<unsigned char>(f3->payload.begin(), f3->payload.end()),
            p3);
}

TEST(Frame, AppendFrameRejectsAPayloadBeyondTheFrameLimit) {
  // A payload over kMaxFrameBytes would silently truncate the u32 length
  // and desynchronize the stream; the sender must refuse loudly instead.
  std::vector<unsigned char> huge(std::size_t{kMaxFrameBytes} + 1);
  std::vector<unsigned char> out;
  EXPECT_THROW(append_frame(out, FrameType::kConfig, huge),
               std::length_error);
  EXPECT_TRUE(out.empty()) << "the guard must fire before any copy";
}

TEST(FrameReader, ImpossibleLengthLatchesMalformed) {
  FrameHdr h;
  h.len = kMaxFrameBytes + 1;
  h.type = static_cast<std::uint8_t>(FrameType::kData);
  FrameReader r;
  r.feed({reinterpret_cast<const unsigned char*>(&h), sizeof h});
  EXPECT_FALSE(r.next().has_value());
  EXPECT_TRUE(r.malformed());
  // Latched: even a valid follow-up frame yields nothing.
  std::vector<unsigned char> good;
  append_frame(good, FrameType::kHeartbeat, {});
  r.feed(good);
  EXPECT_FALSE(r.next().has_value());
}

TEST(FrameReader, UnknownTypeLatchesMalformed) {
  auto junk = bytes_of({0, 0, 0, 0, 99, 0, 0, 0});  // len=0, type=99
  FrameReader r;
  r.feed(junk);
  EXPECT_FALSE(r.next().has_value());
  EXPECT_TRUE(r.malformed());

  auto zero = bytes_of({0, 0, 0, 0, 0, 0, 0, 0});  // type=0 is also invalid
  FrameReader r2;
  r2.feed(zero);
  EXPECT_FALSE(r2.next().has_value());
  EXPECT_TRUE(r2.malformed());
}

TEST(Frame, TakeCursorReadsPodsAndRejectsShortPayloads) {
  WireHello hello;
  std::memcpy(hello.magic, kTcpMagic, sizeof kTcpMagic);
  hello.role = 3;
  hello.listen_port = 4242;
  std::vector<unsigned char> buf(as_bytes_of(hello).begin(),
                                 as_bytes_of(hello).end());
  std::span<const unsigned char> cursor(buf);
  WireHello out;
  ASSERT_TRUE(take(cursor, out));
  EXPECT_EQ(out.role, 3);
  EXPECT_EQ(out.listen_port, 4242);
  EXPECT_TRUE(cursor.empty());
  EXPECT_FALSE(take(cursor, out)) << "empty cursor must refuse";
}

// ---- TcpConn over a socketpair ---------------------------------------------

struct ConnPair {
  TcpConn a, b;
  ConnPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    for (int fd : fds) {
      const int fl = ::fcntl(fd, F_GETFL, 0);
      ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
    }
    a = TcpConn(fds[0]);
    b = TcpConn(fds[1]);
  }
};

TEST(TcpConn, FramesSurvivePartialReadsAndShortWrites) {
  ConnPair pair;
  // Big enough to overflow the socketpair's buffer: flush() must report
  // "not drained" and finish over multiple calls while the peer reads.
  const auto big = payload_bytes(1 << 20, 7);
  pair.a.queue_frame(FrameType::kData, big);

  std::vector<unsigned char> got;
  bool done = false;
  for (int spin = 0; spin < 100000 && !done; ++spin) {
    pair.a.flush();
    pair.b.read_some();
    while (auto f = pair.b.reader().next()) {
      got.assign(f->payload.begin(), f->payload.end());
      done = true;
    }
  }
  ASSERT_TRUE(done) << "1 MiB frame never reassembled";
  EXPECT_EQ(got, big);
  EXPECT_FALSE(pair.a.want_write());
}

TEST(TcpConn, InterleavedSmallFramesKeepOrder) {
  ConnPair pair;
  for (int i = 0; i < 64; ++i)
    pair.a.queue_frame(i % 2 ? FrameType::kHeartbeat : FrameType::kData,
                       payload_bytes(static_cast<std::size_t>(i), i));
  int seen = 0;
  for (int spin = 0; spin < 1000 && seen < 64; ++spin) {
    pair.a.flush();
    pair.b.read_some();
    while (auto f = pair.b.reader().next()) {
      EXPECT_EQ(f->payload.size(), static_cast<std::size_t>(seen));
      EXPECT_EQ(f->type,
                seen % 2 ? FrameType::kHeartbeat : FrameType::kData);
      ++seen;
    }
  }
  EXPECT_EQ(seen, 64);
}

TEST(TcpConn, PeerCloseReadsAsEof) {
  ConnPair pair;
  pair.a.queue_frame(FrameType::kFinish, payload_bytes(8, 1));
  pair.a.flush();
  pair.a.close_fd();

  // The queued frame still arrives (kernel buffered), then EOF.
  bool got_finish = false;
  for (int spin = 0; spin < 1000 && !pair.b.eof(); ++spin) {
    pair.b.read_some();
    while (auto f = pair.b.reader().next())
      got_finish = f->type == FrameType::kFinish;
  }
  EXPECT_TRUE(got_finish) << "in-flight FINISH must beat the EOF";
  EXPECT_TRUE(pair.b.eof());
  EXPECT_EQ(pair.b.read_some(), 0u);
}

TEST(TcpConn, WritingToAClosedPeerAbsorbsSilently) {
  ConnPair pair;
  pair.b.close_fd();
  // MSG_NOSIGNAL + broken-connection absorption: no signal, no throw, and
  // the writer keeps draining its buffer as if the receiver halted.
  for (int i = 0; i < 100; ++i)
    pair.a.queue_frame(FrameType::kData, payload_bytes(1000, i));
  EXPECT_TRUE(pair.a.flush());
  EXPECT_FALSE(pair.a.want_write());
}

// One loopback TCP connection.  The close tests need real TCP, not a
// socketpair: the reset they are about is TCP behaviour.
struct LoopbackPair {
  TcpListener listener{"127.0.0.1", 0};
  TcpConn closer = tcp_dial("127.0.0.1", listener.port(), 5.0);
  std::optional<TcpConn> peer;
  LoopbackPair() {
    for (int spin = 0; spin < 5000 && !peer; ++spin) {
      peer = listener.accept_one();
      if (!peer) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};

// A node publishes its result and closes its connections while a peer's
// last heartbeats may still sit unread in its receive queue and its final
// reply is still queued.  A plain close() then resets the connection and
// the reset drops the unacknowledged tail of the reply.  close_gracefully
// must deliver the whole frame and then a clean EOF.
TEST(TcpConn, GracefulCloseDeliversTheQueuedTailDespiteUnreadInput) {
  LoopbackPair pair;
  TcpConn& closer = pair.closer;
  ASSERT_TRUE(pair.peer.has_value());
  auto& peer = pair.peer;

  // Unread input at the closer: the peer's heartbeat reaches its kernel.
  peer->queue_frame(FrameType::kHeartbeat, {});
  ASSERT_TRUE(peer->flush());
  pollfd pf{closer.fd(), POLLIN, 0};
  ASSERT_EQ(::poll(&pf, 1, 5000), 1);

  // Far larger than the socket buffers: most of it is still queued when
  // the close begins.
  const auto big = payload_bytes(16u << 20, 5);
  closer.queue_frame(FrameType::kData, big);
  ASSERT_TRUE(closer.want_write());

  std::thread closing([&closer] {
    TcpConn* conns[] = {&closer};
    close_gracefully(conns, 10.0);
  });
  std::vector<unsigned char> got;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!peer->eof() && std::chrono::steady_clock::now() < deadline) {
    pollfd rp{peer->fd(), POLLIN, 0};
    ::poll(&rp, 1, 50);
    peer->read_some();
    while (auto f = peer->reader().next())
      if (f->type == FrameType::kData)
        got.assign(f->payload.begin(), f->payload.end());
  }
  closing.join();
  EXPECT_FALSE(peer->reader().malformed());
  EXPECT_EQ(got.size(), big.size()) << "the queued tail was dropped";
  EXPECT_TRUE(got == big);
  EXPECT_TRUE(peer->eof());
  EXPECT_EQ(closer.fd(), -1);
}

// A peer that dies with unread input resets the connection, and the kernel
// keeps counting the bytes the reset discarded as unacknowledged.  The
// close must see the reset and return, not wait out its bound.
TEST(TcpConn, GracefulCloseReturnsAtOnceOnAResetConnection) {
  LoopbackPair pair;
  TcpConn& closer = pair.closer;
  ASSERT_TRUE(pair.peer.has_value());
  auto& peer = pair.peer;

  // Fill the peer's receive window straight through the socket, so the
  // closer's own write buffer stays empty while the kernel holds unacked
  // bytes.
  const auto chunk = payload_bytes(65536, 3);
  while (::send(closer.fd(), chunk.data(), chunk.size(),
                MSG_NOSIGNAL | MSG_DONTWAIT) > 0) {
  }
  ASSERT_FALSE(closer.want_write());
  peer->close_fd();  // unread input: the peer's kernel answers with a reset
  pollfd pf{closer.fd(), 0, 0};
  ASSERT_EQ(::poll(&pf, 1, 5000), 1);

  const auto t0 = std::chrono::steady_clock::now();
  TcpConn* conns[] = {&closer};
  close_gracefully(conns, 10.0);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count(),
            2.0);
  EXPECT_EQ(closer.fd(), -1);
}

}  // namespace
}  // namespace aoft::transport
