// sim::RemoteLink over TCP sockets: the per-process endpoint drivers for the
// kTcp backend (docs/PROTOCOL.md §13).
//
// Topology of one run: every node process dials the parent's rendezvous
// socket, HELLOs with the ephemeral port it bound for itself, and blocks for
// the CONFIG broadcast (job config + fault scripts + port map + input keys —
// the same payload the shm SegmentHeader carries).  Nodes then build the
// hypercube's peer mesh directly: node p dials each neighbor q = p^2^k with
// q < p and accepts the neighbors with q > p, so every physical link of the
// cube is one TCP connection and node programs run completely unmodified.
//
// Death detection is what differs from shm: there is no shared segment for
// a parent authority to flip slots in, so each endpoint runs its own
// PeerWatch — connection EOF means the peer's process is gone (the kernel
// FINs a SIGKILLed process's sockets immediately), and heartbeat silence
// beyond heartbeat_loss_s catches a *wedged* peer that neither speaks nor
// exits.  Both transition the peer to the same terminal kDead state a
// reaped shm child gets.  Message absence is decided by the one policy in
// sim/remote.h: a peer is down once its PeerWatch state is terminal, a node
// is orphaned once its parent stream hits EOF, and idle() polls the open
// connections for up to 20 ms (the host then polls its process reaper).

#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/remote.h"
#include "transport/backend.h"
#include "transport/fleet.h"
#include "transport/frame.h"
#include "transport/peer_watch.h"

namespace aoft::transport {

// ---- socket plumbing --------------------------------------------------------

// One nonblocking framed connection.  Public because the framing tests drive
// it over socketpair()s to exercise partial reads and short writes.
class TcpConn {
 public:
  TcpConn() = default;
  explicit TcpConn(int fd) : fd_(fd) {}
  TcpConn(TcpConn&& o) noexcept;
  TcpConn& operator=(TcpConn&& o) noexcept;
  TcpConn(const TcpConn&) = delete;
  TcpConn& operator=(const TcpConn&) = delete;
  ~TcpConn();

  int fd() const { return fd_; }
  bool open() const { return fd_ >= 0 && !broken_; }
  void close_fd();

  // Queue one frame and try to flush what's buffered.  Never blocks, never
  // throws on a dead peer: a broken connection silently absorbs traffic,
  // exactly like a sim channel whose receiver halted.
  void queue_frame(FrameType type, std::span<const unsigned char> payload);

  // Push buffered bytes out (nonblocking).  Returns true when the write
  // buffer is empty.
  bool flush();
  bool want_write() const { return wpos_ < wbuf_.size(); }

  // Drain the kernel's receive buffer into the frame reader.  Returns the
  // byte count read; 0 with eof() set once the peer closed; 0 without eof()
  // when the read would block.
  std::size_t read_some();
  bool eof() const { return eof_; }

  FrameReader& reader() { return reader_; }

  std::chrono::steady_clock::time_point last_tx{};

 private:
  int fd_ = -1;
  bool broken_ = false;
  bool eof_ = false;
  std::vector<unsigned char> wbuf_;
  std::size_t wpos_ = 0;
  FrameReader reader_;
};

// Bound listening socket (SO_REUSEADDR, nonblocking).  port 0 picks an
// ephemeral port; `port()` reports the real one.  Throws std::runtime_error
// on any socket failure.
class TcpListener {
 public:
  TcpListener() = default;
  TcpListener(const std::string& addr, std::uint16_t port);
  TcpListener(TcpListener&& o) noexcept;
  TcpListener& operator=(TcpListener&& o) noexcept;
  TcpListener(const TcpListener&) = delete;
  ~TcpListener();

  int fd() const { return fd_; }
  std::uint16_t port() const { return port_; }
  void close_fd();

  // Accept one pending connection (nonblocking, TCP_NODELAY applied), or
  // nullopt when none is pending.
  std::optional<TcpConn> accept_one();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

// Close `conns` without losing a queued byte (docs/PROTOCOL.md §13.3):
// flush each write buffer, half-close so a FIN follows the data, and close
// once the peer has acknowledged everything sent, discarding unread input
// meanwhile.  A plain close() over unread input resets the connection, and
// the reset drops whatever the peer had not yet acknowledged.  Bounded by
// `timeout_s`: a peer that does not drain us is itself dead.
void close_gracefully(std::span<TcpConn* const> conns, double timeout_s);

// Blocking connect with retry until `timeout_s` (the target may not be
// listening yet).  Returns a nonblocking TCP_NODELAY connection; throws
// std::runtime_error on timeout.
TcpConn tcp_dial(const std::string& addr, std::uint16_t port,
                 double timeout_s);

// ---- hosts file -------------------------------------------------------------

// `--hosts=FILE`: pin nodes to external machines.  Line format
//     <node-id> <addr> [<port>]
// ('#' comments, blank lines ignored).  A pinned node is NOT spawned by the
// parent — the operator launches `aoft_node --connect=<parent> --node=<id>`
// on that machine and the rendezvous pairs it up.  The addr/port here is
// only advisory (which address the node should bind); the authoritative
// port map is built from the HELLOs.
struct HostPin {
  std::string addr;
  std::uint16_t port = 0;  // 0: ephemeral
};
std::vector<std::optional<HostPin>> parse_hosts_file(const std::string& path,
                                                     int num_nodes);

// A received DATA record awaiting the pump (both endpoints' inbox).
struct TcpInbound {
  bool from_host = false;
  std::vector<unsigned char> bytes;  // encode_message record
};

// ---- node endpoint ----------------------------------------------------------

// A node process's end of the socket fabric: its NodePort and the
// RemoteLink its machine runs over.
class TcpNodeEndpoint final : public sim::RemoteLink, public NodePort {
 public:
  // Dials the parent, HELLOs, and blocks until the CONFIG broadcast arrives
  // (bounded by setup_timeout_s).  After construction the job, faults,
  // input, llbs and port map are valid.  Throws std::runtime_error on any
  // setup failure.
  TcpNodeEndpoint(cube::NodeId node, const std::string& parent_addr,
                  std::uint16_t parent_port, const std::string& listen_addr,
                  std::uint16_t listen_port, double setup_timeout_s);
  ~TcpNodeEndpoint() override;

  // NodePort.  open() builds the peer mesh from the port map: dial lower
  // neighbors, accept higher ones, then drop the listen socket; throws on
  // timeout.  publish() sends the FINISH frame and closes every connection
  // gracefully, so all buffered peer traffic lands first.
  cube::NodeId node() const override { return me_; }
  const JobHead& job() const override { return cfg_.job; }
  std::span<const WireFault> faults() const override { return faults_; }
  std::span<const sim::Key> input() const override { return input_; }
  std::span<const sim::Key> llbs() const override { return llbs_; }
  sim::RemoteLink& open() override;
  void publish(const NodeResult& r) override;

  // sim::RemoteLink
  void send_node(cube::NodeId from, cube::NodeId to,
                 const sim::Message& m) override;
  void send_host(cube::NodeId from, const sim::Message& m) override;
  void send_from_host(cube::NodeId to, const sim::Message& m) override;
  std::size_t pump(sim::KeyPool& pool, const Deliver& deliver) override;
  bool peer_down(cube::NodeId q) const override;
  bool orphaned() const override { return parent_.eof(); }
  double recv_timeout_s() const override { return cfg_.recv_timeout_s; }
  void idle() override;

 private:
  TcpConn& neighbor(cube::NodeId q);
  // Read every open connection, queue kData, track liveness; send due
  // heartbeats; flush write buffers.
  void service();

  cube::NodeId me_;
  int dim_ = 0;
  TcpConfigHead cfg_{};
  std::vector<WireFault> faults_;
  std::vector<WirePortEntry> port_map_;
  std::vector<sim::Key> input_, llbs_;

  TcpListener listener_;
  TcpConn parent_;
  std::vector<TcpConn> peers_;  // indexed by dimension k
  PeerWatch watch_;             // indexed by dimension k
  std::deque<TcpInbound> inbox_;
  std::vector<unsigned char> scratch_;
};

// ---- host endpoint ----------------------------------------------------------

class TcpHostEndpoint final : public sim::RemoteLink {
 public:
  TcpHostEndpoint(int dim, const TcpOptions& opts);

  std::uint16_t port() const { return listener_.port(); }
  const std::string& addr() const { return addr_; }

  // Invoked from idle() so the parent process manager can reap zombies and
  // enforce the run deadline (mirrors ShmTransport's hook).
  void set_host_poll(std::function<void()> poll) {
    host_poll_ = std::move(poll);
  }

  // Accept connections until every node has HELLOed (bounded by
  // setup_timeout_s; throws on expiry).  Builds the authoritative port map.
  void rendezvous(double setup_timeout_s);

  // Send each node its CONFIG: the job plus faults/port-map/input/llbs tail
  // (llbs only when job.with_resume).
  void broadcast_config(const JobHead& job, std::span<const WireFault> faults,
                        std::span<const sim::Key> input,
                        std::span<const sim::Key> llbs);

  // Service the fleet until every node is down and all FINISH results are
  // in, idling as the host's machine does between pumps.
  void await_all();

  // Node p's FINISH record; state kDead once the watchdog retired it.
  const NodeResult& result(cube::NodeId p) const { return results_[p]; }

  // sim::RemoteLink
  void send_node(cube::NodeId from, cube::NodeId to,
                 const sim::Message& m) override;
  void send_host(cube::NodeId from, const sim::Message& m) override;
  void send_from_host(cube::NodeId to, const sim::Message& m) override;
  std::size_t pump(sim::KeyPool& pool, const Deliver& deliver) override;
  bool peer_down(cube::NodeId q) const override {
    return watch_.terminal(static_cast<int>(q));
  }
  bool orphaned() const override { return false; }
  double recv_timeout_s() const override { return opts_.recv_timeout_s; }
  void idle() override;

 private:
  void service();
  void handle_frame(cube::NodeId p, const Frame& f);

  int dim_;
  cube::NodeId n_;
  TcpOptions opts_;
  std::string addr_;
  TcpListener listener_;
  std::vector<TcpConn> conns_;        // indexed by node, valid after rendezvous
  std::vector<TcpConn> anonymous_;    // accepted, HELLO not yet seen
  std::vector<WirePortEntry> port_map_;
  std::vector<NodeResult> results_;
  PeerWatch watch_;  // indexed by node
  std::deque<TcpInbound> inbox_;
  std::vector<unsigned char> scratch_;
  std::function<void()> host_poll_;
};

}  // namespace aoft::transport
