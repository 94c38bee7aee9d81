#include "transport/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <linux/sockios.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "transport/wire.h"

namespace aoft::transport {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void die(const std::string& what) {
  throw std::runtime_error("tcp: " + what + " (" + std::strerror(errno) + ")");
}

void set_nonblocking(int fd) {
  const int fl = fcntl(fd, F_GETFL, 0);
  if (fl < 0 || fcntl(fd, F_SETFL, fl | O_NONBLOCK) < 0)
    die("fcntl(O_NONBLOCK)");
}

void set_nodelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

sockaddr_in make_addr(const std::string& addr, std::uint16_t port) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (inet_pton(AF_INET, addr.c_str(), &sa.sin_addr) != 1)
    throw std::runtime_error("tcp: bad IPv4 address '" + addr + "'");
  return sa;
}

// Poll one fd for readability, bounded.
bool wait_readable(int fd, int timeout_ms) {
  pollfd pf{fd, POLLIN, 0};
  return ::poll(&pf, 1, timeout_ms) > 0;
}

// The one poll set both endpoints idle on: every open connection for input,
// plus output while it holds a write backlog, for at most 20 ms.  With no
// connection open, a 1 ms nap.
void idle_on(std::initializer_list<std::span<const TcpConn>> groups) {
  std::vector<pollfd> pfds;
  for (const auto group : groups)
    for (const TcpConn& c : group)
      if (c.fd() >= 0)
        pfds.push_back(
            {c.fd(),
             static_cast<short>(POLLIN | (c.want_write() ? POLLOUT : 0)), 0});
  if (pfds.empty())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  else
    ::poll(pfds.data(), pfds.size(), 20);
}

// Bytes the kernel still holds for the peer: unsent, or sent and not yet
// acknowledged.  0 once the connection is reset: SIOCOUTQ keeps counting
// what a reset discarded, and none of it can reach the peer any more.
int unacked_bytes(int fd) {
  tcp_info ti{};
  socklen_t len = sizeof ti;
  if (::getsockopt(fd, IPPROTO_TCP, TCP_INFO, &ti, &len) != 0 ||
      ti.tcpi_state == TCP_CLOSE)
    return 0;
  int n = 0;
  return ::ioctl(fd, SIOCOUTQ, &n) == 0 ? n : 0;
}

std::size_t deliver_inbox(std::deque<TcpInbound>& inbox, sim::KeyPool& pool,
                          const sim::RemoteLink::Deliver& deliver) {
  return deliver_records(
      pool, deliver, [&](std::vector<unsigned char>& rec, bool& from_host) {
        if (inbox.empty()) return false;
        rec = std::move(inbox.front().bytes);
        from_host = inbox.front().from_host;
        inbox.pop_front();
        return true;
      });
}

}  // namespace

// ---- TcpConn ----------------------------------------------------------------

TcpConn::TcpConn(TcpConn&& o) noexcept { *this = std::move(o); }

TcpConn& TcpConn::operator=(TcpConn&& o) noexcept {
  if (this != &o) {
    close_fd();
    fd_ = o.fd_;
    broken_ = o.broken_;
    eof_ = o.eof_;
    wbuf_ = std::move(o.wbuf_);
    wpos_ = o.wpos_;
    reader_ = std::move(o.reader_);
    last_tx = o.last_tx;
    o.fd_ = -1;
  }
  return *this;
}

TcpConn::~TcpConn() { close_fd(); }

void TcpConn::close_fd() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void TcpConn::queue_frame(FrameType type,
                          std::span<const unsigned char> payload) {
  if (!open()) return;  // dead peers absorb traffic, like a halted receiver
  append_frame(wbuf_, type, payload);
  flush();
}

bool TcpConn::flush() {
  if (fd_ < 0 || broken_) {
    wbuf_.clear();
    wpos_ = 0;
    return true;
  }
  while (wpos_ < wbuf_.size()) {
    const ssize_t n = ::send(fd_, wbuf_.data() + wpos_, wbuf_.size() - wpos_,
                             MSG_NOSIGNAL);
    if (n > 0) {
      wpos_ += static_cast<std::size_t>(n);
      last_tx = Clock::now();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;  // signal, not a dead peer
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    broken_ = true;  // peer gone mid-write: absorb the rest
    wbuf_.clear();
    wpos_ = 0;
    return true;
  }
  if (wpos_ == wbuf_.size()) {
    wbuf_.clear();
    wpos_ = 0;
  } else if (wpos_ > 65536) {
    wbuf_.erase(wbuf_.begin(), wbuf_.begin() + static_cast<long>(wpos_));
    wpos_ = 0;
  }
  return wpos_ == wbuf_.size();
}

std::size_t TcpConn::read_some() {
  if (fd_ < 0 || eof_) return 0;
  std::size_t total = 0;
  unsigned char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      reader_.feed({buf, static_cast<std::size_t>(n)});
      total += static_cast<std::size_t>(n);
      if (static_cast<std::size_t>(n) < sizeof buf) break;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;  // signal, not a dead peer
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    eof_ = true;  // orderly close or reset: either way the peer is gone
    break;
  }
  return total;
}

// ---- TcpListener ------------------------------------------------------------

TcpListener::TcpListener(const std::string& addr, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) die("socket");
  int one = 1;
  setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in sa = make_addr(addr, port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) < 0)
    die("bind " + addr);
  socklen_t len = sizeof sa;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len) < 0)
    die("getsockname");
  port_ = ntohs(sa.sin_port);
  if (::listen(fd_, 128) < 0) die("listen");
  set_nonblocking(fd_);
}

TcpListener::TcpListener(TcpListener&& o) noexcept
    : fd_(o.fd_), port_(o.port_) {
  o.fd_ = -1;
}

TcpListener& TcpListener::operator=(TcpListener&& o) noexcept {
  if (this != &o) {
    close_fd();
    fd_ = o.fd_;
    port_ = o.port_;
    o.fd_ = -1;
  }
  return *this;
}

TcpListener::~TcpListener() { close_fd(); }

void TcpListener::close_fd() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

std::optional<TcpConn> TcpListener::accept_one() {
  if (fd_ < 0) return std::nullopt;
  const int cfd = ::accept(fd_, nullptr, nullptr);
  if (cfd < 0) return std::nullopt;
  set_nonblocking(cfd);
  set_nodelay(cfd);
  return TcpConn(cfd);
}

void close_gracefully(std::span<TcpConn* const> conns, double timeout_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  for (;;) {
    bool done = true;
    for (TcpConn* c : conns) {
      if (!c->open()) continue;
      c->read_some();  // unread input is discarded: closing over it resets
      if (!c->flush()) {
        done = false;  // the FIN must follow the last queued byte
        continue;
      }
      ::shutdown(c->fd(), SHUT_WR);
      done = unacked_bytes(c->fd()) == 0 && done;
    }
    if (done || Clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (TcpConn* c : conns) c->close_fd();
}

TcpConn tcp_dial(const std::string& addr, std::uint16_t port,
                 double timeout_s) {
  const sockaddr_in sa = make_addr(addr, port);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) die("socket");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) ==
        0) {
      set_nonblocking(fd);
      set_nodelay(fd);
      return TcpConn(fd);
    }
    ::close(fd);
    if (Clock::now() >= deadline)
      throw std::runtime_error("tcp: connect to " + addr + ":" +
                               std::to_string(port) + " timed out");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

// ---- hosts file -------------------------------------------------------------

std::vector<std::optional<HostPin>> parse_hosts_file(const std::string& path,
                                                     int num_nodes) {
  std::vector<std::optional<HostPin>> pins(
      static_cast<std::size_t>(num_nodes));
  std::ifstream in(path);
  if (!in) throw std::runtime_error("tcp: cannot open hosts file " + path);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    long id = -1;
    if (!(ls >> id)) continue;  // blank / comment-only line
    HostPin pin;
    long port = 0;
    if (id < 0 || id >= num_nodes || !(ls >> pin.addr) ||
        ((ls >> port) && (port < 0 || port > 65535)))
      throw std::runtime_error("tcp: bad hosts line " +
                               std::to_string(lineno) + " in " + path);
    pin.port = static_cast<std::uint16_t>(port);
    pins[static_cast<std::size_t>(id)] = std::move(pin);
  }
  return pins;
}

// ---- TcpNodeEndpoint --------------------------------------------------------

TcpNodeEndpoint::TcpNodeEndpoint(cube::NodeId node,
                                 const std::string& parent_addr,
                                 std::uint16_t parent_port,
                                 const std::string& listen_addr,
                                 std::uint16_t listen_port,
                                 double setup_timeout_s)
    : me_(node),
      listener_(listen_addr, listen_port),
      parent_(tcp_dial(parent_addr, parent_port, setup_timeout_s)),
      watch_(0, 0.0) {
  scratch_.reserve(4096);

  WireHello hello;
  std::memcpy(hello.magic, kTcpMagic, sizeof hello.magic);
  hello.role = static_cast<std::int32_t>(me_);
  hello.listen_port = listener_.port();
  std::snprintf(hello.listen_addr, sizeof hello.listen_addr, "%s",
                listen_addr.c_str());
  parent_.queue_frame(FrameType::kHello, as_bytes_of(hello));

  // Block for the CONFIG broadcast — it arrives only after every node of
  // the cube has HELLOed, so this wait covers the whole fleet's rendezvous.
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(setup_timeout_s));
  std::vector<unsigned char> cfg_payload;
  for (;;) {
    parent_.flush();
    if (auto f = parent_.reader().next()) {
      if (f->type == FrameType::kConfig) {
        cfg_payload.assign(f->payload.begin(), f->payload.end());
        break;
      }
      continue;  // stray heartbeat
    }
    if (parent_.reader().malformed() || parent_.eof())
      throw std::runtime_error("tcp: parent stream ended before CONFIG");
    if (Clock::now() >= deadline)
      throw std::runtime_error("tcp: CONFIG wait timed out");
    wait_readable(parent_.fd(), 50);
    parent_.read_some();
  }

  std::span<const unsigned char> cur(cfg_payload);
  if (!take(cur, cfg_) ||
      std::memcmp(cfg_.magic, kTcpMagic, sizeof cfg_.magic) != 0 ||
      cfg_.version != kTcpVersion ||
      cfg_.for_node != static_cast<std::int32_t>(me_) ||
      cfg_.job.dim < 0 || cfg_.job.dim > kMaxProcessDim)
    throw std::runtime_error("tcp: CONFIG head corrupt");
  dim_ = cfg_.job.dim;
  const cube::NodeId n = cube::NodeId{1} << dim_;
  faults_.resize(n);
  port_map_.resize(n);
  for (auto& f : faults_)
    if (!take(cur, f)) throw std::runtime_error("tcp: CONFIG faults corrupt");
  for (auto& e : port_map_)
    if (!take(cur, e)) throw std::runtime_error("tcp: CONFIG ports corrupt");
  const std::size_t keys = static_cast<std::size_t>(n) * cfg_.job.block;
  const std::size_t want =
      keys * sizeof(sim::Key) * (cfg_.job.with_resume ? 2 : 1);
  if (cur.size() != want)
    throw std::runtime_error("tcp: CONFIG key payload corrupt");
  input_.resize(keys);
  std::memcpy(input_.data(), cur.data(), keys * sizeof(sim::Key));
  if (cfg_.job.with_resume) {
    llbs_.resize(keys);
    std::memcpy(llbs_.data(), cur.data() + keys * sizeof(sim::Key),
                keys * sizeof(sim::Key));
  }

  peers_.resize(static_cast<std::size_t>(dim_));
  watch_ = PeerWatch(dim_, cfg_.heartbeat_loss_s);
}

TcpNodeEndpoint::~TcpNodeEndpoint() = default;

TcpConn& TcpNodeEndpoint::neighbor(cube::NodeId q) {
  return peers_[static_cast<std::size_t>(std::countr_zero(me_ ^ q))];
}

sim::RemoteLink& TcpNodeEndpoint::open() {
  const auto now = Clock::now();
  int expect_accept = 0;
  for (int k = 0; k < dim_; ++k) {
    const cube::NodeId q = me_ ^ (cube::NodeId{1} << k);
    if (q < me_) {
      // Every node listens before it HELLOs and CONFIG follows the last
      // HELLO, so the lower neighbor is already accepting.
      peers_[static_cast<std::size_t>(k)] =
          tcp_dial(port_map_[q].addr, port_map_[q].port, cfg_.recv_timeout_s);
      WireHello hello;
      std::memcpy(hello.magic, kTcpMagic, sizeof hello.magic);
      hello.role = static_cast<std::int32_t>(me_);
      peers_[static_cast<std::size_t>(k)].queue_frame(FrameType::kHello,
                                                      as_bytes_of(hello));
    } else {
      ++expect_accept;
    }
  }

  std::vector<TcpConn> anon;
  const auto deadline =
      now + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(cfg_.recv_timeout_s));
  while (expect_accept > 0) {
    if (Clock::now() >= deadline)
      throw std::runtime_error("tcp: peer mesh accept timed out");
    while (auto c = listener_.accept_one()) anon.push_back(std::move(*c));
    bool progressed = false;
    for (auto& c : anon) {
      if (!c.open()) continue;
      c.read_some();
      if (auto f = c.reader().next()) {
        WireHello hello;
        auto payload = f->payload;
        if (f->type != FrameType::kHello || !take(payload, hello) ||
            std::memcmp(hello.magic, kTcpMagic, sizeof hello.magic) != 0)
          throw std::runtime_error("tcp: bad peer hello");
        const auto q = static_cast<cube::NodeId>(hello.role);
        if ((me_ ^ q) == 0 || std::popcount(me_ ^ q) != 1 || q < me_)
          throw std::runtime_error("tcp: peer hello from non-neighbor");
        neighbor(q) = std::move(c);
        --expect_accept;
        progressed = true;
      }
    }
    std::erase_if(anon, [](const TcpConn& c) { return c.fd() < 0; });
    if (!progressed) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  listener_.close_fd();
  // kRunning, but each peer's silence rule stays un-armed until it is first
  // heard from — a neighbor may still be meshing with ITS other neighbors.
  for (int k = 0; k < dim_; ++k) watch_.mark_up(k, Clock::now());
  // Announce liveness right away: the regular cadence only starts once the
  // machine reaches its pump loop, which is an entire block-local sort from
  // here, and peers / the host arm their watchdogs on this first beat.
  if (cfg_.heartbeat_interval_s > 0) {
    parent_.queue_frame(FrameType::kHeartbeat, {});
    for (auto& c : peers_) c.queue_frame(FrameType::kHeartbeat, {});
  }
  return *this;
}

void TcpNodeEndpoint::send_node(cube::NodeId from, cube::NodeId to,
                                const sim::Message& m) {
  (void)from;
  encode_message(m, scratch_);
  neighbor(to).queue_frame(FrameType::kData, scratch_);
}

void TcpNodeEndpoint::send_host(cube::NodeId, const sim::Message& m) {
  encode_message(m, scratch_);
  parent_.queue_frame(FrameType::kData, scratch_);
}

void TcpNodeEndpoint::send_from_host(cube::NodeId, const sim::Message&) {
  throw std::logic_error("tcp: node endpoint cannot send as host");
}

void TcpNodeEndpoint::service() {
  const auto now = Clock::now();

  const auto drain = [&](TcpConn& c, int k, bool from_host) {
    if (!c.open() && !c.eof()) return;
    if (c.read_some() > 0 && k >= 0) watch_.note_activity(k, now);
    while (auto f = c.reader().next()) {
      if (f->type == FrameType::kData)
        inbox_.push_back(
            {from_host, {f->payload.begin(), f->payload.end()}});
      // heartbeats carry no payload; their bytes already refreshed last_rx
    }
    if (c.reader().malformed())
      throw std::runtime_error("tcp: corrupt stream from peer");
    if (c.eof() && k >= 0) watch_.mark_dead(k);
  };

  drain(parent_, -1, true);
  for (int k = 0; k < dim_; ++k)
    drain(peers_[static_cast<std::size_t>(k)], k, false);

  // Our own liveness: beat every transmit-idle link so blocked peers (and
  // the host's wedge detector) keep seeing a live neighbor.
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(cfg_.heartbeat_interval_s));
  const auto beat = [&](TcpConn& c) {
    if (!c.open()) return;
    if (now - c.last_tx >= interval) c.queue_frame(FrameType::kHeartbeat, {});
    c.flush();
  };
  if (cfg_.heartbeat_interval_s > 0) {
    beat(parent_);
    for (auto& c : peers_) beat(c);
  } else {
    parent_.flush();
    for (auto& c : peers_) c.flush();
  }

  watch_.sweep(now);
}

std::size_t TcpNodeEndpoint::pump(sim::KeyPool& pool, const Deliver& deliver) {
  service();
  return deliver_inbox(inbox_, pool, deliver);
}

bool TcpNodeEndpoint::peer_down(cube::NodeId q) const {
  return watch_.terminal(std::countr_zero(me_ ^ q));
}

void TcpNodeEndpoint::idle() {
  idle_on({std::span<const TcpConn>(&parent_, 1), peers_});
}

void TcpNodeEndpoint::publish(const NodeResult& r) {
  FinishHead h;
  h.node = static_cast<std::int32_t>(me_);
  h.state = static_cast<std::uint32_t>(r.state);
  h.stats = r.stats;
  h.error_count = static_cast<std::uint32_t>(r.errors.size());
  h.event_count = static_cast<std::uint32_t>(r.events.size());
  h.out_count = static_cast<std::uint32_t>(r.output.size());
  std::snprintf(h.fail_reason, sizeof h.fail_reason, "%s",
                r.fail_reason.c_str());
  std::vector<unsigned char> payload;
  const auto append = [&payload](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    payload.insert(payload.end(), b, b + n);
  };
  append(&h, sizeof h);
  append(r.errors.data(), r.errors.size() * sizeof(WireError));
  append(r.events.data(), r.events.size() * sizeof(WireLinkEvent));
  append(r.output.data(), r.output.size() * sizeof(sim::Key));
  parent_.queue_frame(FrameType::kFinish, payload);

  // Everything still buffered (final exchange traffic included) must reach
  // its reader before the connections go away.
  std::vector<TcpConn*> conns{&parent_};
  for (auto& c : peers_) conns.push_back(&c);
  close_gracefully(conns, 5.0);
}

// ---- TcpHostEndpoint --------------------------------------------------------

TcpHostEndpoint::TcpHostEndpoint(int dim, const TcpOptions& opts)
    : dim_(dim),
      n_(cube::NodeId{1} << dim),
      opts_(opts),
      addr_(opts.listen_addr),
      listener_(opts.listen_addr, opts.port),
      conns_(n_),
      port_map_(n_),
      results_(n_),
      watch_(static_cast<int>(n_), opts.heartbeat_loss_s) {
  scratch_.reserve(4096);
}

void TcpHostEndpoint::rendezvous(double setup_timeout_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(setup_timeout_s));
  cube::NodeId helloed = 0;
  while (helloed < n_) {
    if (Clock::now() >= deadline)
      throw std::runtime_error("tcp: rendezvous timed out with " +
                               std::to_string(helloed) + "/" +
                               std::to_string(n_) + " nodes");
    if (host_poll_) host_poll_();  // notice children that died pre-HELLO
    while (auto c = listener_.accept_one())
      anonymous_.push_back(std::move(*c));
    for (auto& c : anonymous_) {
      if (c.fd() < 0) continue;
      c.read_some();
      if (auto f = c.reader().next()) {
        WireHello hello;
        auto payload = f->payload;
        if (f->type != FrameType::kHello || !take(payload, hello) ||
            std::memcmp(hello.magic, kTcpMagic, sizeof hello.magic) != 0 ||
            hello.role < 0 || static_cast<cube::NodeId>(hello.role) >= n_)
          throw std::runtime_error("tcp: bad node hello");
        const auto p = static_cast<cube::NodeId>(hello.role);
        if (conns_[p].fd() >= 0)
          throw std::runtime_error("tcp: duplicate hello from node " +
                                   std::to_string(p));
        std::snprintf(port_map_[p].addr, sizeof port_map_[p].addr, "%s",
                      hello.listen_addr);
        port_map_[p].port = hello.listen_port;
        conns_[p] = std::move(c);
        // kRunning, silence rule un-armed: the node is rightfully quiet
        // until CONFIG reaches it and its mesh completes (minutes, under
        // --hosts); its first post-mesh heartbeat arms the watchdog.
        watch_.mark_up(static_cast<int>(p), Clock::now());
        ++helloed;
      } else if (c.eof() || c.reader().malformed()) {
        c.close_fd();
      }
    }
    std::erase_if(anonymous_, [](const TcpConn& c) { return c.fd() < 0; });
    if (helloed < n_) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void TcpHostEndpoint::broadcast_config(const JobHead& job,
                                       std::span<const WireFault> faults,
                                       std::span<const sim::Key> input,
                                       std::span<const sim::Key> llbs) {
  TcpConfigHead head;
  std::memcpy(head.magic, kTcpMagic, sizeof head.magic);
  head.job = job;
  head.job.dim = dim_;
  if (!job.with_resume) llbs = {};
  head.recv_timeout_s = opts_.recv_timeout_s;
  head.heartbeat_interval_s = opts_.heartbeat_interval_s;
  // Grow the silence bound with the block (the longest compute burst a node
  // performs without touching its sockets) and hold the host's own watchdog
  // to the same scaled value the nodes will sweep with.
  head.heartbeat_loss_s = scaled_heartbeat_loss(opts_.heartbeat_loss_s,
                                                job.block);
  watch_.set_loss(head.heartbeat_loss_s);
  // Same bound the fleet checked before spawning; re-checked here so no
  // caller can push an unframeable CONFIG into append_frame's truncation
  // guard with a less helpful message.
  const std::size_t config_bytes = sizeof head + faults.size_bytes() +
                                   port_map_.size() * sizeof(WirePortEntry) +
                                   input.size_bytes() + llbs.size_bytes();
  if (config_bytes > kMaxFrameBytes)
    throw std::runtime_error(
        "tcp: CONFIG payload of " + std::to_string(config_bytes) +
        " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
        "-byte frame limit — shrink block or dim for the tcp backend");
  std::vector<unsigned char> payload;
  for (cube::NodeId p = 0; p < n_; ++p) {
    head.for_node = static_cast<std::int32_t>(p);
    payload.clear();
    const auto append = [&payload](const void* ptr, std::size_t bytes) {
      const auto* b = static_cast<const unsigned char*>(ptr);
      payload.insert(payload.end(), b, b + bytes);
    };
    append(&head, sizeof head);
    append(faults.data(), faults.size_bytes());
    append(port_map_.data(), port_map_.size() * sizeof(WirePortEntry));
    append(input.data(), input.size_bytes());
    append(llbs.data(), llbs.size_bytes());
    conns_[p].queue_frame(FrameType::kConfig, payload);
  }
}

void TcpHostEndpoint::handle_frame(cube::NodeId p, const Frame& f) {
  switch (f.type) {
    case FrameType::kData:
      inbox_.push_back({false, {f.payload.begin(), f.payload.end()}});
      return;
    case FrameType::kHeartbeat:
      return;  // bytes already refreshed last_rx
    case FrameType::kFinish: {
      FinishHead h;
      auto cur = f.payload;
      if (!take(cur, h) || h.node != static_cast<std::int32_t>(p) ||
          cur.size() != h.error_count * sizeof(WireError) +
                            h.event_count * sizeof(WireLinkEvent) +
                            h.out_count * sizeof(sim::Key))
        throw std::runtime_error("tcp: finish frame corrupt");
      NodeResult& r = results_[p];
      r.state = static_cast<SlotState>(h.state);
      r.stats = h.stats;
      r.errors.resize(h.error_count);
      for (auto& e : r.errors) take(cur, e);
      r.events.resize(h.event_count);
      for (auto& e : r.events) take(cur, e);
      r.output.resize(h.out_count);
      if (h.out_count)
        std::memcpy(r.output.data(), cur.data(), h.out_count * sizeof(sim::Key));
      h.fail_reason[sizeof h.fail_reason - 1] = '\0';
      r.fail_reason = h.fail_reason;
      watch_.mark_finished(static_cast<int>(p), r.state);
      return;
    }
    default:
      throw std::runtime_error("tcp: unexpected frame from node");
  }
}

void TcpHostEndpoint::service() {
  const auto now = Clock::now();
  for (cube::NodeId p = 0; p < n_; ++p) {
    TcpConn& c = conns_[p];
    if (c.fd() < 0) continue;
    if (c.read_some() > 0) watch_.note_activity(static_cast<int>(p), now);
    while (auto f = c.reader().next()) handle_frame(p, *f);
    if (c.reader().malformed())
      throw std::runtime_error("tcp: corrupt stream from node " +
                               std::to_string(p));
    if (c.eof()) {
      watch_.mark_dead(static_cast<int>(p));  // kDone/kFailed stay put
      c.close_fd();
    } else {
      c.flush();
    }
  }
  watch_.sweep(now);
  // Mirror the sweep into the results so collectors see kDead for wedged
  // peers that never EOF'd.
  for (cube::NodeId p = 0; p < n_; ++p)
    if (!slot_terminal(results_[p].state))
      results_[p].state = watch_.state(static_cast<int>(p));
}

std::size_t TcpHostEndpoint::pump(sim::KeyPool& pool, const Deliver& deliver) {
  service();
  return deliver_inbox(inbox_, pool, deliver);
}

void TcpHostEndpoint::idle() {
  idle_on({conns_});
  if (host_poll_) host_poll_();
}

void TcpHostEndpoint::await_all() {
  while (!watch_.all_terminal()) {
    service();
    idle();
  }
  service();  // collect any FINISH that raced the final sweep
}

void TcpHostEndpoint::send_node(cube::NodeId, cube::NodeId,
                                const sim::Message&) {
  throw std::logic_error("tcp: host endpoint cannot send node-to-node");
}

void TcpHostEndpoint::send_host(cube::NodeId, const sim::Message&) {
  throw std::logic_error("tcp: host endpoint cannot send to itself");
}

void TcpHostEndpoint::send_from_host(cube::NodeId to, const sim::Message& m) {
  encode_message(m, scratch_);
  conns_[to].queue_frame(FrameType::kData, scratch_);
}

}  // namespace aoft::transport
