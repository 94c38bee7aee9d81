#include "transport/fleet.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "transport/process.h"
#include "transport/shm_transport.h"
#include "transport/tcp_transport.h"

namespace aoft::transport {

namespace {

// Shared memory: the job is staged in the segment before any process
// exists; the parent's reaper is the death authority.
class ShmFleet final : public Fleet {
 public:
  ShmFleet(const JobHead& job, std::span<const WireFault> faults,
           std::span<const sim::Key> input, std::span<const sim::Key> llbs,
           const ShmOptions& opts)
      : seg_(ShmSegment::create(config(job, opts))),
        par_(seg_),
        host_(seg_, kHostRole),
        node_binary_(opts.node_binary) {
    std::copy(faults.begin(), faults.end(), seg_.faults().begin());
    std::copy(input.begin(), input.end(), seg_.input().begin());
    if (job.with_resume) std::copy(llbs.begin(), llbs.end(), seg_.llbs().begin());
    host_.set_host_poll([this] { par_.poll(); });
  }

  void start(const ChildMain& child) override {
    if (!node_binary_.empty()) {
      par_.spawn_exec(node_binary_);
      return;
    }
    par_.spawn_fork([&](cube::NodeId p) {
      ShmNodePort port(seg_, p);
      return child(port);
    });
  }

  sim::RemoteLink& host_link() override { return host_; }
  void await() override { par_.await_all(); }

  NodeResult result(cube::NodeId p) override {
    NodeSlot& slot = seg_.slot(p);
    NodeResult r;
    r.state = static_cast<SlotState>(slot.state.load(std::memory_order_acquire));
    r.stats = slot.stats;
    r.errors.assign(slot.errors,
                    slot.errors + std::min(slot.error_count, kMaxSlotErrors));
    const auto events = seg_.events(p);
    r.events.assign(events.begin(),
                    events.begin() + std::min<std::size_t>(slot.event_count,
                                                           events.size()));
    const auto m = static_cast<std::size_t>(seg_.header().job.block);
    const auto out = seg_.output().subspan(p * m, m);
    r.output.assign(out.begin(), out.end());
    r.fail_reason.assign(slot.fail_reason,
                         strnlen(slot.fail_reason, sizeof slot.fail_reason));
    return r;
  }

 private:
  static ShmSegment::Config config(const JobHead& job, const ShmOptions& o) {
    ShmSegment::Config cfg;
    static_cast<JobHead&>(cfg) = job;
    cfg.recv_timeout_s = o.recv_timeout_s;
    cfg.run_deadline_s = o.run_deadline_s;
    return cfg;
  }

  ShmSegment seg_;
  ShmParent par_;
  ShmTransport host_;
  std::string node_binary_;
};

// Sockets: the fleet is spawned first and told the job in CONFIG frames
// after the rendezvous; each endpoint's own watchdog detects deaths, so the
// process table only reaps zombies and enforces the run deadline.  Nodes
// pinned in a hosts file are launched by hand elsewhere, never spawned here.
class TcpFleet final : public Fleet {
 public:
  TcpFleet(const JobHead& job, std::span<const WireFault> faults,
           std::span<const sim::Key> input, std::span<const sim::Key> llbs,
           const TcpOptions& opts)
      : job_(job),
        faults_(faults),
        input_(input),
        llbs_(llbs),
        opts_(opts),
        n_(cube::NodeId{1} << job.dim),
        host_(job.dim, opts),
        procs_(n_, opts.run_deadline_s),
        pins_(opts.hosts_file.empty()
                  ? std::vector<std::optional<HostPin>>(n_)
                  : parse_hosts_file(opts.hosts_file, static_cast<int>(n_))) {
    host_.set_host_poll([this] { procs_.poll(); });
  }

  void start(const ChildMain& child) override {
    const std::string addr = host_.addr();
    const std::uint16_t port = host_.port();
    for (cube::NodeId p = 0; p < n_; ++p) {
      if (pins_[p]) continue;  // external node
      if (!opts_.node_binary.empty()) {
        procs_.exec_node(p, {opts_.node_binary,
                             "--connect=" + addr + ":" + std::to_string(port),
                             "--node=" + std::to_string(p)});
        continue;
      }
      procs_.fork_node(p, [&](cube::NodeId q) {
        try {
          TcpNodeEndpoint ep(q, addr, port, "127.0.0.1", 0,
                             opts_.run_deadline_s);
          return child(ep);
        } catch (const std::exception&) {
          return 1;  // setup failed before the endpoint could FINISH
        }
      });
    }
    host_.rendezvous(opts_.run_deadline_s);
    host_.broadcast_config(job_, faults_, input_, llbs_);
  }

  sim::RemoteLink& host_link() override { return host_; }

  void await() override {
    host_.await_all();
    // Verdicts are in; give well-behaved children a moment to _exit, then
    // SIGKILL stragglers — a wedged (SIGSTOPped) child never exits.
    procs_.await_all(0.5);
  }

  NodeResult result(cube::NodeId p) override { return host_.result(p); }

 private:
  JobHead job_;
  std::span<const WireFault> faults_;
  std::span<const sim::Key> input_, llbs_;
  TcpOptions opts_;
  cube::NodeId n_;
  TcpHostEndpoint host_;
  ProcessTable procs_;
  std::vector<std::optional<HostPin>> pins_;
};

}  // namespace

std::unique_ptr<Fleet> make_fleet(Backend backend, const JobHead& job,
                                  std::span<const WireFault> faults,
                                  std::span<const sim::Key> input,
                                  std::span<const sim::Key> llbs,
                                  const ShmOptions& shm, const TcpOptions& tcp) {
  switch (backend) {
    case Backend::kShm:
      return std::make_unique<ShmFleet>(job, faults, input, llbs, shm);
    case Backend::kTcp:
      return std::make_unique<TcpFleet>(job, faults, input, llbs, tcp);
    case Backend::kSim:
      break;
  }
  throw std::invalid_argument("make_fleet: the sim backend has no fleet");
}

}  // namespace aoft::transport
