// sim::RemoteLink over a ShmSegment: the per-process endpoint driver.
//
// Each OS process owns one endpoint — node p (role == p) or the host (role
// == kHostRole) — and a ShmTransport wired to the shared segment.  Sends
// encode into the destination's inbound ring; pump drains every ring that
// feeds the local endpoint.  Message absence is decided by the one policy
// in sim/remote.h; this fabric answers its primitives: a peer is down once
// its status slot is terminal, a node is orphaned once its parent pid
// changes, and idle() naps 200 µs (on the host, after polling the parent's
// reaper).

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/remote.h"
#include "transport/shm_segment.h"

namespace aoft::transport {

class ShmTransport final : public sim::RemoteLink {
 public:
  // `role` is a node id, or kHostRole for the host endpoint.
  ShmTransport(ShmSegment& seg, std::int32_t role);

  // Host side: invoked on every wait iteration so the parent can reap dead
  // children and enforce the run deadline while its collector is blocked.
  void set_host_poll(std::function<void()> poll) { host_poll_ = std::move(poll); }

  void send_node(cube::NodeId from, cube::NodeId to,
                 const sim::Message& m) override;
  void send_host(cube::NodeId from, const sim::Message& m) override;
  void send_from_host(cube::NodeId to, const sim::Message& m) override;
  std::size_t pump(sim::KeyPool& pool, const Deliver& deliver) override;
  bool peer_down(cube::NodeId q) const override;
  bool orphaned() const override;
  double recv_timeout_s() const override;
  void idle() override;

 private:
  bool push_ring(ShmRing ring, const sim::Message& m);

  ShmSegment& seg_;
  std::int32_t role_;
  std::function<void()> host_poll_;
  std::vector<unsigned char> scratch_;
};

// A node process's end of the shm fabric: the job is the segment header,
// the result is the node's status slot, its link-event region and its
// output block.
class ShmNodePort final : public NodePort {
 public:
  ShmNodePort(ShmSegment& seg, cube::NodeId p)
      : seg_(seg), p_(p), link_(seg, static_cast<std::int32_t>(p)) {}

  cube::NodeId node() const override { return p_; }
  const JobHead& job() const override { return seg_.header().job; }
  std::span<const WireFault> faults() const override { return seg_.faults(); }
  std::span<const sim::Key> input() const override { return seg_.input(); }
  std::span<const sim::Key> llbs() const override {
    return job().with_resume ? seg_.llbs() : std::span<sim::Key>{};
  }
  sim::RemoteLink& open() override;
  void publish(const NodeResult& r) override;

 private:
  ShmSegment& seg_;
  cube::NodeId p_;
  ShmTransport link_;
};

}  // namespace aoft::transport
