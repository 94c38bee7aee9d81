#include "transport/shm_transport.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <thread>

#include "transport/wire.h"

namespace aoft::transport {

namespace {
constexpr auto kIdleNap = std::chrono::microseconds(200);
}

ShmTransport::ShmTransport(ShmSegment& seg, std::int32_t role)
    : seg_(seg), role_(role) {
  scratch_.reserve(4096);
}

bool ShmTransport::push_ring(ShmRing ring, const sim::Message& m) {
  encode_message(m, scratch_);
  return ring.try_push(scratch_.data(),
                       static_cast<std::uint32_t>(scratch_.size()));
}

void ShmTransport::send_node(cube::NodeId from, cube::NodeId to,
                             const sim::Message& m) {
  const int k = std::countr_zero(from ^ to);
  if (!push_ring(seg_.link_ring(to, k), m))
    ++seg_.slot(from).send_overflow;  // sized for the whole run: a bug, not
                                      // backpressure — absorb like a dead peer
}

void ShmTransport::send_host(cube::NodeId from, const sim::Message& m) {
  if (!push_ring(seg_.up_ring(from), m)) ++seg_.slot(from).send_overflow;
}

void ShmTransport::send_from_host(cube::NodeId to, const sim::Message& m) {
  if (!push_ring(seg_.down_ring(to), m)) ++seg_.slot(to).send_overflow;
}

// The rings feeding this endpoint, in drain order: every node's up ring on
// the host; a node's link rings, then its down ring.
std::size_t ShmTransport::pump(sim::KeyPool& pool, const Deliver& deliver) {
  const bool host = role_ == kHostRole;
  const auto me = static_cast<cube::NodeId>(role_);
  const auto rings =
      host ? seg_.num_nodes() : static_cast<cube::NodeId>(seg_.dim()) + 1;
  cube::NodeId i = 0;
  return deliver_records(
      pool, deliver, [&](std::vector<unsigned char>& rec, bool& from_host) {
        for (; i < rings; ++i) {
          from_host = !host && i + 1 == rings;
          ShmRing ring = host        ? seg_.up_ring(i)
                         : from_host ? seg_.down_ring(me)
                                     : seg_.link_ring(me, static_cast<int>(i));
          if (ring.try_pop(rec)) return true;
        }
        return false;
      });
}

// Acquire pairs with the release store that makes a slot terminal (the
// child's publish, or the parent's reap): every record the node pushed
// before it is visible to the next pump.
bool ShmTransport::peer_down(cube::NodeId q) const {
  return slot_terminal(static_cast<SlotState>(
      seg_.slot(q).state.load(std::memory_order_acquire)));
}

bool ShmTransport::orphaned() const {
  return role_ != kHostRole && getppid() != seg_.header().host_pid;
}

double ShmTransport::recv_timeout_s() const {
  return seg_.header().recv_timeout_s;
}

void ShmTransport::idle() {
  std::this_thread::sleep_for(kIdleNap);
  if (host_poll_) host_poll_();
}

sim::RemoteLink& ShmNodePort::open() {
  seg_.slot(p_).state.store(static_cast<std::uint32_t>(SlotState::kRunning),
                            std::memory_order_release);
  return link_;
}

void ShmNodePort::publish(const NodeResult& r) {
  NodeSlot& slot = seg_.slot(p_);
  slot.stats = r.stats;
  slot.error_count = static_cast<std::uint32_t>(
      std::min<std::size_t>(r.errors.size(), kMaxSlotErrors));
  std::copy_n(r.errors.begin(), slot.error_count, slot.errors);
  const auto events = seg_.events(p_);
  slot.event_count = static_cast<std::uint32_t>(
      std::min(r.events.size(), events.size()));
  std::copy_n(r.events.begin(), slot.event_count, events.begin());
  std::snprintf(slot.fail_reason, sizeof slot.fail_reason, "%s",
                r.fail_reason.c_str());
  const auto m = static_cast<std::size_t>(job().block);
  if (r.output.size() == m)
    std::copy(r.output.begin(), r.output.end(),
              seg_.output().begin() + static_cast<std::ptrdiff_t>(p_ * m));
  // The release store comes last, so a terminal slot implies a complete
  // record and output block.
  slot.state.store(static_cast<std::uint32_t>(r.state),
                   std::memory_order_release);
}

}  // namespace aoft::transport
