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

std::size_t ShmTransport::pump(sim::KeyPool& pool, const Deliver& deliver) {
  std::size_t delivered = 0;
  std::vector<unsigned char> rec;
  const auto drain = [&](ShmRing ring, bool from_host) {
    while (ring.try_pop(rec)) {
      sim::Message m(pool);
      if (!decode_message(rec, pool, m))
        throw std::runtime_error("shm ring record corrupt");
      deliver(from_host, m.from, std::move(m));
      ++delivered;
    }
  };
  if (role_ == kHostRole) {
    for (cube::NodeId p = 0; p < seg_.num_nodes(); ++p)
      drain(seg_.up_ring(p), false);
  } else {
    const auto me = static_cast<cube::NodeId>(role_);
    for (int k = 0; k < seg_.dim(); ++k) drain(seg_.link_ring(me, k), false);
    drain(seg_.down_ring(me), true);
  }
  if (delivered > 0) waiting_ = false;
  return delivered;
}

bool ShmTransport::wait_activity(std::span<const cube::NodeId> peers) {
  const auto now = std::chrono::steady_clock::now();
  if (!waiting_) {
    waiting_ = true;
    wait_start_ = now;
  }

  if (role_ == kHostRole) {
    if (host_poll_) host_poll_();
    bool all_down = true;
    for (cube::NodeId p = 0; all_down && p < seg_.num_nodes(); ++p)
      all_down = slot_terminal(static_cast<SlotState>(
          seg_.slot(p).state.load(std::memory_order_acquire)));
    if (all_down) {
      // Slots first, rings second: anything a child pushed before its
      // terminal store is visible by now, so empty rings mean silence.
      bool drained = true;
      for (cube::NodeId p = 0; drained && p < seg_.num_nodes(); ++p)
        drained = seg_.up_ring(p).empty();
      if (drained) return false;
    }
    std::this_thread::sleep_for(kIdleNap);
    return true;
  }

  // Node role.  An orphaned child can never receive again: its host (and
  // the cube around it) is gone.
  if (getppid() != seg_.header().host_pid) return false;

  if (!peers.empty()) {
    bool all_down = true;
    for (cube::NodeId q : peers)
      all_down = all_down && slot_terminal(static_cast<SlotState>(
                                 seg_.slot(q).state.load(
                                     std::memory_order_acquire)));
    if (all_down) {
      const auto me = static_cast<cube::NodeId>(role_);
      bool drained = true;
      for (int k = 0; drained && k < seg_.dim(); ++k)
        drained = seg_.link_ring(me, k).empty();
      if (drained && seg_.down_ring(me).empty()) return false;
    }
  }

  const double waited =
      std::chrono::duration<double>(now - wait_start_).count();
  if (waited > seg_.header().recv_timeout_s) return false;

  std::this_thread::sleep_for(kIdleNap);
  return true;
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
