// Remote-transport extension point for the simulated multicomputer.
//
// A Machine normally owns every link in the cube.  With a RemoteLink
// attached (Machine::attach_remote) it drives only the *local* endpoint —
// one node's coroutine, or the host's — and forwards every non-local
// delivery to the link; a separate OS process drives each other endpoint
// against the same fabric (transport/shm_transport.h, tcp_transport.h).
//
// Inbound traffic is pulled at quiescence: when every local task is blocked
// on a receive, the scheduler's idle hook (Machine::remote_idle) pumps the
// link instead of firing the watchdog.  Whether anything further can arrive
// (Environmental Assumption 4, message absence is detectable, on a fabric
// where absence takes wall-clock time) is decided there alone, by these
// rules, checked in order after a pump that delivered nothing:
//
//   1. an orphaned node (its host is gone) is silent;
//   2. once every peer the local receivers wait on is down (for the host:
//      every node), pump once more: anything delivered resumes the
//      scheduler, nothing is silence.  A peer's down state is published
//      after everything it sent, so that pump sees all of it;
//   3. a node wait episode (first empty pump to next delivery) longer than
//      recv_timeout_s() is silent.  The host has no timeout; its run
//      deadline bounds it.
//
// Otherwise the machine calls idle() and pumps again.  A receiver blocked
// on the reliable host link (Environmental Assumption 2) names no peer, so
// only rules 1 and 3 can fail it.
//
// The interface lives in sim, not transport, so the transport library can
// implement it against sim without a dependency cycle.

#pragma once

#include <cstddef>
#include <functional>

#include "hypercube/topology.h"
#include "sim/message.h"
#include "sim/pool.h"

namespace aoft::sim {

class RemoteLink {
 public:
  virtual ~RemoteLink() = default;

  // Outbound, invoked from Machine::deliver* after interception, link-event
  // recording and metrics.  Must match Channel::push semantics: never blocks
  // the protocol, never fails — a dead peer absorbs traffic exactly like a
  // sim channel whose receiver already halted.
  virtual void send_node(cube::NodeId from, cube::NodeId to,
                         const Message& m) = 0;
  virtual void send_host(cube::NodeId from, const Message& m) = 0;
  virtual void send_from_host(cube::NodeId to, const Message& m) = 0;

  // Inbound: drain everything currently available, handing each message to
  // `deliver`.  Returns the number of messages delivered.  `pool` backs the
  // reconstructed pooled key buffers.
  using Deliver =
      std::function<void(bool from_host, cube::NodeId from, Message&&)>;
  virtual std::size_t pump(KeyPool& pool, const Deliver& deliver) = 0;

  // ---- the primitives of the absence rules above --------------------------
  // Node q is terminally down (done, failed or dead): it sends nothing more.
  virtual bool peer_down(cube::NodeId q) const = 0;
  // The local node's host is gone.  Always false on the host endpoint.
  virtual bool orphaned() const = 0;
  // Rule 3's bound on one node wait episode; unused on the host endpoint.
  virtual double recv_timeout_s() const = 0;
  // Wait, boundedly, for inbound activity.  The host endpoint also reaps
  // its children here, so deaths and the run deadline surface while its
  // program is blocked.
  virtual void idle() = 0;
};

}  // namespace aoft::sim
