// The fabric seam under the one multi-process run lifecycle (sort/fleet.h).
//
// A multi-process sort is always the same protocol with crash-stop
// branches (docs/PROTOCOL.md §11.1):
//
//   host:  stage job → spawn N nodes → [collector] → await → N results
//   node:  receive job → open link → run program → publish result
//                                                  └─ or die: kDead
//
// Only the carrier differs.  The shared-memory fabric stages the job in a
// segment before it forks and learns of deaths by reaping; the socket
// fabric spawns first, sends the job in CONFIG frames and learns of deaths
// from EOF and heartbeat silence.  Both implement the two small interfaces
// below, and carry the same three records: the JobHead every node is told,
// the WireFault script row, and the NodeResult every node hands back.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hypercube/topology.h"
#include "sim/cost_model.h"
#include "sim/pool.h"
#include "sim/remote.h"
#include "transport/backend.h"
#include "transport/slot_state.h"

namespace aoft::transport {

inline constexpr std::uint32_t kMaxSlotErrors = 16;
inline constexpr std::uint32_t kErrDetailBytes = 96;

// The host's role id for a host-side link (any negative value works for
// Machine::attach_remote; this one is the convention).
inline constexpr std::int32_t kHostRole = -1;

// Everything a node process needs to rebuild its algorithm's options.  One
// POD embedded in the shm SegmentHeader, ShmSegment::Config and the tcp
// CONFIG head, so both fabrics describe a job with the same bytes.
struct JobHead {
  std::int32_t dim = 0;
  std::int32_t start_stage = 0;  // resume_sft: first stage to execute
  std::uint64_t block = 1;
  std::uint8_t algo = 0;  // 0 = sft, 1 = snr
  std::uint8_t checkpoint = 0, record_events = 0, with_resume = 0;
  std::uint8_t check_progress = 1, check_feasibility = 1;
  std::uint8_t check_consistency = 1, check_exchange = 1;
  sim::CostModel cost{};
};
static_assert(std::is_trivially_copyable_v<JobHead>);

// fault::NodeFault flattened to POD (exec'd children cannot inherit the
// parent's NodeFaultMap).
struct WireFault {
  std::uint8_t has_halt = 0, has_invert = 0, has_subst = 0;
  std::uint8_t silent_checker = 0, kill_process = 0, wedge_process = 0;
  std::int32_t halt_stage = 0, halt_iter = 0;
  std::int32_t invert_stage = 0, invert_iter = 0;
  std::int32_t subst_stage = 0, subst_iter = 0;
  std::int64_t subst_value = 0;
};

struct WireError {
  std::int32_t stage = -1, iter = -1;
  std::uint8_t source = 0;
  char detail[kErrDetailBytes] = {};
};

struct WireLinkEvent {
  std::int32_t from = 0, to = 0;
  std::uint8_t kind = 0, delivered = 0, to_host = 0, from_host = 0;
  std::int32_t stage = -1, iter = -1;
  std::uint32_t words = 0;
};

// sim::NodeStats of a node's machine plus its watchdog count.
struct WireStats {
  double clock = 0.0, comp_ticks = 0.0, comm_ticks = 0.0;
  std::uint64_t msgs_sent = 0, words_sent = 0;
  std::uint32_t watchdog_rounds = 0;
  std::uint32_t pad_ = 0;
};

// What one node hands back to the host, whatever the fabric.  A node the
// fabric had to declare kDead published nothing: its record is empty and
// the fault stays visible through its peers' timeout reports.
struct NodeResult {
  SlotState state = SlotState::kIdle;
  WireStats stats;
  std::vector<WireError> errors;  // at most kMaxSlotErrors
  std::vector<WireLinkEvent> events;
  std::vector<sim::Key> output;  // the block; empty or zeros if unpublished
  std::string fail_reason;       // kFailed: what the node caught
};

// One node process's end of a fabric.
class NodePort {
 public:
  NodePort() = default;
  NodePort(const NodePort&) = delete;
  NodePort& operator=(const NodePort&) = delete;
  virtual ~NodePort() = default;

  virtual cube::NodeId node() const = 0;
  virtual const JobHead& job() const = 0;
  virtual std::span<const WireFault> faults() const = 0;  // one row per node
  virtual std::span<const sim::Key> input() const = 0;
  virtual std::span<const sim::Key> llbs() const = 0;  // job().with_resume

  // Ready the link for node traffic (shm: mark the slot kRunning; tcp:
  // build the peer mesh) and hand it to the node's machine.
  virtual sim::RemoteLink& open() = 0;

  // Publish the terminal record (kDone or kFailed).  Everything lands
  // before the terminal state does, so a kDone node has a complete result.
  virtual void publish(const NodeResult& r) = 0;
};

// The host's end: one process per node, from spawn to the per-node records.
class Fleet {
 public:
  using ChildMain = std::function<int(NodePort&)>;
  Fleet() = default;
  Fleet(const Fleet&) = delete;  // fabrics hand `this` to their poll hooks
  Fleet& operator=(const Fleet&) = delete;
  virtual ~Fleet() = default;

  // Spawn every local node and deliver the job.  Fork mode runs `child` in
  // each forked process and _exits with its value; exec mode (the options'
  // node_binary) starts tools/aoft_node, which builds its own port.
  virtual void start(const ChildMain& child) = 0;

  // The host endpoint, for a host program run while the fleet works.
  virtual sim::RemoteLink& host_link() = 0;

  // Block until every node is terminal and every local child is reaped.
  virtual void await() = 0;

  virtual NodeResult result(cube::NodeId p) = 0;
};

// Stage `job` on the chosen multi-process fabric (kShm or kTcp).  `faults`
// holds one row per node; `llbs` is read only when job.with_resume.  The
// three spans must outlive the fleet: kShm copies them into its segment
// here, but kTcp keeps the views and sends them in CONFIG from start().
std::unique_ptr<Fleet> make_fleet(Backend backend, const JobHead& job,
                                  std::span<const WireFault> faults,
                                  std::span<const sim::Key> input,
                                  std::span<const sim::Key> llbs,
                                  const ShmOptions& shm, const TcpOptions& tcp);

}  // namespace aoft::transport
