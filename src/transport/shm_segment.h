// The shared-memory segment one multi-process sort runs over.
//
// Layout (offsets in the header, every region 64-byte aligned):
//
//   SegmentHeader      job configuration: dimensions, cost model, predicate
//                      toggles, per-run timeouts — everything an exec'd
//                      child needs to reconstruct its SftOptions/SnrOptions
//   WireFault[N]       scripted per-node faults (fault::NodeFault as POD)
//   NodeSlot[N]        per-child status (atomic), pid, stats, error records
//   WireLinkEvent[N*cap] per-child link-event log (record_events)
//   Key[N*m] input     flattened run input
//   Key[N*m] llbs      resume state C_{start-1} (with_resume)
//   Key[N*m] output    per-node result blocks, written at child completion
//   rings              N*dim node link rings, N up (node->host) rings,
//                      N down (host->node) rings, each ShmRingHdr + buffer
//
// Rings are sized for the whole run's traffic on their link — S_FT uses each
// directed link at most dim+1 times — so a push only fails when the protocol
// misbehaves; senders then count the overflow in their slot rather than
// block (a dead peer must absorb traffic like a halted sim receiver).
//
// The segment is created with shm_open + ftruncate + mmap(MAP_SHARED): fork
// children inherit the mapping, exec'd children re-open it by name.

#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>

#include "hypercube/topology.h"
#include "transport/backend.h"
#include "transport/fleet.h"
#include "transport/shm_ring.h"
#include "transport/slot_state.h"

namespace aoft::transport {

inline constexpr char kSegmentMagic[8] = {'A', 'O', 'F', 'T',
                                          'S', 'H', 'M', '1'};
inline constexpr std::uint32_t kSegmentVersion = 2;

// SlotState and slot_terminal() live in transport/slot_state.h — the tcp
// backend's PeerWatch shares them.

struct NodeSlot {
  std::atomic<std::uint32_t> state;  // SlotState; child-written, parent-reaped
  std::int32_t pid = 0;
  WireStats stats;                  // published at completion
  std::uint32_t send_overflow = 0;  // ring-full sends absorbed (sizing bug)
  std::uint32_t error_count = 0, event_count = 0;
  WireError errors[kMaxSlotErrors] = {};
  char fail_reason[kErrDetailBytes] = {};
};

struct SegmentHeader {
  char magic[8] = {};
  std::uint32_t version = 0;
  std::int32_t host_pid = 0;
  JobHead job;
  double recv_timeout_s = kDefaultRecvTimeoutS;
  double run_deadline_s = kDefaultRunDeadlineS;
  std::uint64_t link_ring_bytes = 0, up_ring_bytes = 0, down_ring_bytes = 0;
  std::uint32_t event_cap = 0;
  std::uint64_t off_faults = 0, off_slots = 0, off_events = 0;
  std::uint64_t off_input = 0, off_llbs = 0, off_output = 0, off_rings = 0;
  std::uint64_t total_bytes = 0;
};
static_assert(std::is_trivially_copyable_v<SegmentHeader>);

class ShmSegment {
 public:
  struct Config : JobHead {
    double recv_timeout_s = kDefaultRecvTimeoutS;
    double run_deadline_s = kDefaultRunDeadlineS;
  };

  // Parent side: create, size and zero-init a fresh segment.  Throws
  // std::runtime_error on any shm/mmap failure and std::invalid_argument on
  // an out-of-range configuration (dim > kMaxProcessDim).
  static ShmSegment create(const Config& cfg);

  // Child side (exec mode): open an existing segment by name and validate
  // magic/version/size.  Throws std::runtime_error on mismatch.
  static ShmSegment attach(const std::string& name);

  ShmSegment(ShmSegment&&) noexcept;
  ShmSegment& operator=(ShmSegment&&) noexcept;
  ShmSegment(const ShmSegment&) = delete;
  ShmSegment& operator=(const ShmSegment&) = delete;
  ~ShmSegment();  // unmaps; the creating side also shm_unlinks

  const std::string& name() const { return name_; }
  int dim() const { return header().job.dim; }
  cube::NodeId num_nodes() const { return cube::NodeId{1} << header().job.dim; }

  SegmentHeader& header() { return *reinterpret_cast<SegmentHeader*>(base_); }
  const SegmentHeader& header() const {
    return *reinterpret_cast<const SegmentHeader*>(base_);
  }

  std::span<WireFault> faults();  // one row per node
  NodeSlot& slot(cube::NodeId p);
  std::span<WireLinkEvent> events(cube::NodeId p);  // event_cap entries
  std::span<sim::Key> input();
  std::span<sim::Key> llbs();
  std::span<sim::Key> output();

  // Messages into `to` across dimension k.
  ShmRing link_ring(cube::NodeId to, int k);
  ShmRing up_ring(cube::NodeId p);    // p -> host
  ShmRing down_ring(cube::NodeId p);  // host -> p

 private:
  ShmSegment() = default;
  unsigned char* at(std::uint64_t off) { return base_ + off; }

  std::string name_;
  unsigned char* base_ = nullptr;
  std::uint64_t size_ = 0;
  bool owner_ = false;  // the creator unlinks on destruction
};

}  // namespace aoft::transport
