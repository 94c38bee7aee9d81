// Message type exchanged over simulated point-to-point links.
//
// Per the paper's environmental assumptions (§3): message passing over
// point-to-point links is the only inter-node communication, there is no
// atomic broadcast, and the absence of an expected message is detectable
// (modelled by the scheduler's quiescence timeout — see scheduler.h).
//
// A message carries a small typed header (protocol position: stage/iteration
// of the sort, message kind) plus two key sequences: `data` for the
// compare-exchange operands and `lbs` for the piggybacked bitonic-sequence
// slice of the fault-tolerant algorithm (block-shared or contiguous, see
// sim/blocks.h).  The cost model charges for the total number of key words.

#pragma once

#include <cstdint>
#include <vector>

#include "hypercube/topology.h"
#include "sim/blocks.h"
#include "sim/pool.h"

namespace aoft::sim {

// Key (= std::int64_t) lives in sim/pool.h next to the pooled storage; the
// paper's experiments sort 32-bit integers, we store 64 so adversaries can
// inject out-of-universe values.

enum class MsgKind : std::uint8_t {
  kData,        // compare-exchange operand(s) only (algorithm S_NR)
  kDataLbs,     // operands + piggybacked LBS slice (algorithm S_FT)
  kLbsOnly,     // final pure-exchange verification round of S_FT
  kHostGather,  // node -> host: initial or sorted values
  kHostScatter, // host -> node: sorted values
  kHostError,   // node -> host: fail-stop error report
  kCheckpoint,  // node -> host: validated stage-boundary state (recovery)
  kApp,         // application-defined payload (e.g. AOFT relaxation)
};

struct Message {
  Message() = default;
  // Pooled message: data/lbs draw their storage from (and return it to) the
  // machine's key pool.  Protocol hot paths construct messages this way.
  explicit Message(KeyPool& pool) : data(pool), lbs(pool) {}

  MsgKind kind = MsgKind::kData;
  cube::NodeId from = 0;
  std::int32_t stage = -1;  // outer loop index i, -1 when not applicable
  std::int32_t iter = -1;   // inner loop index j, -1 when not applicable
  std::int32_t tag = 0;     // application-defined discriminator
  KeyBuf data;
  LbsSlice lbs;

  // Logical time at which the message becomes available to the receiver;
  // stamped by the network at send time.
  double arrival = 0.0;

  std::size_t words() const { return data.size() + lbs.size(); }
};

// Result of a receive: ok == false means the watchdog fired while waiting
// (absent message, Environmental Assumption 4) and `msg` is empty.
struct RecvResult {
  bool ok = false;
  Message msg;
};

}  // namespace aoft::sim
