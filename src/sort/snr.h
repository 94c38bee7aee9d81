// S_NR — the non-redundant hypercube bitonic sort (paper Fig. 2).
//
// One stage per cube dimension; stage i merges bitonic sequences within each
// dim-(i+1) home subcube by compare-exchanging across dimensions i down to 0.
// The node with a 0 in bit j is "active" at iteration j: it receives the
// partner's value, performs the compare-exchange in the direction fixed by
// bit i+1 of the pair, and writes the partner's half back.  No checking of
// any kind — this is the baseline whose silent corruption under faults
// motivates S_FT.
//
// The block generalization (m keys per node, paper §5) replaces the scalar
// compare-exchange by merge-split; with m = 1 it degenerates to Fig. 2
// exactly.

#pragma once

#include <span>

#include "fault/fault_spec.h"
#include "sim/cost_model.h"
#include "sim/machine.h"
#include "sort/driver.h"
#include "transport/backend.h"

namespace aoft::sort {

struct SnrOptions {
  std::size_t block = 1;  // m: keys per node
  sim::CostModel cost{};
  sim::LinkInterceptor* interceptor = nullptr;  // Byzantine links
  fault::NodeFaultMap node_faults;              // Byzantine processors

  // Run on this caller-owned machine instead of constructing one (reset()
  // first; dimension must match).  See SftOptions::machine.
  sim::Machine* machine = nullptr;

  // Transport selection, as in SftOptions: one lifecycle (sort/fleet.h),
  // kSim in process, kShm/kTcp rejecting `machine` and running one process
  // per node.  The host-verified variant stays in process.
  transport::Backend backend = transport::Backend::kSim;
  transport::ShmOptions shm;
  transport::TcpOptions tcp;
};

// Sort `input` (flattened, size 2^dim * block) on a simulated dim-cube.
// S_NR is unprotected: under faults the run may end kSilentWrong, which is
// exactly the behaviour the coverage campaign demonstrates.
SortRun run_snr(int dim, std::span<const Key> input, const SnrOptions& opts = {});

}  // namespace aoft::sort
