// The one multi-process run lifecycle, for S_FT and S_NR alike, over shm
// and tcp alike (docs/PROTOCOL.md §11.1).
//
// run_fleet is the host side, once:
//
//   validate → stage the job → spawn (fork or exec) → [host program] →
//   await → merge each node's NodeResult into a SortRun
//
// run_child is the node side, once: a one-node sim::Machine over the
// fabric's link runs the algorithm's node program and publishes its result.
// Fork children run the caller's NodeProgram (in-process interceptors keep
// working); exec'd children (tools/aoft_node) enter through run_node, which
// rebuilds the program from the port's job with one function per algorithm.
// The fabrics themselves are transport::Fleet / transport::NodePort.

#pragma once

#include <functional>
#include <span>
#include <vector>

#include "fault/fault_spec.h"
#include "sim/machine.h"
#include "sort/driver.h"
#include "transport/backend.h"
#include "transport/fleet.h"

namespace aoft::sort {

// What a multi-process run is asked to do.
struct FleetJob {
  transport::JobHead head;
  std::span<const Key> input = {};
  std::span<const Key> llbs = {};  // resume state, read when head.with_resume
  const fault::NodeFaultMap& faults;
  transport::Backend backend = transport::Backend::kSim;
  const transport::ShmOptions& shm;
  const transport::TcpOptions& tcp;
  // In-process affordances the caller set; a fleet cannot honour them.
  bool machine = false;   // SftOptions/SnrOptions::machine
  bool observer = false;  // SftOptions::observer
};

// One algorithm's node program as a fleet runs it.
struct NodeProgram {
  sim::NodeMain node;            // every node's coroutine
  sim::HostMain host;            // host program while the fleet runs; may be empty
  std::function<void()> begin;   // parent, once the job is valid; may be empty
  // The image `node` writes its block into.  run_fleet sizes it in the
  // parent only once the job is valid; fork children inherit it.
  std::vector<Key>* output = nullptr;
  sim::LinkInterceptor* interceptor = nullptr;  // fork children only
};

// Run `job` on its fabric.  Throws std::invalid_argument, before any process
// exists, for a job the fabric cannot carry: an in-process affordance, dim
// beyond transport::kMaxProcessDim, a CONFIG beyond the tcp frame limit, or
// a wedge_process fault on shm (a stopped child never exits, so the shm
// reaper could not see it before the run deadline).  Error reports come
// back in node order.  Nodes publish link events in whatever order they
// finish, so the merged log is sorted by (stage, iter, from, to, to_host,
// from_host, kind, words, delivered): a function of the event multiset.
SortRun run_fleet(const FleetJob& job, const NodeProgram& program);

// Node side: run `program` on this node's port and publish the result.
// Returns the child's exit code (0: published kDone; 1: kFailed).
int run_child(transport::NodePort& port, const NodeProgram& program);

// Exec-mode entry (tools/aoft_node): rebuild the node program the port's
// job names and run it.
int run_node(transport::NodePort& port);

// fault::NodeFault <-> the WireFault rows every fabric carries.
std::vector<transport::WireFault> wire_faults(const fault::NodeFaultMap& faults,
                                              cube::NodeId num_nodes);
fault::NodeFaultMap faults_from_wire(std::span<const transport::WireFault> rows);

namespace detail {
// One per algorithm: rebuild the shared state from the port's job and run
// it (sft.cpp, snr.cpp).
int run_sft_from_port(transport::NodePort& port);
int run_snr_from_port(transport::NodePort& port);
}  // namespace detail

}  // namespace aoft::sort
