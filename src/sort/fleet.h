// The one run lifecycle, for every algorithm and every placement
// (docs/PROTOCOL.md §11.1).
//
// run_fleet is the host side, once:
//
//   validate → [in process: reset or build the machine → run node and host
//               programs → collect]
//            → [fabric: stage the job → spawn (fork or exec) → [host
//               program] → await → merge each node's NodeResult]
//
// The simulator (kSim) is the in-process placement: every node and the host
// run on one sim::Machine, the caller's when FleetJob::machine is set.  On
// shm and tcp, run_child is the node side, once: a one-node sim::Machine
// over the fabric's link runs the algorithm's node program and publishes
// its result.  Fork children run the caller's NodeProgram (in-process
// interceptors keep working); exec'd children (tools/aoft_node) enter
// through run_node, which rebuilds the program from the port's job with one
// function per algorithm.  The fabrics themselves are transport::Fleet /
// transport::NodePort.

#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "fault/fault_spec.h"
#include "sim/machine.h"
#include "sort/driver.h"
#include "transport/backend.h"
#include "transport/fleet.h"

namespace aoft::sort {

// What a job that names no faults or fabric options refers to.
inline const fault::NodeFaultMap kNoFaults{};
inline const transport::ShmOptions kDefaultShm{};
inline const transport::TcpOptions kDefaultTcp{};

// What a run is asked to do.  head.dim, head.block, head.cost and
// head.record_events describe every placement; the rest of the head and the
// input, llbs, faults, shm and tcp fields are what a fabric stages for its
// processes (in process, the node program already holds them).
struct FleetJob {
  transport::JobHead head;
  std::span<const Key> input = {};
  std::span<const Key> llbs = {};  // resume state, read when head.with_resume
  const fault::NodeFaultMap& faults = kNoFaults;
  transport::Backend backend = transport::Backend::kSim;
  const transport::ShmOptions& shm = kDefaultShm;
  const transport::TcpOptions& tcp = kDefaultTcp;
  // In-process affordances.  On kSim the run resets and uses `machine` when
  // set (SftOptions/SnrOptions::machine; its topology dimension must be
  // head.dim) and builds a fresh one otherwise.  A fabric refuses both.
  sim::Machine* machine = nullptr;
  bool observer = false;  // SftOptions::observer
};

// One algorithm's node program as run_fleet runs it.
struct NodeProgram {
  sim::NodeMain node;           // every node's coroutine
  sim::HostMain host;           // the reliable host's program; may be empty
  std::function<void()> begin;  // caller, once the job is valid; may be empty
  // The image `node` writes its block into.  run_fleet sizes it only once
  // the job is valid; fork children inherit it, and in process the run's
  // output takes it over.
  std::vector<Key>* output = nullptr;
  sim::LinkInterceptor* interceptor = nullptr;  // in process and fork children
};

// Run `job` in its placement.  Throws std::invalid_argument before any
// machine runs or process exists for a job the placement cannot carry: on
// kSim a caller machine of another dimension; on a fabric an in-process
// affordance, dim beyond transport::kMaxProcessDim, a CONFIG beyond the tcp
// frame limit, or a wedge_process fault on shm (a stopped child never
// exits, so the shm reaper could not see it before the run deadline).
// Error reports come back in node order.  In process, the link-event log is
// the machine's, in recording order.  On a fabric, nodes publish link
// events in whatever order they finish, so the merged log is sorted by
// (stage, iter, from, to, to_host, from_host, kind, words, delivered): a
// function of the event multiset.
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
// Builds the fabric a job runs on, from the job's per-node fault rows.
using MakeFleet = std::function<std::unique_ptr<transport::Fleet>(
    std::span<const transport::WireFault>)>;

// run_fleet with the fabric built by `make` instead of transport::make_fleet
// (a test seam: the lifecycle over a fake Fleet).  `make` is called only
// once the job is valid, and only for a fabric placement.
SortRun run_fleet(const FleetJob& job, const NodeProgram& program,
                  const MakeFleet& make);

// One per algorithm: rebuild the shared state from the port's job and run
// it (sft.cpp, snr.cpp).
int run_sft_from_port(transport::NodePort& port);
int run_snr_from_port(transport::NodePort& port);
}  // namespace detail

}  // namespace aoft::sort
