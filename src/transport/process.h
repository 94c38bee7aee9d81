// Child-process lifecycle for the multi-process fabrics.
//
// ProcessTable is the one table of node processes both fabrics use: it
// forks (or fork+execs) the children, reaps them without blocking, enforces
// the run deadline and kills the fleet.  The fabrics differ only in what a
// reap means.  ShmParent is the shm death authority: a SIGKILLed child
// cannot update its own status slot, so the parent's reap is what turns a
// vanished process into kDead.  The tcp fabric learns of deaths from its
// sockets instead and only reaps zombies (transport/fleet.cpp).

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "transport/shm_segment.h"

namespace aoft::transport {

class ProcessTable {
 public:
  // Invoked once per child when poll() reaps it, with its waitpid status.
  using OnReap = std::function<void(cube::NodeId, int wstatus)>;

  ProcessTable(cube::NodeId num_nodes, double run_deadline_s,
               OnReap on_reap = nullptr);
  // Kills and reaps any child still alive: a run unwound by an exception
  // leaves no orphans behind.
  ~ProcessTable();
  ProcessTable(const ProcessTable&) = delete;
  ProcessTable& operator=(const ProcessTable&) = delete;

  // Fork node p's process: it runs child_main(p) and _exits with its value.
  // An exec'd child runs `argv` instead (argv[0] is the binary).
  std::int32_t fork_node(cube::NodeId p,
                         const std::function<int(cube::NodeId)>& child_main);
  std::int32_t exec_node(cube::NodeId p, const std::vector<std::string>& argv);

  // Reap exits without blocking; SIGKILL the fleet once the run deadline
  // expires.  Safe to call repeatedly; host wait loops call it on every
  // iteration.
  void poll();

  // Poll until every child is reaped.  After `grace_s` the stragglers are
  // SIGKILLed (a SIGSTOPped child never exits on its own).
  void await_all(double grace_s);

 private:
  // SIGKILL every still-live child; later polls reap them.
  void kill_all();

  // A node with no process (never spawned, or pinned elsewhere) counts as
  // reaped.
  bool all_reaped() const;

  std::vector<std::int32_t> pids_;  // 0: no local process
  std::vector<bool> reaped_;
  std::chrono::steady_clock::time_point start_;
  double deadline_s_;
  OnReap on_reap_;
  bool killed_ = false;
};

// The shm fleet's process owner.  A child that died by signal, or exited
// without publishing a terminal state, gets kDead/kFailed written into its
// slot at reap — that store is what lets waiting peers conclude the node is
// silent forever.
class ShmParent {
 public:
  explicit ShmParent(ShmSegment& seg);
  ShmParent(const ShmParent&) = delete;  // the reap hook captures `this`
  ShmParent& operator=(const ShmParent&) = delete;

  // Fork one child per node; each child runs child_main(p) and _exits with
  // its return value.  The parent records pids in the status slots.
  void spawn_fork(const std::function<int(cube::NodeId)>& child_main);

  // Fork+exec `binary --segment=<name> --node=<p>` per node (fresh address
  // spaces; tools/aoft_node is the standard launcher).
  void spawn_exec(const std::string& binary);

  void poll() { procs_.poll(); }
  // Block (polling) until every child is reaped; the run deadline is the
  // only bound.
  void await_all();

 private:
  void reap(cube::NodeId p, int wstatus);

  ShmSegment& seg_;
  ProcessTable procs_;
};

// The fail-stop injection for the multi-process fabrics: die the way a
// crashed node dies, mid-protocol with no goodbye.  (The simulator degrades
// kill_process to a graceful halt; that equivalence is part of the oracle
// contract.)
[[noreturn]] void kill_self();

// The wedge injection for the tcp backend: SIGSTOP mid-protocol, so the
// process neither speaks nor exits and only the heartbeat-loss watchdog can
// declare it dead (fault::NodeFault::wedge_process).
[[noreturn]] void wedge_self();

}  // namespace aoft::transport
