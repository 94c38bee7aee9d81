#include "transport/process.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <limits>
#include <stdexcept>
#include <thread>

namespace aoft::transport {

using Clock = std::chrono::steady_clock;

ProcessTable::ProcessTable(cube::NodeId num_nodes, double run_deadline_s,
                           OnReap on_reap)
    : pids_(num_nodes, 0),
      reaped_(num_nodes, false),
      start_(Clock::now()),
      deadline_s_(run_deadline_s),
      on_reap_(std::move(on_reap)) {}

ProcessTable::~ProcessTable() {
  kill_all();
  for (cube::NodeId p = 0; p < pids_.size(); ++p)
    if (!reaped_[p] && pids_[p] != 0) waitpid(pids_[p], nullptr, 0);
}

std::int32_t ProcessTable::fork_node(
    cube::NodeId p, const std::function<int(cube::NodeId)>& child_main) {
  const pid_t pid = fork();
  if (pid < 0) {
    kill_all();
    throw std::runtime_error("fork failed for node " + std::to_string(p));
  }
  if (pid == 0) _exit(child_main(p));
  pids_[p] = pid;
  return pid;
}

std::int32_t ProcessTable::exec_node(cube::NodeId p,
                                     const std::vector<std::string>& argv) {
  // Built before the fork: the child only execs.
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  return fork_node(p, [&args](cube::NodeId) {
    execv(args[0], args.data());
    // Exec failure: no shared state is trustworthy from here, just leave.
    std::perror("execv");
    return 127;
  });
}

void ProcessTable::poll() {
  for (cube::NodeId p = 0; p < pids_.size(); ++p) {
    if (reaped_[p] || pids_[p] == 0) continue;
    int wstatus = 0;
    if (waitpid(pids_[p], &wstatus, WNOHANG) != pids_[p]) continue;
    reaped_[p] = true;
    if (on_reap_) on_reap_(p, wstatus);
  }
  if (!killed_ && !all_reaped() &&
      std::chrono::duration<double>(Clock::now() - start_).count() >
          deadline_s_)
    kill_all();
}

void ProcessTable::await_all(double grace_s) {
  const auto t0 = Clock::now();
  for (;;) {
    poll();
    if (all_reaped()) return;
    if (!killed_ &&
        std::chrono::duration<double>(Clock::now() - t0).count() >= grace_s)
      kill_all();
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

void ProcessTable::kill_all() {
  killed_ = true;
  for (cube::NodeId p = 0; p < pids_.size(); ++p)
    if (!reaped_[p] && pids_[p] != 0) kill(pids_[p], SIGKILL);
}

bool ProcessTable::all_reaped() const {
  for (cube::NodeId p = 0; p < pids_.size(); ++p)
    if (!reaped_[p] && pids_[p] != 0) return false;
  return true;
}

ShmParent::ShmParent(ShmSegment& seg)
    : seg_(seg),
      procs_(seg.num_nodes(), seg.header().run_deadline_s,
             [this](cube::NodeId p, int wstatus) { reap(p, wstatus); }) {}

void ShmParent::spawn_fork(
    const std::function<int(cube::NodeId)>& child_main) {
  for (cube::NodeId p = 0; p < seg_.num_nodes(); ++p)
    seg_.slot(p).pid = procs_.fork_node(p, child_main);
}

void ShmParent::spawn_exec(const std::string& binary) {
  const std::string seg_arg = "--segment=" + seg_.name();
  for (cube::NodeId p = 0; p < seg_.num_nodes(); ++p)
    seg_.slot(p).pid = procs_.exec_node(
        p, {binary, seg_arg, "--node=" + std::to_string(p)});
}

void ShmParent::await_all() {
  procs_.await_all(std::numeric_limits<double>::infinity());
}

void ShmParent::reap(cube::NodeId p, int wstatus) {
  NodeSlot& slot = seg_.slot(p);
  const auto state =
      static_cast<SlotState>(slot.state.load(std::memory_order_acquire));
  if (slot_terminal(state)) return;  // child published before exiting
  SlotState verdict = SlotState::kDead;
  if (!WIFSIGNALED(wstatus)) {
    // Exited without publishing: a harness failure, not a crash.
    verdict = SlotState::kFailed;
    std::snprintf(slot.fail_reason, sizeof slot.fail_reason,
                  "exited %d without publishing",
                  WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1);
  }
  // Crashed or SIGKILLed mid-protocol: this store is what lets waiting
  // peers conclude the node is silent forever.
  slot.state.store(static_cast<std::uint32_t>(verdict),
                   std::memory_order_release);
}

void kill_self() {
  raise(SIGKILL);
  for (;;) pause();  // unreachable; SIGKILL cannot be caught
}

void wedge_self() {
  // A stopped process holds its sockets open and beats no heartbeat: only
  // timeout-based detection can retire it.  If anything ever SIGCONTs us,
  // die rather than resume a protocol the cube has long since given up on.
  raise(SIGSTOP);
  raise(SIGKILL);
  for (;;) pause();
}

}  // namespace aoft::transport
