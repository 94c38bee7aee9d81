#include "sort/fleet.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>

#include "transport/frame.h"

namespace aoft::sort {

namespace {

void validate(const FleetJob& job) {
  if (job.backend == transport::Backend::kSim) {
    if (job.machine != nullptr &&
        job.machine->topo().dimension() != job.head.dim)
      throw std::invalid_argument(
          "the `machine` option's topology dimension does not match the sort");
    return;
  }
  const std::string fabric = transport::to_string(job.backend);
  if (job.machine)
    throw std::invalid_argument(
        "the `machine` option is a single-process affordance; not available "
        "on the " + fabric + " backend");
  if (job.observer)
    throw std::invalid_argument(
        "SftOptions::observer runs in the node's process on the " + fabric +
        " backend; its snapshots cannot reach the caller — use the sim "
        "backend");
  const int dim = job.head.dim;
  if (dim < 0 || dim > transport::kMaxProcessDim)
    throw std::invalid_argument(fabric + " backend supports dim <= " +
                                std::to_string(transport::kMaxProcessDim));
  if (job.backend == transport::Backend::kTcp) {
    const std::size_t cb = transport::config_frame_bytes(
        dim, job.head.block, job.head.with_resume != 0);
    if (cb > transport::kMaxFrameBytes)
      throw std::invalid_argument(
          "tcp: CONFIG for this job would be " + std::to_string(cb) +
          " bytes, beyond the " + std::to_string(transport::kMaxFrameBytes) +
          "-byte frame limit — shrink block or dim for the tcp backend");
  }
  if (job.backend == transport::Backend::kShm)
    for (const auto& [p, f] : job.faults)
      if (f.wedge_process)
        throw std::invalid_argument(
            "wedge_process needs socket death detection: a stopped child "
            "never exits, so the shm reaper cannot see it — use the tcp "
            "backend (heartbeat watchdog) or sim (graceful halt)");
}

transport::WireError to_wire(const sim::ErrorReport& e) {
  transport::WireError w;
  w.stage = e.stage;
  w.iter = e.iter;
  w.source = static_cast<std::uint8_t>(e.source);
  std::snprintf(w.detail, sizeof w.detail, "%s", e.detail.c_str());
  return w;
}

sim::ErrorReport from_wire(const transport::WireError& w, cube::NodeId p) {
  sim::ErrorReport r;
  r.node = p;
  r.stage = w.stage;
  r.iter = w.iter;
  r.source = static_cast<sim::ErrorSource>(w.source);
  r.detail.assign(w.detail, strnlen(w.detail, sizeof w.detail));
  return r;
}

transport::WireLinkEvent to_wire(const sim::LinkEvent& e) {
  transport::WireLinkEvent w;
  w.from = static_cast<std::int32_t>(e.from);
  w.to = static_cast<std::int32_t>(e.to);
  w.kind = static_cast<std::uint8_t>(e.kind);
  w.delivered = e.delivered ? 1 : 0;
  w.to_host = e.to_host ? 1 : 0;
  w.from_host = e.from_host ? 1 : 0;
  w.stage = e.stage;
  w.iter = e.iter;
  w.words = e.words;
  return w;
}

sim::LinkEvent from_wire(const transport::WireLinkEvent& w) {
  sim::LinkEvent e;
  e.from = static_cast<cube::NodeId>(w.from);
  e.to = static_cast<cube::NodeId>(w.to);
  e.kind = static_cast<sim::MsgKind>(w.kind);
  e.stage = w.stage;
  e.iter = w.iter;
  e.words = w.words;
  e.delivered = w.delivered != 0;
  e.to_host = w.to_host != 0;
  e.from_host = w.from_host != 0;
  return e;
}

// The one encoder: a finished node machine as the record every fabric
// carries home.
transport::NodeResult result_of(const sim::Machine& mach, cube::NodeId p,
                                std::span<const Key> block,
                                bool record_events) {
  transport::NodeResult r;
  r.state = transport::SlotState::kDone;
  const sim::NodeStats& st = mach.node_stats(p);
  r.stats.clock = st.clock;
  r.stats.comp_ticks = st.comp_ticks;
  r.stats.comm_ticks = st.comm_ticks;
  r.stats.msgs_sent = st.msgs_sent;
  r.stats.words_sent = st.words_sent;
  r.stats.watchdog_rounds =
      static_cast<std::uint32_t>(mach.summary().watchdog_rounds);
  for (const sim::ErrorReport& e : mach.errors()) {
    if (r.errors.size() == transport::kMaxSlotErrors) break;
    r.errors.push_back(to_wire(e));
  }
  if (record_events)
    for (const sim::LinkEvent& e : mach.link_events())
      r.events.push_back(to_wire(e));
  r.output.assign(block.begin(), block.end());
  return r;
}

// The one merge.  A node the fabric declared dead published nothing; the
// fault stays visible through its peers' kTimeout reports, like a sim halt.
void merge(cube::NodeId p, const transport::NodeResult& r, std::size_t m,
           SortRun& run) {
  if (r.output.size() == m)
    std::copy(r.output.begin(), r.output.end(),
              run.output.begin() + static_cast<std::ptrdiff_t>(p * m));
  for (const auto& w : r.errors) run.errors.push_back(from_wire(w, p));
  run.summary.elapsed = std::max(run.summary.elapsed, r.stats.clock);
  run.summary.max_comm = std::max(run.summary.max_comm, r.stats.comm_ticks);
  run.summary.max_comp = std::max(run.summary.max_comp, r.stats.comp_ticks);
  run.summary.total_msgs += r.stats.msgs_sent;
  run.summary.total_words += r.stats.words_sent;
  run.summary.watchdog_rounds += static_cast<int>(r.stats.watchdog_rounds);
  for (const auto& w : r.events) run.link_events.push_back(from_wire(w));
}

// The in-process placement: every node and the host on one machine, the
// caller's (reset with the job's cost model) or a fresh one.
SortRun run_in_process(const FleetJob& job, const NodeProgram& program) {
  std::optional<sim::Machine> owned;
  sim::Machine* mach = job.machine;
  if (mach != nullptr)
    mach->reset(job.head.cost);
  else
    mach = &owned.emplace(cube::Topology{job.head.dim}, job.head.cost);
  mach->set_interceptor(program.interceptor);
  mach->record_link_events(job.head.record_events != 0);
  mach->run(program.node, program.host);

  SortRun run;
  run.output = std::move(*program.output);
  run.errors = mach->errors();
  run.summary = mach->summary();
  if (job.head.record_events) run.link_events = mach->link_events();
  return run;
}

// The fabric placement: spawn, run the host program against the host link,
// await, then merge every node's record.
SortRun run_on_fabric(const FleetJob& job, const NodeProgram& program,
                      transport::Fleet& fleet) {
  const int dim = job.head.dim;
  const cube::NodeId n = cube::NodeId{1} << dim;
  const auto m = static_cast<std::size_t>(job.head.block);
  fleet.start([&program](transport::NodePort& port) {
    return run_child(port, program);
  });

  SortRun run;
  if (program.host) {
    // The parent is the reliable host: the same host coroutine as the sim,
    // pumping the host link, reaping children from the idle path.
    sim::Machine hostm(cube::Topology{dim}, job.head.cost);
    hostm.attach_remote(&fleet.host_link(), transport::kHostRole);
    hostm.run_remote_host(program.host);
    fleet.await();
    run.summary.host_comm = hostm.host_stats().comm_ticks;
    run.summary.host_comp = hostm.host_stats().comp_ticks;
    run.summary.elapsed = hostm.host_stats().clock;
  } else {
    fleet.await();
  }

  run.output.assign(static_cast<std::size_t>(n) * m, 0);
  for (cube::NodeId p = 0; p < n; ++p) merge(p, fleet.result(p), m, run);
  std::sort(run.link_events.begin(), run.link_events.end(),
            sim::link_event_before);
  return run;
}

}  // namespace

SortRun run_fleet(const FleetJob& job, const NodeProgram& program) {
  return detail::run_fleet(
      job, program, [&job](std::span<const transport::WireFault> faults) {
        return transport::make_fleet(job.backend, job.head, faults, job.input,
                                     job.llbs, job.shm, job.tcp);
      });
}

namespace detail {

SortRun run_fleet(const FleetJob& job, const NodeProgram& program,
                  const MakeFleet& make) {
  validate(job);
  if (program.begin) program.begin();
  const cube::NodeId n = cube::NodeId{1} << job.head.dim;
  program.output->assign(static_cast<std::size_t>(n) * job.head.block, 0);
  if (job.backend == transport::Backend::kSim)
    return run_in_process(job, program);
  // The fabric may read the rows until the run ends (tcp sends them at start).
  const auto faults = wire_faults(job.faults, n);
  const auto fleet = make(faults);
  return run_on_fabric(job, program, *fleet);
}

}  // namespace detail

int run_child(transport::NodePort& port, const NodeProgram& program) {
  const cube::NodeId p = port.node();
  const transport::JobHead& job = port.job();
  try {
    sim::Machine mach(cube::Topology{job.dim}, job.cost);
    mach.attach_remote(&port.open(), static_cast<std::int32_t>(p));
    mach.set_interceptor(program.interceptor);
    mach.record_link_events(job.record_events != 0);
    mach.run_remote_node(p, program.node);
    const auto m = static_cast<std::size_t>(job.block);
    const auto block = std::span<const Key>(*program.output).subspan(p * m, m);
    port.publish(result_of(mach, p, block, job.record_events != 0));
    return 0;
  } catch (const std::exception& e) {
    transport::NodeResult failed;
    failed.state = transport::SlotState::kFailed;
    failed.fail_reason = e.what();
    port.publish(failed);
    return 1;
  }
}

int run_node(transport::NodePort& port) {
  return port.job().algo == 0 ? detail::run_sft_from_port(port)
                              : detail::run_snr_from_port(port);
}

std::vector<transport::WireFault> wire_faults(const fault::NodeFaultMap& faults,
                                              cube::NodeId num_nodes) {
  std::vector<transport::WireFault> rows(num_nodes);
  for (const auto& [p, f] : faults) {
    if (p >= num_nodes) continue;
    transport::WireFault& w = rows[p];
    if (f.halt_at) {
      w.has_halt = 1;
      w.halt_stage = f.halt_at->stage;
      w.halt_iter = f.halt_at->iter;
    }
    if (f.invert_direction_from) {
      w.has_invert = 1;
      w.invert_stage = f.invert_direction_from->stage;
      w.invert_iter = f.invert_direction_from->iter;
    }
    if (f.substitute_at) {
      w.has_subst = 1;
      w.subst_stage = f.substitute_at->stage;
      w.subst_iter = f.substitute_at->iter;
    }
    w.subst_value = f.substitute_value;
    w.silent_checker = f.silent_checker ? 1 : 0;
    w.kill_process = f.kill_process ? 1 : 0;
    w.wedge_process = f.wedge_process ? 1 : 0;
  }
  return rows;
}

fault::NodeFaultMap faults_from_wire(std::span<const transport::WireFault> rows) {
  fault::NodeFaultMap out;
  for (cube::NodeId p = 0; p < rows.size(); ++p) {
    const transport::WireFault& w = rows[p];
    fault::NodeFault f;
    if (w.has_halt) f.halt_at = fault::StagePoint{w.halt_stage, w.halt_iter};
    if (w.has_invert)
      f.invert_direction_from = fault::StagePoint{w.invert_stage, w.invert_iter};
    if (w.has_subst)
      f.substitute_at = fault::StagePoint{w.subst_stage, w.subst_iter};
    f.substitute_value = w.subst_value;
    f.silent_checker = w.silent_checker != 0;
    f.kill_process = w.kill_process != 0;
    f.wedge_process = w.wedge_process != 0;
    if (f.any()) out.emplace(p, f);
  }
  return out;
}

}  // namespace aoft::sort
