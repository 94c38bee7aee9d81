// The run lifecycle of sort/fleet.h, tested once.
//
// FleetLifecycle drives the fabric placement (validate → start → host
// program → await → merge) over a FakeFleet whose node records the test
// scripts; nodes without a script run the real node side (run_child) over a
// FakeNodePort in this process.  SimPlacement pins what the in-process
// placement, which every simulated sort takes, adds to the machine's own
// contract (its refusal is SftReuseTest.DimensionMismatchThrows).

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sort/fleet.h"
#include "sort/sft.h"
#include "util/rng.h"

namespace aoft::sort {
namespace {

using transport::Backend;
using transport::NodeResult;
using transport::SlotState;

// A fabric that carries nothing: every send is absorbed, nothing arrives and
// every peer is down.  The test programs never wait on it.
class NullLink final : public sim::RemoteLink {
 public:
  void send_node(cube::NodeId, cube::NodeId, const sim::Message&) override {}
  void send_host(cube::NodeId, const sim::Message&) override {}
  void send_from_host(cube::NodeId, const sim::Message&) override {}
  std::size_t pump(sim::KeyPool&, const Deliver&) override { return 0; }
  bool peer_down(cube::NodeId) const override { return true; }
  bool orphaned() const override { return false; }
  double recv_timeout_s() const override { return 1.0; }
  void idle() override {}
};

// What the lifecycle did to the fabric, in order: "make", "start",
// "publish <p>", "await", "result <p>", plus "begin" and "host" from the
// program.
using Log = std::vector<std::string>;

class FakeFleet;

class FakeNodePort final : public transport::NodePort {
 public:
  FakeNodePort(FakeFleet& fleet, cube::NodeId p) : fleet_(fleet), p_(p) {}
  cube::NodeId node() const override { return p_; }
  const transport::JobHead& job() const override;
  std::span<const transport::WireFault> faults() const override;
  std::span<const Key> input() const override { return {}; }
  std::span<const Key> llbs() const override { return {}; }
  sim::RemoteLink& open() override { return link_; }
  void publish(const NodeResult& r) override;

 private:
  FakeFleet& fleet_;
  cube::NodeId p_;
  NullLink link_;
};

class FakeFleet final : public transport::Fleet {
 public:
  FakeFleet(Log& log, const transport::JobHead& head,
            std::span<const transport::WireFault> faults,
            std::map<cube::NodeId, NodeResult> scripted)
      : log_(log),
        head_(head),
        faults_(faults.begin(), faults.end()),
        results_(std::move(scripted)) {}

  // Unscripted nodes run the node side, highest label first, so that
  // publication order is the reverse of node order.
  void start(const ChildMain& child) override {
    log_.push_back("start");
    const cube::NodeId n = cube::NodeId{1} << head_.dim;
    for (cube::NodeId p = n; p-- > 0;) {
      if (results_.count(p)) continue;
      FakeNodePort port(*this, p);
      EXPECT_EQ(child(port), 0);
    }
  }
  sim::RemoteLink& host_link() override { return host_link_; }
  void await() override { log_.push_back("await"); }
  NodeResult result(cube::NodeId p) override {
    log_.push_back("result " + std::to_string(p));
    return results_.at(p);
  }

 private:
  friend class FakeNodePort;
  Log& log_;
  transport::JobHead head_;
  std::vector<transport::WireFault> faults_;
  std::map<cube::NodeId, NodeResult> results_;
  NullLink host_link_;
};

const transport::JobHead& FakeNodePort::job() const { return fleet_.head_; }
std::span<const transport::WireFault> FakeNodePort::faults() const {
  return fleet_.faults_;
}
void FakeNodePort::publish(const NodeResult& r) {
  fleet_.log_.push_back("publish " + std::to_string(p_));
  fleet_.results_[p_] = r;
}

// A dim-2, m=2 job on the shm fabric, recording link events.
transport::JobHead head() {
  return {.dim = 2, .block = 2, .algo = 1, .record_events = 1};
}

// Node p writes 100(p+1)+k into word k of its block and charges p+1 ticks.
NodeProgram program(std::vector<Key>& output, Log& log) {
  NodeProgram prog;
  prog.node = [&output](sim::Ctx& ctx) -> sim::SimTask {
    const cube::NodeId p = ctx.id();
    for (std::size_t k = 0; k < 2; ++k)
      output[p * 2 + k] = static_cast<Key>(100 * (p + 1) + k);
    ctx.charge(static_cast<double>(p + 1));
    co_return;
  };
  prog.begin = [&log] { log.push_back("begin"); };
  prog.output = &output;
  return prog;
}

detail::MakeFleet fake(Log& log, std::map<cube::NodeId, NodeResult> scripted,
                       const transport::JobHead& h = head()) {
  return [&log, scripted, h](std::span<const transport::WireFault> faults) {
    log.push_back("make");
    return std::make_unique<FakeFleet>(log, h, faults, scripted);
  };
}

transport::WireError wire_error(int stage, const char* detail) {
  transport::WireError w;
  w.stage = stage;
  w.iter = 0;
  w.source = static_cast<std::uint8_t>(sim::ErrorSource::kPhiC);
  std::snprintf(w.detail, sizeof w.detail, "%s", detail);
  return w;
}

transport::WireLinkEvent wire_event(int stage, int from, int to) {
  transport::WireLinkEvent w;
  w.stage = stage;
  w.iter = 0;
  w.from = from;
  w.to = to;
  w.delivered = 1;
  w.words = 2;
  return w;
}

TEST(FleetLifecycle, RefusesBeforeTheFabricIsMadeOrStarted) {
  fault::NodeFaultMap wedge;
  wedge[1].wedge_process = true;
  sim::Machine mach(cube::Topology{2}, {});
  const FleetJob with_machine{.head = head(), .backend = Backend::kShm,
                              .machine = &mach};
  const FleetJob with_observer{.head = head(), .backend = Backend::kTcp,
                               .observer = true};
  const FleetJob wedged_on_shm{.head = head(), .faults = wedge,
                               .backend = Backend::kShm};
  for (const FleetJob* job : {&with_machine, &with_observer, &wedged_on_shm}) {
    Log log;
    std::vector<Key> output;
    EXPECT_THROW(detail::run_fleet(*job, program(output, log), fake(log, {})),
                 std::invalid_argument);
    EXPECT_TRUE(log.empty()) << "first step after a refusal: " << log.front();
    EXPECT_FALSE(mach.ran());
  }
}

TEST(FleetLifecycle, HostProgramRunsBetweenStartAndAwait) {
  Log log;
  std::vector<Key> output;
  NodeProgram prog = program(output, log);
  prog.host = [&log](sim::HostCtx& host) -> sim::SimTask {
    log.push_back("host");
    host.charge(10.0);
    co_return;
  };
  const SortRun run = detail::run_fleet(
      {.head = head(), .backend = Backend::kShm}, prog, fake(log, {}));
  const Log expect = {"begin",     "make",     "start",    "publish 3",
                      "publish 2", "publish 1", "publish 0", "host",
                      "await",     "result 0", "result 1", "result 2",
                      "result 3"};
  EXPECT_EQ(log, expect);
  EXPECT_EQ(run.output,
            (std::vector<Key>{100, 101, 200, 201, 300, 301, 400, 401}));
  EXPECT_EQ(run.summary.host_comp, 10.0);
  EXPECT_EQ(run.summary.elapsed, 10.0);  // the host outlasted every node
  EXPECT_EQ(run.summary.max_comp, 4.0);
}

TEST(FleetLifecycle, MergesEveryTerminalRecordInNodeOrder) {
  // Node 0 runs; node 1 finished with a verdict; node 2 died; node 3 failed.
  NodeResult done;
  done.state = SlotState::kDone;
  done.stats = {.clock = 5, .comp_ticks = 4, .comm_ticks = 1, .msgs_sent = 3,
                .words_sent = 6, .watchdog_rounds = 1};
  done.errors = {wire_error(1, "one"), wire_error(2, "two")};
  done.events = {wire_event(1, 1, 0), wire_event(0, 1, 0)};
  done.output = {7, 8};
  NodeResult dead;
  dead.state = SlotState::kDead;
  NodeResult failed;
  failed.state = SlotState::kFailed;
  failed.fail_reason = "threw";
  failed.stats = {.clock = 9, .comp_ticks = 2, .comm_ticks = 6, .msgs_sent = 4,
                  .words_sent = 9, .watchdog_rounds = 2};
  failed.errors = {wire_error(0, "three")};
  failed.events = {wire_event(0, 3, 2)};
  failed.output = {5, 6};

  Log log;
  std::vector<Key> output;
  const SortRun run = detail::run_fleet(
      {.head = head(), .backend = Backend::kTcp}, program(output, log),
      fake(log, {{1, done}, {2, dead}, {3, failed}}));

  EXPECT_EQ(run.output, (std::vector<Key>{100, 101, 7, 8, 0, 0, 5, 6}));
  ASSERT_EQ(run.errors.size(), 3u);
  EXPECT_EQ(run.errors[0].node, 1u);
  EXPECT_EQ(run.errors[0].detail, "one");
  EXPECT_EQ(run.errors[1].node, 1u);
  EXPECT_EQ(run.errors[1].detail, "two");
  EXPECT_EQ(run.errors[2].node, 3u);
  EXPECT_EQ(run.errors[2].detail, "three");
  EXPECT_EQ(run.errors[2].source, sim::ErrorSource::kPhiC);

  // Maxima of the clocks and tick counts, sums of the traffic and rounds.
  EXPECT_EQ(run.summary.elapsed, 9.0);
  EXPECT_EQ(run.summary.max_comp, 4.0);
  EXPECT_EQ(run.summary.max_comm, 6.0);
  EXPECT_EQ(run.summary.total_msgs, 7u);
  EXPECT_EQ(run.summary.total_words, 15u);
  EXPECT_EQ(run.summary.watchdog_rounds, 3);

  // (stage, iter, from, to, ...) order, whatever order nodes published in.
  ASSERT_EQ(run.link_events.size(), 3u);
  for (std::size_t i = 0; i + 1 < run.link_events.size(); ++i)
    EXPECT_TRUE(
        sim::link_event_before(run.link_events[i], run.link_events[i + 1]));
  EXPECT_EQ(run.link_events[0].from, 1u);
  EXPECT_EQ(run.link_events[0].stage, 0);
  EXPECT_EQ(run.link_events[1].from, 3u);
  EXPECT_EQ(run.link_events[1].to, 2u);
  EXPECT_EQ(run.link_events[2].stage, 1);
}

// In process, the run's link events are the machine's log as recorded,
// not re-sorted the way the fabric placement sorts merged logs.
TEST(SimPlacement, LinkEventsKeepTheMachinesRecordingOrder) {
  const int dim = 3;
  const auto input = util::random_keys(21, std::size_t{2} << dim);
  sim::Machine mach(cube::Topology{dim}, {});
  SftOptions o;
  o.block = 2;
  o.checkpoint = true;  // host traffic too
  o.record_link_events = true;
  o.machine = &mach;
  const SortRun run = run_sft(dim, input, o);
  const auto& log = mach.link_events();
  ASSERT_EQ(run.link_events.size(), log.size());
  bool sorted = true;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const sim::LinkEvent& a = run.link_events[i];
    const sim::LinkEvent& b = log[i];
    EXPECT_TRUE(a.from == b.from && a.to == b.to && a.kind == b.kind &&
                a.stage == b.stage && a.iter == b.iter && a.words == b.words &&
                a.delivered == b.delivered && a.to_host == b.to_host &&
                a.from_host == b.from_host)
        << "event " << i;
    if (i > 0 && sim::link_event_before(log[i], log[i - 1])) sorted = false;
  }
  EXPECT_FALSE(sorted) << "the fixture no longer tells the two orders apart";
}

}  // namespace
}  // namespace aoft::sort
