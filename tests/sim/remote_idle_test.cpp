// The message-absence policy of the multi-process fabrics (sim/remote.h),
// tested once against a fake fabric.  Machine::remote_idle is the only
// place that decides a blocked receiver will hear nothing more; the shm
// and tcp links merely answer its primitives.  Each case drives a one-node
// (or host-only) machine over a FakeLink whose answers the test scripts.

#include <gtest/gtest.h>

#include <chrono>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "sim/machine.h"
#include "sim/remote.h"

namespace aoft::sim {
namespace {

using Clock = std::chrono::steady_clock;

struct Inbound {
  bool from_host = false;
  cube::NodeId from = 0;
  std::int32_t tag = 0;
};

class FakeLink final : public RemoteLink {
 public:
  void send_node(cube::NodeId, cube::NodeId, const Message&) override {}
  void send_host(cube::NodeId, const Message&) override {}
  void send_from_host(cube::NodeId, const Message&) override {}

  std::size_t pump(KeyPool& pool, const Deliver& deliver) override {
    if (arrive_at && Clock::now() >= *arrive_at) {
      inbound.push_back(late);
      arrive_at.reset();
    }
    std::size_t n = 0;
    for (; !inbound.empty(); inbound.pop_front(), ++n) {
      Message m(pool);
      m.kind = MsgKind::kApp;
      m.from = inbound.front().from;
      m.tag = inbound.front().tag;
      deliver(inbound.front().from_host, m.from, std::move(m));
    }
    return n;
  }

  // A peer's last message becomes visible only once its down state has
  // been read: the race rule 2's extra pump exists for.
  bool peer_down(cube::NodeId q) const override {
    if (!down.count(q)) return false;
    auto& words = last_words[q];
    inbound.insert(inbound.end(), words.begin(), words.end());
    words.clear();
    return true;
  }
  bool orphaned() const override { return orphan; }
  double recv_timeout_s() const override { return timeout_s; }
  void idle() override {
    ++idles;
    if (idles == down_after_idles) down.insert(late_down);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  mutable std::deque<Inbound> inbound;
  mutable std::map<cube::NodeId, std::vector<Inbound>> last_words;
  std::optional<Clock::time_point> arrive_at;  // `late` lands from then on
  Inbound late;
  std::set<cube::NodeId> down;
  bool orphan = false;
  double timeout_s = 60.0;
  int idles = 0;
  int down_after_idles = -1;  // idle() call that marks late_down down
  cube::NodeId late_down = 0;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Node 0 of a 2-cube waits on neighbor 1.  Neighbor 1 is already down, and
// its last message shows up only after that: the policy pumps once more
// and delivers it before the watchdog may fire.
TEST(RemoteIdle, QueuedMessageOfADownPeerIsDeliveredBeforeTheWatchdog) {
  FakeLink link;
  link.down = {1};
  link.last_words[1] = {{false, 1, 42}};
  Machine m(cube::Topology{2}, CostModel{});
  m.attach_remote(&link, 0);
  std::vector<std::pair<bool, std::int32_t>> got;
  m.run_remote_node(0, [&got](Ctx& ctx) -> SimTask {
    for (int i = 0; i < 2; ++i) {
      auto r = co_await ctx.recv(1);
      got.emplace_back(r.ok, r.ok ? r.msg.tag : -1);
    }
  });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], std::make_pair(true, 42));
  EXPECT_EQ(got[1], std::make_pair(false, -1));
  EXPECT_EQ(link.idles, 0) << "a down peer needs no waiting";
  EXPECT_EQ(m.summary().watchdog_rounds, 1);
}

// A node whose host is gone hears nothing more, at once, whatever it waits
// on and however long its timeout.
TEST(RemoteIdle, OrphanedNodeIsSilentAtOnce) {
  FakeLink link;
  link.orphan = true;
  Machine m(cube::Topology{1}, CostModel{});
  m.attach_remote(&link, 1);
  bool ok = true;
  const auto t0 = Clock::now();
  m.run_remote_node(1, [&ok](Ctx& ctx) -> SimTask {
    ok = (co_await ctx.recv_host()).ok;
  });
  EXPECT_FALSE(ok);
  EXPECT_EQ(link.idles, 0);
  EXPECT_LT(seconds_since(t0), 5.0);
}

// A peer that speaks once, late, and then neither speaks nor goes down.
// The message lands inside the first wait episode; the delivery ends that
// episode, so the second wait gets a full recv_timeout_s of its own before
// the watchdog fires.
TEST(RemoteIdle, NodeWaitEpisodeTimesOut) {
  FakeLink link;
  link.timeout_s = 0.05;
  const auto t0 = Clock::now();
  link.arrive_at = t0 + std::chrono::milliseconds(40);
  link.late = {false, 1, 7};
  Machine m(cube::Topology{1}, CostModel{});
  m.attach_remote(&link, 0);
  std::vector<bool> oks;
  m.run_remote_node(0, [&oks](Ctx& ctx) -> SimTask {
    for (int i = 0; i < 2; ++i) oks.push_back((co_await ctx.recv(1)).ok);
  });
  EXPECT_EQ(oks, (std::vector<bool>{true, false}));
  EXPECT_GE(seconds_since(t0), 0.04 + 0.05);
  EXPECT_GT(link.idles, 0);
}

// A receiver blocked on the host link names no peer: every neighbor being
// down does not silence a wait on the reliable host, only the timeout does.
TEST(RemoteIdle, HostLinkWaitIgnoresDownPeers) {
  FakeLink link;
  link.down = {0, 2};
  link.timeout_s = 0.05;
  Machine m(cube::Topology{2}, CostModel{});
  m.attach_remote(&link, 3);
  bool ok = true;
  const auto t0 = Clock::now();
  m.run_remote_node(3, [&ok](Ctx& ctx) -> SimTask {
    ok = (co_await ctx.recv_host()).ok;
  });
  EXPECT_FALSE(ok);
  EXPECT_GE(seconds_since(t0), 0.05);
}

// The host has no timeout: it waits while any node is up, then pumps once
// more once every node is down — a late upload still lands — and only
// then is silent.
TEST(RemoteIdle, HostWaitsForEveryNodeThenDrains) {
  FakeLink link;
  link.timeout_s = 0.0;  // never consulted on the host
  link.down = {0};
  link.down_after_idles = 5;
  link.late_down = 1;
  link.last_words[1] = {{false, 1, 9}};
  Machine m(cube::Topology{1}, CostModel{});
  m.attach_remote(&link, -1);
  std::vector<std::pair<bool, std::int32_t>> got;
  m.run_remote_host([&got](HostCtx& h) -> SimTask {
    for (int i = 0; i < 2; ++i) {
      auto r = co_await h.recv();
      got.emplace_back(r.ok, r.ok ? r.msg.tag : -1);
    }
  });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], std::make_pair(true, 9));
  EXPECT_EQ(got[1], std::make_pair(false, -1));
  EXPECT_EQ(link.idles, 5);
}

}  // namespace
}  // namespace aoft::sim
