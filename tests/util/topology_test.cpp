#include "util/topology.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace aoft::util {
namespace {

namespace fs = std::filesystem;

TEST(CpulistTest, ParsesSinglesRangesAndMixes) {
  std::vector<int> cpus;
  ASSERT_TRUE(parse_cpulist("5", &cpus));
  EXPECT_EQ(cpus, (std::vector<int>{5}));
  ASSERT_TRUE(parse_cpulist("0-3", &cpus));
  EXPECT_EQ(cpus, (std::vector<int>{0, 1, 2, 3}));
  ASSERT_TRUE(parse_cpulist("0-3,8,10-11", &cpus));
  EXPECT_EQ(cpus, (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  ASSERT_TRUE(parse_cpulist(" 2 , 0-1 \n", &cpus));
  EXPECT_EQ(cpus, (std::vector<int>{0, 1, 2}));
}

TEST(CpulistTest, SortsAndDeduplicates) {
  std::vector<int> cpus;
  ASSERT_TRUE(parse_cpulist("3,1,1-2,3", &cpus));
  EXPECT_EQ(cpus, (std::vector<int>{1, 2, 3}));
}

TEST(CpulistTest, EmptyTextIsAnEmptyList) {
  std::vector<int> cpus{99};
  ASSERT_TRUE(parse_cpulist("", &cpus));
  EXPECT_TRUE(cpus.empty());
  cpus = {99};
  ASSERT_TRUE(parse_cpulist("  \n ", &cpus));
  EXPECT_TRUE(cpus.empty());
}

TEST(CpulistTest, RejectsMalformedTokens) {
  std::vector<int> cpus;
  EXPECT_FALSE(parse_cpulist("a", &cpus));
  EXPECT_FALSE(parse_cpulist("1,,2", &cpus));
  EXPECT_FALSE(parse_cpulist("-3", &cpus));
  EXPECT_FALSE(parse_cpulist("3-", &cpus));
  EXPECT_FALSE(parse_cpulist("3-1", &cpus));   // descending range
  EXPECT_FALSE(parse_cpulist("1.5", &cpus));
  EXPECT_FALSE(parse_cpulist("0x2", &cpus));
}

TEST(PlacementPolicyTest, ParsesNamedPoliciesAndRoundTrips) {
  for (const char* name : {"none", "compact", "scatter"}) {
    PlacementPolicy p;
    std::string err;
    ASSERT_TRUE(PlacementPolicy::parse(name, &p, &err)) << err;
    EXPECT_TRUE(p.cpus.empty());
    EXPECT_EQ(p.str(), name);
    PlacementPolicy again;
    ASSERT_TRUE(PlacementPolicy::parse(p.str(), &again, &err)) << err;
    EXPECT_EQ(p, again);
  }
}

TEST(PlacementPolicyTest, ParsesExplicitListsAndRoundTrips) {
  PlacementPolicy p;
  std::string err;
  ASSERT_TRUE(PlacementPolicy::parse("0,2,4", &p, &err)) << err;
  EXPECT_EQ(p.kind, Placement::kExplicit);
  EXPECT_EQ(p.cpus, (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(p.str(), "0,2,4");
  ASSERT_TRUE(PlacementPolicy::parse("0-3", &p, &err)) << err;
  EXPECT_EQ(p.cpus, (std::vector<int>{0, 1, 2, 3}));
  PlacementPolicy again;
  ASSERT_TRUE(PlacementPolicy::parse(p.str(), &again, &err)) << err;
  EXPECT_EQ(p, again);
}

TEST(PlacementPolicyTest, RejectsGarbageAndEmptyLists) {
  PlacementPolicy p;
  std::string err;
  EXPECT_FALSE(PlacementPolicy::parse("", &p, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(PlacementPolicy::parse("bogus", &p, &err));
  EXPECT_FALSE(PlacementPolicy::parse("1,,2", &p, &err));
  EXPECT_FALSE(PlacementPolicy::parse("-3", &p, &err));
  EXPECT_TRUE(PlacementPolicy::parse("compact", &p, nullptr));  // null err ok
}

TEST(HostTopologyTest, SingleNodeFallbackShape) {
  const auto topo = HostTopology::single_node(4);
  ASSERT_EQ(topo.cpus.size(), 4u);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(topo.cpus[static_cast<std::size_t>(c)].cpu, c);
    EXPECT_EQ(topo.cpus[static_cast<std::size_t>(c)].node, 0);
  }
  EXPECT_EQ(topo.nodes, 1);
  EXPECT_TRUE(topo.fallback);
  EXPECT_GE(HostTopology::single_node(0).cpus.size(), 1u);  // hw concurrency
}

TEST(HostTopologyTest, NodeOfAndHasCpu) {
  const auto topo = HostTopology::single_node(2);
  EXPECT_EQ(topo.node_of(0), 0);
  EXPECT_EQ(topo.node_of(1), 0);
  EXPECT_EQ(topo.node_of(2), -1);
  EXPECT_TRUE(topo.has_cpu(1));
  EXPECT_FALSE(topo.has_cpu(7));
}

// Fixture sysfs trees: a fake /sys/devices/system/node with two NUMA nodes.
class SysfsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per process and test: ctest runs tests as parallel processes.
    root_ = fs::path(::testing::TempDir()) /
            ("aoft_topology_fixture_" + std::to_string(getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    write_node(0, "0-1");
    write_node(1, "2-3");
    // Entries a real /sys tree also contains; discovery must skip them.
    fs::create_directories(root_ / "cpufreq");
    std::ofstream(root_ / "online") << "0-1\n";
    fs::create_directories(root_ / "nodeX");  // malformed suffix
  }
  void TearDown() override { fs::remove_all(root_); }

  void write_node(int node, const std::string& cpulist) {
    const fs::path dir = root_ / ("node" + std::to_string(node));
    fs::create_directories(dir);
    std::ofstream(dir / "cpulist") << cpulist << "\n";
  }

  fs::path root_;
};

TEST_F(SysfsFixture, ReadsTwoNodeTree) {
  const auto topo = HostTopology::from_sysfs(root_.string(), {});
  ASSERT_EQ(topo.cpus.size(), 4u);
  EXPECT_EQ(topo.nodes, 2);
  EXPECT_FALSE(topo.fallback);
  EXPECT_EQ(topo.node_of(0), 0);
  EXPECT_EQ(topo.node_of(1), 0);
  EXPECT_EQ(topo.node_of(2), 1);
  EXPECT_EQ(topo.node_of(3), 1);
}

TEST_F(SysfsFixture, RestrictsToTheAvailableCpuSet) {
  const auto topo = HostTopology::from_sysfs(root_.string(), {1, 3});
  ASSERT_EQ(topo.cpus.size(), 2u);
  EXPECT_EQ(topo.cpus[0].cpu, 1);
  EXPECT_EQ(topo.cpus[0].node, 0);
  EXPECT_EQ(topo.cpus[1].cpu, 3);
  EXPECT_EQ(topo.cpus[1].node, 1);
  EXPECT_EQ(topo.nodes, 2);
  // A CPU the affinity mask grants but sysfs never mentions lands on node 0.
  const auto extra = HostTopology::from_sysfs(root_.string(), {3, 9});
  EXPECT_EQ(extra.node_of(9), 0);
}

TEST_F(SysfsFixture, MissingRootFallsBackToSingleNode) {
  const auto topo =
      HostTopology::from_sysfs((root_ / "does_not_exist").string(), {0, 1});
  ASSERT_EQ(topo.cpus.size(), 2u);
  EXPECT_EQ(topo.nodes, 1);
  EXPECT_TRUE(topo.fallback);
  EXPECT_EQ(topo.node_of(0), 0);
  // No available set either: hardware-concurrency single-node shape.
  const auto empty =
      HostTopology::from_sysfs((root_ / "does_not_exist").string(), {});
  EXPECT_GE(empty.cpus.size(), 1u);
  EXPECT_TRUE(empty.fallback);
}

TEST(HostTopologyTest, DiscoverReturnsSomethingUsable) {
  const auto topo = HostTopology::discover();
  ASSERT_FALSE(topo.cpus.empty());
  EXPECT_GE(topo.nodes, 1);
  for (std::size_t i = 1; i < topo.cpus.size(); ++i)
    EXPECT_LT(topo.cpus[i - 1].cpu, topo.cpus[i].cpu);  // ascending, unique
  for (const auto& hc : topo.cpus) EXPECT_GE(hc.node, 0);
}

// Two nodes, two CPUs each: 0,1 on node 0 and 2,3 on node 1.
HostTopology two_by_two() {
  HostTopology topo;
  topo.cpus = {{0, 0}, {1, 0}, {2, 1}, {3, 1}};
  topo.nodes = 2;
  return topo;
}

TEST(PlanPlacementTest, NoneLeavesEveryWorkerUnpinned) {
  const auto pins = plan_placement({}, two_by_two(), 3);
  ASSERT_EQ(pins.size(), 3u);
  for (const auto& pin : pins) {
    EXPECT_EQ(pin.cpu, -1);
    EXPECT_EQ(pin.node, -1);
  }
  EXPECT_EQ(pins[2].worker, 2);
}

TEST(PlanPlacementTest, CompactFillsANodeBeforeSpilling) {
  PlacementPolicy p;
  p.kind = Placement::kCompact;
  const auto pins = plan_placement(p, two_by_two(), 4);
  ASSERT_EQ(pins.size(), 4u);
  EXPECT_EQ(pins[0].cpu, 0);
  EXPECT_EQ(pins[1].cpu, 1);
  EXPECT_EQ(pins[2].cpu, 2);
  EXPECT_EQ(pins[3].cpu, 3);
  EXPECT_EQ(pins[0].node, 0);
  EXPECT_EQ(pins[1].node, 0);
  EXPECT_EQ(pins[2].node, 1);
  EXPECT_EQ(pins[3].node, 1);
}

TEST(PlanPlacementTest, ScatterAlternatesNodes) {
  PlacementPolicy p;
  p.kind = Placement::kScatter;
  const auto pins = plan_placement(p, two_by_two(), 4);
  ASSERT_EQ(pins.size(), 4u);
  EXPECT_EQ(pins[0].cpu, 0);
  EXPECT_EQ(pins[1].cpu, 2);
  EXPECT_EQ(pins[2].cpu, 1);
  EXPECT_EQ(pins[3].cpu, 3);
  EXPECT_EQ(pins[0].node, 0);
  EXPECT_EQ(pins[1].node, 1);
  EXPECT_EQ(pins[2].node, 0);
  EXPECT_EQ(pins[3].node, 1);
}

TEST(PlanPlacementTest, WorkersWrapWhenTheyOutnumberCpus) {
  PlacementPolicy p;
  p.kind = Placement::kCompact;
  const auto pins = plan_placement(p, two_by_two(), 6);
  ASSERT_EQ(pins.size(), 6u);
  EXPECT_EQ(pins[4].cpu, 0);
  EXPECT_EQ(pins[5].cpu, 1);
}

TEST(PlanPlacementTest, ExplicitListCyclesInAscendingOrder) {
  // cpulist syntax denotes a *set*: parse canonicalizes "3,1" to 1,3.
  PlacementPolicy p;
  std::string err;
  ASSERT_TRUE(PlacementPolicy::parse("3,1", &p, &err)) << err;
  EXPECT_EQ(p.str(), "1,3");
  const auto pins = plan_placement(p, two_by_two(), 3);
  ASSERT_EQ(pins.size(), 3u);
  EXPECT_EQ(pins[0].cpu, 1);
  EXPECT_EQ(pins[0].node, 0);
  EXPECT_EQ(pins[1].cpu, 3);
  EXPECT_EQ(pins[1].node, 1);
  EXPECT_EQ(pins[2].cpu, 1);  // wrapped
}

TEST(PlanPlacementTest, ExplicitUnavailableCpuThrows) {
  PlacementPolicy p;
  ASSERT_TRUE(PlacementPolicy::parse("0,9", &p, nullptr));
  EXPECT_THROW(plan_placement(p, two_by_two(), 2), std::invalid_argument);
}

TEST(PlanPlacementTest, DegenerateWorkerCountsAndTopologies) {
  PlacementPolicy compact;
  compact.kind = Placement::kCompact;
  EXPECT_TRUE(plan_placement(compact, two_by_two(), 0).empty());
  EXPECT_TRUE(plan_placement(compact, two_by_two(), -2).empty());
  // An empty topology plans everything unpinned rather than dividing by zero.
  const auto pins = plan_placement(compact, HostTopology{}, 2);
  ASSERT_EQ(pins.size(), 2u);
  EXPECT_EQ(pins[0].cpu, -1);
  EXPECT_EQ(pins[1].cpu, -1);
}

TEST(PinCurrentThreadTest, PinsARealCpuAndRejectsNonsense) {
  // Pin inside a scratch thread so the test runner's own affinity mask is
  // never narrowed.
  const auto topo = HostTopology::discover();
  ASSERT_FALSE(topo.cpus.empty());
  const int cpu = topo.cpus.front().cpu;
  bool pinned = false, huge = true, negative = true;
  std::thread([&] {
    pinned = pin_current_thread(cpu);
    huge = pin_current_thread(1 << 20);
    negative = pin_current_thread(-1);
  }).join();
#if defined(__linux__)
  EXPECT_TRUE(pinned);
#endif
  EXPECT_FALSE(huge);
  EXPECT_FALSE(negative);
}

}  // namespace
}  // namespace aoft::util
