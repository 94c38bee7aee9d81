// The fleet lifecycle (sort/fleet.h), written once and run on both
// multi-process fabrics: a job the fabric cannot carry is refused before any
// process exists, exec'd S_NR nodes (aoft_node's algo dispatch) match the
// simulator oracle, and a rollback resume matches it too.

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/wait.h>

#include <cerrno>
#include <chrono>
#include <string>

#include "sort/fleet.h"
#include "sort/sft.h"
#include "sort/snr.h"
#include "transport/frame.h"
#include "util/rng.h"

#ifndef AOFT_NODE_PATH
#error "build must define AOFT_NODE_PATH (see tests/CMakeLists.txt)"
#endif

namespace aoft::sort {
namespace {

using transport::Backend;

template <class Options>
Options on(Backend fabric, Options o = {}) {
  o.backend = fabric;
  o.shm.recv_timeout_s = o.tcp.recv_timeout_s = 5.0;
  o.shm.run_deadline_s = o.tcp.run_deadline_s = 60.0;
  return o;
}

// True when this process has no child, reaped or not: the run under test
// never forked.
bool no_child_was_spawned() {
  int status = 0;
  return waitpid(-1, &status, WNOHANG) == -1 && errno == ECHILD;
}

class FleetTest : public ::testing::TestWithParam<Backend> {};

TEST_P(FleetTest, RejectsAnInProcessMachineBeforeSpawning) {
  const auto input = util::random_keys(1, 4);
  sim::Machine mach(cube::Topology{2}, {});
  auto sft = on<SftOptions>(GetParam());
  sft.machine = &mach;
  EXPECT_THROW(run_sft(2, input, sft), std::invalid_argument);
  auto snr = on<SnrOptions>(GetParam());
  snr.machine = &mach;
  EXPECT_THROW(run_snr(2, input, snr), std::invalid_argument);
  EXPECT_TRUE(no_child_was_spawned());
}

TEST_P(FleetTest, RejectsAnObserverBeforeSpawning) {
  const auto input = util::random_keys(2, 4);
  auto o = on<SftOptions>(GetParam());
  o.observer = [](const StageSnapshot&) {};
  EXPECT_THROW(run_sft(2, input, o), std::invalid_argument);
  EXPECT_TRUE(no_child_was_spawned());
}

TEST_P(FleetTest, RejectsACubeBeyondTheProcessCapBeforeSpawning) {
  const int dim = transport::kMaxProcessDim + 1;
  const auto input = util::random_keys(3, std::size_t{1} << dim);
  EXPECT_THROW(run_sft(dim, input, on<SftOptions>(GetParam())),
               std::invalid_argument);
  EXPECT_THROW(run_snr(dim, input, on<SnrOptions>(GetParam())),
               std::invalid_argument);
  EXPECT_TRUE(no_child_was_spawned());
}

TEST_P(FleetTest, ExecModeSnrMatchesTheOracle) {
  const int dim = 3;
  SnrOptions base;
  base.block = 2;
  base.node_faults[2].substitute_at = fault::StagePoint{1, 1};
  base.node_faults[2].substitute_value = 999999;
  const auto input = util::random_keys(8123, (std::size_t{1} << dim) * 2);
  auto exec = on(GetParam(), base);
  exec.shm.node_binary = exec.tcp.node_binary = AOFT_NODE_PATH;
  const auto sim_run = run_snr(dim, input, base);
  const auto exec_run = run_snr(dim, input, exec);
  EXPECT_EQ(exec_run.output, sim_run.output);
  EXPECT_EQ(classify(exec_run, input), classify(sim_run, input));
  EXPECT_TRUE(exec_run.errors.empty());
}

TEST_P(FleetTest, ResumeFromCertifiedCheckpointMatches) {
  const int dim = 3;
  SftOptions base;
  base.block = 2;
  base.checkpoint = true;
  const auto input = util::random_keys(31338, (std::size_t{1} << dim) * 2);
  const auto first = run_sft(dim, input, base);
  const auto rs = make_resume_state(first.checkpoints);
  ASSERT_TRUE(rs.has_value());
  SftOptions plain;
  plain.block = 2;
  const auto sim_run = resume_sft(dim, *rs, plain);
  const auto fleet_run = resume_sft(dim, *rs, on(GetParam(), plain));
  EXPECT_EQ(fleet_run.output, sim_run.output);
  EXPECT_EQ(fleet_run.errors.size(), sim_run.errors.size());
  EXPECT_EQ(classify(fleet_run, input), Outcome::kCorrect);
}

INSTANTIATE_TEST_SUITE_P(Fabrics, FleetTest,
                         ::testing::Values(Backend::kShm, Backend::kTcp),
                         [](const auto& info) {
                           return std::string(transport::to_string(info.param));
                         });

// Fabric-specific refusals: only tcp has a CONFIG frame, and only shm
// cannot see a wedged child.
TEST(FleetTcp, RefusesAnOversizeConfigBeforeSpawning) {
  // The smallest job whose CONFIG cannot fit one frame.  The input is an
  // untouched anonymous mapping: the refusal must never read it.
  const int dim = 4;
  const std::size_t block =
      transport::kMaxFrameBytes / (sizeof(Key) << dim) + 1;
  ASSERT_GT(transport::config_frame_bytes(dim, block, false),
            transport::kMaxFrameBytes);
  const std::size_t bytes = (std::size_t{1} << dim) * block * sizeof(Key);
  void* image = mmap(nullptr, bytes, PROT_READ,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ASSERT_NE(image, MAP_FAILED);
  const std::span<const Key> input(static_cast<const Key*>(image),
                                   bytes / sizeof(Key));
  SnrOptions o = on<SnrOptions>(Backend::kTcp);
  o.block = block;
  EXPECT_THROW(run_snr(dim, input, o), std::invalid_argument);
  munmap(image, bytes);
  EXPECT_TRUE(no_child_was_spawned());
}

TEST(FleetShm, RefusesAWedgeBeforeSpawning) {
  // A SIGSTOPped shm child is invisible to the reaper, so accepting this
  // job would cost the whole run deadline; refusing it costs nothing.
  const auto input = util::random_keys(4, 4 * 8);
  auto o = on<SftOptions>(Backend::kShm);
  o.block = 8;
  o.shm.recv_timeout_s = 1.0;
  o.shm.run_deadline_s = 6.0;
  o.node_faults[1].halt_at = fault::StagePoint{1, 0};
  o.node_faults[1].wedge_process = true;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(run_sft(2, input, o), std::invalid_argument);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count(),
            1.0);
  EXPECT_TRUE(no_child_was_spawned());
}

}  // namespace
}  // namespace aoft::sort
