// Edge coverage across module seams that the mainline suites do not hit:
// host-verified block sorting, host-side error reporting, mixed-fault
// recovery, labeling decisions, degenerate fits.

#include <gtest/gtest.h>

#include <algorithm>

#include "aoft/labeling.h"
#include "analysis/fit.h"
#include "fault/adversary.h"
#include "fault/supervisor.h"
#include "sort/sequential.h"
#include "util/rng.h"

namespace aoft {
namespace {

TEST(EdgeCoverageTest, HostVerifiedBlockSortAccepts) {
  sort::HostVerifyOptions opts;
  opts.block = 4;
  auto input = util::random_keys(61, 16 * 4);
  auto run = sort::run_host_verified_snr(4, input, opts);
  EXPECT_TRUE(run.errors.empty());
  std::vector<sort::Key> expect(input.begin(), input.end());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(run.output, expect);
}

TEST(EdgeCoverageTest, HostVerifiedBlockSortRejectsCorruption) {
  sort::HostVerifyOptions opts;
  opts.block = 4;
  opts.node_faults[5].invert_direction_from = fault::StagePoint{1, 1};
  auto input = util::random_keys(62, 16 * 4);
  auto run = sort::run_host_verified_snr(4, input, opts);
  EXPECT_EQ(sort::classify(run, input), sort::Outcome::kFailStop);
}

TEST(EdgeCoverageTest, HostErrorReportsAppearInRunErrors) {
  sim::Machine machine(cube::Topology{1}, sim::CostModel{});
  machine.run([](sim::Ctx&) -> sim::SimTask { co_return; },
              [](sim::HostCtx& host) -> sim::SimTask {
                host.error({0, 7, -1, sim::ErrorSource::kApp, "host said no"});
                co_return;
              });
  ASSERT_EQ(machine.errors().size(), 1u);
  EXPECT_EQ(machine.errors()[0].stage, 7);
  EXPECT_TRUE(machine.failed_stop());
}

TEST(EdgeCoverageTest, RecoveryAcrossDifferentTransientFaults) {
  // Attempt 0 and 1 fail with *different* faults; attempt 2 is clean.  The
  // per-attempt diagnoses disagree, so no suspect is persistent — exactly
  // the signature of transient noise rather than a broken node.
  auto input = util::random_keys(63, 16);
  fault::Adversary first, second;
  first.add(fault::drop_message(2, {1, 1}));
  second.add(fault::drop_message(12, {2, 0}));
  const auto run = fault::run_supervised_sort(
      4, input, {}, fault::RecoveryPolicy::full_restart(3),
      [&](int attempt) -> sim::LinkInterceptor* {
        if (attempt == 0) return &first;
        if (attempt == 1) return &second;
        return nullptr;
      });
  EXPECT_EQ(run.attempts, 3);
  EXPECT_TRUE(run.recovered);
  ASSERT_EQ(run.diagnoses.size(), 2u);
  EXPECT_TRUE(fault::persistent_suspects(run.diagnoses).empty());
}

TEST(EdgeCoverageTest, LabelingDecisionsPickArgmax) {
  core::LabelingRun run;
  run.p = {0.2, 0.8, 0.9, 0.1, 0.5, 0.5};
  const auto d = run.decisions(2);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0], 1u);
  EXPECT_EQ(d[1], 0u);
  EXPECT_EQ(d[2], 0u);  // ties resolve to the lower label
}

TEST(EdgeCoverageTest, CollinearBasisFitThrows) {
  // Two identical basis functions make the normal equations singular; the
  // fitter must refuse rather than return garbage coefficients.
  std::vector<analysis::Basis> basis{{"N", [](double n) { return n; }},
                                     {"N again", [](double n) { return n; }}};
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> ys{1, 2, 3, 4};
  EXPECT_THROW(analysis::fit(basis, xs, ys), std::runtime_error);
}

TEST(EdgeCoverageTest, DimensionOneSftWithBlocks) {
  // The smallest nontrivial machine: two nodes, blocks, full protocol
  // including the final verification round.
  sort::SftOptions opts;
  opts.block = 5;
  auto input = util::random_keys(64, 2 * 5);
  auto run = sort::run_sft(1, input, opts);
  EXPECT_TRUE(run.errors.empty());
  std::vector<sort::Key> expect(input.begin(), input.end());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(run.output, expect);
}

TEST(EdgeCoverageTest, ReplayOfIdenticalContentIsNotFlagged) {
  // A replayed message whose content happens to be identical to the honest
  // one is not a semantic deviation; the adversary reports it untouched and
  // the run completes cleanly.  (All-zero keys make every slice — including
  // the never-collected positions of the gossip buffers — bit-identical.)
  fault::Adversary a;
  a.add(fault::replay_stale_lbs(3, {1, 1}));
  sort::SftOptions opts;
  opts.interceptor = &a;
  std::vector<sort::Key> input(16, 0);
  auto run = sort::run_sft(4, input, opts);
  EXPECT_TRUE(run.errors.empty());
  EXPECT_EQ(sort::classify(run, input), sort::Outcome::kCorrect);
}

}  // namespace
}  // namespace aoft
