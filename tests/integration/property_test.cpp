// Property sweeps (parameterized): correctness and alarm-freedom of S_FT over
// the (dimension × seed × block × distribution) grid, and the Theorem-3
// never-silently-wrong property over the (fault class × seed) grid.

#include <gtest/gtest.h>

#include <algorithm>

#include "fault/campaign.h"
#include "sort/sft.h"
#include "util/rng.h"

namespace aoft::sort {
namespace {

// ---- fault-free sweep -------------------------------------------------------

struct SweepParam {
  int dim;
  std::uint64_t seed;
  std::size_t block;
  std::int64_t alphabet;  // 0 = full 32-bit range
};

class SftSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SftSweepTest, SortsCorrectlyWithoutAlarms) {
  const auto p = GetParam();
  const std::size_t total = (std::size_t{1} << p.dim) * p.block;
  auto input = p.alphabet == 0
                   ? util::random_keys(p.seed, total)
                   : util::random_keys_small_alphabet(p.seed, total, p.alphabet);
  SftOptions opts;
  opts.block = p.block;
  auto run = run_sft(p.dim, input, opts);
  ASSERT_TRUE(run.errors.empty())
      << "false alarm: " << run.errors.front().detail;
  std::vector<Key> expect(input.begin(), input.end());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(run.output, expect);
  EXPECT_EQ(run.summary.watchdog_rounds, 0);
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> params;
  for (int dim = 1; dim <= 6; ++dim)
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL})
      params.push_back({dim, seed * 1000 + static_cast<std::uint64_t>(dim), 1, 0});
  // Blocks, including non-power-of-two sizes.
  for (std::size_t block : {2u, 3u, 8u})
    for (int dim : {2, 4})
      params.push_back({dim, 500 + block, block, 0});
  // Duplicate-heavy alphabets stress the tie handling in Φ_F.
  for (std::int64_t alphabet : {1, 2, 5})
    for (int dim : {3, 5})
      params.push_back({dim, 900 + static_cast<std::uint64_t>(alphabet), 1, alphabet});
  return params;
}

INSTANTIATE_TEST_SUITE_P(Grid, SftSweepTest, ::testing::ValuesIn(sweep_params()),
                         [](const auto& info) {
                           const auto& p = info.param;
                           return "dim" + std::to_string(p.dim) + "_seed" +
                                  std::to_string(p.seed) + "_m" +
                                  std::to_string(p.block) + "_a" +
                                  std::to_string(p.alphabet);
                         });

// ---- Theorem 3 sweep --------------------------------------------------------

// gtest lists a parameter without a printer by its raw bytes, and the listed
// text becomes part of the ctest name. The padding after `fclass` is therefore
// an explicit zeroed member: left implicit, it carried heap garbage and the
// corrupt_data cases got a different name on every run.
struct FaultParam {
  fault::FaultClass fclass;
  std::uint8_t zero_pad[7] = {};
  std::uint64_t seed;
};
static_assert(sizeof(FaultParam) == 16);

class Theorem3Test : public ::testing::TestWithParam<FaultParam> {};

TEST_P(Theorem3Test, NeverSilentlyWrong) {
  const auto p = GetParam();
  fault::CampaignConfig cfg;
  cfg.dim = 4;
  cfg.seed = p.seed;
  util::Rng rng(p.seed);
  for (int rep = 0; rep < 5; ++rep) {
    const auto scenario = fault::draw_scenario(p.fclass, cfg, rng);
    const auto result = fault::run_scenario_sft(scenario, cfg);
    EXPECT_NE(result.outcome, Outcome::kSilentWrong)
        << fault::to_string(p.fclass) << " faulty=" << scenario.faulty
        << " stage=" << scenario.point.stage << " iter=" << scenario.point.iter
        << " delta=" << scenario.delta;
  }
}

std::vector<FaultParam> theorem3_params() {
  std::vector<FaultParam> params;
  for (auto fclass : fault::kAllFaultClasses)
    for (std::uint64_t seed : {11ULL, 22ULL, 33ULL})
      params.push_back({.fclass = fclass, .seed = seed});
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllClasses, Theorem3Test,
                         ::testing::ValuesIn(theorem3_params()),
                         [](const auto& info) {
                           std::string name = fault::to_string(info.param.fclass);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name + "_s" + std::to_string(info.param.seed);
                         });

// The same theorem with blocks: every predicate "scales by m" (§5), so the
// guarantee must survive m > 1 unchanged.
TEST(Theorem3BlockTest, NeverSilentlyWrongWithBlocks) {
  fault::CampaignConfig cfg;
  cfg.dim = 3;
  cfg.block = 3;
  cfg.seed = 99;
  util::Rng rng(99);
  for (auto fclass : fault::kAllFaultClasses) {
    for (int rep = 0; rep < 3; ++rep) {
      const auto scenario = fault::draw_scenario(fclass, cfg, rng);
      const auto result = fault::run_scenario_sft(scenario, cfg);
      EXPECT_NE(result.outcome, Outcome::kSilentWrong)
          << fault::to_string(fclass) << " faulty=" << scenario.faulty
          << " stage=" << scenario.point.stage;
    }
  }
}

}  // namespace
}  // namespace aoft::sort
