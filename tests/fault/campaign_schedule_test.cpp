// Seed-schedule pins and entry checks for the campaign slot engine.
//
// The determinism suites compare one campaign against another (same seed
// twice, jobs=1 against jobs=4), so a change that shifts every draw the same
// way still passes them.  The pins below are absolute: integer tallies and
// the fnv1a64 of each slot stream, recorded from the engine as it stood
// before the scripted, soak and multi-fault sweeps were folded into one slot
// engine.  They move only if the seed streams (class enum, 0x100+k,
// 0x200+mode), the attempt order, the outcome classification or the stream
// format moves.  Every pinned value is an integer, so hosts with different
// SIMD paths or floating-point code generation agree.

#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/campaign.h"
#include "util/atomic_file.h"
#include "util/rng.h"

namespace aoft::fault {
namespace {

std::string fresh_path(const std::string& name) {
  // Unique per process and test: ctest runs tests as parallel processes.
  const std::string path =
      ::testing::TempDir() + "aoft_sched_" + std::to_string(getpid()) + "_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      name;
  std::remove(path.c_str());
  return path;
}

std::uint64_t file_digest(const std::string& path) {
  std::string bytes;
  std::string err;
  EXPECT_TRUE(util::read_file(path, &bytes, &err)) << err;
  return util::fnv1a64(bytes);
}

// Every pin must hold serially and on a batched pool alike.
struct Execution {
  int jobs;
  int batch;
};
constexpr Execution kExecutions[] = {{1, 1}, {4, 3}};

CampaignConfig scripted_config(Execution e = {1, 1}) {
  CampaignConfig cfg;
  cfg.dim = 3;
  cfg.runs_per_class = 6;
  cfg.seed = 1989;
  cfg.jobs = e.jobs;
  cfg.scenario_batch = e.batch;
  return cfg;
}

CampaignConfig soak_config(InjectionMode mode, Execution e = {1, 1}) {
  CampaignConfig cfg;
  cfg.dim = 3;
  cfg.runs_per_class = 12;
  cfg.seed = 1989;
  cfg.jobs = e.jobs;
  cfg.scenario_batch = e.batch;
  cfg.injection.mode = mode;
  cfg.injection.p = 0.05;
  cfg.injection.k = 3;
  return cfg;
}

// One row per fault class: S_FT runs, detected, masked, silent_wrong,
// attempts, dropped, multi_fired; then S_NR runs, detected, masked,
// silent_wrong.
using ClassRow = std::array<int, 11>;

ClassRow row_of(const ClassTally& sft, const ClassTally& snr) {
  return {sft.runs,     sft.detected, sft.masked,   sft.silent_wrong,
          sft.attempts, sft.dropped,  sft.multi_fired, snr.runs,
          snr.detected, snr.masked,   snr.silent_wrong};
}

// runs, detected, masked, silent_wrong_in_bound, silent_wrong_beyond,
// beyond_bound_runs, multi_fired, faults_fired, attempts, dropped,
// max_dislocation, slots_total, slots_done.
using SoakRow = std::array<long long, 13>;

SoakRow row_of(const SoakTally& t) {
  return {t.runs,
          t.detected,
          t.masked,
          t.silent_wrong_in_bound,
          t.silent_wrong_beyond,
          t.beyond_bound_runs,
          t.multi_fired,
          t.faults_fired,
          t.attempts,
          t.dropped,
          static_cast<long long>(t.max_dislocation),
          static_cast<long long>(t.slots_total),
          static_cast<long long>(t.slots_done)};
}

// k, runs, detected, masked, silent_wrong, attempts, dropped.
using MultiRow = std::array<int, 7>;

MultiRow row_of(const MultiTally& t) {
  return {t.k, t.runs, t.detected, t.masked, t.silent_wrong, t.attempts,
          t.dropped};
}

TEST(CampaignScheduleTest, ScriptedTalliesAndStreamArePinned) {
  const std::array<ClassRow, std::size(kAllFaultClasses)> expected = {{
      {6, 6, 0, 0, 6, 0, 0, 6, 0, 0, 6},  // corrupt-data
      {6, 6, 0, 0, 6, 0, 4, 0, 0, 0, 0},  // corrupt-gossip
      {6, 6, 0, 0, 6, 0, 4, 0, 0, 0, 0},  // two-faced-gossip
      {6, 5, 1, 0, 6, 0, 6, 0, 0, 0, 0},  // relay-tamper
      {6, 6, 0, 0, 6, 0, 0, 6, 0, 0, 6},  // drop-message
      {6, 6, 0, 0, 6, 0, 0, 5, 0, 0, 5},  // dead-link
      {6, 6, 0, 0, 6, 0, 3, 0, 0, 0, 0},  // garble-lbs
      {6, 6, 0, 0, 7, 0, 2, 0, 0, 0, 0},  // replay-stale: one redraw
      {6, 6, 0, 0, 6, 0, 0, 6, 0, 1, 5},  // halt-node
      {6, 4, 2, 0, 6, 0, 0, 6, 0, 4, 2},  // invert-direction
      {6, 6, 0, 0, 6, 0, 0, 6, 0, 0, 6},  // substitute-value
  }};
  for (const Execution e : kExecutions) {
    SCOPED_TRACE("jobs=" + std::to_string(e.jobs));
    CampaignConfig cfg = scripted_config(e);
    cfg.stream_path = fresh_path("stream.jsonl");
    const CampaignSummary s = run_campaign(cfg);
    ASSERT_EQ(s.sft.size(), expected.size());
    for (std::size_t c = 0; c < expected.size(); ++c)
      EXPECT_EQ(row_of(s.sft[c], s.snr[c]), expected[c])
          << to_string(s.sft[c].fclass);
    EXPECT_EQ(file_digest(cfg.stream_path), 17474390392434419115ULL);
    std::remove(cfg.stream_path.c_str());
  }
}

TEST(CampaignScheduleTest, IndependentSoakTallyAndStreamArePinned) {
  for (const Execution e : kExecutions) {
    SCOPED_TRACE("jobs=" + std::to_string(e.jobs));
    CampaignConfig cfg = soak_config(InjectionMode::kIndependent, e);
    cfg.stream_path = fresh_path("stream.jsonl");
    EXPECT_EQ(row_of(run_soak_campaign(cfg)),
              (SoakRow{12, 12, 0, 0, 0, 2, 6, 21, 12, 0, 0, 12, 12}));
    EXPECT_EQ(file_digest(cfg.stream_path), 11823314445132547194ULL);
    std::remove(cfg.stream_path.c_str());
  }
}

TEST(CampaignScheduleTest, RunLengthSoakTallyAndStreamArePinned) {
  for (const Execution e : kExecutions) {
    SCOPED_TRACE("jobs=" + std::to_string(e.jobs));
    CampaignConfig cfg = soak_config(InjectionMode::kRunLength, e);
    cfg.stream_path = fresh_path("stream.jsonl");
    EXPECT_EQ(row_of(run_soak_campaign(cfg)),
              (SoakRow{12, 12, 0, 0, 0, 0, 6, 21, 12, 0, 0, 12, 12}));
    EXPECT_EQ(file_digest(cfg.stream_path), 5056262889042869065ULL);
    std::remove(cfg.stream_path.c_str());
  }
}

TEST(CampaignScheduleTest, MultiFaultTalliesArePinned) {
  for (const Execution e : kExecutions) {
    SCOPED_TRACE("jobs=" + std::to_string(e.jobs));
    const std::vector<MultiTally> tallies =
        run_multi_campaign(scripted_config(e), 2);
    ASSERT_EQ(tallies.size(), 2u);
    EXPECT_EQ(row_of(tallies[0]), (MultiRow{1, 6, 4, 2, 0, 6, 0}));
    EXPECT_EQ(row_of(tallies[1]), (MultiRow{2, 6, 6, 0, 0, 6, 0}));
  }
}

// ---- entry checks -----------------------------------------------------------

TEST(CampaignEntryTest, SoakCampaignRefusesTheScriptedMode) {
  CampaignConfig cfg = soak_config(InjectionMode::kScripted);
  cfg.dim = 2;
  cfg.runs_per_class = 3;
  EXPECT_THROW(run_soak_campaign(cfg), std::invalid_argument);
}

TEST(CampaignEntryTest, ScriptedCampaignsRefuseAProbabilisticMode) {
  for (const auto mode :
       {InjectionMode::kIndependent, InjectionMode::kRunLength}) {
    CampaignConfig cfg = soak_config(mode);
    cfg.dim = 2;
    cfg.runs_per_class = 3;
    EXPECT_THROW(run_campaign(cfg), std::invalid_argument) << to_string(mode);
    EXPECT_THROW(run_multi_campaign(cfg, 1), std::invalid_argument)
        << to_string(mode);
  }
}

TEST(CampaignEntryTest, MultiFaultCountIsBoundedByTheNodeCount) {
  CampaignConfig cfg;
  cfg.dim = 2;
  cfg.runs_per_class = 1;
  EXPECT_THROW(run_multi_campaign(cfg, 5), std::invalid_argument);
  util::Rng rng(7);
  EXPECT_THROW(draw_multi_scenario(5, cfg, rng), std::invalid_argument);
  // k == 2^dim still fits: every node faulty at once.
  EXPECT_EQ(draw_multi_scenario(4, cfg, rng).faults.size(), 4u);
  EXPECT_EQ(run_multi_campaign(cfg, 4).size(), 4u);
}

}  // namespace
}  // namespace aoft::fault
