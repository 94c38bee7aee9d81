// Plain retry (RecoveryPolicy::full_restart) and the persistent-suspect
// intersection it feeds.

#include "fault/supervisor.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "fault/adversary.h"
#include "util/rng.h"

namespace aoft::fault {
namespace {

TEST(RecoveryTest, CleanRunNeedsOneAttempt) {
  auto input = util::random_keys(1, 16);
  const auto run =
      run_supervised_sort(4, input, {}, RecoveryPolicy::full_restart(3));
  EXPECT_EQ(run.attempts, 1);
  EXPECT_FALSE(run.recovered);
  EXPECT_TRUE(run.diagnoses.empty());
  EXPECT_EQ(sort::classify(run.last, input), sort::Outcome::kCorrect);
}

TEST(RecoveryTest, TransientFaultIsRecovered) {
  auto input = util::random_keys(2, 16);
  Adversary glitch;
  glitch.add(drop_message(6, {1, 1}));
  const auto run = run_supervised_sort(
      4, input, {}, RecoveryPolicy::full_restart(3),
      [&glitch](int attempt) -> sim::LinkInterceptor* {
        return attempt == 0 ? &glitch : nullptr;  // gone on retry
      });
  EXPECT_EQ(run.attempts, 2);
  EXPECT_TRUE(run.recovered);
  ASSERT_EQ(run.diagnoses.size(), 1u);
  EXPECT_EQ(sort::classify(run.last, input), sort::Outcome::kCorrect);
}

TEST(RecoveryTest, PermanentProcessorFaultExhaustsAttempts) {
  auto input = util::random_keys(3, 16);
  sort::SftOptions base;
  base.node_faults[9].halt_at = StagePoint{2, 0};  // permanent
  const auto run =
      run_supervised_sort(4, input, base, RecoveryPolicy::full_restart(3));
  EXPECT_EQ(run.attempts, 3);
  EXPECT_FALSE(run.recovered);
  EXPECT_TRUE(run.last.fail_stop());
  ASSERT_EQ(run.diagnoses.size(), 3u);
  const auto persistent = persistent_suspects(run.diagnoses);
  ASSERT_EQ(persistent.size(), 1u);
  EXPECT_EQ(persistent.front(), 9u);
}

TEST(RecoveryTest, PermanentLinkFaultYieldsStablePair) {
  auto input = util::random_keys(4, 16);
  Adversary dead;
  dead.add(dead_link(3, 2, {1, 0}));
  const auto run = run_supervised_sort(
      4, input, {}, RecoveryPolicy::full_restart(2),
      [&dead](int) -> sim::LinkInterceptor* { return &dead; });
  EXPECT_FALSE(run.recovered);
  const auto persistent = persistent_suspects(run.diagnoses);
  ASSERT_FALSE(persistent.empty());
  // The dead link's endpoints are the persistent candidates.
  for (auto s : persistent) EXPECT_TRUE(s == 2u || s == 3u) << s;
}

TEST(RecoveryTest, PersistentSuspectsOfDisjointDiagnosesIsEmpty) {
  SupervisedRun run;
  run.diagnoses.resize(2);
  run.diagnoses[0].suspects = {1, 2};
  run.diagnoses[1].suspects = {3};
  EXPECT_TRUE(persistent_suspects(run.diagnoses).empty());
}

TEST(RecoveryTest, NoDiagnosesMeansNoPersistentSuspects) {
  EXPECT_TRUE(persistent_suspects(SupervisedRun{}.diagnoses).empty());
}

TEST(RecoveryTest, InconclusiveDiagnosisDoesNotVacateIntersection) {
  // The middle attempt cascaded before localization could pin anyone: it
  // carries no exculpatory evidence and must not empty the intersection.
  std::vector<Diagnosis> diagnoses(3);
  diagnoses[0].suspects = {5};
  diagnoses[1].suspects = {};
  diagnoses[2].suspects = {5};
  const auto persistent = persistent_suspects(diagnoses);
  ASSERT_EQ(persistent.size(), 1u);
  EXPECT_EQ(persistent.front(), 5u);
}

TEST(RecoveryTest, AllInconclusiveYieldsEmpty) {
  std::vector<Diagnosis> diagnoses(3);  // all empty suspect lists
  EXPECT_TRUE(persistent_suspects(diagnoses).empty());
}

TEST(RecoveryTest, LinkPairSurvivesIntersection) {
  // Definition 3 case 2a: a dead link accuses both endpoints; the recurring
  // pair intersects to itself, not to an arbitrary pick.
  std::vector<Diagnosis> diagnoses(2);
  for (auto& d : diagnoses) {
    d.suspects = {2, 3};
    d.link_suspected = true;
  }
  const auto persistent = persistent_suspects(diagnoses);
  EXPECT_EQ(persistent, (std::vector<cube::NodeId>{2, 3}));
}

TEST(RecoveryTest, NonRecurringSuspectDropped) {
  std::vector<Diagnosis> diagnoses(2);
  diagnoses[0].suspects = {1, 2};
  diagnoses[1].suspects = {2, 4};
  const auto persistent = persistent_suspects(diagnoses);
  ASSERT_EQ(persistent.size(), 1u);
  EXPECT_EQ(persistent.front(), 2u);
}

}  // namespace
}  // namespace aoft::fault
