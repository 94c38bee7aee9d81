// Kill-and-resume harness: SIGKILL the real CLI mid-campaign, resume it, and
// demand bit-identity with an uninterrupted oracle run.
//
// The in-process suites (tests/fault/campaign_checkpoint_test.cpp) prove the
// engine's resume logic; this suite proves the *process-level* claim from
// docs/PROTOCOL.md §10: no kill point — including mid-write of the
// checkpoint or stream — can corrupt durable state or change the final
// artifacts.  It forks the actual aoft_sort_cli binary (path baked in via
// the AOFT_CLI_PATH compile definition), SIGKILLs it at staggered delays,
// resumes until the campaign completes, and byte-compares the slot stream
// against an oracle produced by one uninterrupted run — serial, parallel,
// and probabilistic-soak flavours.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "fault/campaign_store.h"
#include "util/atomic_file.h"

#ifndef AOFT_CLI_PATH
#error "build must define AOFT_CLI_PATH (see tests/CMakeLists.txt)"
#endif

namespace {

using namespace aoft;

std::string fresh_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "aoft_kill_" +
                           std::to_string(getpid()) + "_" + name;
  std::remove(path.c_str());
  return path;
}

std::string slurp(const std::string& path) {
  std::string out, err;
  EXPECT_TRUE(util::read_file(path, &out, &err)) << path << ": " << err;
  return out;
}

// Fork/exec the CLI.  kill_after_us > 0: SIGKILL the child after that delay
// (it may legitimately win the race and exit first).  Returns the exit code,
// or -1 when the child died by signal.
int run_cli(const std::vector<std::string>& extra_args, long kill_after_us) {
  std::vector<std::string> args = {AOFT_CLI_PATH, "--campaign"};
  args.insert(args.end(), extra_args.begin(), extra_args.end());

  const pid_t pid = fork();
  if (pid == 0) {
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      dup2(devnull, STDOUT_FILENO);
      dup2(devnull, STDERR_FILENO);
      close(devnull);
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(AOFT_CLI_PATH, argv.data());
    _exit(127);
  }
  EXPECT_GT(pid, 0) << "fork failed";

  if (kill_after_us > 0) {
    usleep(static_cast<useconds_t>(kill_after_us));
    kill(pid, SIGKILL);
  }
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -1;
}

// Staggered kill delays: early enough to hit startup and the first slots,
// late enough to land inside checkpoint saves and stream appends.  Fixed
// (not random) so a failure reproduces.
constexpr long kKillDelaysUs[] = {1500, 4000, 9000, 20000, 45000, 90000};

// Kill/resume the same campaign until it completes.
void kill_resume_until_done(const std::vector<std::string>& args) {
  // Each killed attempt makes monotone progress (completed slots are
  // checkpointed, never re-run), so a bounded number of kills cannot
  // prevent completion; the final uninterrupted attempt must succeed.
  for (std::size_t i = 0; i < std::size(kKillDelaysUs); ++i) {
    const int code =
        run_cli(args, kKillDelaysUs[i % std::size(kKillDelaysUs)]);
    if (code == 0) break;                  // won the race and finished
    EXPECT_EQ(code, -1) << "killed attempt " << i
                        << " exited with an error instead of dying";
  }
  EXPECT_EQ(run_cli(args, 0), 0) << "final resume attempt failed";
}

struct Campaign {
  std::string name;
  std::vector<std::string> flags;  // mode/jobs flavour under test
};

// gtest prints a parameter into the discovered ctest name.  Without this it
// would dump the struct's raw bytes, heap pointers included, so every
// discovery would name the tests differently.
void PrintTo(const Campaign& c, std::ostream* os) { *os << c.name; }

class CampaignResumeKillTest : public ::testing::TestWithParam<Campaign> {};

TEST_P(CampaignResumeKillTest, KilledAndResumedStreamMatchesOracle) {
  const auto& param = GetParam();
  const std::vector<std::string> base = {"--dim=3", "--runs=3",
                                         "--seed=20260807",
                                         "--checkpoint-every=1"};

  // Oracle: one uninterrupted run.
  const std::string oracle_ckp = fresh_path(param.name + "_oracle.ckp");
  const std::string oracle_stream = fresh_path(param.name + "_oracle.jsonl");
  {
    auto args = base;
    args.insert(args.end(), param.flags.begin(), param.flags.end());
    args.push_back("--checkpoint=" + oracle_ckp);
    args.push_back("--stream=" + oracle_stream);
    args.push_back("--resume");
    ASSERT_EQ(run_cli(args, 0), 0) << "oracle run failed";
  }
  const std::string oracle = slurp(oracle_stream);
  ASSERT_FALSE(oracle.empty());

  // Victim: same campaign, SIGKILLed repeatedly, resumed to completion.
  const std::string victim_ckp = fresh_path(param.name + "_victim.ckp");
  const std::string victim_stream = fresh_path(param.name + "_victim.jsonl");
  auto args = base;
  args.insert(args.end(), param.flags.begin(), param.flags.end());
  args.push_back("--checkpoint=" + victim_ckp);
  args.push_back("--stream=" + victim_stream);
  args.push_back("--resume");
  kill_resume_until_done(args);

  EXPECT_EQ(slurp(victim_stream), oracle)
      << param.name << ": stream differs from the uninterrupted run";

  // The surviving checkpoint is healthy and complete.
  fault::CheckpointData data;
  std::string err;
  ASSERT_EQ(fault::load_checkpoint(victim_ckp, &data, &err),
            fault::StoreStatus::kOk)
      << err;
  EXPECT_EQ(data.records.size(), fault::identity_total_slots(data.identity));
}

INSTANTIATE_TEST_SUITE_P(
    Flavours, CampaignResumeKillTest,
    ::testing::Values(
        Campaign{"serial", {}},
        Campaign{"parallel", {"--jobs=2"}},
        Campaign{"soak", {"--mode=runlength:2", "--runs=8"}}),
    [](const ::testing::TestParamInfo<Campaign>& info) {
      return info.param.name;
    });

// A resume pointed at another campaign's checkpoint must refuse loudly with
// the CLI's checkpoint-error exit code (4), not clobber or silently restart.
TEST(CampaignResumeKillTest2, ResumeRefusesAForeignCheckpoint) {
  const std::string ckp = fresh_path("foreign.ckp");
  ASSERT_EQ(run_cli({"--dim=3", "--runs=2", "--seed=1", "--resume",
                     "--checkpoint=" + ckp},
                    0),
            0);
  EXPECT_EQ(run_cli({"--dim=3", "--runs=2", "--seed=2", "--resume",
                     "--checkpoint=" + ckp},
                    0),
            4);
  // force-restart is the explicit escape hatch.
  EXPECT_EQ(run_cli({"--dim=3", "--runs=2", "--seed=2",
                     "--resume=force-restart", "--checkpoint=" + ckp},
                    0),
            0);
}

// Garbage at the checkpoint path: loud exit 4 on resume, recovered by
// force-restart.
TEST(CampaignResumeKillTest2, ResumeRefusesGarbageOnDisk) {
  const std::string ckp = fresh_path("garbage.ckp");
  std::string err;
  ASSERT_TRUE(util::write_file_atomic(ckp, "not a checkpoint at all", &err))
      << err;
  EXPECT_EQ(run_cli({"--dim=3", "--runs=2", "--seed=1", "--resume",
                     "--checkpoint=" + ckp},
                    0),
            4);
  EXPECT_EQ(run_cli({"--dim=3", "--runs=2", "--seed=1",
                     "--resume=force-restart", "--checkpoint=" + ckp},
                    0),
            0);
}

// Two shards killed and resumed independently still merge into the exact
// canonical stream (merge logic itself is covered in-process; here we prove
// the shard artifacts survive process death).
TEST(CampaignResumeKillTest2, KilledShardsStillMergeToTheOracle) {
  const std::vector<std::string> base = {"--dim=3", "--runs=2",
                                         "--seed=77", "--checkpoint-every=1"};

  const std::string oracle_ckp = fresh_path("shard_oracle.ckp");
  const std::string oracle_stream = fresh_path("shard_oracle.jsonl");
  {
    auto args = base;
    args.push_back("--checkpoint=" + oracle_ckp);
    args.push_back("--stream=" + oracle_stream);
    args.push_back("--resume");
    ASSERT_EQ(run_cli(args, 0), 0);
  }

  std::vector<fault::CheckpointData> parts(2);
  for (int i = 0; i < 2; ++i) {
    const std::string ckp =
        fresh_path("shard" + std::to_string(i) + ".ckp");
    auto args = base;
    args.push_back("--shard=" + std::to_string(i) + "/2");
    args.push_back("--checkpoint=" + ckp);
    args.push_back("--resume");
    kill_resume_until_done(args);
    std::string err;
    ASSERT_EQ(fault::load_checkpoint(ckp, &parts[i], &err),
              fault::StoreStatus::kOk)
        << err;
  }

  fault::CheckpointData merged;
  std::string err;
  ASSERT_EQ(fault::merge_checkpoints(parts, &merged, &err),
            fault::StoreStatus::kOk)
      << err;
  std::string merged_stream = fault::stream_header(merged.identity);
  for (const auto& rec : merged.records)
    merged_stream += fault::stream_line(merged.identity, rec);
  EXPECT_EQ(merged_stream, slurp(oracle_stream));
}

}  // namespace
