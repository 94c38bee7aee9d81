// Durable-campaign suite: checkpoint save/load, resume bit-identity, every
// corruption shape a crash can produce, and shard merging.
//
// The contract (fault/campaign_store.h, docs/PROTOCOL.md §10): a resumed,
// sharded-and-merged, or stopped-and-continued campaign must reconstruct a
// CampaignSummary — and a slot stream — bit-identical to one uninterrupted
// serial run, and an unusable checkpoint must fail with a loud, specific
// StoreStatus rather than a crash or a silent partial resume.

#include "fault/campaign_store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "fault/campaign.h"
#include "util/atomic_file.h"

namespace aoft::fault {
namespace {

CampaignConfig small_config() {
  CampaignConfig cfg;
  cfg.dim = 3;
  cfg.runs_per_class = 3;
  cfg.seed = 0x10cdcULL;
  cfg.jobs = 1;
  return cfg;
}

// A fresh temp path: any stale artifact from a previous run is removed so a
// test never accidentally "resumes" from it.
std::string fresh_path(const std::string& name) {
  // Unique per process and test: ctest runs tests as parallel processes.
  const std::string path =
      ::testing::TempDir() + "aoft_ckpt_" + std::to_string(getpid()) + "_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      name;
  std::remove(path.c_str());
  return path;
}

std::string slurp(const std::string& path) {
  std::string out, err;
  EXPECT_TRUE(util::read_file(path, &out, &err)) << path << ": " << err;
  return out;
}

void expect_same_tally(const ClassTally& a, const ClassTally& b) {
  EXPECT_EQ(a.fclass, b.fclass);
  EXPECT_EQ(a.runs, b.runs) << to_string(a.fclass);
  EXPECT_EQ(a.detected, b.detected) << to_string(a.fclass);
  EXPECT_EQ(a.masked, b.masked) << to_string(a.fclass);
  EXPECT_EQ(a.silent_wrong, b.silent_wrong) << to_string(a.fclass);
  EXPECT_EQ(a.attempts, b.attempts) << to_string(a.fclass);
  EXPECT_EQ(a.dropped, b.dropped) << to_string(a.fclass);
  EXPECT_EQ(a.multi_fired, b.multi_fired) << to_string(a.fclass);
}

void expect_same_summary(const CampaignSummary& a, const CampaignSummary& b) {
  ASSERT_EQ(a.sft.size(), b.sft.size());
  ASSERT_EQ(a.snr.size(), b.snr.size());
  ASSERT_EQ(a.runs.size(), b.runs.size());
  EXPECT_EQ(a.slots_total, b.slots_total);
  EXPECT_EQ(a.slots_done, b.slots_done);
  for (std::size_t i = 0; i < a.sft.size(); ++i) {
    expect_same_tally(a.sft[i], b.sft[i]);
    expect_same_tally(a.snr[i], b.snr[i]);
  }
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    const auto& x = a.runs[i];
    const auto& y = b.runs[i];
    EXPECT_EQ(x.scenario.fclass, y.scenario.fclass) << "run " << i;
    EXPECT_EQ(x.scenario.faulty, y.scenario.faulty) << "run " << i;
    EXPECT_EQ(x.scenario.point, y.scenario.point) << "run " << i;
    EXPECT_EQ(x.scenario.delta, y.scenario.delta) << "run " << i;
    EXPECT_EQ(x.scenario.input_seed, y.scenario.input_seed) << "run " << i;
    EXPECT_EQ(x.scenario.aux_node, y.scenario.aux_node) << "run " << i;
    EXPECT_EQ(x.outcome, y.outcome) << "run " << i;
    EXPECT_EQ(x.fault_exercised, y.fault_exercised) << "run " << i;
    EXPECT_EQ(x.first_detector, y.first_detector) << "run " << i;
    EXPECT_EQ(x.detection_stage, y.detection_stage) << "run " << i;
    EXPECT_EQ(x.faults_fired, y.faults_fired) << "run " << i;
  }
}

// ---- save/load roundtrip ----------------------------------------------------

TEST(CampaignCheckpointTest, CompletedCampaignRoundTripsThroughTheFile) {
  auto cfg = small_config();
  cfg.checkpoint_path = fresh_path("roundtrip.ckp");
  const auto direct = run_campaign(cfg);

  CheckpointData data;
  std::string err;
  ASSERT_EQ(load_checkpoint(cfg.checkpoint_path, &data, &err),
            StoreStatus::kOk)
      << err;
  EXPECT_EQ(data.identity, identity_of(cfg));
  EXPECT_EQ(data.done.count(), data.records.size());
  EXPECT_EQ(data.records.size(), identity_total_slots(data.identity));

  // Aggregating the stored records reproduces the in-process summary exactly.
  expect_same_summary(direct, summarize_slots(cfg, data));
}

TEST(CampaignCheckpointTest, FindRecordLocatesEveryStoredSlot) {
  auto cfg = small_config();
  cfg.checkpoint_path = fresh_path("find.ckp");
  run_campaign(cfg);

  CheckpointData data;
  std::string err;
  ASSERT_EQ(load_checkpoint(cfg.checkpoint_path, &data, &err),
            StoreStatus::kOk)
      << err;
  for (const auto& rec : data.records) {
    const SlotRecord* found = find_record(data, rec.gslot);
    ASSERT_NE(found, nullptr) << "g=" << rec.gslot;
    EXPECT_EQ(*found, rec);
  }
  EXPECT_EQ(find_record(data, identity_total_slots(data.identity)), nullptr);
}

// ---- resume bit-identity ----------------------------------------------------

TEST(CampaignCheckpointTest, StopAndResumeIsBitIdenticalAtEveryKillPoint) {
  const auto oracle_cfg = small_config();
  const auto oracle = run_campaign(oracle_cfg);

  auto stream_cfg = oracle_cfg;
  stream_cfg.checkpoint_path = fresh_path("oracle.ckp");
  stream_cfg.stream_path = fresh_path("oracle.jsonl");
  run_campaign(stream_cfg);
  const std::string oracle_stream = slurp(stream_cfg.stream_path);
  const std::size_t total = oracle.slots_total;
  ASSERT_GT(total, 1u);

  for (const int stop_after :
       {1, 2, static_cast<int>(total / 2), static_cast<int>(total - 1)}) {
    auto cfg = small_config();
    cfg.checkpoint_path = fresh_path("resume.ckp");
    cfg.stream_path = fresh_path("resume.jsonl");
    cfg.resume = true;
    cfg.stop_after_slots = stop_after;
    const auto partial = run_campaign(cfg);
    EXPECT_EQ(partial.slots_done, static_cast<std::size_t>(stop_after));

    cfg.stop_after_slots = 0;
    const auto resumed = run_campaign(cfg);
    expect_same_summary(oracle, resumed);
    EXPECT_EQ(slurp(cfg.stream_path), oracle_stream)
        << "stream differs after kill at slot " << stop_after;
  }
}

TEST(CampaignCheckpointTest, ResumeIsJobCountInvariant) {
  const auto oracle = run_campaign(small_config());

  auto cfg = small_config();
  cfg.jobs = 4;
  cfg.checkpoint_path = fresh_path("jobs.ckp");
  cfg.resume = true;
  cfg.stop_after_slots = 5;
  run_campaign(cfg);
  cfg.stop_after_slots = 0;
  expect_same_summary(oracle, run_campaign(cfg));
}

TEST(CampaignCheckpointTest, CoarseCheckpointCadenceStillResumesExactly) {
  const auto oracle = run_campaign(small_config());

  // With checkpoint_every > 1 the stream can run ahead of the last saved
  // checkpoint; resume must rewind it to the checkpointed prefix and still
  // finish bit-identical.
  auto cfg = small_config();
  cfg.checkpoint_path = fresh_path("cadence.ckp");
  cfg.stream_path = fresh_path("cadence.jsonl");
  cfg.checkpoint_every = 7;
  cfg.resume = true;
  cfg.stop_after_slots = 10;
  run_campaign(cfg);
  cfg.stop_after_slots = 0;
  expect_same_summary(oracle, run_campaign(cfg));
}

TEST(CampaignCheckpointTest, ResumeOfACompleteCampaignRunsNothing) {
  auto cfg = small_config();
  cfg.checkpoint_path = fresh_path("complete.ckp");
  const auto first = run_campaign(cfg);
  cfg.resume = true;
  expect_same_summary(first, run_campaign(cfg));
}

// ---- corruption shapes ------------------------------------------------------

class CampaignCorruptionTest : public ::testing::Test {
 protected:
  // A valid completed checkpoint to mutilate, reloaded as raw bytes.
  void SetUp() override {
    cfg_ = small_config();
    cfg_.checkpoint_path = fresh_path("corrupt.ckp");
    run_campaign(cfg_);
    bytes_ = slurp(cfg_.checkpoint_path);
    ASSERT_GT(bytes_.size(), 32u);
  }

  StoreStatus load_mutated(const std::string& bytes, std::string* err) {
    std::string werr;
    EXPECT_TRUE(util::write_file_atomic(cfg_.checkpoint_path, bytes, &werr))
        << werr;
    CheckpointData data;
    return load_checkpoint(cfg_.checkpoint_path, &data, err);
  }

  CampaignConfig cfg_;
  std::string bytes_;
};

TEST_F(CampaignCorruptionTest, MissingFileIsItsOwnStatus) {
  CheckpointData data;
  std::string err;
  EXPECT_EQ(load_checkpoint(fresh_path("nonexistent.ckp"), &data, &err),
            StoreStatus::kMissing);
  EXPECT_FALSE(err.empty());
}

TEST_F(CampaignCorruptionTest, FileShorterThanFramingIsTruncated) {
  std::string err;
  EXPECT_EQ(load_mutated(bytes_.substr(0, 10), &err), StoreStatus::kTruncated);
  EXPECT_FALSE(err.empty());
}

TEST_F(CampaignCorruptionTest, ForeignFileIsBadMagic) {
  std::string mutated = bytes_;
  mutated.replace(0, 8, "NOTACKPT");
  std::string err;
  EXPECT_EQ(load_mutated(mutated, &err), StoreStatus::kBadMagic);
}

TEST_F(CampaignCorruptionTest, PayloadBitFlipIsDigestMismatch) {
  std::string mutated = bytes_;
  mutated[24] = static_cast<char>(mutated[24] ^ 0x40);
  std::string err;
  EXPECT_EQ(load_mutated(mutated, &err), StoreStatus::kDigestMismatch);
  EXPECT_FALSE(err.empty());
}

TEST_F(CampaignCorruptionTest, TornTailIsDigestMismatch) {
  // A crash mid-write leaves a prefix; the digest no longer covers the
  // payload, so the loss is loud even though the framing is intact.
  std::string err;
  EXPECT_EQ(load_mutated(bytes_.substr(0, bytes_.size() - 5), &err),
            StoreStatus::kDigestMismatch);
}

TEST_F(CampaignCorruptionTest, FutureVersionIsBadVersion) {
  // Rewrite the version field *and* recompute the digest: the file is
  // internally consistent, just from a format we do not speak.
  std::string mutated = bytes_;
  mutated[16] = 99;  // version u32 LE, first payload byte
  const std::uint64_t digest =
      util::fnv1a64(mutated.data() + 16, mutated.size() - 16);
  for (int i = 0; i < 8; ++i)
    mutated[8 + i] = static_cast<char>((digest >> (8 * i)) & 0xFF);
  std::string err;
  EXPECT_EQ(load_mutated(mutated, &err), StoreStatus::kBadVersion);
}

TEST_F(CampaignCorruptionTest, ResumeThrowsOnCorruptionWithoutForceRestart) {
  std::string mutated = bytes_;
  mutated[30] = static_cast<char>(mutated[30] ^ 0x01);
  std::string werr;
  ASSERT_TRUE(util::write_file_atomic(cfg_.checkpoint_path, mutated, &werr));

  auto cfg = cfg_;
  cfg.resume = true;
  try {
    run_campaign(cfg);
    FAIL() << "resume accepted a corrupted checkpoint";
  } catch (const StoreError& e) {
    EXPECT_EQ(e.status(), StoreStatus::kDigestMismatch);
    EXPECT_FALSE(std::string(e.what()).empty());
  }
}

TEST_F(CampaignCorruptionTest, ForceRestartDiscardsTheCorruptFile) {
  std::string mutated = bytes_;
  mutated[30] = static_cast<char>(mutated[30] ^ 0x01);
  std::string werr;
  ASSERT_TRUE(util::write_file_atomic(cfg_.checkpoint_path, mutated, &werr));

  auto cfg = cfg_;
  cfg.resume = true;
  cfg.force_restart = true;
  const auto restarted = run_campaign(cfg);
  expect_same_summary(run_campaign(small_config()), restarted);

  // The rewritten checkpoint is healthy again.
  CheckpointData data;
  std::string err;
  EXPECT_EQ(load_checkpoint(cfg.checkpoint_path, &data, &err),
            StoreStatus::kOk)
      << err;
}

TEST_F(CampaignCorruptionTest, DifferentCampaignIsIdentityMismatch) {
  auto cfg = cfg_;
  cfg.seed += 1;
  cfg.resume = true;
  try {
    run_campaign(cfg);
    FAIL() << "resume accepted another campaign's checkpoint";
  } catch (const StoreError& e) {
    EXPECT_EQ(e.status(), StoreStatus::kIdentityMismatch);
    // The operator escape hatch must be named in the message.
    EXPECT_NE(std::string(e.what()).find("force-restart"), std::string::npos);
  }
}

// ---- sharding and merge -----------------------------------------------------

TEST(CampaignShardTest, ShardsPartitionTheSlotSpace) {
  auto id = identity_of(small_config());
  id.shard_count = 3;
  std::vector<bool> owned(identity_total_slots(id), false);
  for (int i = 0; i < 3; ++i) {
    id.shard_index = i;
    for (const auto g : shard_slots(id)) {
      EXPECT_EQ(g % 3, static_cast<std::uint64_t>(i));
      EXPECT_FALSE(owned[g]) << "slot " << g << " owned twice";
      owned[g] = true;
    }
  }
  for (std::size_t g = 0; g < owned.size(); ++g)
    EXPECT_TRUE(owned[g]) << "slot " << g << " unowned";
}

TEST(CampaignShardTest, MergedShardsEqualTheUnshardedRun) {
  const auto oracle_cfg = small_config();
  const auto oracle = run_campaign(oracle_cfg);
  auto oracle_stream_cfg = oracle_cfg;
  oracle_stream_cfg.checkpoint_path = fresh_path("merge_oracle.ckp");
  oracle_stream_cfg.stream_path = fresh_path("merge_oracle.jsonl");
  run_campaign(oracle_stream_cfg);
  const std::string oracle_stream = slurp(oracle_stream_cfg.stream_path);

  std::vector<CheckpointData> parts(2);
  for (int i = 0; i < 2; ++i) {
    auto cfg = small_config();
    cfg.shard_index = i;
    cfg.shard_count = 2;
    cfg.checkpoint_path = fresh_path("shard" + std::to_string(i) + ".ckp");
    const auto part = run_campaign(cfg);
    EXPECT_LT(part.slots_done, oracle.slots_total);
    std::string err;
    ASSERT_EQ(load_checkpoint(cfg.checkpoint_path, &parts[i], &err),
              StoreStatus::kOk)
        << err;
  }

  CheckpointData merged;
  std::string err;
  ASSERT_EQ(merge_checkpoints(parts, &merged, &err), StoreStatus::kOk) << err;
  EXPECT_EQ(merged.identity.shard_index, 0);
  EXPECT_EQ(merged.identity.shard_count, 1);
  EXPECT_EQ(merged.records.size(), oracle.slots_total);

  expect_same_summary(oracle, summarize_slots(oracle_cfg, merged));

  // Re-serializing the merged records reproduces the unsharded stream
  // byte for byte.
  std::string merged_stream = stream_header(merged.identity);
  for (const auto& rec : merged.records)
    merged_stream += stream_line(merged.identity, rec);
  EXPECT_EQ(merged_stream, oracle_stream);
}

TEST(CampaignShardTest, MergeRefusesForeignAndDuplicateShards) {
  auto make_part = [](std::uint64_t seed, int index) {
    auto cfg = small_config();
    cfg.seed = seed;
    cfg.shard_index = index;
    cfg.shard_count = 2;
    cfg.checkpoint_path =
        fresh_path("refuse" + std::to_string(index) + ".ckp");
    run_campaign(cfg);
    CheckpointData data;
    std::string err;
    EXPECT_EQ(load_checkpoint(cfg.checkpoint_path, &data, &err),
              StoreStatus::kOk)
        << err;
    return data;
  };

  const auto part0 = make_part(small_config().seed, 0);
  const auto foreign = make_part(small_config().seed + 1, 1);
  CheckpointData merged;
  std::string err;
  EXPECT_EQ(merge_checkpoints({part0, foreign}, &merged, &err),
            StoreStatus::kIdentityMismatch);
  EXPECT_FALSE(err.empty());

  EXPECT_EQ(merge_checkpoints({part0, part0}, &merged, &err),
            StoreStatus::kMalformed);
}

}  // namespace
}  // namespace aoft::fault
