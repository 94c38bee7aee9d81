// Exactness of the stage-boundary verdict memo (sim::VerdictMemo,
// docs/PROTOCOL.md §3).  S_FT evaluates Φ_P/Φ_F once per distinct block-pointer
// input per machine run and replays the verdict for every node that hands the
// predicates the same blocks.  That is exact only if a hit needs the whole
// key, and if no key outlives the blocks it names.
//
//   VerdictMemoTest    — the memo itself: the tag is part of the key, equal
//                        keys at other addresses miss, one bucket resolves by
//                        the full compare, and reset() forgets everything;
//   VerdictMemoRunTest — whole S_FT runs under every fault class at dims 2–5,
//                        m ∈ {2, 4}: FNV-1a digests of the --trace JSONL bytes
//                        and metrics, the ErrorReport list and the output,
//                        pinned as absolute values recorded from a build that
//                        evaluated every node's predicates itself;
//   VerdictMemoShmTest — the same fault classes at dim 3, m = 4 on the shm
//                        fabric, whose one-node processes can never hit the
//                        memo: a memo-free oracle for the --emit-run fields.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "fault/adversary.h"
#include "fault/campaign.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "obs/trace_io.h"
#include "sim/blocks.h"
#include "sim/machine.h"
#include "sort/driver.h"
#include "sort/sft.h"
#include "util/atomic_file.h"
#include "util/rng.h"

namespace aoft::sort {
namespace {

using fault::FaultClass;

// ---- the memo ----------------------------------------------------------------

// A verdict pair whose Φ_P failed at `position`.
sim::StageVerdicts failing_at(std::int64_t position) {
  sim::StageVerdicts v;
  v.progress = sim::Violation{"phi_P: ascending run broken", position};
  return v;
}

sim::VerdictTag tag_m2() {
  return {.m = 2,
          .inner_offset = 0,
          .final_stage = false,
          .inner_ascending = true,
          .check_progress = true,
          .check_feasibility = true};
}

TEST(VerdictMemoTest, StoresPassingAndFailingVerdictsUnderTheWholeKey) {
  sim::BlockArena arena;
  const Key keys[] = {1, 2, 3, 4};
  const Key* outer[] = {arena.store({keys, 2}), arena.store({keys + 2, 2})};
  const Key* inner[] = {outer[0]};
  auto& memo = arena.verdicts();
  const sim::VerdictKey k{outer, inner, tag_m2()};
  const auto h = sim::VerdictMemo::hash(k);
  EXPECT_EQ(memo.find(k, h), nullptr);
  const auto& stored = memo.insert(k, h, failing_at(3));
  ASSERT_TRUE(stored.progress.has_value());
  const auto* hit = memo.find(k, h);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->progress->position, 3);
  EXPECT_EQ(hit->progress->what, "phi_P: ascending run broken");
  EXPECT_FALSE(hit->feasibility.has_value());
  // The split between the outer and the inner list is part of the key.
  const Key* outer_short[] = {outer[0]};
  const Key* inner_long[] = {outer[1], outer[0]};
  const sim::VerdictKey moved{outer_short, inner_long, tag_m2()};
  EXPECT_EQ(memo.find(moved, sim::VerdictMemo::hash(moved)), nullptr);
}

TEST(VerdictMemoTest, ADifferentTagMisses) {
  sim::BlockArena arena;
  const Key keys[] = {5, 6, 7, 8};
  const Key* outer[] = {arena.store({keys, 2}), arena.store({keys + 2, 2})};
  const Key* inner[] = {outer[1]};
  auto& memo = arena.verdicts();
  const sim::VerdictKey base{outer, inner, tag_m2()};
  memo.insert(base, sim::VerdictMemo::hash(base), {});

  std::vector<sim::VerdictTag> others(7, tag_m2());
  others[0].m = 4;
  others[1].inner_offset = 1;
  others[2].final_stage = true;
  others[3].inner_ascending = false;
  others[4].check_progress = false;
  others[5].check_feasibility = false;
  others[6].inner_offset = 1;
  others[6].inner_ascending = false;
  for (std::size_t t = 0; t < others.size(); ++t) {
    const sim::VerdictKey k{outer, inner, others[t]};
    EXPECT_EQ(memo.find(k, sim::VerdictMemo::hash(k)), nullptr) << "tag " << t;
    // Even when forced into the base key's bucket.
    EXPECT_EQ(memo.find(k, sim::VerdictMemo::hash(base)), nullptr) << "tag " << t;
  }
  EXPECT_NE(memo.find(base, sim::VerdictMemo::hash(base)), nullptr);
}

TEST(VerdictMemoTest, EqualContentAtOtherAddressesMisses) {
  sim::BlockArena arena;
  const Key keys[] = {10, 20, 30, 40};
  const Key* first[] = {arena.store({keys, 2}), arena.store({keys + 2, 2})};
  const Key* copy[] = {arena.store({keys, 2}), arena.store({keys + 2, 2})};
  ASSERT_NE(first[0], copy[0]);
  auto& memo = arena.verdicts();
  const sim::VerdictKey k{first, {first, 1}, tag_m2()};
  memo.insert(k, sim::VerdictMemo::hash(k), failing_at(1));
  // The same keys in other blocks are another input: the memo never reads
  // keys, only addresses.
  const sim::VerdictKey same_keys{copy, {copy, 1}, tag_m2()};
  EXPECT_EQ(memo.find(same_keys, sim::VerdictMemo::hash(same_keys)), nullptr);
  const sim::VerdictKey mixed{first, {copy, 1}, tag_m2()};
  EXPECT_EQ(memo.find(mixed, sim::VerdictMemo::hash(mixed)), nullptr);
}

TEST(VerdictMemoTest, KeysSharingABucketResolveByTheFullCompare) {
  sim::BlockArena arena;
  std::vector<Key> keys(64);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<Key>(i);
  std::vector<const Key*> blocks;
  for (std::size_t b = 0; b < 32; ++b)
    blocks.push_back(arena.store(std::span<const Key>(keys).subspan(2 * b, 2)));
  auto& memo = arena.verdicts();
  // Every key lands in one bucket and carries one stored hash, so only the
  // pointer compare tells them apart; 40 of them also force two rehashes.
  const std::uint64_t h = 0x1234;
  std::vector<std::vector<const Key*>> outers;
  for (std::size_t e = 0; e < 40; ++e)
    outers.push_back({blocks[e % 32], blocks[(e / 32 + e + 1) % 32]});
  for (std::size_t e = 0; e < outers.size(); ++e) {
    const sim::VerdictKey k{outers[e], {outers[e].data(), 1}, tag_m2()};
    ASSERT_EQ(memo.find(k, h), nullptr) << "entry " << e;
    memo.insert(k, h, failing_at(static_cast<std::int64_t>(e)));
  }
  EXPECT_EQ(memo.size(), outers.size());
  for (std::size_t e = 0; e < outers.size(); ++e) {
    const sim::VerdictKey k{outers[e], {outers[e].data(), 1}, tag_m2()};
    const auto* hit = memo.find(k, h);
    ASSERT_NE(hit, nullptr) << "entry " << e;
    EXPECT_EQ(hit->progress->position, static_cast<std::int64_t>(e));
  }
}

TEST(VerdictMemoTest, ResetForgetsVerdictsOfRewoundAddresses) {
  sim::BlockArena arena;
  const Key before[] = {1, 2, 3, 4};
  const Key after[] = {4, 3, 2, 1};
  const Key* old_outer[] = {arena.store({before, 2}), arena.store({before + 2, 2})};
  auto& memo = arena.verdicts();
  const sim::VerdictKey k{old_outer, {old_outer, 1}, tag_m2()};
  const auto h = sim::VerdictMemo::hash(k);
  memo.insert(k, h, {});
  ASSERT_NE(memo.find(k, h), nullptr);

  arena.reset();
  EXPECT_EQ(memo.size(), 0u);
  // The rewound arena hands out the same addresses with new keys: the old
  // (passing) verdict must not answer for them.
  const Key* new_outer[] = {arena.store({after, 2}), arena.store({after + 2, 2})};
  ASSERT_EQ(new_outer[0], old_outer[0]);
  ASSERT_EQ(new_outer[1], old_outer[1]);
  EXPECT_EQ(memo.find(k, h), nullptr);
  memo.insert(k, h, failing_at(2));
  ASSERT_NE(memo.find(k, h), nullptr);
  EXPECT_EQ(memo.find(k, h)->progress->position, 2);
}

// In an honest run the 2^i members of each inner subcube hand stage i the
// same blocks, so the memo stores one input per inner subcube: N/2^i at
// stage i = 1..n-1 plus one for the final round, N - 1 in all.  At m = 1 it
// is never consulted.
TEST(VerdictMemoTest, HonestRunStoresOneInputPerInnerSubcube) {
  const int dim = 5;
  sim::Machine machine(cube::Topology{dim}, sim::CostModel{});
  for (const std::size_t m : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const auto input = util::random_keys(90 + m, (std::size_t{1} << dim) * m);
    SftOptions opts;
    opts.block = m;
    opts.machine = &machine;
    ASSERT_TRUE(run_sft(dim, input, opts).errors.empty());
    EXPECT_EQ(machine.arena().verdicts().size(),
              m == 1 ? 0u : (std::size_t{1} << dim) - 1)
        << "m=" << m;
  }
}

// Two resumed S_FT runs on one reused machine, from one certified recovery
// line whose LLBS buffer is corrupted for the first run and repaired in place
// for the second.  Both runs store the same arena blocks at the same
// addresses, and their LLBS entries point into the same caller buffer, so
// every stage-boundary key repeats while the keys behind it change.  The
// second run must pass and trace exactly like it does on a fresh machine;
// a memo kept across Machine::reset would replay the first run's Φ_F
// failures instead.
TEST(VerdictMemoTest, RewoundMachineComputesFreshVerdicts) {
  const int dim = 4;
  const std::size_t m = 4;
  const auto input = util::random_keys(808, (std::size_t{1} << dim) * m);
  SftOptions opts;
  opts.block = m;
  opts.checkpoint = true;
  auto rs = make_resume_state(run_sft(dim, input, opts).checkpoints);
  ASSERT_TRUE(rs.has_value());

  auto traced = [&](const SftOptions& o, std::string* bytes) {
    obs::Tracer tracer;
    std::optional<SortRun> run;
    {
      obs::ScopedSink sink(&tracer, nullptr);
      run = resume_sft(dim, *rs, o);
    }
    std::ostringstream os;
    obs::write_jsonl(os, obs::TraceMeta{dim, m, 0, "single", ""}, tracer);
    *bytes = os.str();
    return *run;
  };
  std::string fresh_trace, reused_trace;
  const SortRun fresh = traced(opts, &fresh_trace);
  ASSERT_TRUE(fresh.errors.empty());

  sim::Machine machine(cube::Topology{dim}, sim::CostModel{});
  opts.machine = &machine;
  const Key* llbs = rs->llbs.data();
  for (Key& k : rs->llbs) k += 1;
  const SortRun bad = resume_sft(dim, *rs, opts);
  ASSERT_TRUE(std::any_of(bad.errors.begin(), bad.errors.end(), [](auto& e) {
    return e.source == sim::ErrorSource::kPhiF;
  }));
  for (Key& k : rs->llbs) k -= 1;
  ASSERT_EQ(rs->llbs.data(), llbs);
  const SortRun reused = traced(opts, &reused_trace);
  EXPECT_TRUE(reused.errors.empty());
  EXPECT_EQ(reused.output, fresh.output);
  EXPECT_EQ(reused_trace, fresh_trace);
}

// ---- whole runs ----------------------------------------------------------------

// The campaign's realization of one scenario (fault/campaign.cpp).
void instantiate(const fault::Scenario& s, fault::Adversary& adversary,
                 fault::NodeFaultMap& nf) {
  switch (s.fclass) {
    case FaultClass::kCorruptData:
      adversary.add(fault::corrupt_data(s.faulty, s.point, s.delta));
      break;
    case FaultClass::kCorruptGossip:
      adversary.add(fault::corrupt_gossip_entry(s.faulty, s.point, s.faulty,
                                                s.delta, s.block));
      break;
    case FaultClass::kTwoFacedGossip:
      adversary.add(fault::two_faced_gossip(
          s.faulty, s.point, s.faulty, s.delta, s.block,
          [](cube::NodeId dest) { return (dest & 1u) == 1u; }));
      break;
    case FaultClass::kRelayTamper:
      adversary.add(fault::corrupt_gossip_entry(s.faulty, s.point, s.aux_node,
                                                s.delta, s.block));
      break;
    case FaultClass::kDropMessage:
      adversary.add(fault::drop_message(s.faulty, s.point));
      break;
    case FaultClass::kDeadLink:
      adversary.add(fault::dead_link(s.faulty, s.aux_node, s.point));
      break;
    case FaultClass::kGarbleLbs:
      adversary.add(
          fault::garble_lbs(s.faulty, s.point, s.input_seed ^ 0xabcdefULL));
      break;
    case FaultClass::kReplayStale:
      adversary.add(fault::replay_stale_lbs(s.faulty, s.point));
      break;
    case FaultClass::kHaltNode:
      nf[s.faulty].halt_at = s.point;
      break;
    case FaultClass::kInvertDirection:
      nf[s.faulty].invert_direction_from = s.point;
      break;
    case FaultClass::kSubstituteValue:
      nf[s.faulty].substitute_at = s.point;
      nf[s.faulty].substitute_value = 3000000000LL + s.delta;
      break;
  }
}

// One S_FT run: the class's scenario drawn from `seed` (or none), its input
// and its options.  The adversary is the options' interceptor.
struct Case {
  std::vector<Key> input;
  fault::Adversary adversary;
  SftOptions opts;
};

void build_case(std::optional<FaultClass> fclass, int dim, std::size_t m,
                std::uint64_t seed, Case& c) {
  c.opts.block = m;
  std::uint64_t input_seed = seed;
  if (fclass) {
    fault::CampaignConfig cfg;
    cfg.dim = dim;
    cfg.block = m;
    util::Rng rng(seed);
    const fault::Scenario s = fault::draw_scenario(*fclass, cfg, rng);
    instantiate(s, c.adversary, c.opts.node_faults);
    c.opts.interceptor = &c.adversary;
    input_seed = s.input_seed;
  }
  c.input = util::random_keys(input_seed, (std::size_t{1} << dim) * m);
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t w) { h = util::fnv1a64(&w, sizeof(w), h); }
  void add(const std::string& s) {
    add(s.size());
    h = util::fnv1a64(s.data(), s.size(), h);
  }
};

struct Digests {
  std::uint64_t trace;   // --trace JSONL bytes and the metrics digest
  std::uint64_t errors;  // every ErrorReport, in report order
  std::uint64_t output;  // the output keys
};

// Fold the runs build(dim, m, seed, case) describes, for every dim in 2..5,
// m in {2, 4} and two seeds, into one digest triple.
template <typename Build>
Digests run_digests(Build&& build) {
  Fnv trace, errors, output;
  for (int dim = 2; dim <= 5; ++dim) {
    for (const std::size_t m : {std::size_t{2}, std::size_t{4}}) {
      for (const std::uint64_t seed : {std::uint64_t{1989}, std::uint64_t{7}}) {
        Case c;
        build(dim, m, seed, c);
        obs::Tracer tracer;
        obs::MetricsRegistry metrics;
        std::optional<SortRun> run;
        {
          obs::ScopedSink sink(&tracer, &metrics);
          run = run_sft(dim, c.input, c.opts);
        }
        std::ostringstream os;
        obs::write_jsonl(os, obs::TraceMeta{dim, m, seed, "single", ""}, tracer);
        trace.add(os.str());
        trace.add(obs::format_metrics(metrics));
        errors.add(run->errors.size());
        for (const auto& e : run->errors) {
          errors.add(e.node);
          errors.add(static_cast<std::uint64_t>(e.stage));
          errors.add(static_cast<std::uint64_t>(e.iter));
          errors.add(static_cast<std::uint64_t>(e.source));
          errors.add(e.detail);
        }
        output.h = util::fnv1a64(run->output.data(),
                                 run->output.size() * sizeof(Key), output.h);
      }
    }
  }
  return {trace.h, errors.h, output.h};
}

struct Pin {
  std::optional<FaultClass> fclass;  // nullopt: no fault
  Digests want;
};

std::string name_of(std::optional<FaultClass> c) {
  return c ? fault::to_string(*c) : "honest";
}

TEST(VerdictMemoRunTest, TracesErrorsAndOutputsArePinned) {
  const std::vector<Pin> pins = {
      {std::nullopt,
       {16510590330741008835ULL, 3489255599855864195ULL,
        6252631542177348107ULL}},
      {FaultClass::kCorruptData,
       {13288486594395375404ULL, 9890001372746872543ULL,
        11434220785320104112ULL}},
      {FaultClass::kCorruptGossip,
       {12424205608701843090ULL, 17052673831677610141ULL,
        14437307707707229383ULL}},
      {FaultClass::kTwoFacedGossip,
       {16103690535253546837ULL, 16983585471821590487ULL,
        1213310754910977666ULL}},
      {FaultClass::kRelayTamper,
       {13766391245229485955ULL, 5529800059862450839ULL,
        10721354008413790215ULL}},
      {FaultClass::kDropMessage,
       {8592495686293589448ULL, 1550266065844654391ULL,
        2163472570405783428ULL}},
      {FaultClass::kDeadLink,
       {9496253503485659926ULL, 8706570629993713351ULL,
        6669610336157718852ULL}},
      {FaultClass::kGarbleLbs,
       {12598370659178342196ULL, 5799555714782348175ULL,
        9730449582719319723ULL}},
      {FaultClass::kReplayStale,
       {8980755436566412742ULL, 7087142089188135751ULL,
        6021229718117883362ULL}},
      {FaultClass::kHaltNode,
       {15773594594906874774ULL, 16562924330382022951ULL,
        3672287583999123786ULL}},
      {FaultClass::kInvertDirection,
       {622455523712652839ULL, 7196613059982125037ULL,
        16498084440835202870ULL}},
      {FaultClass::kSubstituteValue,
       {8723944485573013917ULL, 6933328524229615091ULL,
        11947315274950934039ULL}},
  };
  ASSERT_EQ(pins.size(), std::size(fault::kAllFaultClasses) + 1);
  for (const Pin& p : pins) {
    const Digests got =
        run_digests([&](int dim, std::size_t m, std::uint64_t seed, Case& c) {
          build_case(p.fclass, dim, m, seed, c);
        });
    EXPECT_EQ(got.trace, p.want.trace) << name_of(p.fclass) << ": trace";
    EXPECT_EQ(got.errors, p.want.errors) << name_of(p.fclass) << ": errors";
    EXPECT_EQ(got.output, p.want.output) << name_of(p.fclass) << ": output";
  }
}

// A complicit checker keeps going after a failed Φ_P and records Φ_F too, so
// a stored verdict pair carries Φ_F even when the node that computed it was
// honest and stopped at Φ_P.  Node 1 inverts its direction from stage 1 with
// the exchange and consistency checks off, so only Φ_P/Φ_F can catch it;
// one seed silences the even labels and the other the odd ones, so honest
// and complicit nodes each evaluate some inputs first.
TEST(VerdictMemoRunTest, ComplicitCheckersReplayBothVerdicts) {
  const Digests got =
      run_digests([](int dim, std::size_t m, std::uint64_t seed, Case& c) {
        c.opts.block = m;
        c.opts.check_exchange = false;
        c.opts.check_consistency = false;
        c.opts.node_faults[1].invert_direction_from = fault::StagePoint{1, 0};
        for (cube::NodeId p = 0; p < (cube::NodeId{1} << dim); ++p)
          if (p != 1 && (p & 1) == ((seed >> 1) & 1))
            c.opts.node_faults[p].silent_checker = true;
        c.input = util::random_keys(seed + static_cast<std::uint64_t>(dim),
                                    (std::size_t{1} << dim) * m);
      });
  EXPECT_EQ(got.trace, 4793421431111314190ULL);
  EXPECT_EQ(got.errors, 5108952766471879791ULL);
  EXPECT_EQ(got.output, 2223488403039258146ULL);
}

// ---- the memo-free oracle ------------------------------------------------------

// The fields of an --emit-run record: outcome, the error tuples sorted by
// (node, stage, iter, source), and the output.
struct RunRecord {
  Outcome outcome;
  std::vector<std::tuple<cube::NodeId, int, int, int>> errors;
  std::vector<Key> output;

  friend bool operator==(const RunRecord&, const RunRecord&) = default;
};

RunRecord record_of(const SortRun& run, std::span<const Key> input) {
  RunRecord r{classify(run, input), {}, run.output};
  for (const auto& e : run.errors)
    r.errors.emplace_back(e.node, e.stage, e.iter, static_cast<int>(e.source));
  std::sort(r.errors.begin(), r.errors.end());
  return r;
}

TEST(VerdictMemoShmTest, EveryFaultClassMatchesTheOneNodeProcesses) {
  const int dim = 3;
  const std::size_t m = 4;
  std::vector<std::optional<FaultClass>> classes = {std::nullopt};
  for (const FaultClass c : fault::kAllFaultClasses) classes.push_back(c);
  for (const auto fclass : classes) {
    Case c;
    build_case(fclass, dim, m, 1989, c);
    const RunRecord sim = record_of(run_sft(dim, c.input, c.opts), c.input);
    SftOptions shm = c.opts;
    shm.backend = transport::Backend::kShm;
    shm.shm.recv_timeout_s = 5.0;
    shm.shm.run_deadline_s = 60.0;
    const RunRecord fabric = record_of(run_sft(dim, c.input, shm), c.input);
    EXPECT_EQ(fabric.outcome, sim.outcome) << name_of(fclass);
    EXPECT_EQ(fabric.errors, sim.errors) << name_of(fclass);
    EXPECT_EQ(fabric.output, sim.output) << name_of(fclass);
  }
}

}  // namespace
}  // namespace aoft::sort
