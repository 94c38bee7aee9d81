// Pins the exact keys every S_FT message carries in its LBS slice.
//
// A slice covers the sender's whole stage window, including the positions it
// has not collected yet: those carry whatever the sender's collection held
// there (the previous stage's entry, or zeros).  Receivers ignore them, but
// adversaries see them — replay_stale_lbs compares whole slices — so the
// uncovered bytes are part of the observable protocol.  Each case folds every
// sent message's header and full slice, read through a const reference, into
// one FNV-1a digest and compares it with an absolute value.  Any change to how
// collections are stored must leave these digests alone.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fault/adversary.h"
#include "sort/sft.h"
#include "util/rng.h"

namespace aoft::sort {
namespace {

enum class Flavour { kHonest, kSubstitute, kInvert, kGossip };

const char* name(Flavour f) {
  switch (f) {
    case Flavour::kHonest: return "honest";
    case Flavour::kSubstitute: return "substitute";
    case Flavour::kInvert: return "invert";
    case Flavour::kGossip: return "gossip";
  }
  return "?";
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t w) {
    h ^= w;
    h *= 1099511628211ULL;
  }
};

// FNV-1a over (from, to, kind, stage, iter, lbs size, lbs keys) of every
// message sent in one run of the given flavour.
std::uint64_t slice_digest(int dim, std::size_t m, Flavour f) {
  Fnv fnv;
  fault::Adversary adversary;
  SftOptions opts;
  opts.block = m;
  opts.interceptor = &adversary;
  switch (f) {
    case Flavour::kHonest:
      break;
    case Flavour::kSubstitute:
      opts.node_faults[1].substitute_at = fault::StagePoint{1, 1};
      opts.node_faults[1].substitute_value = 999;
      break;
    case Flavour::kInvert:
      opts.node_faults[2].invert_direction_from = fault::StagePoint{1, 1};
      break;
    case Flavour::kGossip:  // mutated slices travel in contiguous form
      adversary.add(fault::corrupt_gossip_entry(1, {1, 1}, 0, 7, m));
      break;
  }
  adversary.add([&fnv](cube::NodeId from, cube::NodeId to, sim::Message& msg) {
    const sim::Message& seen = msg;  // const reads only
    fnv.add(from);
    fnv.add(to);
    fnv.add(static_cast<std::uint64_t>(seen.kind));
    fnv.add(static_cast<std::uint64_t>(seen.stage));
    fnv.add(static_cast<std::uint64_t>(seen.iter));
    fnv.add(seen.lbs.size());
    for (const Key k : seen.lbs) fnv.add(static_cast<std::uint64_t>(k));
    return fault::Action::kPass;
  });
  const auto input = util::random_keys(
      1000 + static_cast<std::uint64_t>(dim) * 10 + m,
      (std::size_t{1} << dim) * m);
  (void)run_sft(dim, input, opts);
  return fnv.h;
}

struct Pin {
  int dim;
  std::size_t m;
  Flavour flavour;
  std::uint64_t digest;
};

void expect_pins(const std::vector<Pin>& pins) {
  for (const auto& p : pins) {
    EXPECT_EQ(slice_digest(p.dim, p.m, p.flavour), p.digest)
        << "dim=" << p.dim << " m=" << p.m << " " << name(p.flavour);
  }
}

// Digests recorded from flat per-node key arrays (one N*m copy per node and
// per message); the block-shared collections must reproduce them exactly.
TEST(LbsContentTest, HonestSlicesArePinned) {
  expect_pins({
      {2, 1, Flavour::kHonest, 17828693701409139473ULL},
      {2, 2, Flavour::kHonest, 14485170505197502383ULL},
      {2, 4, Flavour::kHonest, 16327189600827919422ULL},
      {3, 1, Flavour::kHonest, 17808808929805819199ULL},
      {3, 2, Flavour::kHonest, 18436108930045999570ULL},
      {3, 4, Flavour::kHonest, 6891381006781476742ULL},
      {4, 1, Flavour::kHonest, 6982253340875134069ULL},
      {4, 2, Flavour::kHonest, 12104355886639012848ULL},
      {4, 4, Flavour::kHonest, 14922643678965209685ULL},
  });
}

TEST(LbsContentTest, FaultySlicesArePinned) {
  expect_pins({
      {2, 1, Flavour::kSubstitute, 13031314126889881263ULL},
      {2, 2, Flavour::kSubstitute, 15325391650980858996ULL},
      {2, 4, Flavour::kSubstitute, 1190826614174519160ULL},
      {3, 1, Flavour::kSubstitute, 6235057077906154533ULL},
      {3, 2, Flavour::kSubstitute, 3438982619568990009ULL},
      {3, 4, Flavour::kSubstitute, 10855015888311485894ULL},
      {4, 1, Flavour::kSubstitute, 2914144787713430204ULL},
      {4, 2, Flavour::kSubstitute, 5071684969978435445ULL},
      {4, 4, Flavour::kSubstitute, 7214883701508930794ULL},
      {2, 1, Flavour::kInvert, 4883756140982668732ULL},
      {2, 2, Flavour::kInvert, 15495186003340920333ULL},
      {2, 4, Flavour::kInvert, 536027577326868350ULL},
      {3, 1, Flavour::kInvert, 7799180673850591982ULL},
      {3, 2, Flavour::kInvert, 9449578203207522099ULL},
      {3, 4, Flavour::kInvert, 4718560030733502436ULL},
      {4, 1, Flavour::kInvert, 13607748783839189857ULL},
      {4, 2, Flavour::kInvert, 1826886046991829962ULL},
      {4, 4, Flavour::kInvert, 5797278322809819518ULL},
      {2, 1, Flavour::kGossip, 5672055936319125341ULL},
      {2, 2, Flavour::kGossip, 13970156147549903623ULL},
      {2, 4, Flavour::kGossip, 1427951044841918114ULL},
      {3, 1, Flavour::kGossip, 2695815278173006361ULL},
      {3, 2, Flavour::kGossip, 15479435521084639216ULL},
      {3, 4, Flavour::kGossip, 11708777365969317132ULL},
      {4, 1, Flavour::kGossip, 3311834383754048306ULL},
      {4, 2, Flavour::kGossip, 10092324422048974788ULL},
      {4, 4, Flavour::kGossip, 7556990470912578661ULL},
  });
}

}  // namespace
}  // namespace aoft::sort
