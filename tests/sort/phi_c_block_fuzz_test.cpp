// Φ_C over block-form collections against the flat reference.
//
// S_FT holds its collections as one pointer per owner label to an immutable
// m-key block (sim/blocks.h), and phi_c_merge's block overload skips the
// word compare when two entries are the same block.  That shortcut and the
// pointer-copy absorb must be invisible: on the same keys, the block overload
// must return the flat overload's verdict, position and MergeStats, and leave
// the same cover and the same keys.  The fuzz mixes every way two copies of
// an entry can relate — one shared block, equal keys in distinct blocks,
// differing keys — with received slices in both block and contiguous form.

#include <gtest/gtest.h>

#include <vector>

#include "hypercube/masks.h"
#include "sim/blocks.h"
#include "sort/predicates.h"
#include "util/rng.h"

namespace aoft::sort {
namespace {

enum class Copy { kShared, kEqual, kDiffer };

struct Outcome {
  std::optional<Violation> v;
  MergeStats stats;
  util::BitVec cover;
  std::vector<Key> keys;
};

void expect_same(const Outcome& flat, const Outcome& blocks,
                 const std::string& where) {
  ASSERT_EQ(flat.v.has_value(), blocks.v.has_value()) << where;
  if (flat.v) {
    EXPECT_EQ(flat.v->what, blocks.v->what) << where;
    EXPECT_EQ(flat.v->position, blocks.v->position) << where;
  }
  EXPECT_EQ(flat.stats.checked, blocks.stats.checked) << where;
  EXPECT_EQ(flat.stats.absorbed, blocks.stats.absorbed) << where;
  EXPECT_TRUE(flat.cover == blocks.cover) << where;
  EXPECT_EQ(flat.keys, blocks.keys) << where;
}

// One random merge instance, run through both overloads.
void fuzz_case(util::Rng& rng, bool contiguous_recv, int& violations) {
  const int dim = 1 + static_cast<int>(rng.next_below(6));
  const std::size_t m = 1 + rng.next_below(4);
  const cube::NodeId n = cube::NodeId{1} << dim;
  const auto me = static_cast<cube::NodeId>(rng.next_below(n));
  const auto window = cube::home_subcube(
      1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(dim))), me);
  const std::size_t wn = window.size();
  // Disagreements are rare enough that most instances pass end to end.
  const std::uint64_t differ_odds = 2 * wn + 1;

  sim::BlockArena arena;
  util::BitVec local_cover(n), sender_cover(n);
  std::vector<const Key*> local_blocks(n);
  std::vector<const Key*> recv_blocks(wn);
  std::vector<Key> block(m);
  const auto random_block = [&] {
    for (auto& k : block) k = rng.next_in(-20, 20);
    return arena.store(block);
  };
  for (cube::NodeId p = 0; p < n; ++p) {
    local_blocks[p] = rng.next_below(4) == 0 ? arena.zeros(m) : random_block();
    if (rng.next_bool()) local_cover.set(p);
  }
  for (cube::NodeId p = window.start; p <= window.end; ++p) {
    const std::size_t k = p - window.start;
    if (rng.next_bool()) sender_cover.set(p);
    Copy copy = rng.next_bool() ? Copy::kShared : Copy::kEqual;
    if (rng.next_below(differ_odds) == 0) copy = Copy::kDiffer;
    const Key* mine = local_blocks[p];
    switch (copy) {
      case Copy::kShared:
        recv_blocks[k] = mine;
        break;
      case Copy::kEqual:
        recv_blocks[k] = arena.store(std::span<const Key>(mine, m));
        break;
      case Copy::kDiffer:
        block.assign(mine, mine + m);
        block[rng.next_below(m)] += 1 + rng.next_in(0, 3);
        recv_blocks[k] = arena.store(block);
        break;
    }
  }

  std::vector<Key> before(n * m);
  sim::flatten_blocks(local_blocks, m, before.data());

  // Flat reference.
  Outcome flat;
  flat.cover = local_cover;
  flat.keys = before;
  std::vector<Key> recv_flat(wn * m);
  sim::flatten_blocks(recv_blocks, m, recv_flat.data());
  flat.v = phi_c_merge(flat.keys, flat.cover, recv_flat, sender_cover, window,
                       m, &flat.stats);

  // Block form.
  sim::KeyPool pool;
  sim::LbsSlice recv(pool);
  if (contiguous_recv)
    recv.assign(recv_flat.begin(), recv_flat.end());
  else
    recv.assign_blocks(recv_blocks, m);
  Outcome blocks;
  blocks.cover = local_cover;
  std::vector<const Key*> held = local_blocks;
  blocks.v = phi_c_merge(held, blocks.cover, recv, sender_cover, window, m,
                         arena, &blocks.stats);
  blocks.keys.resize(n * m);
  sim::flatten_blocks(held, m, blocks.keys.data());

  const std::string where = "dim=" + std::to_string(dim) +
                            " m=" + std::to_string(m) + " me=" +
                            std::to_string(me) + " window=[" +
                            std::to_string(window.start) + "," +
                            std::to_string(window.end) + "]";
  expect_same(flat, blocks, where);
  if (flat.v) ++violations;

  // Absorbing from a block-form slice is a pointer copy; every block the
  // merge started from is untouched.
  for (cube::NodeId p = window.start; p <= window.end; ++p) {
    if (held[p] != local_blocks[p] && !contiguous_recv) {
      EXPECT_EQ(held[p], recv_blocks[p - window.start]) << where;
    }
  }
  std::vector<Key> after(n * m);
  sim::flatten_blocks(local_blocks, m, after.data());
  EXPECT_EQ(after, before) << where;
}

TEST(PhiCBlockFuzzTest, BlockSliceMatchesFlatReference) {
  util::Rng rng(0xb10c);
  int violations = 0;
  for (int c = 0; c < 3000; ++c) fuzz_case(rng, false, violations);
  // Both verdicts must actually occur, or the comparison proves little.
  EXPECT_GT(violations, 100);
  EXPECT_LT(violations, 2900);
}

TEST(PhiCBlockFuzzTest, ContiguousSliceMatchesFlatReference) {
  util::Rng rng(0xf1a7);
  int violations = 0;
  for (int c = 0; c < 3000; ++c) fuzz_case(rng, true, violations);
  EXPECT_GT(violations, 100);
  EXPECT_LT(violations, 2900);
}

// Pointer-equal entries skip the word compare but still count as checked;
// a contiguous absorb lands in one arena copy per run.
TEST(PhiCBlockFuzzTest, SharedEntriesCountAsCheckedAndContiguousRunsAreCopied) {
  const std::size_t m = 3;
  sim::BlockArena arena;
  const std::vector<Key> k0{1, 2, 3}, k1{4, 5, 6};
  const Key* b0 = arena.store(k0);
  const Key* b1 = arena.store(k1);
  const Key* z = arena.zeros(m);
  const cube::Subcube window{0, 1, 1};
  util::BitVec sender(2), cover(2);
  sender.set(0);
  sender.set(1);
  cover.set(0);

  sim::KeyPool pool;
  std::vector<const Key*> held{b0, z};
  sim::LbsSlice shared(pool);
  const std::vector<const Key*> refs{b0, b1};
  shared.assign_blocks(refs, m);
  MergeStats stats;
  EXPECT_FALSE(
      phi_c_merge(held, cover, shared, sender, window, m, arena, &stats)
          .has_value());
  EXPECT_EQ(stats.checked, m);
  EXPECT_EQ(stats.absorbed, m);
  EXPECT_EQ(held[1], b1);  // adopted by pointer

  std::vector<const Key*> held2{b0, z};
  util::BitVec cover2(2);
  sim::LbsSlice flat(pool);
  flat.assign({1, 2, 3, 4, 5, 6});
  MergeStats stats2;
  EXPECT_FALSE(
      phi_c_merge(held2, cover2, flat, sender, window, m, arena, &stats2)
          .has_value());
  EXPECT_EQ(stats2.absorbed, 2 * m);
  EXPECT_NE(held2[0], b0);  // copied out of the slice into the arena
  EXPECT_EQ(held2[1], held2[0] + m);
  EXPECT_EQ(held2[1][2], 6);
}

}  // namespace
}  // namespace aoft::sort
