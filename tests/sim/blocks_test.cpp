// LbsSlice / BlockArena semantics: the block-shared storage under S_FT's
// collections (sim/blocks.h).  A slice in block form must read exactly like
// its flattened keys, never copy on a const read, and convert to contiguous
// form before any write; the arena must keep blocks put until reset and
// reuse its chunks afterwards.

#include "sim/blocks.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace aoft::sim {
namespace {

// Three 2-key blocks stored in `arena`, and their flattened keys.
struct Blocks {
  std::vector<const Key*> refs;
  std::vector<Key> flat;
};

Blocks three_blocks(BlockArena& arena) {
  Blocks b;
  b.flat = {1, 2, 30, 40, -5, -6};
  for (std::size_t k = 0; k < 3; ++k)
    b.refs.push_back(arena.store(std::span<const Key>(b.flat).subspan(2 * k, 2)));
  return b;
}

TEST(LbsSliceTest, BlockFormReadsLikeItsKeys) {
  BlockArena arena;
  KeyPool pool;
  const Blocks b = three_blocks(arena);
  LbsSlice s(pool);
  s.assign_blocks(b.refs, 2);
  const LbsSlice& cs = s;
  EXPECT_TRUE(cs.shares_blocks());
  EXPECT_EQ(cs.size(), 6u);
  EXPECT_FALSE(cs.empty());
  EXPECT_EQ(cs[3], 40);
  EXPECT_EQ(cs.block(2, 2), b.refs[2]);  // the block itself, not a copy
  EXPECT_EQ(cs, b.flat);
  EXPECT_EQ(std::vector<Key>(cs.begin(), cs.end()), b.flat);
  std::vector<Key> out(6);
  cs.copy_to(out.data());
  EXPECT_EQ(out, b.flat);
  EXPECT_TRUE(cs.shares_blocks()) << "const reads must not convert the slice";
}

TEST(LbsSliceTest, MutableAccessCopiesOnWrite) {
  BlockArena arena;
  KeyPool pool;
  const Blocks b = three_blocks(arena);
  LbsSlice s(pool);
  s.assign_blocks(b.refs, 2);
  s[2] += 7;
  EXPECT_FALSE(s.shares_blocks());
  EXPECT_EQ(s, (std::vector<Key>{1, 2, 37, 40, -5, -6}));
  EXPECT_EQ(b.refs[1][0], 30) << "a write must never reach the shared block";
  // In contiguous form block(k, m) addresses the flattened keys.
  EXPECT_EQ(s.block(1, 2)[0], 37);
  for (Key& k : s) k = 0;
  EXPECT_EQ(b.refs[2][1], -6);
}

TEST(LbsSliceTest, AssignmentsLeaveContiguousForm) {
  BlockArena arena;
  KeyPool pool;
  const Blocks b = three_blocks(arena);
  LbsSlice s(pool);
  s.assign_blocks(b.refs, 2);
  s = {9, 8};
  EXPECT_FALSE(s.shares_blocks());
  EXPECT_EQ(s.size(), 2u);
  s.assign_blocks(b.refs, 2);
  s = std::vector<Key>{4};
  EXPECT_FALSE(s.shares_blocks());
  EXPECT_EQ(s, (std::vector<Key>{4}));
  s.assign_blocks(b.refs, 2);
  s.assign(b.flat.begin(), b.flat.begin() + 1);
  EXPECT_FALSE(s.shares_blocks());
  EXPECT_EQ(s, (std::vector<Key>{1}));
}

TEST(LbsSliceTest, CopiesAreDeepAndContiguousMovesKeepTheForm) {
  BlockArena arena;
  KeyPool pool;
  const Blocks b = three_blocks(arena);
  LbsSlice s(pool);
  s.assign_blocks(b.refs, 2);
  const LbsSlice copy(s);
  EXPECT_FALSE(copy.shares_blocks());
  EXPECT_EQ(copy, s);  // equal across forms
  LbsSlice assigned(pool);
  assigned = s;
  EXPECT_FALSE(assigned.shares_blocks());
  EXPECT_EQ(assigned, b.flat);

  LbsSlice moved(std::move(s));
  EXPECT_TRUE(moved.shares_blocks());
  EXPECT_EQ(moved.block(0, 2), b.refs[0]);
  EXPECT_TRUE(s.empty());  // NOLINT(bugprone-use-after-move): spec'd state
  EXPECT_FALSE(s.shares_blocks());
}

TEST(LbsSliceTest, EqualityComparesKeysNotForms) {
  BlockArena arena;
  KeyPool pool;
  const Blocks b = three_blocks(arena);
  LbsSlice blocks(pool), flat(pool);
  blocks.assign_blocks(b.refs, 2);
  flat.assign(b.flat.begin(), b.flat.end());
  EXPECT_TRUE(blocks == flat);
  flat[5] = 0;
  EXPECT_FALSE(blocks == flat);
  EXPECT_FALSE(blocks == (std::vector<Key>{1, 2}));
}

TEST(BlockArenaTest, BlocksStayPutUntilResetAndChunksAreReused) {
  BlockArena arena;
  const std::vector<Key> block(1000, 3);
  std::vector<const Key*> first;
  for (int k = 0; k < 200; ++k) first.push_back(arena.store(block));  // > 1 chunk
  const std::size_t chunks = arena.chunk_count();
  EXPECT_GT(chunks, 1u);
  for (const Key* p : first) EXPECT_EQ(p[999], 3);
  arena.reset();
  for (int k = 0; k < 200; ++k) EXPECT_EQ(arena.store(block), first[k]);
  EXPECT_EQ(arena.chunk_count(), chunks);
}

TEST(BlockArenaTest, OversizedBlocksGetTheirOwnChunk) {
  BlockArena arena;
  const std::vector<Key> huge(std::size_t{1} << 17, 1);
  const Key* p = arena.store(huge);
  EXPECT_EQ(p[huge.size() - 1], 1);
  const Key* q = arena.store(std::vector<Key>{2});
  EXPECT_EQ(q[0], 2);
  EXPECT_EQ(p[0], 1);
}

TEST(BlockArenaTest, ZeroBlockIsSharedAndSurvivesReset) {
  BlockArena arena;
  const Key* z = arena.zeros(4);
  EXPECT_EQ(arena.zeros(4), z);
  EXPECT_EQ(arena.zeros(2), z);
  arena.reset();
  EXPECT_EQ(arena.zeros(4), z);
  for (int k = 0; k < 4; ++k) EXPECT_EQ(z[k], 0);
}

}  // namespace
}  // namespace aoft::sim
