// Block-shared LBS storage for S_FT (docs/PROTOCOL.md §1).
//
// The paper's LBS is a list of m-key blocks indexed by owner label, and every
// S_FT message carries the sender's window of that list.  Inside one
// simulator process the blocks never change once a node has published them,
// so a collection is held as one pointer per owner label and a gossiped
// window is a pointer copy, not a key copy:
//
//   BlockArena  — per-Machine bump allocator for immutable m-key blocks, reset
//                 with the machine (chunks are kept, so a reused machine's
//                 arena allocates nothing at steady state);
//   VerdictMemo — the arena's stage-boundary verdicts (Φ_P, Φ_F), keyed on
//                 the exact block-pointer lists they were computed from;
//   BlockRefs   — a pooled vector of block pointers (a node's LBS / LLBS);
//   LbsSlice    — a message's LBS field: either block pointers or one
//                 contiguous key buffer, reading the same either way.
//
// Block sharing is invisible: message contents, sizes, cost charges, Φ
// verdicts and trace bytes are exactly those of flat per-node key arrays.
// Because a stored block never changes before the arena resets, equal
// pointer lists mean equal keys, so one verdict serves every node of a
// subcube that hands the predicates the same blocks (docs/PROTOCOL.md §3).

#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/pool.h"

namespace aoft::sim {

// Pooled vector of block pointers.
using BlockRefs = PooledVec<const Key*>;

// A failed executable assertion (sort/predicates.h), with enough context for
// the fail-stop diagnostic sent to the host.  Declared beside the arena so
// the verdict memo can hold it.
struct Violation {
  std::string what;        // human-readable cause
  std::int64_t position;   // flattened index (or node label) it anchors to
};

// The verdicts of one bit_compare: Φ_P, then Φ_F; nullopt is a pass.
struct StageVerdicts {
  std::optional<Violation> progress;
  std::optional<Violation> feasibility;
};

// Every input of bit_compare's verdicts besides the block pointers.
struct VerdictTag {
  std::size_t m = 0;             // keys per block
  std::size_t inner_offset = 0;  // the inner window's first entry within outer
  bool final_stage = false;
  bool inner_ascending = false;
  bool check_progress = false;
  bool check_feasibility = false;

  friend bool operator==(const VerdictTag&, const VerdictTag&) = default;
};

// One bit_compare input: the LBS blocks of the outer window, the LLBS blocks
// of the inner window, and the tag.
struct VerdictKey {
  std::span<const Key* const> outer;
  std::span<const Key* const> inner;
  VerdictTag tag;
};

// Stage-boundary verdicts, memoized for one machine run.  Valid only while
// every pointer in a stored key names an unchanged block: BlockArena clears
// it on reset(), because a rewound arena hands the same addresses out again.
// The hash only picks the bucket; a hit compares the whole pointer list.
// Open addressing over vectors that keep their capacity across clear(), so a
// warm memo allocates nothing.
class VerdictMemo {
 public:
  static std::uint64_t hash(const VerdictKey& k) {
    std::uint64_t h = (k.tag.m * kMul) ^ k.tag.inner_offset;
    h = (h * kMul) ^ (std::uint64_t{k.tag.final_stage} |
                      (std::uint64_t{k.tag.inner_ascending} << 1) |
                      (std::uint64_t{k.tag.check_progress} << 2) |
                      (std::uint64_t{k.tag.check_feasibility} << 3) |
                      (std::uint64_t{k.outer.size()} << 4));
    for (const auto refs : {k.outer, k.inner})
      for (const Key* b : refs)
        h = (h ^ reinterpret_cast<std::uintptr_t>(b)) * kMul;
    return h ^ (h >> 32);
  }

  // The verdicts stored under `k`, whose hash is `h`, or nullptr.
  const StageVerdicts* find(const VerdictKey& k, std::uint64_t h) const {
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = h & mask; slots_[s] != 0; s = (s + 1) & mask) {
      const Entry& e = entries_[slots_[s] - 1];
      if (e.hash == h && e.tag == k.tag && e.outer == k.outer.size() &&
          e.inner == k.inner.size() &&
          std::equal(k.outer.begin(), k.outer.end(), ptrs_.begin() + e.at) &&
          std::equal(k.inner.begin(), k.inner.end(),
                     ptrs_.begin() + e.at + e.outer))
        return &e.verdicts;
    }
    return nullptr;
  }

  // Store `v` under `k` (absent; hash `h`) and return the stored copy, valid
  // until the next insert().
  const StageVerdicts& insert(const VerdictKey& k, std::uint64_t h,
                              StageVerdicts v) {
    if (2 * (entries_.size() + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t s = h & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = static_cast<std::uint32_t>(entries_.size() + 1);
    entries_.push_back(
        {h, k.tag, ptrs_.size(), k.outer.size(), k.inner.size(), std::move(v)});
    ptrs_.insert(ptrs_.end(), k.outer.begin(), k.outer.end());
    ptrs_.insert(ptrs_.end(), k.inner.begin(), k.inner.end());
    return entries_.back().verdicts;
  }

  void clear() {
    std::fill(slots_.begin(), slots_.end(), 0u);
    entries_.clear();
    ptrs_.clear();
  }

  std::size_t size() const { return entries_.size(); }

 private:
  static constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;

  struct Entry {
    std::uint64_t hash;
    VerdictTag tag;
    std::size_t at;     // the key's first pointer in ptrs_
    std::size_t outer;  // pointers of the outer list, then of the inner one
    std::size_t inner;
    StageVerdicts verdicts;
  };

  // Double the table (64 slots at first) and re-place every entry.
  void grow() {
    slots_.assign(std::max<std::size_t>(64, 2 * slots_.size()), 0u);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::size_t s = entries_[i].hash & mask;
      while (slots_[s] != 0) s = (s + 1) & mask;
      slots_[s] = static_cast<std::uint32_t>(i + 1);
    }
  }

  std::vector<const Key*> ptrs_;       // every stored key's pointers, in order
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> slots_;   // entry index + 1, 0 = free; size 2^k
};

// Bump allocator for immutable key blocks.  A stored block stays valid and
// unchanged until reset(); reset() rewinds without freeing, so the same
// chunks serve the next run.  Single-threaded, like the machine that owns it.
class BlockArena {
 public:
  // Copy `keys` into fresh arena storage and return it.
  const Key* store(std::span<const Key> keys) {
    const std::size_t n = keys.size();
    while (cur_ < chunks_.size() && chunks_[cur_].cap - used_ < n) {
      ++cur_;
      used_ = 0;
    }
    if (cur_ == chunks_.size()) {
      // Chunks double from a small first one, so a short run on a fresh
      // machine does not pay for a large allocation.
      const std::size_t next =
          chunks_.empty() ? kFirstChunkKeys
                          : std::min(2 * chunks_.back().cap, kMaxChunkKeys);
      const std::size_t cap = std::max(n, next);
      chunks_.push_back({std::unique_ptr<Key[]>(new Key[cap]), cap});
      used_ = 0;
    }
    Key* out = chunks_[cur_].keys.get() + used_;
    used_ += n;
    if (n != 0) std::memcpy(out, keys.data(), n * sizeof(Key));
    return out;
  }

  // One shared block of at least m zero keys: the value of every LBS entry
  // nobody has written yet.  Valid across reset(); a call with a larger m
  // than any before reallocates it.
  const Key* zeros(std::size_t m) {
    if (zeros_.size() < m) zeros_.assign(m, Key{0});
    return zeros_.data();
  }

  // Machine-wide scratch of n keys, for flattening a block window into the
  // contiguous form the Φ kernels read.  Two independent slots; a slot's
  // contents last until its next call.
  std::span<Key> scratch(int slot, std::size_t n) {
    auto& s = scratch_[slot];
    if (s.size() < n) s.resize(n);
    return {s.data(), n};
  }

  // Verdicts of the stage-boundary checks run over this arena's blocks.
  VerdictMemo& verdicts() { return verdicts_; }

  // Rewinds the chunks and clears the verdict memo, whose keys name blocks
  // the next run will overwrite.
  void reset() {
    cur_ = 0;
    used_ = 0;
    verdicts_.clear();
  }

  std::size_t chunk_count() const { return chunks_.size(); }

 private:
  static constexpr std::size_t kFirstChunkKeys = std::size_t{1} << 10;
  static constexpr std::size_t kMaxChunkKeys = std::size_t{1} << 20;
  struct Chunk {
    std::unique_ptr<Key[]> keys;
    std::size_t cap = 0;
  };
  std::vector<Chunk> chunks_;
  std::size_t cur_ = 0;   // chunk being filled
  std::size_t used_ = 0;  // keys handed out from chunks_[cur_]
  std::vector<Key> zeros_;
  std::vector<Key> scratch_[2];
  VerdictMemo verdicts_;
};

// Flatten `blocks` (m keys each) into out[0, blocks.size() * m).
inline void flatten_blocks(std::span<const Key* const> blocks, std::size_t m,
                           Key* out) {
  if (m == 1) {  // the paper's one key per node: a word per entry, no memcpy
    for (const Key* b : blocks) *out++ = *b;
    return;
  }
  for (const Key* b : blocks) {
    std::memcpy(out, b, m * sizeof(Key));
    out += m;
  }
}

// A message's LBS window: entries of m keys each, in one of two forms.
//   block form       — one pointer per entry to an immutable block (arena or
//                      caller storage, alive until the machine resets): what
//                      S_FT sends inside one simulator process.
//   contiguous form  — the keys themselves, flattened: what the wire decodes
//                      and what every mutation produces.
// size() counts keys in both forms and const reads never copy.  Every
// mutable access first converts the slice to contiguous form (copy-on-write),
// so code that edits keys in place sees a plain array and never writes into
// a shared block.  Copies are deep and contiguous, like KeyBuf's.
//
// Both forms live in one pooled word buffer — block form keeps each block's
// address as a word (std::bit_cast) — so a slice is one KeyBuf wide and moves
// through the channels as cheaply as one.
class LbsSlice {
 public:
  class const_iterator;
  using value_type = Key;
  using iterator = Key*;

  LbsSlice() = default;
  explicit LbsSlice(KeyPool& pool) : words_(pool) {}

  LbsSlice(const LbsSlice& o) { *this = o; }
  LbsSlice& operator=(const LbsSlice& o) {
    if (this != &o) {
      words_.resize(o.size());
      o.copy_to(words_.data());
      block_ = 0;
    }
    return *this;
  }
  LbsSlice(LbsSlice&& o) noexcept
      : words_(std::move(o.words_)), block_(std::exchange(o.block_, 0)) {}
  LbsSlice& operator=(LbsSlice&& o) noexcept {
    words_ = std::move(o.words_);
    block_ = std::exchange(o.block_, 0);
    return *this;
  }

  // ---- block form ----------------------------------------------------------
  // Refer to `blocks`, m keys each: a pointer copy.
  void assign_blocks(std::span<const Key* const> blocks, std::size_t m) {
    words_.resize(blocks.size());
    std::transform(blocks.begin(), blocks.end(), words_.begin(),
                   [](const Key* b) { return std::bit_cast<Key>(b); });
    block_ = m;
  }
  bool shares_blocks() const { return block_ != 0; }

  // Entry k of a slice of m-key entries, in either form.
  const Key* block(std::size_t k, std::size_t m) const {
    if (block_ != 0) {
      assert(m == block_);
      return std::bit_cast<const Key*>(words_[k]);
    }
    return words_.data() + k * m;
  }

  // True when entries [k, k + refs.size()) of a block-form slice are exactly
  // the blocks `refs` (the same addresses, hence the same keys).
  bool same_blocks(std::size_t k, std::span<const Key* const> refs) const {
    assert(block_ != 0);
    return std::memcmp(words_.data() + k, refs.data(), refs.size_bytes()) == 0;
  }

  // ---- const reads ---------------------------------------------------------
  std::size_t size() const {
    return block_ != 0 ? words_.size() * block_ : words_.size();
  }
  bool empty() const { return size() == 0; }
  const Key& operator[](std::size_t i) const {
    return block_ != 0 ? block(i / block_, block_)[i % block_] : words_[i];
  }
  const_iterator begin() const;
  const_iterator end() const;

  // Call f(std::span<const Key>) over the keys in order, one contiguous run
  // at a time (one per block in block form).
  template <typename F>
  void for_each_run(F&& f) const {
    if (block_ == 0) {
      if (!words_.empty()) f(std::span<const Key>(words_.data(), words_.size()));
      return;
    }
    for (const Key w : words_)
      f(std::span<const Key>(std::bit_cast<const Key*>(w), block_));
  }

  // Copy all size() keys to `out`.
  void copy_to(Key* out) const {
    for_each_run([&out](std::span<const Key> run) {
      std::memcpy(out, run.data(), run.size_bytes());
      out += run.size();
    });
  }

  // ---- mutable access (copy-on-write) --------------------------------------
  Key* begin() { return make_contiguous(); }
  Key* end() { return make_contiguous() + words_.size(); }
  Key& operator[](std::size_t i) { return make_contiguous()[i]; }

  template <typename It>
  void assign(It first, It last) {
    words_.assign(first, last);
    block_ = 0;
  }
  void assign(std::initializer_list<Key> il) {
    words_.assign(il);
    block_ = 0;
  }
  LbsSlice& operator=(const std::vector<Key>& v) {
    assign(v.begin(), v.end());
    return *this;
  }
  LbsSlice& operator=(std::initializer_list<Key> il) {
    assign(il);
    return *this;
  }

  friend bool operator==(const LbsSlice& a, const LbsSlice& b);
  bool operator==(const std::vector<Key>& v) const;

 private:
  // Expand the addresses into the keys they point at, in place: entry k
  // lands at [k*m, (k+1)*m), at or after its own address word, so walking
  // backwards never overwrites an address before it is read.
  Key* make_contiguous() {
    if (block_ != 0) {
      const std::size_t n = words_.size(), m = block_;
      words_.resize(n * m);
      for (std::size_t k = n; k-- > 0;) {
        const Key* b = std::bit_cast<const Key*>(words_[k]);
        std::memcpy(words_.data() + k * m, b, m * sizeof(Key));
      }
      block_ = 0;
    }
    return words_.data();
  }

  KeyBuf words_;           // keys, or block addresses in block form
  std::size_t block_ = 0;  // keys per referenced block; 0 in contiguous form
};

// Read-only key iterator over either form.
class LbsSlice::const_iterator {
 public:
  using iterator_category = std::forward_iterator_tag;
  using value_type = Key;
  using difference_type = std::ptrdiff_t;
  using pointer = const Key*;
  using reference = const Key&;

  const_iterator() = default;
  const_iterator(const LbsSlice* s, std::size_t i) : s_(s), i_(i) {}

  reference operator*() const { return (*s_)[i_]; }
  const_iterator& operator++() {
    ++i_;
    return *this;
  }
  const_iterator operator++(int) {
    const_iterator old = *this;
    ++i_;
    return old;
  }
  friend bool operator==(const const_iterator& a, const const_iterator& b) {
    return a.i_ == b.i_;
  }

 private:
  const LbsSlice* s_ = nullptr;
  std::size_t i_ = 0;
};

inline LbsSlice::const_iterator LbsSlice::begin() const { return {this, 0}; }
inline LbsSlice::const_iterator LbsSlice::end() const { return {this, size()}; }

inline bool operator==(const LbsSlice& a, const LbsSlice& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}
inline bool LbsSlice::operator==(const std::vector<Key>& v) const {
  return size() == v.size() && std::equal(v.begin(), v.end(), begin());
}

}  // namespace aoft::sim
