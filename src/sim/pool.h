// Pooled key storage for the messaging hot path.
//
// Theorem 4 prices S_FT at O(log^2 N + N log N) communication; in the
// simulator every gossiped word used to ride in a freshly heap-allocated
// std::vector<Key>.  KeyPool is a per-Machine set of free lists (key vectors,
// and block-pointer vectors via refs()) and PooledVec is the vector-like RAII
// handle protocols hold: acquiring reuses a retired vector's capacity,
// destroying (or moving-from) returns the storage to its list.  Pooling is
// invisible to the wire protocol — message contents, cost charges and trace
// bytes do not depend on which storage a buffer reuses (docs/PROTOCOL.md
// §5 names the tests that pin them).
//
// KeyBuf (= PooledVec<Key>) is a contiguous range of Key (begin()/end()
// return raw pointers), so it converts implicitly to std::span<Key> /
// std::span<const Key> and slots into the span-based predicate and blockops
// APIs unchanged.

#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

namespace aoft::sim {

// Sort keys.  The paper's experiments sort 32-bit integers; we store keys in
// 64 bits so adversaries can also inject out-of-universe values.
using Key = std::int64_t;

// Free list of retired vectors.  Not thread-safe: each Machine owns one
// pool and a Machine is single-threaded by construction.
template <typename T>
class FreeList {
 public:
  std::vector<T> acquire() {
    if (!free_.empty()) {
      std::vector<T> v = std::move(free_.back());
      free_.pop_back();
      return v;
    }
    return {};
  }

  void release(std::vector<T>&& v) {
    if (v.capacity() == 0) return;
    if (free_.size() >= kMaxFree) return;  // let the excess free normally
    v.clear();
    free_.push_back(std::move(v));
  }

  std::size_t free_count() const { return free_.size(); }

 private:
  static constexpr std::size_t kMaxFree = 256;
  std::vector<std::vector<T>> free_;
};

// The machine's pool: retired key vectors (KeyBuf storage) plus, via refs(),
// retired block-reference vectors (BlockRefs storage, sim/blocks.h).
class KeyPool : public FreeList<Key> {
 public:
  FreeList<const Key*>& refs() { return refs_; }

 private:
  FreeList<const Key*> refs_;
};

// Vector-like buffer that returns its storage to a FreeList on destruction.
// Default-constructed buffers are unpooled (plain vector semantics); copies
// are deep and unpooled on the destination side unless the destination
// already has a pool, in which case copy-assignment keeps the destination's
// pool and capacity.
template <typename T>
class PooledVec {
 public:
  PooledVec() = default;
  explicit PooledVec(FreeList<T>& pool) : v_(pool.acquire()), pool_(&pool) {}

  ~PooledVec() { release(); }

  PooledVec(PooledVec&& o) noexcept
      : v_(std::move(o.v_)), pool_(std::exchange(o.pool_, nullptr)) {
    o.v_.clear();
  }

  PooledVec& operator=(PooledVec&& o) noexcept {
    if (this != &o) {
      release();
      v_ = std::move(o.v_);
      o.v_.clear();
      pool_ = std::exchange(o.pool_, nullptr);
    }
    return *this;
  }

  // Deep copy; the copy is unpooled (safe to outlive any Machine).
  PooledVec(const PooledVec& o) : v_(o.v_) {}

  // Copy-assignment keeps this buffer's pool and reuses its capacity.
  PooledVec& operator=(const PooledVec& o) {
    if (this != &o) v_.assign(o.v_.begin(), o.v_.end());
    return *this;
  }

  PooledVec& operator=(const std::vector<T>& v) {
    v_.assign(v.begin(), v.end());
    return *this;
  }

  PooledVec& operator=(std::initializer_list<T> il) {
    v_.assign(il);
    return *this;
  }

  // Detach the storage (e.g. to hand a result out of the simulation).  The
  // vector no longer returns to the pool.
  std::vector<T> take() && {
    pool_ = nullptr;
    return std::move(v_);
  }

  // --- vector-like interface ------------------------------------------------
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  T* data() { return v_.data(); }
  const T* data() const { return v_.data(); }
  T* begin() { return v_.data(); }
  T* end() { return v_.data() + v_.size(); }
  const T* begin() const { return v_.data(); }
  const T* end() const { return v_.data() + v_.size(); }

  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }

  T& operator[](std::size_t i) { return v_[i]; }
  const T& operator[](std::size_t i) const { return v_[i]; }
  T& at(std::size_t i) { return v_.at(i); }
  const T& at(std::size_t i) const { return v_.at(i); }
  T& front() { return v_.front(); }
  const T& front() const { return v_.front(); }
  T& back() { return v_.back(); }
  const T& back() const { return v_.back(); }

  void reserve(std::size_t n) { v_.reserve(n); }
  void resize(std::size_t n, T fill = T{}) { v_.resize(n, fill); }
  void clear() { v_.clear(); }
  void push_back(T k) { v_.push_back(k); }
  void pop_back() { v_.pop_back(); }

  template <typename It>
  void assign(It first, It last) {
    v_.assign(first, last);
  }
  void assign(std::size_t n, T k) { v_.assign(n, k); }
  void assign(std::initializer_list<T> il) { v_.assign(il); }

  friend bool operator==(const PooledVec& a, const PooledVec& b) {
    return a.v_ == b.v_;
  }
  bool operator==(const std::vector<T>& v) const { return v_ == v; }

 private:
  void release() {
    if (pool_ != nullptr) pool_->release(std::move(v_));
  }

  std::vector<T> v_;
  FreeList<T>* pool_ = nullptr;
};

// Pooled key buffer: message operands, blocks, contiguous LBS slices.
using KeyBuf = PooledVec<Key>;

}  // namespace aoft::sim
