#include "transport/shm_segment.h"

#include "transport/wire.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace aoft::transport {

namespace {

constexpr std::uint64_t kAlign = 64;

std::uint64_t align_up(std::uint64_t v) {
  return (v + kAlign - 1) & ~(kAlign - 1);
}

std::uint64_t next_pow2(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

// One ring's footprint: header plus power-of-two buffer.
std::uint64_t ring_footprint(std::uint64_t buf_bytes) {
  return sizeof(ShmRingHdr) + buf_bytes;
}

}  // namespace

ShmSegment ShmSegment::create(const Config& cfg) {
  if (cfg.dim < 0 || cfg.dim > kMaxProcessDim)
    throw std::invalid_argument(
        "shm backend supports cube dimensions 0.." +
        std::to_string(kMaxProcessDim) + ", got " + std::to_string(cfg.dim));
  if (cfg.block < 1)
    throw std::invalid_argument("shm backend needs block >= 1");

  const std::uint64_t n = std::uint64_t{1} << cfg.dim;
  const std::uint64_t m = cfg.block;
  const std::uint64_t keys = n * m;

  SegmentHeader hd;
  std::memcpy(hd.magic, kSegmentMagic, sizeof hd.magic);
  hd.version = kSegmentVersion;
  hd.job = cfg;
  hd.host_pid = static_cast<std::int32_t>(getpid());
  hd.recv_timeout_s = cfg.recv_timeout_s;
  hd.run_deadline_s = cfg.run_deadline_s;

  // Whole-run ring capacities (see the header comment).  A directed node
  // link carries at most dim+1 messages, each up to a full-cube LBS slice
  // plus the exchange pair; the 2x factor absorbs adversarial growth.
  const std::uint64_t rec_over = 4 + sizeof(WireMsgHdr);  // length + header
  const std::uint64_t msg_bytes = rec_over + (2 * m + keys) * sizeof(sim::Key);
  hd.link_ring_bytes = next_pow2(
      std::max<std::uint64_t>(4096, 2 * (cfg.dim + 2) * msg_bytes));
  // Up: dim checkpoint uploads (slice-sized), error reports, snr gathers.
  const std::uint64_t up_bytes = rec_over + (keys + 2 * m + 1) * sizeof(sim::Key);
  hd.up_ring_bytes = next_pow2(
      std::max<std::uint64_t>(4096, 2 * (cfg.dim + 4) * up_bytes));
  hd.down_ring_bytes =
      next_pow2(std::max<std::uint64_t>(1024, rec_over + m * sizeof(sim::Key)));
  hd.event_cap =
      cfg.record_events
          ? 8 * static_cast<std::uint32_t>(cfg.dim * cfg.dim + 2 * cfg.dim + 8)
          : 0;

  std::uint64_t off = align_up(sizeof(SegmentHeader));
  hd.off_faults = off;
  off = align_up(off + n * sizeof(WireFault));
  hd.off_slots = off;
  off = align_up(off + n * sizeof(NodeSlot));
  hd.off_events = off;
  off = align_up(off + n * hd.event_cap * sizeof(WireLinkEvent));
  hd.off_input = off;
  off = align_up(off + keys * sizeof(sim::Key));
  hd.off_llbs = off;
  off = align_up(off + keys * sizeof(sim::Key));
  hd.off_output = off;
  off = align_up(off + keys * sizeof(sim::Key));
  hd.off_rings = off;
  const std::uint64_t per_node_rings =
      static_cast<std::uint64_t>(cfg.dim) * ring_footprint(hd.link_ring_bytes) +
      ring_footprint(hd.up_ring_bytes) + ring_footprint(hd.down_ring_bytes);
  off = align_up(off + n * per_node_rings);
  hd.total_bytes = off;

  // A collision-free name: pid + an in-process counter.
  static std::atomic<std::uint32_t> seq{0};
  ShmSegment seg;
  int fd = -1;
  for (int attempt = 0; attempt < 64; ++attempt) {
    seg.name_ = "/aoft-" + std::to_string(getpid()) + "-" +
                std::to_string(seq.fetch_add(1));
    fd = shm_open(seg.name_.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    if (fd >= 0) break;
    if (errno != EEXIST) fail_errno("shm_open(" + seg.name_ + ")");
  }
  if (fd < 0) fail_errno("shm_open: no free segment name");
  if (ftruncate(fd, static_cast<off_t>(hd.total_bytes)) != 0) {
    close(fd);
    shm_unlink(seg.name_.c_str());
    fail_errno("ftruncate(" + seg.name_ + ")");
  }
  void* base = mmap(nullptr, hd.total_bytes, PROT_READ | PROT_WRITE,
                    MAP_SHARED, fd, 0);
  close(fd);
  if (base == MAP_FAILED) {
    shm_unlink(seg.name_.c_str());
    fail_errno("mmap(" + seg.name_ + ")");
  }
  seg.base_ = static_cast<unsigned char*>(base);
  seg.size_ = hd.total_bytes;
  seg.owner_ = true;

  // ftruncate zero-fills the mapping, which is already the rings' and
  // cursors' initial state; the header and the slot atomics get formal
  // stores so no thread ever reads an object that was never written.
  std::memcpy(seg.base_, &hd, sizeof hd);
  for (cube::NodeId p = 0; p < seg.num_nodes(); ++p)
    seg.slot(p).state.store(static_cast<std::uint32_t>(SlotState::kIdle),
                            std::memory_order_relaxed);
  return seg;
}

ShmSegment ShmSegment::attach(const std::string& name) {
  const int fd = shm_open(name.c_str(), O_RDWR, 0600);
  if (fd < 0) fail_errno("shm_open(" + name + ")");
  struct stat st{};
  if (fstat(fd, &st) != 0) {
    close(fd);
    fail_errno("fstat(" + name + ")");
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  if (size < sizeof(SegmentHeader)) {
    close(fd);
    throw std::runtime_error("segment " + name + " too small for a header");
  }
  void* base = mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  close(fd);
  if (base == MAP_FAILED) fail_errno("mmap(" + name + ")");

  ShmSegment seg;
  seg.name_ = name;
  seg.base_ = static_cast<unsigned char*>(base);
  seg.size_ = size;
  seg.owner_ = false;
  const auto& hd = seg.header();
  if (std::memcmp(hd.magic, kSegmentMagic, sizeof hd.magic) != 0 ||
      hd.version != kSegmentVersion || hd.total_bytes != size ||
      hd.job.dim < 0 || hd.job.dim > kMaxProcessDim)
    throw std::runtime_error("segment " + name +
                             " has a foreign or corrupt header");
  return seg;
}

ShmSegment::ShmSegment(ShmSegment&& o) noexcept
    : name_(std::move(o.name_)),
      base_(std::exchange(o.base_, nullptr)),
      size_(std::exchange(o.size_, 0)),
      owner_(std::exchange(o.owner_, false)) {}

ShmSegment& ShmSegment::operator=(ShmSegment&& o) noexcept {
  if (this != &o) {
    this->~ShmSegment();
    new (this) ShmSegment(std::move(o));
  }
  return *this;
}

ShmSegment::~ShmSegment() {
  if (base_ != nullptr) munmap(base_, size_);
  if (owner_) shm_unlink(name_.c_str());
}

std::span<WireFault> ShmSegment::faults() {
  return {reinterpret_cast<WireFault*>(at(header().off_faults)), num_nodes()};
}

NodeSlot& ShmSegment::slot(cube::NodeId p) {
  return reinterpret_cast<NodeSlot*>(at(header().off_slots))[p];
}

std::span<WireLinkEvent> ShmSegment::events(cube::NodeId p) {
  const auto cap = header().event_cap;
  auto* base = reinterpret_cast<WireLinkEvent*>(at(header().off_events));
  return {base + static_cast<std::size_t>(p) * cap, cap};
}

std::span<sim::Key> ShmSegment::input() {
  const std::size_t keys = num_nodes() * header().job.block;
  return {reinterpret_cast<sim::Key*>(at(header().off_input)), keys};
}

std::span<sim::Key> ShmSegment::llbs() {
  const std::size_t keys = num_nodes() * header().job.block;
  return {reinterpret_cast<sim::Key*>(at(header().off_llbs)), keys};
}

std::span<sim::Key> ShmSegment::output() {
  const std::size_t keys = num_nodes() * header().job.block;
  return {reinterpret_cast<sim::Key*>(at(header().off_output)), keys};
}

ShmRing ShmSegment::link_ring(cube::NodeId to, int k) {
  const auto& hd = header();
  const std::uint64_t per_node =
      static_cast<std::uint64_t>(hd.job.dim) * ring_footprint(hd.link_ring_bytes) +
      ring_footprint(hd.up_ring_bytes) + ring_footprint(hd.down_ring_bytes);
  std::uint64_t off = hd.off_rings + to * per_node +
                      static_cast<std::uint64_t>(k) *
                          ring_footprint(hd.link_ring_bytes);
  auto* rh = reinterpret_cast<ShmRingHdr*>(at(off));
  return ShmRing(rh, at(off + sizeof(ShmRingHdr)), hd.link_ring_bytes);
}

ShmRing ShmSegment::up_ring(cube::NodeId p) {
  const auto& hd = header();
  const std::uint64_t per_node =
      static_cast<std::uint64_t>(hd.job.dim) * ring_footprint(hd.link_ring_bytes) +
      ring_footprint(hd.up_ring_bytes) + ring_footprint(hd.down_ring_bytes);
  const std::uint64_t off =
      hd.off_rings + p * per_node +
      static_cast<std::uint64_t>(hd.job.dim) * ring_footprint(hd.link_ring_bytes);
  auto* rh = reinterpret_cast<ShmRingHdr*>(at(off));
  return ShmRing(rh, at(off + sizeof(ShmRingHdr)), hd.up_ring_bytes);
}

ShmRing ShmSegment::down_ring(cube::NodeId p) {
  const auto& hd = header();
  const std::uint64_t per_node =
      static_cast<std::uint64_t>(hd.job.dim) * ring_footprint(hd.link_ring_bytes) +
      ring_footprint(hd.up_ring_bytes) + ring_footprint(hd.down_ring_bytes);
  const std::uint64_t off =
      hd.off_rings + p * per_node +
      static_cast<std::uint64_t>(hd.job.dim) * ring_footprint(hd.link_ring_bytes) +
      ring_footprint(hd.up_ring_bytes);
  auto* rh = reinterpret_cast<ShmRingHdr*>(at(off));
  return ShmRing(rh, at(off + sizeof(ShmRingHdr)), hd.down_ring_bytes);
}

}  // namespace aoft::transport
