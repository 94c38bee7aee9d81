// Shared pieces of the perfbench harness: clocks, harness-side spans,
// metric records, resource usage, input generation and the fleet runner that
// both the `fleet` workload and the transport probe of the other workloads
// drive.

#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fault/campaign.h"
#include "sort/driver.h"
#include "transport/backend.h"

namespace perfbench {

using aoft::sim::Key;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- harness-side spans -----------------------------------------------------

// One call into a layer, timed from the harness: name, start, end (ns since
// the recorder was enabled), the enclosing span (-1 for a root) and the
// operation it belongs to (-1 outside the timed loop).
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;
  std::int64_t op;
};

// Process-wide span recorder.  Off unless --trace 1; when off a ScopedSpan
// costs one branch.  Spans stay in memory and are written out at exit.
class Spans {
 public:
  void enable() {
    on_ = true;
    origin_ = Clock::now();
  }
  bool on() const { return on_; }
  // Spans opened while suspended are not recorded (the untraced half of the
  // span-overhead comparison).
  void suspend(bool s) { suspended_ = s; }
  void set_op(std::int64_t op) { op_ = op; }

  int open(const char* name);
  void close(int id);

  // JSON lines: the environment record first, then one span per line.
  bool write(const std::string& path, const std::string& env_json) const;

 private:
  std::int64_t now_ns() const;

  bool on_ = false;
  bool suspended_ = false;
  Clock::time_point origin_{};
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::int64_t op_ = -1;
};

Spans& spans();

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : id_(spans().open(name)) {}
  ~ScopedSpan() { spans().close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

// ---- metrics and statistics -------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

double median(std::vector<double> v);
// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

// Harness CPU time (all threads) and reaped children's CPU time.
struct CpuTimes {
  double self_s = 0;
  double children_s = 0;
};
CpuTimes cpu_times();
double peak_rss_mb_self();
double peak_rss_mb_children();  // largest reaped child

// ---- inputs -----------------------------------------------------------------

enum class KeyKind { kUniform, kFewDistinct };
const char* to_string(KeyKind k);
// Uniform 62-bit keys, or keys from a 16-letter alphabet (duplicate-heavy).
std::vector<Key> make_keys(std::uint64_t seed, std::size_t n, KeyKind kind);

std::vector<Key> sorted_copy(std::span<const Key> in);

// A failed check of an output: the run is not correct.  The harness stops
// its loop, still prints its result (with "correct": false) and exits 1.
void check_failed(const std::string& what);
bool run_correct();

// CPUs this process may run on (sched_getaffinity), as `nproc` reports.
int nproc();

// ---- one timed operation ----------------------------------------------------

struct OpResult {
  int cls = 0;              // op class: input kind, (algo, fabric) or campaign
  double wall_s = 0;        // input ready -> classified output
  double cpu_s = 0;         // harness + children CPU during the op
  std::uint64_t keys = 0;   // keys sorted
  std::uint64_t attempted = 0;  // sorts or campaign slots
  std::uint64_t failed = 0;
};

// ---- fleet runner -----------------------------------------------------------

// Fleet size from the sizing rule: one node process per CPU (2^dim <= nproc).
int fleet_dim();
inline constexpr std::size_t kFleetBlock = 16384;

struct FleetConfig {
  bool sft;
  aoft::transport::Backend fabric;
  const char* name;  // transport.<fabric>.<algo>
};
inline constexpr FleetConfig kFleetConfigs[4] = {
    {true, aoft::transport::Backend::kShm, "shm.sft"},
    {true, aoft::transport::Backend::kTcp, "tcp.sft"},
    {false, aoft::transport::Backend::kShm, "shm.snr"},
    {false, aoft::transport::Backend::kTcp, "tcp.snr"},
};

// Round-robin over the four (algo, fabric) pairs on a pool of inputs; every
// output is compared with std::sort of its input and byte for byte with the
// simulator oracle's output on the same input.  The constructor generates the
// inputs and runs their oracles (set-up work).
class Fleet {
 public:
  Fleet(std::uint64_t seed, int pool);
  // Op i runs kFleetConfigs[i % 4] on input (i / 4) % pool.  `fault` injects
  // an honest-run fail-stop (self-test); `corrupt` flips one output key
  // before the check (self-test).
  OpResult run(std::int64_t i, bool fault, bool corrupt);
  // transport.* per-layer metrics over every op run since clear_stats().
  void report(Metrics& out) const;
  void clear_stats();
  int dim() const { return dim_; }

 private:
  // The simulator's output and wall time for one input: [sft, snr].
  struct Oracle {
    std::vector<Key> out[2];
    double wall_s[2] = {0, 0};
  };
  struct PerConfig {
    std::vector<double> wall, overhead;
    double child_cpu = 0;
  };
  Oracle run_oracle(std::span<const Key> in, const std::vector<Key>& expected) const;

  int dim_;
  std::vector<std::vector<Key>> inputs_, expected_;
  std::vector<Oracle> oracles_;
  PerConfig per_[4];
};

// ---- per-layer probes (probes.cpp) -----------------------------------------

void probe_kernels(Metrics& out, int dim, std::size_t m, std::uint64_t seed);
void probe_predicates(Metrics& out, int dim, std::size_t m, std::uint64_t seed);
void probe_sim(Metrics& out, int dim, std::size_t m, std::uint64_t seed,
               int sorts);
// Sixteen fleet sorts (four rounds of the four pairs) for workloads that do
// not run the fleet themselves.
void probe_transport(Metrics& out, std::uint64_t seed);
void probe_spawn(Metrics& out, int dim);
void probe_campaign(Metrics& out, std::uint64_t seed, int runs_per_class);
void probe_thread_pool(Metrics& out);

inline constexpr int kCampaignDim = 6;
inline constexpr int kCampaignRuns = 2000;  // per class
aoft::fault::CampaignConfig campaign_config(std::uint64_t seed, int runs_per_class,
                                           int jobs);

// Check a finished campaign: tallies add up, S_FT is never silent-wrong, and
// `replays` evenly spaced S_FT slots re-run serially reproduce their recorded
// outcome.  Returns each replay's wall time (empty when replays == 0).
std::vector<double> check_campaign(const aoft::fault::CampaignSummary& s,
                                   const aoft::fault::CampaignConfig& cfg,
                                   int replays);

}  // namespace perfbench
