// Harness plumbing (spans, statistics, resource usage, inputs), the fleet
// runner and the per-layer probes of the traced run.  Every probe checks the
// outputs it times.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "common.h"
#include "hypercube/subcube.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/machine.h"
#include "sort/kernels.h"
#include "sort/predicates.h"
#include "sort/sft.h"
#include "sort/snr.h"
#include "transport/process.h"
#include "transport/shm_segment.h"
#include "util/alloc_hook.h"
#include "util/atomic_file.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace sort = aoft::sort;
namespace fault = aoft::fault;
namespace sim = aoft::sim;
namespace transport = aoft::transport;
namespace util = aoft::util;

// A fleet sort that hangs is killed by the transport's own deadline well
// inside the benchmark's per-run time limit; it then counts as failed.
constexpr double kFleetDeadlineS = 30.0;

// ---- spans ------------------------------------------------------------------

Spans& spans() {
  static Spans s;
  return s;
}

std::int64_t Spans::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Spans::open(const char* name) {
  if (!on_ || suspended_) return -1;
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, now_ns(), -1, parent, op_});
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Spans::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  stack_.pop_back();
}

bool Spans::write(const std::string& path, const std::string& env_json) const {
  std::string out = env_json + "\n";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                  "\"end_ns\":%lld,\"parent\":%d,\"op\":%lld}\n",
                  i, s.name, static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns), s.parent,
                  static_cast<long long>(s.op));
    out += buf;
  }
  std::string err;
  if (!util::write_file_atomic(path, out, &err)) {
    std::cerr << "perfbench: cannot write " << path << ": " << err << "\n";
    return false;
  }
  return true;
}

// ---- statistics, resources, inputs -----------------------------------------

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::logic_error("quantile of no samples");
  std::sort(v.begin(), v.end());
  if (q == 0.5 && v.size() % 2 == 0)
    return 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : rank - 1];
}

namespace {
double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}
rusage usage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return ru;
}
}  // namespace

CpuTimes cpu_times() {
  const rusage self = usage(RUSAGE_SELF);
  const rusage kids = usage(RUSAGE_CHILDREN);
  return {tv_s(self.ru_utime) + tv_s(self.ru_stime),
          tv_s(kids.ru_utime) + tv_s(kids.ru_stime)};
}

double peak_rss_mb_self() {
  return static_cast<double>(usage(RUSAGE_SELF).ru_maxrss) / 1024.0;
}

double peak_rss_mb_children() {
  return static_cast<double>(usage(RUSAGE_CHILDREN).ru_maxrss) / 1024.0;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

const char* to_string(KeyKind k) {
  return k == KeyKind::kUniform ? "uniform" : "few-distinct";
}

std::vector<Key> make_keys(std::uint64_t seed, std::size_t n, KeyKind kind) {
  util::Rng rng(seed);
  std::vector<Key> v(n);
  for (auto& k : v)
    k = kind == KeyKind::kUniform ? static_cast<Key>(rng.next_u64() >> 2)
                                  : static_cast<Key>(rng.next_below(16));
  return v;
}

namespace {
bool g_correct = true;
}

bool run_correct() { return g_correct; }

void check_failed(const std::string& what) {
  if (g_correct) std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
  g_correct = false;
}

std::vector<Key> sorted_copy(std::span<const Key> in) {
  std::vector<Key> v(in.begin(), in.end());
  std::sort(v.begin(), v.end());
  return v;
}

// ---- fleet ------------------------------------------------------------------

int fleet_dim() {
  int d = 0;
  while (d < transport::kMaxProcessDim && (2 << d) <= nproc()) ++d;
  return std::max(d, 1);
}

Fleet::Fleet(std::uint64_t seed, int pool) : dim_(fleet_dim()) {
  const std::size_t n = (std::size_t{1} << dim_) * kFleetBlock;
  for (int k = 0; k < pool; ++k) {
    const auto kind = k % 2 == 0 ? KeyKind::kUniform : KeyKind::kFewDistinct;
    inputs_.push_back(make_keys(util::derive_seed(seed, 2, k, 0), n, kind));
    expected_.push_back(sorted_copy(inputs_.back()));
    oracles_.push_back(run_oracle(inputs_.back(), expected_.back()));
  }
}

Fleet::Oracle Fleet::run_oracle(std::span<const Key> in,
                                const std::vector<Key>& expected) const {
  Oracle o;
  for (int a = 0; a < 2; ++a) {
    const auto t0 = Clock::now();
    sort::SortRun run;
    if (a == 0) {
      ScopedSpan s("sort.run_sft[sim oracle]");
      sort::SftOptions opts;
      opts.block = kFleetBlock;
      run = sort::run_sft(dim_, in, opts);
    } else {
      ScopedSpan s("sort.run_snr[sim oracle]");
      sort::SnrOptions opts;
      opts.block = kFleetBlock;
      run = sort::run_snr(dim_, in, opts);
    }
    o.wall_s[a] = seconds_between(t0, Clock::now());
    if (sort::classify(run, in) != sort::Outcome::kCorrect ||
        run.output != expected)
      check_failed("sim oracle did not sort a fleet input");
    o.out[a] = std::move(run.output);
  }
  return o;
}

OpResult Fleet::run(std::int64_t i, bool fault, bool corrupt) {
  const int c = static_cast<int>(i % 4);
  const FleetConfig& fc = kFleetConfigs[c];
  const auto in_idx = static_cast<std::size_t>(i / 4) % inputs_.size();
  const auto& in = inputs_[in_idx];
  const Oracle& orc = oracles_[in_idx];

  OpResult r;
  r.cls = c;
  r.attempted = 1;
  r.keys = in.size();
  sort::SortRun run;
  auto outcome = sort::Outcome::kFailStop;
  bool threw = false;
  const CpuTimes c0 = cpu_times();
  const auto t0 = Clock::now();
  try {
    ScopedSpan s(fc.fabric == transport::Backend::kShm ? "transport.shm"
                                                       : "transport.tcp");
    if (fc.sft) {
      sort::SftOptions o;
      o.block = kFleetBlock;
      o.backend = fc.fabric;
      o.shm.run_deadline_s = o.tcp.run_deadline_s = kFleetDeadlineS;
      if (fault)
        o.node_faults[0].invert_direction_from = fault::StagePoint{0, 0};
      run = sort::run_sft(dim_, in, o);
    } else {
      sort::SnrOptions o;
      o.block = kFleetBlock;
      o.backend = fc.fabric;
      o.shm.run_deadline_s = o.tcp.run_deadline_s = kFleetDeadlineS;
      run = sort::run_snr(dim_, in, o);
    }
    ScopedSpan cl("sort.classify");
    outcome = sort::classify(run, in);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: fleet " << fc.name << " threw: " << e.what() << "\n";
    threw = true;
  }
  const auto t1 = Clock::now();
  const CpuTimes c1 = cpu_times();
  r.wall_s = seconds_between(t0, t1);
  const double child_cpu = c1.children_s - c0.children_s;
  r.cpu_s = (c1.self_s - c0.self_s) + child_cpu;

  ScopedSpan chk("check");
  if (corrupt && !run.output.empty()) run.output[0] ^= 1;
  if (threw || outcome == sort::Outcome::kFailStop) {
    r.failed = 1;  // counted, never retried
  } else {
    if (run.output != expected_[in_idx])
      check_failed(std::string("fleet ") + fc.name +
                   " output differs from std::sort of its input");
    else if (run.output != orc.out[fc.sft ? 0 : 1])
      check_failed(std::string("fleet ") + fc.name +
                   " output differs from the sim oracle");
  }
  PerConfig& pc = per_[c];
  pc.wall.push_back(r.wall_s);
  pc.overhead.push_back(r.wall_s - orc.wall_s[fc.sft ? 0 : 1]);
  pc.child_cpu += child_cpu;
  return r;
}

void Fleet::clear_stats() {
  for (auto& pc : per_) pc = PerConfig{};
}

void Fleet::report(Metrics& out) const {
  double child_cpu[2] = {0, 0};
  std::size_t sorts[2] = {0, 0};
  for (int c = 0; c < 4; ++c) {
    const std::string base = std::string("transport.") + kFleetConfigs[c].name;
    out.add(base + ".sort_s_p50", median(per_[c].wall), "s");
    out.add(base + ".overhead_s", median(per_[c].overhead), "s");
    const int f = kFleetConfigs[c].fabric == transport::Backend::kShm ? 0 : 1;
    child_cpu[f] += per_[c].child_cpu;
    sorts[f] += per_[c].wall.size();
  }
  out.add("transport.shm.child_cpu_s_per_sort",
          child_cpu[0] / static_cast<double>(sorts[0]), "s");
  out.add("transport.tcp.child_cpu_s_per_sort",
          child_cpu[1] / static_cast<double>(sorts[1]), "s");
  out.add("transport.child_peak_rss_mb", peak_rss_mb_children(), "MB");
}

void probe_transport(Metrics& out, std::uint64_t seed) {
  Fleet f(seed, 2);
  for (std::int64_t i = 0; i < 16; ++i) f.run(i, false, false);
  f.report(out);
}

// ---- transport: process lifecycle floor ------------------------------------

void probe_spawn(Metrics& out, int dim) {
  transport::ShmSegment::Config cfg;
  cfg.dim = dim;
  auto seg = transport::ShmSegment::create(cfg);
  std::vector<double> t;
  for (int k = 0; k < 10; ++k) {
    ScopedSpan s("transport.spawn_reap");
    const auto t0 = Clock::now();
    transport::ShmParent parent(seg);
    parent.spawn_fork([](aoft::cube::NodeId) { return 0; });
    parent.await_all();
    t.push_back(seconds_between(t0, Clock::now()));
  }
  out.add("transport.spawn_reap_s", median(t), "s");
}

// ---- sim: counts, allocations, machine life cycle ---------------------------

void probe_sim(Metrics& out, int dim, std::size_t m, std::uint64_t seed,
               int sorts) {
  const aoft::cube::Topology topo(dim);
  std::vector<double> t_new;
  for (int k = 0; k < 5; ++k) {
    ScopedSpan s("sim.machine_new");
    const auto t0 = Clock::now();
    sim::Machine mach(topo, sim::CostModel{});
    t_new.push_back(seconds_between(t0, Clock::now()));
  }
  sim::Machine mach(topo, sim::CostModel{});
  std::vector<double> t_reset;
  double msgs = 0, words = 0, ticks = 0, allocs = 0;
  const std::size_t n = topo.num_nodes() * m;
  for (int s = 0; s <= sorts; ++s) {
    const auto kind = s % 2 == 0 ? KeyKind::kUniform : KeyKind::kFewDistinct;
    const auto in = make_keys(util::derive_seed(seed, 3, s, 0), n, kind);
    if (s > 0) {
      ScopedSpan sp("sim.machine_reset");
      const auto t0 = Clock::now();
      mach.reset();
      t_reset.push_back(seconds_between(t0, Clock::now()));
    }
    sort::SftOptions opts;
    opts.block = m;
    opts.machine = &mach;
    const std::uint64_t a0 = util::alloc_count();
    sort::SortRun run;
    {
      ScopedSpan sp("sort.run_sft");
      run = sort::run_sft(dim, in, opts);
    }
    const std::uint64_t a1 = util::alloc_count();
    if (sort::classify(run, in) != sort::Outcome::kCorrect ||
        run.output != sorted_copy(in))
      check_failed("sim probe sort is not correct");
    if (s == 0) continue;  // the first sort warms the machine's pools
    msgs += static_cast<double>(run.summary.total_msgs);
    words += static_cast<double>(run.summary.total_words);
    ticks += run.summary.elapsed;
    allocs += static_cast<double>(a1 - a0);
  }
  const double k = sorts;
  out.add("sim.msgs_per_sort", msgs / k, "count");
  out.add("sim.words_per_sort", words / k, "count");
  out.add("sim.ticks_per_sort", ticks / k, "ticks");
  out.add("sim.machine_new_s", median(t_new), "s");
  out.add("sim.machine_reset_s", median(t_reset), "s");
  out.add("sort.allocs_per_sort", allocs / k, "count");
}

// ---- predicates: Φ_P / Φ_F replayed on every stage snapshot ----------------

void probe_predicates(Metrics& out, int dim, std::size_t m, std::uint64_t seed) {
  const std::size_t n = (std::size_t{1} << dim) * m;
  double phi_p_s = 0, phi_f_s = 0, sort_s = 0;
  int sorts = 0;
  for (const auto kind : {KeyKind::kUniform, KeyKind::kFewDistinct}) {
    const auto in = make_keys(util::derive_seed(seed, 4, sorts, 0), n, kind);
    const auto expected = sorted_copy(in);
    sort::SftOptions opts;
    opts.block = m;
    {
      ScopedSpan s("sort.run_sft");
      const auto t0 = Clock::now();
      const auto run = sort::run_sft(dim, in, opts);
      sort_s += seconds_between(t0, Clock::now());
      if (sort::classify(run, in) != sort::Outcome::kCorrect ||
          run.output != expected)
        check_failed("predicate probe sort is not correct");
    }
    opts.observer = [&](const sort::StageSnapshot& snap) {
      if (snap.stage == 0) return;  // no bit_compare before stage 1
      const bool final_stage = snap.stage == dim;
      const auto inner = final_stage ? snap.window
                                     : aoft::cube::home_subcube(snap.stage, snap.node);
      const bool asc =
          final_stage || aoft::cube::subcube_sorted_ascending(snap.stage, snap.node);
      const std::size_t off = static_cast<std::size_t>(inner.start - snap.window.start) * m;
      const std::size_t len = static_cast<std::size_t>(inner.size()) * m;
      const std::span<const Key> lbs(snap.lbs_window), llbs(snap.llbs_window);
      // No span per call: at the campaign's window sizes a span costs as
      // much as the predicate it would wrap.
      const auto t0 = Clock::now();
      const auto vp = sort::phi_p(lbs, final_stage);
      const auto t1 = Clock::now();
      const auto vf = sort::phi_f(llbs.subspan(off, len), lbs.subspan(off, len), asc);
      const auto t2 = Clock::now();
      phi_p_s += seconds_between(t0, t1);
      phi_f_s += seconds_between(t1, t2);
      if (vp || vf) check_failed("a predicate rejected an honest stage snapshot");
    };
    ScopedSpan s("sort.run_sft[observer]");
    const auto run = sort::run_sft(dim, in, opts);
    if (run.output != expected) check_failed("observed sort is not correct");
    ++sorts;
  }
  out.add("predicates.phi_p_s_per_sort", phi_p_s / sorts, "s");
  out.add("predicates.phi_f_s_per_sort", phi_f_s / sorts, "s");
  out.add("predicates.share", (phi_p_s + phi_f_s) / sort_s, "ratio");
}

// ---- kernels at the workload's window sizes ---------------------------------

void probe_kernels(Metrics& out, int dim, std::size_t m, std::uint64_t seed) {
  namespace kn = sort::kernels;
  // Enough repetitions per (kernel, size) that the clock's resolution does
  // not matter, even for the 2-key windows of the campaign cube.
  constexpr std::size_t kKeysPerSize = std::size_t{1} << 22;
  double ns[4] = {0, 0, 0, 0};
  double keys = 0;
  std::uint64_t sink = 0;
  const char* names[4] = {"kernels.phi_f_scan", "kernels.run_break",
                          "kernels.mismatch", "kernels.merge"};
  for (int k = 1; k <= dim; ++k) {
    const std::size_t n = (std::size_t{1} << k) * m;  // stage window size
    const std::size_t h = n / 2;
    auto asc = make_keys(util::derive_seed(seed, 5, k, 0), n, KeyKind::kUniform);
    std::sort(asc.begin(), asc.end());
    const std::vector<Key> copy = asc;
    // The two sorted halves merge back into `asc`; the bitonic LLBS (lower
    // half ascending, upper half descending) has `asc` as its sorted LBS.
    const std::span<const Key> lo(asc.data(), h), hi(asc.data() + h, n - h);
    std::vector<Key> bitonic = asc;
    std::reverse(bitonic.begin() + static_cast<std::ptrdiff_t>(h), bitonic.end());
    std::vector<Key> merged(n);
    const std::size_t reps = std::max<std::size_t>(1, kKeysPerSize / n);
    keys += static_cast<double>(reps * n);
    for (int kid = 0; kid < 4; ++kid) {
      ScopedSpan s(names[kid]);
      const auto t0 = Clock::now();
      for (std::size_t r = 0; r < reps; ++r) {
        switch (kid) {
          case 0: sink += static_cast<std::uint64_t>(kn::phi_f_scan(bitonic, asc, true) + 1); break;
          case 1: sink += kn::run_break(asc, true) - n; break;
          case 2: sink += kn::mismatch(asc, copy) - n; break;
          case 3:
            kn::merge(lo, hi, true, merged);
            sink += static_cast<std::uint64_t>(merged[r % n] - asc[r % n]);
            break;
        }
      }
      ns[kid] += 1e9 * seconds_between(t0, Clock::now());
    }
  }
  if (sink != 0) check_failed("a kernel returned a wrong result on a clean input");
  for (int kid = 0; kid < 4; ++kid)
    out.add(std::string(names[kid]) + "_ns_per_key", ns[kid] / keys, "ns/key");
}

// ---- campaign ---------------------------------------------------------------

fault::CampaignConfig campaign_config(std::uint64_t seed, int runs_per_class,
                                      int jobs) {
  fault::CampaignConfig cfg;
  cfg.dim = kCampaignDim;
  cfg.runs_per_class = runs_per_class;
  cfg.seed = seed;
  cfg.jobs = jobs;
  return cfg;
}

namespace {

bool same_result(const fault::ScenarioResult& a, const fault::ScenarioResult& b) {
  return a.scenario == b.scenario && a.outcome == b.outcome &&
         a.fault_exercised == b.fault_exercised &&
         a.first_detector == b.first_detector &&
         a.detection_stage == b.detection_stage &&
         a.faults_fired == b.faults_fired;
}

bool same_tallies(const std::vector<fault::ClassTally>& a,
                  const std::vector<fault::ClassTally>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].fclass != b[i].fclass || a[i].runs != b[i].runs ||
        a[i].detected != b[i].detected || a[i].masked != b[i].masked ||
        a[i].silent_wrong != b[i].silent_wrong ||
        a[i].attempts != b[i].attempts || a[i].dropped != b[i].dropped ||
        a[i].multi_fired != b[i].multi_fired)
      return false;
  return true;
}

bool same_summary(const fault::CampaignSummary& a,
                  const fault::CampaignSummary& b) {
  if (!same_tallies(a.sft, b.sft) || !same_tallies(a.snr, b.snr) ||
      a.runs.size() != b.runs.size() || a.slots_total != b.slots_total ||
      a.slots_done != b.slots_done)
    return false;
  for (std::size_t i = 0; i < a.runs.size(); ++i)
    if (!same_result(a.runs[i], b.runs[i])) return false;
  return true;
}

}  // namespace

std::vector<double> check_campaign(const fault::CampaignSummary& s,
                                   const fault::CampaignConfig& cfg,
                                   int replays) {
  if (s.slots_done != s.slots_total || s.runs.empty() ||
      s.snr.size() != s.sft.size()) {
    check_failed("campaign did not complete every slot");
    return {};
  }
  // Every S_FT slot ran or was dropped; S_NR contrasts only exercised slots.
  std::size_t sft_runs = 0;
  for (std::size_t c = 0; c < s.sft.size(); ++c) {
    const auto& t = s.sft[c];
    const auto& u = s.snr[c];
    sft_runs += static_cast<std::size_t>(t.runs);
    if (t.runs + t.dropped != cfg.runs_per_class ||
        t.detected + t.masked + t.silent_wrong != t.runs || u.runs > t.runs ||
        u.detected + u.masked + u.silent_wrong != u.runs)
      check_failed(std::string("campaign tally does not add up for ") +
                   fault::to_string(t.fclass));
  }
  if (sft_runs != s.runs.size())
    check_failed("campaign run list does not match its tallies");
  for (const auto& t : s.sft)
    if (t.silent_wrong != 0)
      check_failed(std::string("S_FT silent-wrong under ") +
                   fault::to_string(t.fclass));
  std::vector<double> t;
  for (int k = 0; k < replays; ++k) {
    const auto& rec = s.runs[static_cast<std::size_t>(k) * s.runs.size() /
                             static_cast<std::size_t>(replays)];
    ScopedSpan sp("fault.run_scenario_sft");
    const auto t0 = Clock::now();
    const auto again = fault::run_scenario_sft(rec.scenario, cfg);
    t.push_back(seconds_between(t0, Clock::now()));
    if (!same_result(again, rec))
      check_failed("a replayed campaign slot changed its outcome");
  }
  return t;
}

void probe_campaign(Metrics& out, std::uint64_t seed, int runs_per_class) {
  const int jobs = nproc();
  const auto cfg = campaign_config(util::derive_seed(seed, 6, 0, 0),
                                   runs_per_class, jobs);
  const auto timed = [](const fault::CampaignConfig& c, const char* name,
                        double* secs, std::uint64_t* allocs) {
    ScopedSpan s(name);
    const std::uint64_t a0 = util::alloc_count();
    const auto t0 = Clock::now();
    auto summary = fault::run_campaign(c);
    *secs = seconds_between(t0, Clock::now());
    if (allocs) *allocs = util::alloc_count() - a0;
    return summary;
  };
  double par_s = 0, ser_s = 0, traced_s = 0;
  std::uint64_t allocs = 0;
  const auto par = timed(cfg, "fault.run_campaign", &par_s, &allocs);
  check_campaign(par, cfg, 0);

  aoft::obs::Tracer tracer;
  aoft::obs::MetricsRegistry registry;
  auto traced_cfg = cfg;
  traced_cfg.tracer = &tracer;
  traced_cfg.metrics = &registry;
  const auto traced = timed(traced_cfg, "fault.run_campaign[obs]", &traced_s, nullptr);

  auto serial_cfg = cfg;
  serial_cfg.jobs = 1;
  const auto serial = timed(serial_cfg, "fault.run_campaign[jobs=1]", &ser_s, nullptr);
  if (!same_summary(par, traced) || !same_summary(par, serial))
    check_failed("campaign summaries differ between traced, serial and parallel runs");

  // Serial scenario latencies on the campaign's own scenarios.
  const int replays = std::min<int>(200, static_cast<int>(par.runs.size()));
  const auto sft_t = check_campaign(par, cfg, replays);
  std::vector<double> snr_t;
  for (int k = 0; k < replays; ++k) {
    const auto& sc = par.runs[static_cast<std::size_t>(k) * par.runs.size() /
                              static_cast<std::size_t>(replays)].scenario;
    ScopedSpan sp("fault.run_scenario_snr");
    const auto t0 = Clock::now();
    fault::run_scenario_snr(sc, cfg);
    snr_t.push_back(seconds_between(t0, Clock::now()));
  }

  long long executed = 0, attempts = 0;
  int detected = 0, masked = 0, dropped = 0, silent = 0;
  for (const auto& t : par.sft) {
    attempts += t.attempts;
    detected += t.detected;
    masked += t.masked;
    dropped += t.dropped;
    silent += t.silent_wrong;
  }
  executed = attempts;
  for (const auto& t : par.snr) executed += t.runs;
  out.add("campaign.sft_scenario_s_p50", median(sft_t), "s");
  out.add("campaign.snr_scenario_s_p50", median(snr_t), "s");
  out.add("campaign.parallel_efficiency", ser_s / (jobs * par_s), "ratio");
  out.add("campaign.allocs_per_scenario",
          static_cast<double>(allocs) / static_cast<double>(executed), "count");
  out.add("campaign.detected", detected, "count");
  out.add("campaign.masked", masked, "count");
  out.add("campaign.dropped", dropped, "count");
  out.add("campaign.attempts", static_cast<double>(attempts), "count");
  out.add("campaign.silent_wrong", silent, "count");
  out.add("obs.trace_overhead", traced_s / par_s - 1.0, "ratio");
  out.add("obs.trace_events", static_cast<double>(tracer.size()), "count");
}

void probe_thread_pool(Metrics& out) {
  std::vector<double> t;
  for (int k = 0; k < 5; ++k) {
    ScopedSpan s("util.thread_pool");
    const auto t0 = Clock::now();
    util::ThreadPool pool(nproc());
    pool.wait_idle();
    t.push_back(seconds_between(t0, Clock::now()));
  }
  out.add("util.thread_pool_cycle_s", median(t), "s");
}

}  // namespace perfbench
