// perfbench harness: one closed loop (one caller, one operation in flight)
// over a workload, timed from outside the libraries.
//
//   perfbench_harness --workload sim-sft|fleet|campaign --seed N --seconds S
//                     --trace 0|1 [--out-dir DIR] [--self-test corrupt|failstop]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same loop with
// harness spans on, then the per-layer probes, and prints the per-layer
// metrics (spans are written to DIR/spans-<workload>-<seed>.jsonl).  Every
// timed output is checked; the last stdout line is the JSON result, and the
// exit code is 0 iff every check passed.  perfbench/README.md documents the
// workloads and metrics.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>

#include "common.h"
#include "sim/machine.h"
#include "sort/kernels.h"
#include "sort/sft.h"
#include "util/alloc_hook.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace sort = aoft::sort;
namespace fault = aoft::fault;
namespace util = aoft::util;

constexpr int kSetups = 3;  // setup_s is the median of this many set-ups

class Workload {
 public:
  virtual ~Workload() = default;
  // Op classes the loop rotates through; sort_s_p50 averages their medians.
  virtual int classes() const = 0;
  virtual std::string class_name(int c) const = 0;
  // Inputs, machines and a checked warm-up operation.
  virtual void setup() = 0;
  // One timed operation plus its (untimed) output check.
  virtual OpResult run(std::int64_t i, bool fault, bool corrupt) = 0;
  // Per-layer probes of the traced run.
  virtual void layers(Metrics& out) = 0;
};

// S_FT on the simulator at dim 8, m = 256: predicates, kernels, gossip and
// the O(N^2 m) LBS state; no transport.
class SimSft final : public Workload {
 public:
  static constexpr int kDim = 8;
  static constexpr std::size_t kBlock = 256;

  explicit SimSft(std::uint64_t seed) : seed_(seed) {}
  int classes() const override { return 2; }
  std::string class_name(int c) const override {
    return to_string(static_cast<KeyKind>(c));
  }

  void setup() override {
    const std::size_t n = (std::size_t{1} << kDim) * kBlock;
    for (int k = 0; k < 4; ++k) {
      inputs_.push_back(make_keys(util::derive_seed(seed_, 1, k, 0), n,
                                  static_cast<KeyKind>(k % 2)));
      expected_.push_back(sorted_copy(inputs_.back()));
    }
    machine_ = std::make_unique<aoft::sim::Machine>(aoft::cube::Topology(kDim),
                                                    aoft::sim::CostModel{});
    run(0, false, false);
  }

  OpResult run(std::int64_t i, bool fault, bool corrupt) override {
    const auto idx = static_cast<std::size_t>(i) % inputs_.size();
    const auto& in = inputs_[idx];
    OpResult r;
    r.cls = static_cast<int>(idx % 2);
    r.attempted = 1;
    r.keys = in.size();
    sort::SftOptions opts;
    opts.block = kBlock;
    opts.machine = machine_.get();
    if (fault) opts.node_faults[0].invert_direction_from = fault::StagePoint{0, 0};
    sort::SortRun run;
    auto outcome = sort::Outcome::kFailStop;
    bool threw = false;
    const CpuTimes c0 = cpu_times();
    const auto t0 = Clock::now();
    try {
      ScopedSpan s("sort.run_sft");
      run = sort::run_sft(kDim, in, opts);
      ScopedSpan cl("sort.classify");
      outcome = sort::classify(run, in);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: run_sft threw: " << e.what() << "\n";
      threw = true;
    }
    const auto t1 = Clock::now();
    const CpuTimes c1 = cpu_times();
    r.wall_s = seconds_between(t0, t1);
    r.cpu_s = (c1.self_s - c0.self_s) + (c1.children_s - c0.children_s);

    ScopedSpan chk("check");
    if (corrupt && !run.output.empty()) run.output[0] ^= 1;
    if (threw || outcome == sort::Outcome::kFailStop)
      r.failed = 1;  // counted, never retried
    else if (run.output != expected_[idx])
      check_failed("sim-sft output differs from std::sort of its input");
    return r;
  }

  void layers(Metrics& out) override {
    // Hand the loop's memory back before the probes fork node processes, so
    // the transport numbers do not price copying a 0.5 GB address space.
    machine_.reset();
    inputs_ = {};
    expected_ = {};
    malloc_trim(0);
    probe_transport(out, seed_);
    probe_spawn(out, fleet_dim());
    probe_sim(out, kDim, kBlock, seed_, 2);
    probe_predicates(out, kDim, kBlock, seed_);
    probe_kernels(out, kDim, kBlock, seed_);
    probe_campaign(out, seed_, 100);
    probe_thread_pool(out);
  }

 private:
  std::uint64_t seed_;
  std::vector<std::vector<Key>> inputs_, expected_;
  std::unique_ptr<aoft::sim::Machine> machine_;
};

// One node process per CPU, m = 16384, fork mode, round-robin over
// (sft|snr) x (shm|tcp): spawn, rendezvous, framing, waits and heartbeats.
class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(std::uint64_t seed) : seed_(seed) {}
  int classes() const override { return 4; }
  std::string class_name(int c) const override { return kFleetConfigs[c].name; }

  void setup() override {
    fleet_ = std::make_unique<Fleet>(seed_, 8);
    for (std::int64_t i = 0; i < 4; ++i) fleet_->run(i, false, false);
    fleet_->clear_stats();
  }

  OpResult run(std::int64_t i, bool fault, bool corrupt) override {
    return fleet_->run(i, fault, corrupt);
  }

  void layers(Metrics& out) override {
    fleet_->report(out);
    probe_spawn(out, fleet_->dim());
    probe_sim(out, fleet_->dim(), kFleetBlock, seed_, 4);
    probe_predicates(out, fleet_->dim(), kFleetBlock, seed_);
    probe_kernels(out, fleet_->dim(), kFleetBlock, seed_);
    probe_campaign(out, seed_, 100);
    probe_thread_pool(out);
  }

 private:
  std::uint64_t seed_;
  std::unique_ptr<Fleet> fleet_;
};

// A scripted campaign at dim 6 with kCampaignRuns runs per class and one
// worker per CPU: small cubes, fail-stop paths, warm per-worker machines.
class CampaignWorkload final : public Workload {
 public:
  explicit CampaignWorkload(std::uint64_t seed) : seed_(seed) {}
  int classes() const override { return 1; }
  std::string class_name(int) const override { return "campaign"; }

  void setup() override {
    const auto cfg = campaign_config(util::derive_seed(seed_, 7, 0, 0), 100, nproc());
    ScopedSpan s("fault.run_campaign[warm-up]");
    check_campaign(fault::run_campaign(cfg), cfg, 0);
  }

  // Campaign slots are fault runs by design, so the fail-stop self-test has
  // no honest run to inject into here.
  OpResult run(std::int64_t i, bool /*fault*/, bool corrupt) override {
    const auto cfg = campaign_config(util::derive_seed(seed_, 8, i, 0),
                                     kCampaignRuns, nproc());
    OpResult r;
    fault::CampaignSummary s;
    bool threw = false;
    const CpuTimes c0 = cpu_times();
    const auto t0 = Clock::now();
    try {
      ScopedSpan sp("fault.run_campaign");
      s = fault::run_campaign(cfg);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: run_campaign threw: " << e.what() << "\n";
      threw = true;
    }
    const auto t1 = Clock::now();
    const CpuTimes c1 = cpu_times();
    r.wall_s = seconds_between(t0, t1);
    r.cpu_s = (c1.self_s - c0.self_s) + (c1.children_s - c0.children_s);
    const std::size_t n = std::size_t{1} << kCampaignDim;
    r.attempted = static_cast<std::uint64_t>(kCampaignRuns) *
                  fault::active_classes(kCampaignDim).size();
    if (threw) {
      r.failed = r.attempted;
      return r;
    }
    std::uint64_t sorts = 0;
    for (const auto& t : s.sft) {
      sorts += static_cast<std::uint64_t>(t.attempts);
      r.failed += static_cast<std::uint64_t>(t.silent_wrong);
    }
    for (const auto& t : s.snr) sorts += static_cast<std::uint64_t>(t.runs);
    r.keys = sorts * n * cfg.block;
    // Self-test: the first slot is always among the replayed ones.
    if (corrupt && !s.runs.empty()) s.runs.front().faults_fired += 1;

    ScopedSpan chk("check");
    check_campaign(s, cfg, 64);
    return r;
  }

  void layers(Metrics& out) override {
    probe_transport(out, seed_);
    probe_spawn(out, fleet_dim());
    probe_sim(out, kCampaignDim, 1, seed_, 20);
    probe_predicates(out, kCampaignDim, 1, seed_);
    probe_kernels(out, kCampaignDim, 1, seed_);
    probe_campaign(out, seed_, 500);
    probe_thread_pool(out);
  }

 private:
  std::uint64_t seed_;
};

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed) {
  if (name == "sim-sft") return std::make_unique<SimSft>(seed);
  if (name == "fleet") return std::make_unique<FleetWorkload>(seed);
  if (name == "campaign") return std::make_unique<CampaignWorkload>(seed);
  return nullptr;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
  std::string self_test;  // "", "corrupt" or "failstop"
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_harness: " << why
            << "\nusage: perfbench_harness --workload sim-sft|fleet|campaign "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--self-test corrupt|failstop]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i], val;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      val = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      val = argv[++i];
    } else {
      usage("missing value for " + key);
    }
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (!(a.seconds > 0)) usage("--seconds must be > 0");
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace must be 0 or 1");
      a.trace = val == "1";
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else if (key == "--self-test") {
      if (val != "corrupt" && val != "failstop") usage("bad --self-test");
      a.self_test = val;
    } else {
      usage("unknown argument " + key);
    }
    if (end != nullptr && (val.empty() || *end != '\0'))
      usage("bad number for " + key);
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

std::string env_json(const Args& a) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"nproc\":%d,\"simd\":\"%s\",\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"alloc_hook\":%s}",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0, nproc(),
      aoft::util::simd::to_string(sort::kernels::active_path()),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      util::alloc_hook_active() ? "true" : "false");
  return buf;
}

// Traced and suspended rounds alternate in pairs, so that inputs that
// alternate per round reach both halves.
bool traced_round(std::size_t round) { return (round / 2) % 2 == 0; }

// Wall times per op class, of the ops whose round `keep` accepts.
template <class Keep>
std::vector<std::vector<double>> by_class(const std::vector<OpResult>& ops,
                                          int classes, Keep keep) {
  std::vector<std::vector<double>> v(static_cast<std::size_t>(classes));
  for (std::size_t i = 0; i < ops.size(); ++i)
    if (keep(i / static_cast<std::size_t>(classes)))
      v[static_cast<std::size_t>(ops[i].cls)].push_back(ops[i].wall_s);
  return v;
}

int main_impl(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (!make_workload(args.workload, args.seed))
    usage("unknown workload " + args.workload);
  const std::string env = env_json(args);
  std::cout << "env " << env << "\n";
  if (args.trace) spans().enable();

  // Set-up, several times: inputs, machines, pools and a checked warm-up.
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups && run_correct(); ++k) {
    w.reset();
    ScopedSpan s("setup");
    const auto t0 = Clock::now();
    w = make_workload(args.workload, args.seed);
    w->setup();
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Closed loop: whole rounds over the op classes until --seconds is spent.
  // In the traced run every other pair of rounds has its spans suspended, so
  // the span overhead is measured inside one process on the same inputs.
  std::vector<OpResult> ops;
  const int classes = w->classes();
  const auto loop_t0 = Clock::now();
  for (std::int64_t i = 0; run_correct(); ++i) {
    if (i % classes == 0 &&
        seconds_between(loop_t0, Clock::now()) >= args.seconds)
      break;
    spans().set_op(i);
    spans().suspend(args.trace &&
                    !traced_round(static_cast<std::size_t>(i / classes)));
    ScopedSpan s("op");
    ops.push_back(w->run(i, args.self_test == "failstop" && i == 0,
                         args.self_test == "corrupt" && i == 0));
  }
  spans().suspend(false);
  spans().set_op(-1);

  double wall = 0, cpu = 0;
  std::uint64_t keys = 0, attempted = 0, failed = 0;
  for (const auto& r : ops) {
    wall += r.wall_s;
    cpu += r.cpu_s;
    keys += r.keys;
    attempted += r.attempted;
    failed += r.failed;
  }
  const auto cls = by_class(ops, classes, [](std::size_t) { return true; });
  double p50 = 0;
  for (const auto& v : cls) p50 += v.empty() ? 0 : median(v) / classes;

  Metrics e2e;
  e2e.add("sort_s_p50", p50, "s");
  e2e.add("keys_per_s", static_cast<double>(keys) / wall, "1/s");
  e2e.add("scenarios_per_s", static_cast<double>(attempted) / wall, "1/s");
  e2e.add("setup_s", median(setup_s), "s");
  e2e.add("peak_rss_mb", peak_rss_mb_self(), "MB");
  e2e.add("cpu_s_per_op", cpu / static_cast<double>(attempted), "s");

  std::printf("workload %s: %zu ops, %llu attempted, %llu failed "
              "(failed_frac = %.6f), %d set-ups\n",
              args.workload.c_str(), ops.size(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<int>(setup_s.size()));
  for (int c = 0; c < classes; ++c) {
    const auto& v = cls[static_cast<std::size_t>(c)];
    if (v.empty()) continue;
    std::printf("  %-14s n=%-4zu p50 = %.6f s", w->class_name(c).c_str(),
                v.size(), median(v));
    // The highest percentile with at least 10 samples beyond it.
    for (const double p : {0.999, 0.99, 0.9})
      if (static_cast<double>(v.size()) * (1 - p) >= 10 - 1e-9) {
        std::printf("  p%g = %.6f s", 100 * p, quantile(v, p));
        break;
      }
    std::printf("\n");
  }

  Metrics layer;
  if (args.trace) {
    // Span overhead: traced rounds against suspended rounds, per class.
    const auto on = by_class(ops, classes, traced_round);
    const auto off = by_class(
        ops, classes, [](std::size_t round) { return !traced_round(round); });
    double ratio = 0;
    int n = 0;
    for (int c = 0; c < classes; ++c)
      if (!on[c].empty() && !off[c].empty()) {
        ratio += median(on[c]) / median(off[c]) - 1;
        ++n;
      }
    layer.add("obs.span_overhead", n ? ratio / n : 0.0, "ratio");
    if (run_correct()) w->layers(layer);
  }

  const Metrics& shown = args.trace ? layer : e2e;
  for (const auto& m : e2e.items())
    std::printf("  %-40s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const auto& m : layer.items())
    std::printf("  %-40s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());

  if (args.trace && !args.out_dir.empty())
    spans().write(args.out_dir + "/spans-" + args.workload + "-" +
                      std::to_string(args.seed) + ".jsonl",
                  env);

  std::string body;
  for (const auto& m : shown.items()) {
    if (!std::isfinite(m.value)) {
      check_failed("metric " + m.name + " is not finite");
      continue;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body.empty() ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    body += buf;
  }
  const std::string json =
      std::string("{\"correct\": ") + (run_correct() ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" + body +
      "}}";
  std::fflush(stdout);
  std::cout << json << std::endl;
  return run_correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
}
