#include "fault/campaign.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "fault/campaign_store.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "sim/machine.h"
#include "sort/sft.h"
#include "sort/snr.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace aoft::fault {

namespace {

// k simultaneous faults sit on k distinct nodes, so k may not exceed the
// cube's 2^dim nodes: draw_multi_scenario would search for a free node
// forever.
void check_fault_count(int k, int dim) {
  if (k > 0 && static_cast<std::uint64_t>(k) > (std::uint64_t{1} << dim))
    throw std::invalid_argument(
        "k = " + std::to_string(k) +
        " simultaneous faults need k distinct nodes, but a dim-" +
        std::to_string(dim) + " cube has only " +
        std::to_string(std::uint64_t{1} << dim));
}

// The one entry check of run_campaign, run_multi_campaign (soak == false)
// and run_soak_campaign (soak == true).  Campaigns read adversary.touched()
// after every attempt to drive the redraw loop; under the shm backend the
// interceptor fires inside a forked child, so the counter this process reads
// would always be zero and every slot would be "unexercised".  Each entry
// point also runs exactly one kind of injection, so a mismatched mode would
// silently sweep a campaign nobody asked for.  Refuse both loudly.
void check_entry(const CampaignConfig& cfg, bool soak, int max_k = 0) {
  if (cfg.backend != transport::Backend::kSim)
    throw std::invalid_argument(
        "fault campaigns require the in-process sim backend (got \"" +
        std::string(transport::to_string(cfg.backend)) +
        "\"): injection-exercised accounting lives in the worker's address "
        "space");
  if (soak != (cfg.injection.mode != InjectionMode::kScripted))
    throw std::invalid_argument(
        soak ? std::string("soak campaigns need a probabilistic injection "
                           "mode (independent:P or runlength:K), got scripted")
             : "scripted and multi-fault campaigns need injection mode "
               "scripted, got \"" +
                   std::string(to_string(cfg.injection.mode)) +
                   "\"; probabilistic modes run as soak campaigns");
  check_fault_count(max_k, cfg.dim);
}

}  // namespace

const char* to_string(FaultClass c) {
  switch (c) {
    case FaultClass::kCorruptData: return "corrupt-data";
    case FaultClass::kCorruptGossip: return "corrupt-gossip";
    case FaultClass::kTwoFacedGossip: return "two-faced-gossip";
    case FaultClass::kRelayTamper: return "relay-tamper";
    case FaultClass::kDropMessage: return "drop-message";
    case FaultClass::kDeadLink: return "dead-link";
    case FaultClass::kGarbleLbs: return "garble-lbs";
    case FaultClass::kReplayStale: return "replay-stale";
    case FaultClass::kHaltNode: return "halt-node";
    case FaultClass::kInvertDirection: return "invert-direction";
    case FaultClass::kSubstituteValue: return "substitute-value";
  }
  return "?";
}

int min_dim(FaultClass c) {
  switch (c) {
    case FaultClass::kSubstituteValue:
    case FaultClass::kReplayStale:
      return 2;  // both need an injection stage >= 1, i.e. at least 2 stages
    default:
      return 1;  // every link/processor fault needs at least one link
  }
}

std::vector<FaultClass> active_classes(int dim) {
  std::vector<FaultClass> active;
  for (FaultClass fclass : kAllFaultClasses)
    if (dim >= min_dim(fclass)) active.push_back(fclass);
  return active;
}

Scenario draw_scenario(FaultClass fclass, const CampaignConfig& cfg,
                       util::Rng& rng) {
  const int n = cfg.dim;
  const auto num_nodes = cube::NodeId{1} << n;
  Scenario s;
  s.fclass = fclass;
  s.dim = n;
  s.block = cfg.block;
  s.faulty = static_cast<cube::NodeId>(rng.next_below(num_nodes));
  // Environmental assumption 5: nodes are sane through the first message
  // exchange, so the earliest injection point is after stage 0 begins; value
  // substitution additionally requires a *validated* previous stage, and a
  // stale replay needs at least two same-window messages after its point.
  // On cubes below min_dim(fclass) those constraints are unsatisfiable;
  // clamp the stage window to [0, max(n-1, 0)] so the draw stays defined
  // (next_below requires a nonzero bound) instead of dividing by zero.
  int min_stage = fclass == FaultClass::kSubstituteValue ||
                          fclass == FaultClass::kReplayStale
                      ? 1
                      : 0;
  min_stage = std::min(min_stage, std::max(n - 1, 0));
  s.point.stage =
      min_stage +
      static_cast<int>(rng.next_below(
          std::max<std::uint64_t>(static_cast<std::uint64_t>(n - min_stage), 1)));
  if (fclass == FaultClass::kReplayStale && s.point.stage > 0)
    s.point.iter = 1 + static_cast<int>(
                           rng.next_below(static_cast<std::uint64_t>(s.point.stage)));
  else
    s.point.iter = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(s.point.stage + 1)));
  s.delta = rng.next_in(1, 1 << 20) * (rng.next_bool() ? 1 : -1);
  s.input_seed = rng.next_u64();
  // Auxiliary node: a member of the stage window other than the faulty node
  // (relay victim), or an arbitrary neighbor (dead link destination).
  if (fclass == FaultClass::kRelayTamper) {
    const cube::NodeId flip = static_cast<cube::NodeId>(
        1 + rng.next_below((cube::NodeId{1} << (s.point.stage + 1)) - 1));
    s.aux_node = s.faulty ^ flip;
  } else {
    s.aux_node =
        s.faulty ^ (cube::NodeId{1} << rng.next_below(
                        std::max<std::uint64_t>(static_cast<std::uint64_t>(n), 1)));
  }
  return s;
}

namespace {

// Build (adversary, node-fault map) realizing the scenario.
void instantiate(const Scenario& s, Adversary& adversary, NodeFaultMap& nf) {
  switch (s.fclass) {
    case FaultClass::kCorruptData:
      adversary.add(corrupt_data(s.faulty, s.point, s.delta));
      break;
    case FaultClass::kCorruptGossip:
      adversary.add(
          corrupt_gossip_entry(s.faulty, s.point, s.faulty, s.delta, s.block));
      break;
    case FaultClass::kTwoFacedGossip:
      adversary.add(two_faced_gossip(
          s.faulty, s.point, s.faulty, s.delta, s.block,
          [](cube::NodeId dest) { return (dest & 1u) == 1u; }));
      break;
    case FaultClass::kRelayTamper:
      adversary.add(
          corrupt_gossip_entry(s.faulty, s.point, s.aux_node, s.delta, s.block));
      break;
    case FaultClass::kDropMessage:
      adversary.add(drop_message(s.faulty, s.point));
      break;
    case FaultClass::kDeadLink:
      adversary.add(dead_link(s.faulty, s.aux_node, s.point));
      break;
    case FaultClass::kGarbleLbs:
      adversary.add(garble_lbs(s.faulty, s.point, s.input_seed ^ 0xabcdefULL));
      break;
    case FaultClass::kReplayStale:
      adversary.add(replay_stale_lbs(s.faulty, s.point));
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

bool is_link_class(FaultClass c) {
  switch (c) {
    case FaultClass::kCorruptData:
    case FaultClass::kCorruptGossip:
    case FaultClass::kTwoFacedGossip:
    case FaultClass::kRelayTamper:
    case FaultClass::kDropMessage:
    case FaultClass::kDeadLink:
    case FaultClass::kGarbleLbs:
    case FaultClass::kReplayStale:
      return true;
    default:
      return false;
  }
}

// Gossip-targeting classes touch fields S_NR does not transmit.
bool applies_to_snr(FaultClass c) {
  switch (c) {
    case FaultClass::kCorruptGossip:
    case FaultClass::kTwoFacedGossip:
    case FaultClass::kRelayTamper:
    case FaultClass::kGarbleLbs:
    case FaultClass::kReplayStale:
      return false;
    default:
      return true;
  }
}

// ---- slot engine ------------------------------------------------------------
//
// One slot = one requested exercised run, and every campaign — scripted,
// multi-fault and soak — is a list of global slots fed to run_slots.  Attempt
// a of a slot draws from a fresh Rng seeded with util::derive_seed(cfg.seed,
// stream, index, a), a pure function of the campaign seed, so the worker
// running the slot draws it itself.  A slot redraws while its injection goes
// unexercised, up to kMaxSlotAttempts, then commits its SlotRecord; its
// private trace and metrics merge into the campaign's in slot order once the
// pool drains.

// Seed streams: single-fault classes use their enum value, multi-fault
// campaigns a disjoint range keyed by k, soak campaigns one keyed by mode.
std::uint64_t class_stream(FaultClass c) {
  return static_cast<std::uint64_t>(c);
}
std::uint64_t multi_stream(int k) {
  return 0x100u + static_cast<std::uint64_t>(k);
}
std::uint64_t soak_stream(InjectionMode mode) {
  return 0x200u + static_cast<std::uint64_t>(mode);
}

// Where a slot's attempt draws come from, and how its kScenario events name
// it.
struct SlotKey {
  std::uint64_t stream = 0;  // derive_seed stream
  std::uint64_t index = 0;   // derive_seed index and the event's slot argument
  std::string label;         // the event's detail
};

// What a campaign runs in its slots.
struct SlotKind {
  std::function<SlotKey(std::uint64_t g)> key;
  // One attempt of global slot g drawn from `rng`: the slot's record once
  // its injection fired, nullopt to redraw.
  std::function<std::optional<SlotRecord>(std::uint64_t g, util::Rng& rng)>
      attempt;
};

// One simulated Machine per worker thread, rebuilt only when the cube
// dimension changes and reset() between scenarios (the sort resets it with
// the run's own cost model).  Machine::reset makes the machine observably
// identical to a fresh one, so leasing never shows in results or traces —
// it only removes the per-scenario construction and teardown of 2^dim
// channel/context sets from the hot path.
sim::Machine* lease_machine(int dim) {
  thread_local std::unique_ptr<sim::Machine> machine;
  thread_local int machine_dim = -1;
  if (machine_dim != dim) {
    machine = std::make_unique<sim::Machine>(cube::Topology{dim},
                                             sim::CostModel{});
    machine_dim = dim;
  }
  return machine.get();
}

// The sort options every campaign run is built from: cfg's predicate
// switches (S_FT only), the faults to inject and the worker's leased machine.
template <class Options>
Options options_from(const CampaignConfig& cfg, int dim, std::size_t block,
                     sim::LinkInterceptor* interceptor,
                     NodeFaultMap node_faults = {}) {
  Options opts;
  opts.block = block;
  if constexpr (std::is_same_v<Options, sort::SftOptions>) {
    opts.check_progress = cfg.check_progress;
    opts.check_feasibility = cfg.check_feasibility;
    opts.check_consistency = cfg.check_consistency;
    opts.check_exchange = cfg.check_exchange;
  }
  opts.interceptor = interceptor;
  opts.node_faults = std::move(node_faults);
  opts.machine = lease_machine(dim);
  return opts;
}

// Run S_FT (sft) or S_NR with every fault of `faults` injected at once; a
// single scenario is a set of one.  The faults share the first one's input,
// cube and block (draw_multi_scenario aligns them).  Fired counts the
// adversary's touches plus the node faults, so the run exercised its faults
// iff it fired at all.
ScenarioResult run_fault_set(std::span<const Scenario> faults,
                             const CampaignConfig& cfg, bool sft) {
  const Scenario& first = faults.front();
  const auto input = util::random_keys(
      first.input_seed, (std::size_t{1} << first.dim) * first.block);
  Adversary adversary;
  NodeFaultMap node_faults;
  bool any_link = false;
  for (const Scenario& s : faults) {
    instantiate(s, adversary, node_faults);
    any_link |= is_link_class(s.fclass);
  }
  const std::uint64_t node_fault_count = node_faults.size();
  sim::LinkInterceptor* interceptor = any_link ? &adversary : nullptr;
  const sort::SortRun run =
      sft ? sort::run_sft(first.dim, input,
                          options_from<sort::SftOptions>(
                              cfg, first.dim, first.block, interceptor,
                              std::move(node_faults)))
          : sort::run_snr(first.dim, input,
                          options_from<sort::SnrOptions>(
                              cfg, first.dim, first.block, interceptor,
                              std::move(node_faults)));
  ScenarioResult r;
  r.scenario = first;
  r.outcome = sort::classify(run, input);
  r.faults_fired = adversary.touched() + node_fault_count;
  r.fault_exercised = r.faults_fired > 0;
  if (!run.errors.empty()) {
    r.first_detector = run.errors.front().source;
    r.detection_stage = run.errors.front().stage;
  }
  return r;
}

SlotRecord record_of(const ScenarioResult& r, std::uint32_t faulty_nodes) {
  SlotRecord rec;
  rec.scenario = r.scenario;
  rec.outcome = r.outcome;
  rec.first_detector = r.first_detector;
  rec.detection_stage = r.detection_stage;
  rec.faults_fired = r.faults_fired;
  rec.faulty_nodes = faulty_nodes;
  return rec;
}

// Run body(i) for i in [0, count): inline when jobs == 1, across a pool
// otherwise.  Bodies write into disjoint slots of pre-sized vectors, so the
// execution order never shows in the output.  cfg.placement decides where
// pool workers run; the pin plan (a pure function of policy, topology and
// worker count — never a runtime sched_getcpu sample) is recorded into the
// campaign-level tracer/metrics as environment metadata before any slot
// trace is appended.
void for_each_slot(const CampaignConfig& cfg, std::size_t count,
                   const std::function<void(std::size_t)>& body) {
  const int n = util::ThreadPool::resolve(cfg.jobs);
  if (n <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::vector<util::WorkerPin> pins;
  if (cfg.placement.kind != util::Placement::kNone) {
    pins = util::plan_placement(cfg.placement,
                                util::HostTopology::discover(), n);
    for (const auto& pin : pins) {
      if (cfg.tracer != nullptr) {
        cfg.tracer->instant(obs::Ev::kWorkerCpu, obs::kGlobal, -1, -1, 0.0,
                            pin.worker, pin.cpu, cfg.placement.str());
        cfg.tracer->instant(obs::Ev::kWorkerNode, obs::kGlobal, -1, -1, 0.0,
                            pin.worker, pin.node);
      }
      if (cfg.metrics != nullptr && pin.cpu >= 0)
        cfg.metrics->inc(obs::Counter::kWorkersPinned);
    }
  }
  util::ThreadPool pool(n, std::move(pins));
  pool.parallel_for(count, body,
                    static_cast<std::size_t>(std::max(1, cfg.scenario_batch)));
}

// Run every global slot of `slots` (ascending) and hand each finished record
// to `commit`, which may be called from several workers at once.
void run_slots(const CampaignConfig& cfg, std::span<const std::uint64_t> slots,
               const SlotKind& kind,
               const std::function<void(SlotRecord)>& commit) {
  struct Sinks {
    obs::Tracer trace;
    obs::MetricsRegistry metrics;
  };
  std::vector<Sinks> sinks(slots.size());
  for_each_slot(cfg, slots.size(), [&](std::size_t i) {
    // Bind this slot's private sinks to the executing worker thread (and
    // shadow any ambient sink, so inline jobs == 1 runs collect identically).
    obs::ScopedSink bind(cfg.tracer != nullptr ? &sinks[i].trace : nullptr,
                         cfg.metrics != nullptr ? &sinks[i].metrics : nullptr);
    const std::uint64_t g = slots[i];
    const SlotKey key = kind.key(g);
    SlotRecord rec;
    for (int attempt = 0; attempt < kMaxSlotAttempts && !rec.exercised;
         ++attempt) {
      util::Rng rng(util::derive_seed(cfg.seed, key.stream, key.index,
                                      static_cast<std::uint64_t>(attempt)));
      if (auto* tr = obs::tracer())
        tr->instant(obs::Ev::kScenario, obs::kGlobal, -1, -1, 0.0,
                    static_cast<std::int64_t>(key.index), attempt, key.label);
      if (auto* me = obs::metrics()) me->inc(obs::Counter::kScenarios);
      if (auto done = kind.attempt(g, rng)) {
        rec = std::move(*done);
        rec.exercised = true;
      }
      rec.attempts = attempt + 1;
    }
    rec.gslot = g;
    commit(std::move(rec));
  });
  for (auto& s : sinks) {
    if (cfg.tracer != nullptr) cfg.tracer->append(std::move(s.trace));
    if (cfg.metrics != nullptr) cfg.metrics->merge(s.metrics);
  }
}

// ---- durable-session plumbing (campaign_store.h) ----------------------------
//
// Scripted and soak campaigns commit through a session; multi-fault sweeps
// are never checkpointed.  A session owns the in-memory CheckpointData, the
// ordered slot stream, and the list of slots this process still has to
// execute.  Workers commit completed slots through one mutex; the checkpoint
// is re-saved crash-safely every cfg.checkpoint_every commits, and the stream
// cursor advances over every done-in-order slot.  Nothing here affects
// results: records are keyed by global slot, so the final artifacts are pure
// functions of the campaign identity regardless of jobs, placement, shard
// layout or how many times the process was killed and resumed.

struct StoreSession {
  CampaignIdentity id;
  CheckpointData data;
  SlotStream stream;
  std::vector<std::uint64_t> shard;    // ascending slots owned by this shard
  std::vector<std::uint64_t> pending;  // shard slots left to execute
  std::size_t cursor = 0;              // next shard index to stream
  std::size_t since_save = 0;
  std::mutex mu;
};

void open_session(const CampaignConfig& cfg, StoreSession& ss) {
  ss.id = identity_of(cfg);
  ss.data.identity = ss.id;
  ss.data.done = util::BitVec(identity_total_slots(ss.id));
  ss.shard = shard_slots(ss.id);

  if (cfg.resume && !cfg.force_restart && !cfg.checkpoint_path.empty()) {
    CheckpointData loaded;
    std::string err;
    const StoreStatus status =
        load_checkpoint(cfg.checkpoint_path, &loaded, &err);
    if (status == StoreStatus::kOk) {
      if (!(loaded.identity == ss.id))
        throw StoreError(
            StoreStatus::kIdentityMismatch,
            "checkpoint " + cfg.checkpoint_path +
                ": belongs to a different campaign (dim/seed/mode/checks/"
                "shard differ); use --resume=force-restart to discard it");
      ss.data = std::move(loaded);
    } else if (status != StoreStatus::kMissing) {
      // A missing checkpoint is a fresh start; anything else is loud.
      throw StoreError(status,
                       err + " [" + std::string(to_string(status)) +
                           "]; use --resume=force-restart to discard it");
    }
  }

  // Split the shard into the already-completed in-order prefix (re-emitted
  // into the stream from checkpoint records) and the pending remainder.
  std::vector<std::string> prefix;
  bool in_prefix = true;
  for (std::uint64_t g : ss.shard) {
    if (ss.data.done.test(g)) {
      if (in_prefix) {
        prefix.push_back(stream_line(ss.id, *find_record(ss.data, g)));
        ++ss.cursor;
      }
    } else {
      in_prefix = false;
      ss.pending.push_back(g);
    }
  }

  if (!cfg.stream_path.empty()) {
    std::string err;
    if (!ss.stream.open(cfg.stream_path, stream_header(ss.id), prefix,
                        cfg.resume && !cfg.force_restart, &err))
      throw StoreError(StoreStatus::kIdentityMismatch, err);
  }

  // Kill-point simulation: execute only the first pending slots, in order,
  // so the stream prefix stays gap-free.
  if (cfg.stop_after_slots > 0 &&
      ss.pending.size() > static_cast<std::size_t>(cfg.stop_after_slots))
    ss.pending.resize(static_cast<std::size_t>(cfg.stop_after_slots));
}

// Record one completed slot: insert its record, maybe checkpoint, advance
// the stream cursor over every newly in-order done slot.
void commit_slot(const CampaignConfig& cfg, StoreSession& ss, SlotRecord rec) {
  std::lock_guard<std::mutex> lock(ss.mu);
  const std::uint64_t g = rec.gslot;
  auto it = std::lower_bound(
      ss.data.records.begin(), ss.data.records.end(), g,
      [](const SlotRecord& r, std::uint64_t key) { return r.gslot < key; });
  ss.data.records.insert(it, std::move(rec));
  ss.data.done.set(g);
  ++ss.since_save;
  if (!cfg.checkpoint_path.empty() &&
      ss.since_save >= static_cast<std::size_t>(std::max(1, cfg.checkpoint_every))) {
    std::string err;
    if (!save_checkpoint(cfg.checkpoint_path, ss.data, &err))
      throw StoreError(StoreStatus::kMalformed, err);
    ss.since_save = 0;
  }
  if (ss.stream.active()) {
    while (ss.cursor < ss.shard.size() &&
           ss.data.done.test(ss.shard[ss.cursor])) {
      std::string err;
      if (!ss.stream.append(
              stream_line(ss.id, *find_record(ss.data, ss.shard[ss.cursor])),
              &err))
        throw StoreError(StoreStatus::kMalformed, err);
      ++ss.cursor;
    }
  }
}

// Final save after the pool drains, so a clean exit never leaves the
// checkpoint a cadence behind the stream.
void close_session(const CampaignConfig& cfg, StoreSession& ss) {
  if (cfg.checkpoint_path.empty() || ss.since_save == 0) return;
  std::string err;
  if (!save_checkpoint(cfg.checkpoint_path, ss.data, &err))
    throw StoreError(StoreStatus::kMalformed, err);
  ss.since_save = 0;
}

// Run this process's pending slots of a scripted or soak campaign, committing
// each through the durable session; returns every record the session holds.
CheckpointData run_session(const CampaignConfig& cfg, const SlotKind& kind) {
  StoreSession ss;
  open_session(cfg, ss);
  run_slots(cfg, ss.pending, kind,
            [&](SlotRecord rec) { commit_slot(cfg, ss, std::move(rec)); });
  close_session(cfg, ss);
  return std::move(ss.data);
}

}  // namespace

ScenarioResult run_scenario_sft(const Scenario& s, const CampaignConfig& cfg) {
  return run_fault_set({&s, 1}, cfg, true);
}

ScenarioResult run_scenario_snr(const Scenario& s, const CampaignConfig& cfg) {
  return run_fault_set({&s, 1}, cfg, false);
}

MultiScenario draw_multi_scenario(int k, const CampaignConfig& cfg,
                                  util::Rng& rng) {
  check_fault_count(k, cfg.dim);
  MultiScenario ms;
  ms.dim = cfg.dim;
  ms.block = cfg.block;
  ms.input_seed = rng.next_u64();
  std::vector<bool> used(std::size_t{1} << cfg.dim, false);
  while (static_cast<int>(ms.faults.size()) < k) {
    const auto fclass =
        kAllFaultClasses[rng.next_below(std::size(kAllFaultClasses))];
    Scenario s = draw_scenario(fclass, cfg, rng);
    if (used[s.faulty]) continue;  // distinct faulty nodes
    used[s.faulty] = true;
    s.input_seed = ms.input_seed;  // one shared input per multi-run
    ms.faults.push_back(std::move(s));
  }
  return ms;
}

std::vector<MultiTally> run_multi_campaign(const CampaignConfig& cfg,
                                           int max_k) {
  check_entry(cfg, false, max_k);
  const auto spc = static_cast<std::uint64_t>(cfg.runs_per_class);
  // Global slot g = (k - 1) * runs_per_class + slot.
  const auto k_of = [&](std::uint64_t g) {
    return static_cast<int>(g / spc) + 1;
  };
  const SlotKind kind{
      [&](std::uint64_t g) {
        return SlotKey{multi_stream(k_of(g)), g % spc,
                       "multi-k" + std::to_string(k_of(g))};
      },
      [&](std::uint64_t g, util::Rng& rng) -> std::optional<SlotRecord> {
        const MultiScenario ms = draw_multi_scenario(k_of(g), cfg, rng);
        const ScenarioResult r = run_fault_set(ms.faults, cfg, true);
        if (!r.fault_exercised) return std::nullopt;
        return record_of(r, static_cast<std::uint32_t>(ms.faults.size()));
      }};

  // No session: every slot runs, and its record lands at index g.
  std::vector<MultiTally> tallies(static_cast<std::size_t>(std::max(max_k, 0)));
  std::vector<std::uint64_t> slots(tallies.size() * spc);
  std::iota(slots.begin(), slots.end(), std::uint64_t{0});
  std::vector<SlotRecord> records(slots.size());
  run_slots(cfg, slots, kind,
            [&](SlotRecord rec) { records[rec.gslot] = std::move(rec); });

  for (std::size_t k = 0; k < tallies.size(); ++k)
    tallies[k].k = static_cast<int>(k) + 1;
  for (const SlotRecord& rec : records) {
    MultiTally& t = tallies[rec.gslot / spc];
    t.attempts += rec.attempts;
    if (!rec.exercised) {
      ++t.dropped;
      continue;
    }
    ++t.runs;
    classify_outcome(rec.outcome, t.detected, t.masked, t.silent_wrong);
  }
  return tallies;
}

CampaignSummary run_campaign(const CampaignConfig& cfg) {
  check_entry(cfg, false);
  const auto spc = static_cast<std::uint64_t>(cfg.runs_per_class);
  // Supported classes at this dimension; unsupported ones keep a zeroed
  // tally with every slot reported dropped rather than crashing the draw.
  const std::vector<FaultClass> active = active_classes(cfg.dim);
  const SlotKind kind{
      [&](std::uint64_t g) {
        const FaultClass c = active[g / spc];
        return SlotKey{class_stream(c), g % spc, to_string(c)};
      },
      [&](std::uint64_t g, util::Rng& rng) -> std::optional<SlotRecord> {
        const Scenario s = draw_scenario(active[g / spc], cfg, rng);
        const ScenarioResult r = run_scenario_sft(s, cfg);
        if (!r.fault_exercised) return std::nullopt;  // point never reached
        SlotRecord rec = record_of(r, 1);
        if (applies_to_snr(s.fclass)) {
          const ScenarioResult b = run_scenario_snr(s, cfg);
          rec.snr_counted = b.fault_exercised;
          if (b.fault_exercised) rec.snr_outcome = b.outcome;
        }
        return rec;
      }};
  // Aggregate from the records in (class, slot) order — identical for every
  // job count, shard layout and resume history.
  return summarize_slots(cfg, run_session(cfg, kind));
}

// ---- probabilistic soak campaigns -------------------------------------------

std::uint64_t max_dislocation(std::span<const sim::Key> output) {
  std::vector<std::size_t> idx(output.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return output[a] < output[b];
  });
  std::uint64_t worst = 0;
  for (std::size_t rank = 0; rank < idx.size(); ++rank) {
    const std::size_t from = idx[rank];
    worst = std::max(worst,
                     static_cast<std::uint64_t>(rank > from ? rank - from
                                                            : from - rank));
  }
  return worst;
}

namespace {

// One soak attempt: draw (input, delta, gate seed, victim) and run S_FT
// under probabilistic arrival; nullopt when no injection fired.
std::optional<SlotRecord> run_soak_attempt(const CampaignConfig& cfg,
                                           util::Rng& rng) {
  const auto num_nodes = std::size_t{1} << cfg.dim;
  const std::uint64_t input_seed = rng.next_u64();
  const sim::Key delta = rng.next_in(1, 1 << 20) * (rng.next_bool() ? 1 : -1);
  const std::uint64_t gate_seed = rng.next_u64();
  const auto faulty = static_cast<cube::NodeId>(rng.next_below(num_nodes));

  ArrivalStats stats;
  stats.fired_nodes = util::BitVec(num_nodes);
  Adversary adversary;
  if (cfg.injection.mode == InjectionMode::kIndependent)
    adversary.add(
        independent_corrupt(cfg.injection.p, delta, gate_seed, &stats));
  else
    adversary.add(run_length_crash(faulty, cfg.injection.k, &stats));

  const auto input = util::random_keys(input_seed, num_nodes * cfg.block);
  const auto run = sort::run_sft(
      cfg.dim, input,
      options_from<sort::SftOptions>(cfg, cfg.dim, cfg.block, &adversary));
  if (stats.fired == 0) return std::nullopt;

  SlotRecord rec;
  rec.outcome = sort::classify(run, input);
  if (!run.errors.empty()) {
    rec.first_detector = run.errors.front().source;
    rec.detection_stage = run.errors.front().stage;
  }
  rec.faults_fired = stats.fired;
  rec.faulty_nodes = static_cast<std::uint32_t>(stats.fired_nodes.count());
  rec.scenario.dim = cfg.dim;
  rec.scenario.block = cfg.block;
  rec.scenario.delta = delta;
  rec.scenario.input_seed = input_seed;
  if (cfg.injection.mode == InjectionMode::kRunLength)
    rec.scenario.faulty = faulty;
  if (rec.outcome == sort::Outcome::kSilentWrong)
    rec.dislocation = max_dislocation(run.output);
  return rec;
}

}  // namespace

SoakTally run_soak_campaign(const CampaignConfig& cfg) {
  check_entry(cfg, true);
  const SlotKind kind{
      [&](std::uint64_t g) {
        return SlotKey{soak_stream(cfg.injection.mode), g,
                       to_string(cfg.injection.mode)};
      },
      [&](std::uint64_t, util::Rng& rng) {
        return run_soak_attempt(cfg, rng);
      }};
  return summarize_soak(cfg, run_session(cfg, kind));
}

}  // namespace aoft::fault
