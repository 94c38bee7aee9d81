#include "fault/campaign_store.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <string>

#include "obs/json.h"
#include "util/atomic_file.h"

namespace aoft::fault {

namespace {

// ---- little-endian serialization helpers ------------------------------------
// The checkpoint is read back on the machine that wrote it, but fixing the
// byte order anyway makes the digest (and the format spec in PROTOCOL.md §10)
// unambiguous.

void put_u8(std::string& b, std::uint8_t v) {
  b.push_back(static_cast<char>(v));
}

void put_u32(std::string& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    b.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    b.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_i32(std::string& b, std::int32_t v) {
  put_u32(b, static_cast<std::uint32_t>(v));
}

void put_i64(std::string& b, std::int64_t v) {
  put_u64(b, static_cast<std::uint64_t>(v));
}

// Bounds-checked sequential reader: every get_* sets `ok = false` instead of
// running off the end, so a truncated payload surfaces as one loud status.
struct Reader {
  const unsigned char* p;
  std::size_t n;
  std::size_t off = 0;
  bool ok = true;

  bool need(std::size_t k) {
    if (!ok || n - off < k) {
      ok = false;
      return false;
    }
    return true;
  }

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return p[off++];
  }

  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[off + i]} << (8 * i);
    off += 4;
    return v;
  }

  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[off + i]} << (8 * i);
    off += 8;
    return v;
  }

  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
};

void put_record(std::string& b, const SlotRecord& r) {
  put_u64(b, r.gslot);
  put_i32(b, r.attempts);
  put_u8(b, r.exercised ? 1 : 0);
  put_u8(b, static_cast<std::uint8_t>(r.scenario.fclass));
  put_i32(b, r.scenario.dim);
  put_u64(b, r.scenario.block);
  put_u32(b, r.scenario.faulty);
  put_i32(b, r.scenario.point.stage);
  put_i32(b, r.scenario.point.iter);
  put_i64(b, r.scenario.delta);
  put_u64(b, r.scenario.input_seed);
  put_u32(b, r.scenario.aux_node);
  put_u8(b, static_cast<std::uint8_t>(r.outcome));
  put_u8(b, static_cast<std::uint8_t>(r.first_detector));
  put_i32(b, r.detection_stage);
  put_u8(b, r.snr_counted ? 1 : 0);
  put_u8(b, static_cast<std::uint8_t>(r.snr_outcome));
  put_u64(b, r.faults_fired);
  put_u32(b, r.faulty_nodes);
  put_u64(b, r.dislocation);
}

SlotRecord get_record(Reader& rd) {
  SlotRecord r;
  r.gslot = rd.u64();
  r.attempts = rd.i32();
  r.exercised = rd.u8() != 0;
  r.scenario.fclass = static_cast<FaultClass>(rd.u8());
  r.scenario.dim = rd.i32();
  r.scenario.block = rd.u64();
  r.scenario.faulty = rd.u32();
  r.scenario.point.stage = rd.i32();
  r.scenario.point.iter = rd.i32();
  r.scenario.delta = rd.i64();
  r.scenario.input_seed = rd.u64();
  r.scenario.aux_node = rd.u32();
  r.outcome = static_cast<sort::Outcome>(rd.u8());
  r.first_detector = static_cast<sim::ErrorSource>(rd.u8());
  r.detection_stage = rd.i32();
  r.snr_counted = rd.u8() != 0;
  r.snr_outcome = static_cast<sort::Outcome>(rd.u8());
  r.faults_fired = rd.u64();
  r.faulty_nodes = rd.u32();
  r.dislocation = rd.u64();
  return r;
}

StoreStatus fail(StoreStatus s, std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return s;
}

// Structural sanity of a decoded identity, before anything downstream
// divides by runs_per_class or shifts by dim.
bool identity_sane(const CampaignIdentity& id) {
  return id.dim >= 1 && id.dim <= 30 && id.block >= 1 &&
         id.runs_per_class >= 1 && id.mode <= 2 && id.transport <= 1 &&
         id.shard_count >= 1 && id.shard_index >= 0 &&
         id.shard_index < id.shard_count;
}

}  // namespace

void classify_outcome(sort::Outcome o, int& detected, int& masked,
                      int& silent_wrong) {
  switch (o) {
    case sort::Outcome::kFailStop: ++detected; break;
    case sort::Outcome::kCorrect: ++masked; break;
    case sort::Outcome::kSilentWrong: ++silent_wrong; break;
  }
}

bool CampaignIdentity::same_campaign(const CampaignIdentity& o) const {
  CampaignIdentity a = *this;
  CampaignIdentity b = o;
  a.shard_index = b.shard_index = 0;
  return a == b;
}

CampaignIdentity identity_of(const CampaignConfig& cfg) {
  CampaignIdentity id;
  id.dim = cfg.dim;
  id.block = cfg.block;
  id.runs_per_class = cfg.runs_per_class;
  id.seed = cfg.seed;
  id.mode = static_cast<std::uint8_t>(cfg.injection.mode);
  id.p_bits = std::bit_cast<std::uint64_t>(cfg.injection.p);
  id.k = cfg.injection.k;
  id.checks = (cfg.check_progress ? 1u : 0u) |
              (cfg.check_feasibility ? 2u : 0u) |
              (cfg.check_consistency ? 4u : 0u) |
              (cfg.check_exchange ? 8u : 0u);
  id.transport = static_cast<std::uint8_t>(cfg.backend);
  id.shard_index = cfg.shard_index;
  id.shard_count = cfg.shard_count;
  return id;
}

CampaignConfig config_of(const CampaignIdentity& id) {
  CampaignConfig cfg;
  cfg.dim = id.dim;
  cfg.block = id.block;
  cfg.runs_per_class = id.runs_per_class;
  cfg.seed = id.seed;
  cfg.check_progress = (id.checks & 1u) != 0;
  cfg.check_feasibility = (id.checks & 2u) != 0;
  cfg.check_consistency = (id.checks & 4u) != 0;
  cfg.check_exchange = (id.checks & 8u) != 0;
  cfg.injection.mode = static_cast<InjectionMode>(id.mode);
  cfg.injection.p = std::bit_cast<double>(id.p_bits);
  cfg.injection.k = id.k;
  cfg.backend = static_cast<transport::Backend>(id.transport);
  cfg.shard_index = id.shard_index;
  cfg.shard_count = id.shard_count;
  return cfg;
}

const char* to_string(StoreStatus s) {
  switch (s) {
    case StoreStatus::kOk: return "ok";
    case StoreStatus::kMissing: return "missing";
    case StoreStatus::kTruncated: return "truncated";
    case StoreStatus::kBadMagic: return "bad-magic";
    case StoreStatus::kBadVersion: return "bad-version";
    case StoreStatus::kDigestMismatch: return "digest-mismatch";
    case StoreStatus::kMalformed: return "malformed";
    case StoreStatus::kIdentityMismatch: return "identity-mismatch";
  }
  return "?";
}

bool save_checkpoint(const std::string& path, const CheckpointData& data,
                     std::string* error) {
  const auto& id = data.identity;
  std::string payload;
  put_u32(payload, kCheckpointVersion);
  put_i32(payload, id.dim);
  put_u64(payload, id.block);
  put_i32(payload, id.runs_per_class);
  put_u64(payload, id.seed);
  put_u8(payload, id.mode);
  put_u64(payload, id.p_bits);
  put_u64(payload, id.k);
  put_u32(payload, id.checks);
  put_u8(payload, id.transport);
  put_i32(payload, id.shard_index);
  put_i32(payload, id.shard_count);
  const std::uint64_t total = data.done.size();
  put_u64(payload, total);
  for (std::uint64_t byte = 0; byte < (total + 7) / 8; ++byte) {
    std::uint8_t v = 0;
    for (std::uint64_t bit = 0; bit < 8; ++bit) {
      const std::uint64_t g = byte * 8 + bit;
      if (g < total && data.done.test(g)) v |= std::uint8_t{1} << bit;
    }
    put_u8(payload, v);
  }
  put_u64(payload, data.records.size());
  for (const auto& rec : data.records) put_record(payload, rec);

  std::string file(kCheckpointMagic, sizeof(kCheckpointMagic));
  put_u64(file, util::fnv1a64(payload));
  file += payload;
  return util::write_file_atomic(path, file, error);
}

StoreStatus load_checkpoint(const std::string& path, CheckpointData* out,
                            std::string* error) {
  std::string file;
  std::string read_err;
  if (!util::read_file(path, &file, &read_err))
    return fail(StoreStatus::kMissing, error,
                "checkpoint " + path + ": " + read_err);
  if (file.size() < sizeof(kCheckpointMagic) + 8)
    return fail(StoreStatus::kTruncated, error,
                "checkpoint " + path + ": shorter than its header (" +
                    std::to_string(file.size()) + " bytes)");
  if (std::memcmp(file.data(), kCheckpointMagic, sizeof(kCheckpointMagic)) != 0)
    return fail(StoreStatus::kBadMagic, error,
                "checkpoint " + path + ": not a campaign checkpoint file");
  Reader hdr{reinterpret_cast<const unsigned char*>(file.data()) +
                 sizeof(kCheckpointMagic),
             8};
  const std::uint64_t stored_digest = hdr.u64();
  const std::string_view payload(file.data() + sizeof(kCheckpointMagic) + 8,
                                 file.size() - sizeof(kCheckpointMagic) - 8);
  if (util::fnv1a64(payload) != stored_digest)
    return fail(StoreStatus::kDigestMismatch, error,
                "checkpoint " + path +
                    ": payload digest mismatch (file corrupted)");

  Reader rd{reinterpret_cast<const unsigned char*>(payload.data()),
            payload.size()};
  const std::uint32_t version = rd.u32();
  if (rd.ok && version != kCheckpointVersion)
    return fail(StoreStatus::kBadVersion, error,
                "checkpoint " + path + ": format version " +
                    std::to_string(version) + ", this build reads " +
                    std::to_string(kCheckpointVersion));
  CheckpointData data;
  data.identity.dim = rd.i32();
  data.identity.block = rd.u64();
  data.identity.runs_per_class = rd.i32();
  data.identity.seed = rd.u64();
  data.identity.mode = rd.u8();
  data.identity.p_bits = rd.u64();
  data.identity.k = rd.u64();
  data.identity.checks = rd.u32();
  data.identity.transport = rd.u8();
  data.identity.shard_index = rd.i32();
  data.identity.shard_count = rd.i32();
  const std::uint64_t total = rd.u64();
  if (!rd.ok)
    return fail(StoreStatus::kTruncated, error,
                "checkpoint " + path + ": truncated inside the identity block");
  if (!identity_sane(data.identity) ||
      total != identity_total_slots(data.identity))
    return fail(StoreStatus::kMalformed, error,
                "checkpoint " + path + ": identity block is not a valid "
                "campaign description");
  data.done = util::BitVec(total);
  for (std::uint64_t byte = 0; byte < (total + 7) / 8; ++byte) {
    const std::uint8_t v = rd.u8();
    if (!rd.ok) break;
    for (std::uint64_t bit = 0; bit < 8; ++bit) {
      const std::uint64_t g = byte * 8 + bit;
      if (g < total && ((v >> bit) & 1u)) data.done.set(g);
    }
  }
  const std::uint64_t record_count = rd.u64();
  if (!rd.ok)
    return fail(StoreStatus::kTruncated, error,
                "checkpoint " + path + ": truncated inside the slot bitmap");
  data.records.reserve(record_count);
  for (std::uint64_t i = 0; i < record_count; ++i) {
    data.records.push_back(get_record(rd));
    if (!rd.ok)
      return fail(StoreStatus::kTruncated, error,
                  "checkpoint " + path + ": truncated at slot record " +
                      std::to_string(i) + " of " +
                      std::to_string(record_count));
  }
  if (rd.off != rd.n)
    return fail(StoreStatus::kMalformed, error,
                "checkpoint " + path + ": " +
                    std::to_string(rd.n - rd.off) +
                    " trailing bytes after the last record");
  // One record per set bit, ascending, each owned by this shard.
  if (record_count != data.done.count())
    return fail(StoreStatus::kMalformed, error,
                "checkpoint " + path + ": " + std::to_string(record_count) +
                    " records but " + std::to_string(data.done.count()) +
                    " completed bits");
  std::uint64_t prev = 0;
  bool first = true;
  for (const auto& rec : data.records) {
    if (rec.gslot >= total || (!first && rec.gslot <= prev) ||
        !data.done.test(rec.gslot) ||
        rec.gslot % static_cast<std::uint64_t>(data.identity.shard_count) !=
            static_cast<std::uint64_t>(data.identity.shard_index))
      return fail(StoreStatus::kMalformed, error,
                  "checkpoint " + path + ": record for slot " +
                      std::to_string(rec.gslot) +
                      " breaks the bitmap/shard invariants");
    prev = rec.gslot;
    first = false;
  }
  *out = std::move(data);
  if (error != nullptr) error->clear();
  return StoreStatus::kOk;
}

// ---- slot space -------------------------------------------------------------

std::size_t identity_total_slots(const CampaignIdentity& id) {
  const auto rpc = static_cast<std::size_t>(id.runs_per_class);
  if (static_cast<InjectionMode>(id.mode) == InjectionMode::kScripted)
    return active_classes(id.dim).size() * rpc;
  return rpc;
}

std::vector<std::uint64_t> shard_slots(const CampaignIdentity& id) {
  const std::uint64_t total = identity_total_slots(id);
  std::vector<std::uint64_t> slots;
  slots.reserve(static_cast<std::size_t>(
      total / static_cast<std::uint64_t>(id.shard_count) + 1));
  for (std::uint64_t g = static_cast<std::uint64_t>(id.shard_index); g < total;
       g += static_cast<std::uint64_t>(id.shard_count))
    slots.push_back(g);
  return slots;
}

const char* slot_class_name(const CampaignIdentity& id, std::uint64_t g) {
  if (static_cast<InjectionMode>(id.mode) != InjectionMode::kScripted)
    return "soak";
  const auto active = active_classes(id.dim);
  const auto c = static_cast<std::size_t>(
      g / static_cast<std::uint64_t>(id.runs_per_class));
  return c < active.size() ? to_string(active[c]) : "?";
}

// ---- aggregation ------------------------------------------------------------

namespace {

const SlotRecord* find_record(const std::vector<SlotRecord>& records,
                              std::uint64_t g) {
  auto it = std::lower_bound(
      records.begin(), records.end(), g,
      [](const SlotRecord& r, std::uint64_t key) { return r.gslot < key; });
  return it != records.end() && it->gslot == g ? &*it : nullptr;
}

}  // namespace

const SlotRecord* find_record(const CheckpointData& store, std::uint64_t g) {
  return find_record(store.records, g);
}

CampaignSummary summarize_slots(const CampaignConfig& cfg,
                                const CheckpointData& store) {
  const auto rpc = static_cast<std::uint64_t>(cfg.runs_per_class);
  CampaignSummary summary;
  std::uint64_t c = 0;
  for (FaultClass fclass : kAllFaultClasses) {
    ClassTally sft_tally;
    sft_tally.fclass = fclass;
    ClassTally snr_tally;
    snr_tally.fclass = fclass;
    if (cfg.dim < min_dim(fclass)) {
      sft_tally.dropped = cfg.runs_per_class;
      summary.sft.push_back(sft_tally);
      summary.snr.push_back(snr_tally);
      continue;
    }
    for (std::uint64_t slot = 0; slot < rpc; ++slot) {
      const SlotRecord* rec = find_record(store.records, c * rpc + slot);
      if (rec == nullptr) continue;  // another shard's, or not yet executed
      sft_tally.attempts += rec->attempts;
      if (!rec->exercised) {
        ++sft_tally.dropped;
        continue;
      }
      ++sft_tally.runs;
      classify_outcome(rec->outcome, sft_tally.detected, sft_tally.masked,
                       sft_tally.silent_wrong);
      if (rec->faults_fired > 1) ++sft_tally.multi_fired;
      ScenarioResult r;
      r.scenario = rec->scenario;
      r.outcome = rec->outcome;
      r.fault_exercised = true;
      r.first_detector = rec->first_detector;
      r.detection_stage = rec->detection_stage;
      r.faults_fired = rec->faults_fired;
      summary.runs.push_back(std::move(r));
      if (rec->snr_counted) {
        ++snr_tally.runs;
        classify_outcome(rec->snr_outcome, snr_tally.detected, snr_tally.masked,
                         snr_tally.silent_wrong);
      }
    }
    summary.sft.push_back(sft_tally);
    summary.snr.push_back(snr_tally);
    ++c;
  }
  summary.slots_total = shard_slots(store.identity).size();
  summary.slots_done = store.records.size();
  return summary;
}

SoakTally summarize_soak(const CampaignConfig& cfg,
                         const CheckpointData& store) {
  SoakTally tally;
  const std::uint64_t bound = cfg.dim >= 1
                                  ? static_cast<std::uint64_t>(cfg.dim - 1)
                                  : 0;
  for (std::uint64_t g : shard_slots(store.identity)) {
    const SlotRecord* rec = find_record(store.records, g);
    if (rec == nullptr) continue;
    tally.attempts += rec->attempts;
    if (!rec->exercised) {
      ++tally.dropped;
      continue;
    }
    ++tally.runs;
    tally.faults_fired += static_cast<long long>(rec->faults_fired);
    if (rec->faults_fired > 1) ++tally.multi_fired;
    const bool beyond = rec->faulty_nodes > bound;
    if (beyond) ++tally.beyond_bound_runs;
    switch (rec->outcome) {
      case sort::Outcome::kFailStop:
        ++tally.detected;
        break;
      case sort::Outcome::kCorrect:
        ++tally.masked;
        break;
      case sort::Outcome::kSilentWrong:
        if (beyond) {
          ++tally.silent_wrong_beyond;
          tally.max_dislocation =
              std::max(tally.max_dislocation, rec->dislocation);
        } else {
          ++tally.silent_wrong_in_bound;
        }
        break;
    }
  }
  tally.slots_total = shard_slots(store.identity).size();
  tally.slots_done = store.records.size();
  return tally;
}

StoreStatus merge_checkpoints(const std::vector<CheckpointData>& parts,
                              CheckpointData* out, std::string* error) {
  if (parts.empty())
    return fail(StoreStatus::kMalformed, error, "merge: no shard checkpoints");
  const auto& first = parts.front().identity;
  std::vector<bool> seen(static_cast<std::size_t>(first.shard_count), false);
  for (const auto& part : parts) {
    const auto& id = part.identity;
    if (!id.same_campaign(first))
      return fail(StoreStatus::kIdentityMismatch, error,
                  "merge: shard " + std::to_string(id.shard_index) +
                      " describes a different campaign than shard " +
                      std::to_string(first.shard_index));
    if (id.shard_count != first.shard_count)
      return fail(StoreStatus::kIdentityMismatch, error,
                  "merge: shard counts disagree (" +
                      std::to_string(id.shard_count) + " vs " +
                      std::to_string(first.shard_count) + ")");
    if (seen[static_cast<std::size_t>(id.shard_index)])
      return fail(StoreStatus::kMalformed, error,
                  "merge: shard " + std::to_string(id.shard_index) +
                      " appears twice");
    seen[static_cast<std::size_t>(id.shard_index)] = true;
    // load_checkpoint already enforced the residue invariant per part.
  }

  CheckpointData merged;
  merged.identity = first;
  merged.identity.shard_index = 0;
  merged.identity.shard_count = 1;  // the merged artifact covers the whole space
  merged.done = util::BitVec(identity_total_slots(merged.identity));
  for (const auto& part : parts) {
    for (const auto& rec : part.records) {
      if (merged.done.test(rec.gslot))
        return fail(StoreStatus::kMalformed, error,
                    "merge: slot " + std::to_string(rec.gslot) +
                        " present in two shards");
      merged.done.set(rec.gslot);
      merged.records.push_back(rec);
    }
  }
  std::sort(merged.records.begin(), merged.records.end(),
            [](const SlotRecord& a, const SlotRecord& b) {
              return a.gslot < b.gslot;
            });
  *out = std::move(merged);
  if (error != nullptr) error->clear();
  return StoreStatus::kOk;
}

// ---- streaming --------------------------------------------------------------

std::string stream_header(const CampaignIdentity& id) {
  std::string line = "{\"schema\":";
  line += obs::json::escape(kCampaignStreamSchema);
  line += ",\"dim\":" + std::to_string(id.dim);
  line += ",\"block\":" + std::to_string(id.block);
  line += ",\"runs_per_class\":" + std::to_string(id.runs_per_class);
  line += ",\"seed\":" + std::to_string(id.seed);
  line += ",\"mode\":";
  line += obs::json::escape(to_string(static_cast<InjectionMode>(id.mode)));
  line += ",\"p\":" + obs::json::shortest_double(std::bit_cast<double>(id.p_bits));
  line += ",\"k\":" + std::to_string(id.k);
  line += ",\"checks\":" + std::to_string(id.checks);
  line += ",\"transport\":";
  line += obs::json::escape(
      transport::to_string(static_cast<transport::Backend>(id.transport)));
  line += ",\"shard\":\"" + std::to_string(id.shard_index) + "/" +
          std::to_string(id.shard_count) + "\"";
  line += ",\"total_slots\":" + std::to_string(identity_total_slots(id));
  line += "}\n";
  return line;
}

std::string stream_line(const CampaignIdentity& id, const SlotRecord& rec) {
  const auto rpc = static_cast<std::uint64_t>(id.runs_per_class);
  const bool scripted =
      static_cast<InjectionMode>(id.mode) == InjectionMode::kScripted;
  std::string line = "{\"g\":" + std::to_string(rec.gslot);
  line += ",\"class\":";
  line += obs::json::escape(slot_class_name(id, rec.gslot));
  line += ",\"slot\":" + std::to_string(scripted ? rec.gslot % rpc : rec.gslot);
  line += ",\"attempts\":" + std::to_string(rec.attempts);
  line += ",\"dropped\":";
  line += rec.exercised ? "false" : "true";
  line += ",\"exercised\":";
  line += rec.exercised ? "true" : "false";
  if (rec.exercised) {
    line += ",\"outcome\":";
    line += obs::json::escape(to_string(rec.outcome));
    if (rec.outcome == sort::Outcome::kFailStop) {
      line += ",\"detector\":";
      line += obs::json::escape(to_string(rec.first_detector));
      line += ",\"stage\":" + std::to_string(rec.detection_stage);
    } else {
      line += ",\"detector\":null,\"stage\":null";
    }
    line += ",\"snr\":";
    if (rec.snr_counted)
      line += obs::json::escape(to_string(rec.snr_outcome));
    else
      line += "null";
  } else {
    // Redraw exhaustion: the slot consumed its whole budget without landing
    // an injection — surfaced per record, not only in the tally.
    line += ",\"outcome\":null,\"detector\":null,\"stage\":null,\"snr\":null";
  }
  line += ",\"fired\":" + std::to_string(rec.faults_fired);
  line += ",\"faulty_nodes\":" + std::to_string(rec.faulty_nodes);
  line += ",\"dislocation\":" + std::to_string(rec.dislocation);
  line += "}\n";
  return line;
}

bool SlotStream::open(const std::string& path, const std::string& header,
                      const std::vector<std::string>& prefix, bool resume,
                      std::string* error) {
  if (resume) {
    std::string existing;
    if (util::read_file(path, &existing, nullptr) &&
        existing.compare(0, header.size(), header) != 0) {
      if (error != nullptr)
        *error = "stream " + path +
                 ": existing file's header does not match this campaign";
      return false;
    }
  }
  std::string contents = header;
  for (const auto& line : prefix) contents += line;
  if (!util::write_file_atomic(path, contents, error)) return false;
  path_ = path;
  emitted_ = prefix.size();
  return true;
}

bool SlotStream::append(const std::string& line, std::string* error) {
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  if (f == nullptr) {
    if (error != nullptr) *error = "stream " + path_ + ": cannot open for append";
    return false;
  }
  const bool ok =
      std::fwrite(line.data(), 1, line.size(), f) == line.size() &&
      std::fflush(f) == 0;
  std::fclose(f);
  if (!ok) {
    if (error != nullptr) *error = "stream " + path_ + ": short write";
    return false;
  }
  ++emitted_;
  return true;
}

}  // namespace aoft::fault
