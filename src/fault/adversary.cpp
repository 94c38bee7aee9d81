#include "fault/adversary.h"

#include <memory>

#include "util/rng.h"

namespace aoft::fault {

bool Adversary::on_send(cube::NodeId from, cube::NodeId to, sim::Message& m) {
  for (auto& mutator : mutators_) {
    switch (mutator(from, to, m)) {
      case Action::kPass:
        break;
      case Action::kMutated:
        ++touched_;
        break;
      case Action::kDropped:
        ++touched_;
        return false;
    }
  }
  return true;
}

namespace {

bool at_point(const sim::Message& m, const StagePoint& p) {
  return m.stage == p.stage && m.iter == p.iter;
}

bool reached_point(const sim::Message& m, const StagePoint& p) {
  return m.stage >= 0 && m.iter >= 0 && reached(p, m.stage, m.iter);
}

}  // namespace

Mutator corrupt_data(cube::NodeId faulty, StagePoint at, sim::Key delta) {
  return [=](cube::NodeId from, cube::NodeId, sim::Message& m) {
    if (from != faulty || !at_point(m, at) || m.data.empty()) return Action::kPass;
    for (auto& k : m.data) k += delta;
    return Action::kMutated;
  };
}

Mutator corrupt_gossip_entry(cube::NodeId faulty, StagePoint from_point,
                             cube::NodeId entry, sim::Key delta, std::size_t m_keys) {
  return two_faced_gossip(faulty, from_point, entry, delta, m_keys,
                          [](cube::NodeId) { return true; });
}

Mutator two_faced_gossip(cube::NodeId faulty, StagePoint from_point,
                         cube::NodeId entry, sim::Key delta, std::size_t m_keys,
                         std::function<bool(cube::NodeId dest)> pred) {
  return [=](cube::NodeId from, cube::NodeId to, sim::Message& m) {
    if (from != faulty || m.lbs.empty() || !reached_point(m, from_point) ||
        !pred(to))
      return Action::kPass;
    // The LBS slice covers the stage window; locate the entry inside it.
    // The window is the aligned block of (lbs.size() / m_keys) node labels
    // containing the sender.
    const std::size_t window_nodes = m.lbs.size() / m_keys;
    const cube::NodeId start =
        from - (from % static_cast<cube::NodeId>(window_nodes));
    if (entry < start || entry >= start + window_nodes) return Action::kPass;
    const std::size_t off = static_cast<std::size_t>(entry - start) * m_keys;
    for (std::size_t w = 0; w < m_keys; ++w) m.lbs[off + w] += delta;
    return Action::kMutated;
  };
}

Mutator drop_message(cube::NodeId faulty, StagePoint at) {
  return [=](cube::NodeId from, cube::NodeId, sim::Message& m) {
    if (from != faulty || !at_point(m, at)) return Action::kPass;
    return Action::kDropped;
  };
}

Mutator dead_link(cube::NodeId faulty, cube::NodeId dest, StagePoint from_point) {
  return [=](cube::NodeId from, cube::NodeId to, sim::Message& m) {
    if (from != faulty || to != dest || !reached_point(m, from_point))
      return Action::kPass;
    return Action::kDropped;
  };
}

Mutator replay_stale_lbs(cube::NodeId faulty, StagePoint from_point) {
  // The cache lives in the callable's shared state: mutators are copied into
  // the Adversary, so keep it behind a shared_ptr.
  auto cache = std::make_shared<std::vector<sim::Key>>();
  return [=](cube::NodeId from, cube::NodeId, sim::Message& m) {
    if (from != faulty || m.lbs.empty() || !reached_point(m, from_point))
      return Action::kPass;
    if (cache->empty()) {
      cache->resize(m.lbs.size());  // record once, replay forever
      m.lbs.copy_to(cache->data());
      return Action::kPass;
    }
    if (cache->size() != m.lbs.size()) return Action::kPass;  // stage moved on
    if (m.lbs == *cache) return Action::kPass;  // indistinguishable replay
    m.lbs = *cache;
    return Action::kMutated;
  };
}

Mutator independent_corrupt(double p, sim::Key delta, std::uint64_t seed,
                            ArrivalStats* stats) {
  // One generator for the whole run, behind a shared_ptr because mutators
  // are copied into the Adversary.  Every send consumes exactly one draw,
  // so the firing pattern is reproducible from the seed alone.
  auto rng = std::make_shared<util::Rng>(seed);
  return [=](cube::NodeId from, cube::NodeId, sim::Message& m) {
    ++stats->points;
    if (rng->next_unit() >= p) return Action::kPass;
    bool hit = false;
    for (auto& k : m.data) {
      k += delta;
      hit = true;
    }
    for (auto& k : m.lbs) {
      k += delta;
      hit = true;
    }
    if (!hit) return Action::kPass;  // nothing to corrupt (no key words)
    ++stats->fired;
    if (from < stats->fired_nodes.size()) stats->fired_nodes.set(from);
    return Action::kMutated;
  };
}

Mutator run_length_crash(cube::NodeId faulty, std::uint64_t k,
                         ArrivalStats* stats) {
  auto sends = std::make_shared<std::uint64_t>(0);
  return [=](cube::NodeId from, cube::NodeId, sim::Message&) {
    if (from != faulty) return Action::kPass;
    ++stats->points;
    if (++*sends < k) return Action::kPass;  // crash arrives on the k-th send
    ++stats->fired;
    if (from < stats->fired_nodes.size()) stats->fired_nodes.set(from);
    return Action::kDropped;
  };
}

Mutator garble_lbs(cube::NodeId faulty, StagePoint from_point, std::uint64_t seed) {
  return [=](cube::NodeId from, cube::NodeId, sim::Message& m) {
    if (from != faulty || m.lbs.empty() || !reached_point(m, from_point))
      return Action::kPass;
    util::Rng rng(seed ^ (static_cast<std::uint64_t>(m.stage) << 32) ^
                  static_cast<std::uint64_t>(m.iter));
    for (auto& k : m.lbs) k = rng.next_in(-1000000, 1000000);
    return Action::kMutated;
  };
}

}  // namespace aoft::fault
