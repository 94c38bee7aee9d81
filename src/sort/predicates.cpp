#include "sort/predicates.h"

#include <cassert>
#include <cstring>

#include "obs/sink.h"
#include "sort/kernels.h"

namespace aoft::sort {

namespace {

// Every predicate evaluation reports its verdict to the bound observability
// sink (obs/sink.h).  The predicates are pure functions with no protocol
// position of their own; the caller (sort/sft.cpp) binds (node, stage, iter,
// clock) via ScopedPredContext around the call.  With no sink bound this is a
// thread-local load and a branch.
void report_verdict(obs::Ev kind, obs::Counter pass_c, obs::Counter fail_c,
                    const std::optional<Violation>& v) {
  if (!obs::active()) return;
  const auto& at = obs::pred_context();
  if (auto* me = obs::metrics()) {
    me->inc(v ? fail_c : pass_c);
    me->phi_verdict(at.stage, !v);
  }
  if (auto* tr = obs::tracer())
    tr->instant(kind, at.node, at.stage, at.iter, at.clock, v ? 0 : 1,
                v ? v->position : 0, v ? v->what : std::string{});
}

std::optional<Violation> record_verdict(obs::Ev kind, obs::Counter pass_c,
                                        obs::Counter fail_c,
                                        std::optional<Violation> v) {
  report_verdict(kind, pass_c, fail_c, v);
  return v;
}

std::optional<Violation> check_run(std::span<const Key> v, std::size_t lo,
                                   std::size_t hi, bool non_decreasing,
                                   const char* which) {
  const std::size_t n = hi - lo;
  const std::size_t k = kernels::table().run_break(v.data() + lo, n, non_decreasing);
  if (k == n) return std::nullopt;
  return Violation{std::string("phi_P: ") + which + " run broken",
                   static_cast<std::int64_t>(lo + k)};
}

}  // namespace

std::optional<Violation> eval_phi_p(std::span<const Key> window_vals,
                                    bool final_stage) {
  if (final_stage)
    return check_run(window_vals, 0, window_vals.size(), true, "ascending(final)");
  const std::size_t mid = window_vals.size() / 2;
  if (auto v = check_run(window_vals, 0, mid, true, "ascending")) return v;
  return check_run(window_vals, mid, window_vals.size(), false, "descending");
}

void record_phi_p(const std::optional<Violation>& verdict) {
  report_verdict(obs::Ev::kPhiP, obs::Counter::kPhiPPass,
                 obs::Counter::kPhiPFail, verdict);
}

std::optional<Violation> phi_p(std::span<const Key> window_vals, bool final_stage) {
  auto v = eval_phi_p(window_vals, final_stage);
  record_phi_p(v);
  return v;
}

std::optional<Violation> eval_phi_f(std::span<const Key> llbs_inner,
                                    std::span<const Key> lbs_inner,
                                    bool ascending) {
  assert(llbs_inner.size() == lbs_inner.size());
  const std::size_t size = lbs_inner.size();
  if (size <= 1) {
    if (size == 1 && llbs_inner[0] != lbs_inner[0])
      return Violation{"phi_F: singleton mismatch", 0};
    return std::nullopt;
  }
  const std::int64_t idx = kernels::phi_f_scan(llbs_inner, lbs_inner, ascending);
  if (idx < 0) return std::nullopt;
  return Violation{"phi_F: sequence not complete w.r.t. previous stage", idx};
}

void record_phi_f(const std::optional<Violation>& verdict) {
  report_verdict(obs::Ev::kPhiF, obs::Counter::kPhiFPass,
                 obs::Counter::kPhiFFail, verdict);
}

std::optional<Violation> phi_f(std::span<const Key> llbs_inner,
                               std::span<const Key> lbs_inner, bool ascending) {
  auto v = eval_phi_f(llbs_inner, lbs_inner, ascending);
  record_phi_f(v);
  return v;
}

namespace {

// The one Φ_C walk under both phi_c_merge overloads.  It visits maximal runs
// [p, q] of consecutive sender-covered nodes that agree on local coverage,
// in ascending order, so a flat collection compares / absorbs each run as
// run_nodes*m contiguous words (kernels.h) instead of node by node.
// For the run of `nodes` entries from p, `verify(p, nodes)` returns the offset
// of the first differing word (nodes*m when all agree) and `absorb(p, nodes)`
// adopts the sender's entries.  A
// disagreement reports the node that owns the word, and stats count exactly
// the nodes fully processed before it.
template <typename Verify, typename Absorb>
std::optional<Violation> phi_c_walk(BitVec& local_cover,
                                    const BitVec& sender_cover,
                                    const cube::Subcube& window, std::size_t m,
                                    MergeStats* stats, Verify&& verify,
                                    Absorb&& absorb) {
  cube::NodeId p = window.start;
  while (p <= window.end) {
    if (!sender_cover.test(p)) {
      ++p;
      continue;
    }
    const bool have = local_cover.test(p);
    cube::NodeId q = p;
    while (q < window.end && sender_cover.test(q + 1) &&
           local_cover.test(q + 1) == have)
      ++q;
    const std::size_t nodes = static_cast<std::size_t>(q - p) + 1;
    const std::size_t words = nodes * m;
    if (have) {
      const std::size_t bad = verify(p, nodes);
      if (bad != words) {
        if (stats) stats->checked += (bad / m) * m;
        return Violation{"phi_C: redundant copies disagree",
                         static_cast<std::int64_t>(p) +
                             static_cast<std::int64_t>(bad / m)};
      }
      if (stats) stats->checked += words;
    } else {
      absorb(p, nodes);
      for (cube::NodeId r = p; r <= q; ++r) local_cover.set(r);
      if (stats) stats->absorbed += words;
    }
    p = q + 1;
  }
  return std::nullopt;
}

}  // namespace

std::optional<Violation> phi_c_merge(std::span<Key> local, BitVec& local_cover,
                                     std::span<const Key> recv_slice,
                                     const BitVec& sender_cover,
                                     const cube::Subcube& window, std::size_t m,
                                     MergeStats* stats) {
  assert(recv_slice.size() == static_cast<std::size_t>(window.size()) * m);
  const auto at_local = [&](cube::NodeId p) {
    return local.data() + static_cast<std::size_t>(p) * m;
  };
  const auto at_recv = [&](cube::NodeId p) {
    return recv_slice.data() + static_cast<std::size_t>(p - window.start) * m;
  };
  return record_verdict(
      obs::Ev::kPhiC, obs::Counter::kPhiCPass, obs::Counter::kPhiCFail,
      phi_c_walk(
          local_cover, sender_cover, window, m, stats,
          [&](cube::NodeId p, std::size_t nodes) {
            return kernels::table().mismatch(at_local(p), at_recv(p),
                                             nodes * m);
          },
          [&](cube::NodeId p, std::size_t nodes) {
            std::memcpy(at_local(p), at_recv(p), nodes * m * sizeof(Key));
          }));
}

std::optional<Violation> phi_c_merge(std::span<const Key*> local,
                                     BitVec& local_cover,
                                     const sim::LbsSlice& recv,
                                     const BitVec& sender_cover,
                                     const cube::Subcube& window, std::size_t m,
                                     sim::BlockArena& arena,
                                     MergeStats* stats) {
  assert(recv.size() == static_cast<std::size_t>(window.size()) * m);
  const bool shared = recv.shares_blocks();
  const auto at_recv = [&](cube::NodeId p) {
    return recv.block(static_cast<std::size_t>(p - window.start), m);
  };
  return record_verdict(
      obs::Ev::kPhiC, obs::Counter::kPhiCPass, obs::Counter::kPhiCFail,
      phi_c_walk(
          local_cover, sender_cover, window, m, stats,
          [&](cube::NodeId p, std::size_t nodes) {
            // Fast path: the whole run is the same blocks (the honest case).
            if (shared && recv.same_blocks(p - window.start,
                                           local.subspan(p, nodes)))
              return nodes * m;
            for (std::size_t k = 0; k < nodes; ++k) {
              const Key* mine = local[p + k];
              const Key* theirs = at_recv(p + k);
              if (mine == theirs) continue;  // one block: equal by identity
              const std::size_t w = kernels::table().mismatch(mine, theirs, m);
              if (w != m) return k * m + w;
            }
            return nodes * m;
          },
          [&](cube::NodeId p, std::size_t nodes) {
            if (shared) {
              for (std::size_t k = 0; k < nodes; ++k) local[p + k] = at_recv(p + k);
              return;
            }
            // A contiguous run of entries: one arena copy, one pointer each.
            const Key* base =
                arena.store(std::span<const Key>(at_recv(p), nodes * m));
            for (std::size_t k = 0; k < nodes; ++k) local[p + k] = base + k * m;
          }));
}

std::optional<Violation> bit_compare(std::span<const Key> llbs,
                                     std::span<const Key> lbs,
                                     const cube::Subcube& outer,
                                     const cube::Subcube& inner,
                                     bool inner_ascending, bool final_stage,
                                     std::size_t m) {
  const auto window_span = [&](std::span<const Key> full, const cube::Subcube& sc) {
    return full.subspan(static_cast<std::size_t>(sc.start) * m,
                        static_cast<std::size_t>(sc.size()) * m);
  };
  if (auto v = phi_p(window_span(lbs, outer), final_stage)) return v;
  return phi_f(window_span(llbs, inner), window_span(lbs, inner), inner_ascending);
}

}  // namespace aoft::sort
