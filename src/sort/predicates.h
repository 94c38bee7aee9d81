// The constraint predicate Φ = (Φ_P, Φ_F, Φ_C) for bitonic sorting
// (paper §3, Figs. 4a–4c), as pure functions.
//
// The fault-tolerant sort S_FT gossips, during stage i, the values every node
// held at the *start* of the stage; the collected sequence LBS_i covers the
// node's home subcube SC_{i+1}.  At the end of the stage each node checks:
//
//   Φ_P (progress)    — LBS_i is bitonic: the lower dim-i half of the window
//                       is non-decreasing and the upper half non-increasing
//                       (the final verification checks a fully ascending
//                       sequence instead);
//   Φ_F (feasibility) — LBS_i restricted to the node's dim-i home subcube,
//                       which stage i-1 sorted, is a permutation of the
//                       previously validated LLBS_i over the same range.
//                       Because LLBS_i is bitonic, a permutation that is
//                       sorted must be its two-pointer merge, checkable in
//                       one linear pass without auxiliary storage;
//   Φ_C (consistency) — applied on every message: the received copy of each
//                       already-collected element must equal the local copy,
//                       so a Byzantine sender cannot tell different peers
//                       different stories (copies travel vertex-disjoint
//                       paths; see hypercube/routing.h).
//
// Everything is expressed over *flattened* key arrays so the block variant
// (m keys per node, paper §5) reuses the same code: a window of 2^{i+1} nodes
// with m keys each is a flat span of 2^{i+1}·m keys, and every predicate
// "scales by m" exactly as the paper states.
//
// Φ_P and Φ_F come in two halves.  eval_phi_p / eval_phi_f compute a verdict
// and nothing else; record_phi_p / record_phi_f report a verdict to the bound
// observability sink.  phi_p / phi_f do both.  S_FT evaluates a stage
// boundary's verdicts once per distinct input (sim::VerdictMemo) and records
// them once per node, so traces and metrics count every node's check.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "hypercube/masks.h"
#include "hypercube/subcube.h"
#include "sim/blocks.h"
#include "sort/keys.h"
#include "util/bitvec.h"

namespace aoft::sort {

using util::BitVec;

// A failed executable assertion (declared in sim/blocks.h).
using sim::Violation;

// --- Φ_P: progress -----------------------------------------------------------

// Check that `window_vals` (the LBS slice over a window of `2h` nodes,
// m keys each, flattened) is bitonic: first half non-decreasing, second half
// non-increasing.  With `final_stage` the whole window must be non-decreasing
// (the paper's "i != n" guard in Fig. 4a).
std::optional<Violation> phi_p(std::span<const Key> window_vals, bool final_stage);
std::optional<Violation> eval_phi_p(std::span<const Key> window_vals,
                                    bool final_stage);
void record_phi_p(const std::optional<Violation>& verdict);

// --- Φ_F: feasibility --------------------------------------------------------

// Check that `lbs_inner` (sorted; ascending iff `ascending`) is a permutation
// of the bitonic `llbs_inner` (non-decreasing first half, non-increasing
// second half).  Both spans cover the same dim-i home subcube, flattened.
// One linear two-pointer pass (paper Fig. 4b); duplicates are handled by
// preferring the ascending run, which is safe because equal keys are
// interchangeable.
std::optional<Violation> phi_f(std::span<const Key> llbs_inner,
                               std::span<const Key> lbs_inner, bool ascending);
std::optional<Violation> eval_phi_f(std::span<const Key> llbs_inner,
                                    std::span<const Key> lbs_inner,
                                    bool ascending);
void record_phi_f(const std::optional<Violation>& verdict);

// --- Φ_C: consistency --------------------------------------------------------

// Outcome of merging one received LBS slice into the local collection.
struct MergeStats {
  std::uint64_t absorbed = 0;  // entries newly copied from the sender
  std::uint64_t checked = 0;   // entries cross-checked against a local copy
};

// Merge the received slice `recv_slice` (covering `window`, flattened with
// m = block keys per node) into `local` (a full-cube flattened array).
// `sender_cover` marks the node labels whose entries the sender had actually
// collected when it sent; `local_cover` marks the labels already collected
// locally.  Entries in both covers are compared (consistency: they travelled
// vertex-disjoint routes); entries only the sender has are absorbed.
// On success `local_cover` grows by `sender_cover`.
//
// Returns a violation on the first mismatch (paper Fig. 4c ERROR).
std::optional<Violation> phi_c_merge(std::span<Key> local, BitVec& local_cover,
                                     std::span<const Key> recv_slice,
                                     const BitVec& sender_cover,
                                     const cube::Subcube& window, std::size_t m,
                                     MergeStats* stats = nullptr);

// The same merge over a block-form collection (sim/blocks.h), as S_FT holds
// it: `local[p]` points at node p's m-key entry and `recv` is the received
// slice in either form.  Verdict, position, MergeStats, cover and resulting
// keys equal the flat overload's on the same keys.  Equal pointers are one
// block, so their word compare is skipped (the words still count as
// checked); absorbing adopts the sender's block pointer, or stores a copy in
// `arena` when `recv` is contiguous.
std::optional<Violation> phi_c_merge(std::span<const Key*> local,
                                     BitVec& local_cover,
                                     const sim::LbsSlice& recv,
                                     const BitVec& sender_cover,
                                     const cube::Subcube& window, std::size_t m,
                                     sim::BlockArena& arena,
                                     MergeStats* stats = nullptr);

// --- bit_compare -------------------------------------------------------------

// The paper's bit_compare: Φ_P over the stage window followed by Φ_F over the
// inner home subcube (Fig. 3 / Lemma 4).  `lbs` and `llbs` are full-cube
// flattened arrays; `outer` is SC_{i+1,node}; `inner` is SC_{i,node};
// `inner_ascending` is the direction stage i-1 sorted the inner subcube.
std::optional<Violation> bit_compare(std::span<const Key> llbs,
                                     std::span<const Key> lbs,
                                     const cube::Subcube& outer,
                                     const cube::Subcube& inner,
                                     bool inner_ascending, bool final_stage,
                                     std::size_t m);

}  // namespace aoft::sort
