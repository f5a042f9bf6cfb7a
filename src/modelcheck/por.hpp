// bloom87: partial-order + symmetry reduction for the bounded explorer.
//
// The full explorer memoizes states INCLUDING the accumulated external
// history, so every distinct history prefix re-explores the same
// register/process configuration. This engine exploits the repository's
// load-bearing structural fact -- the simulation clock ticks ONLY at
// begin_op/end_op, so a history is exactly a sequence of emitted labels
// whose positions are the timestamps -- to explore the TRACE-QUOTIENT
// instead, in two phases:
//
//   Phase 1 (parallel, work-sharing): DFS over "core" states (fingerprinted
//   WITHOUT history and clock -- sim_state::fingerprint_core), building a
//   labeled graph. Nodes are (core state, sleep set) pairs, canonicalized
//   over the reader-symmetry group; edges carry the emitted label (if any)
//   plus the permutation aligning the child's canonical frame with the
//   parent's. Sleep sets (Godefroid) prune commuting interleavings using
//   per-step footprints (process::footprint): at least one representative
//   per Mazurkiewicz trace survives, and a trace determines its label
//   sequence (visible steps are pairwise dependent), so no history is lost.
//
//   Phase 2 (sequential): determinize. Read as an automaton over CONCRETE
//   labels, the graph's states are (node, sigma) pairs, sigma being the
//   composed per-edge permutation -- symmetric variants arrive via
//   distinct permutation chains, so counts are exact, not per-orbit. The
//   subset construction over epsilon closures (built lazily, memoized on
//   each set's kernel, out-edges sorted by label) yields a DAG in which
//   every accepting path spells a different label sequence, i.e. a
//   different history (accepting = all processes done; crashed counts).
//   A DFS rebuilds each path's history with exact timestamps and judges
//   it once with the same checkers as the full engine (verdicts.hpp), in
//   lexicographic label order at any thread count. property_holds /
//   violations / distinct_histories are therefore IDENTICAL to full
//   exploration; states_explored / memo_hits / leaves count quotient
//   arrivals / quotient memo hits / DAG paths (= distinct histories).
//
// The budget (explore_config::max_states) covers phase-1 arrivals plus the
// DAG states and histories of phase 2; a truncated phase 1 skips phase 2
// entirely (a partial graph cannot be enumerated honestly).
#pragma once

#include "modelcheck/explorer.hpp"
#include "modelcheck/sim.hpp"

namespace bloom87::mc {

/// Engine limits: process identities ride in 4-bit permutation nibbles and
/// register footprints in one 64-bit mask.
[[nodiscard]] bool reduction_applicable(const sim_state& initial);

/// Runs the reduced exploration. Precondition: reduction_applicable.
[[nodiscard]] explore_result explore_reduced(const sim_state& initial,
                                             const explore_config& cfg,
                                             unsigned threads);

}  // namespace bloom87::mc
