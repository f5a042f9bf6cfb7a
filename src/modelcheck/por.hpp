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
//   Phase 1 (sequential): DFS over "core" states (fingerprinted
//   WITHOUT history and clock -- sim_state::fingerprint_core), building a
//   labeled graph. Nodes are (core state, sleep set) pairs, canonicalized
//   over the reader-symmetry group; edges carry the ids of the labels
//   emitted (if any; each distinct label, in its source's canonical frame,
//   is stored once) plus the index in the group of the permutation
//   aligning the child's canonical frame with the parent's. A node is
//   expanded once, so its out-edges sit together in one flat edge array.
//   Sleep sets (Godefroid) prune commuting interleavings using per-step
//   footprints (process::footprint): at least one representative per
//   Mazurkiewicz trace survives, and a trace determines its label sequence
//   (visible steps are pairwise dependent), so no history is lost.
//
//   The freeze: the graph is then frozen in place. Edges into nodes that
//   cannot reach an accepting node are dropped, each node's epsilon edges
//   go first, and every concrete label -- a stored label under each
//   permutation -- is numbered once, in label order, so comparing two ids
//   compares their labels.
//
//   Phase 2 (sequential): determinize and judge. Read as an automaton over
//   CONCRETE labels, the graph's states are (node, sigma) pairs, sigma
//   being the composed per-edge permutation -- symmetric variants arrive
//   via distinct permutation chains, so counts are exact, not per-orbit.
//   The subset construction over epsilon closures (built lazily, each set
//   memoized on its kernel, out-edges sorted by label id) yields a DAG in
//   which every accepting path spells a different label sequence, i.e. a
//   different history (accepting = all processes done; crashed counts).
//   Kernels are interned in one word arena (verdicts.hpp's word_interner,
//   which also holds the judge states), so a DAG state allocates nothing.
//   A DFS walks the DAG in product with the judge state (verdicts.hpp's
//   label_judge), stepping it along every edge: an accepting state's
//   history gets the verdict judge_history would give it, without being
//   built. A (judge state, label) step is memoized, exactly: label_judge's
//   next state depends on the pair alone. Each (DAG state, judge state)
//   pair whose sub-DAG has been walked is memoized with its violation
//   count, and a later arrival at it is counted in bulk. Histories are
//   judged -- and the first violation found -- in lexicographic label
//   order; the first violation's diagnosis comes from judge_history on its
//   rebuilt history, as do the verdicts of histories the judge state
//   cannot represent. property_holds / violations / distinct_histories are
//   therefore IDENTICAL to full exploration; states_explored / memo_hits /
//   leaves count quotient arrivals / quotient memo hits / DAG paths (=
//   distinct histories).
//
// The budget (explore_config::max_states) counts work: phase-1 arrivals,
// then phase 2's DAG states, memoized pairs and histories rebuilt for
// judge_history. A history counted in bulk, or passed by its judge state,
// costs nothing. A truncated phase 1 skips phase 2 entirely (a partial
// graph cannot be enumerated honestly).
//
// Both phases run on the calling thread, so every count the engine reports
// is a function of the configuration alone; explore_config::threads does
// not apply.
#pragma once

#include "modelcheck/explorer.hpp"
#include "modelcheck/sim.hpp"

namespace bloom87::mc {

/// Engine limits: process identities ride in 4-bit permutation nibbles and
/// register footprints in one 64-bit mask.
[[nodiscard]] bool reduction_applicable(const sim_state& initial);

/// Runs the reduced exploration. Precondition: reduction_applicable.
[[nodiscard]] explore_result explore_reduced(const sim_state& initial,
                                             const explore_config& cfg);

}  // namespace bloom87::mc
