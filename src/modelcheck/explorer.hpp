// bloom87: exhaustive bounded interleaving exploration.
//
// The full engine is one sequential explicit-stack DFS over every schedule
// (and every nondeterministic safe/regular read outcome) of a sim_state.
// Its stack holds branch nodes -- a (state, pending-choices) pair whose
// state has already been counted and memoized; a forced stretch (one
// enabled move) steps in place, and a node's last move takes its state
// instead of copying it. Interior states are memoized by a structural
// fingerprint in a flat open-addressing table of 64-bit fingerprints
// (verdicts.hpp's key_table): confluent interleavings that produce the
// same memory, process, and history state are explored once. Each complete
// execution's external history is checked against the requested property
// (atomicity via the exhaustive checker, or single-writer regularity);
// verdicts are memoized per distinct history in a second such table.
//
// Determinism: both engines run on the calling thread, so everything they
// report -- `first_violation` and the counts of a run stopped early
// included -- is a function of the configuration alone. The POR engine
// (the default, por.hpp) judges histories in one canonical order, stepping
// an incremental judge state (verdicts.hpp) instead of checking each
// history anew.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "histories/history.hpp"
#include "modelcheck/sim.hpp"

namespace bloom87::mc {

enum class property : std::uint8_t { atomic, regular_swmr, safe_swmr };

struct explore_config {
    property prop{property::atomic};
    value_t initial{0};
    /// Safety valve; exploration reports truncated=true when hit. It counts
    /// work: the states the full engine explores, or, in the reduced engine
    /// (por.hpp), phase-1 arrivals plus phase 2's DAG states, memoized
    /// (DAG state, judge state) pairs and histories rebuilt for the
    /// per-history checker. A history counted in bulk, or passed by its
    /// judge state, costs nothing.
    std::uint64_t max_states{20'000'000};
    /// Stop at the first property violation (else count them all).
    bool stop_at_first_violation{true};
    /// Ignored: both engines run on the calling thread. It stays only
    /// because benchmark/workloads.cpp:68 still sets it.
    unsigned threads{0};
    /// Partial-order reduction (por.hpp): explore the trace-quotient graph
    /// with sleep-set pruning instead of every raw interleaving. Aggregate
    /// verdicts (property_holds / violations / distinct_histories) are
    /// IDENTICAL with and without; states_explored / memo_hits / leaves
    /// count different objects (quotient arrivals and DAG paths vs raw
    /// states and schedules). Automatically disengaged -- full exploration,
    /// reduction.engaged == false in the result -- when the state arms the
    /// race detector (per-state happens-before clocks break step
    /// independence) or exceeds the engine's 16-process/64-register limits.
    bool por{true};
    /// Reader-symmetry reduction (only meaningful with por): canonicalize
    /// quotient nodes over permutations of interchangeable processes
    /// (process::symmetry_key), with per-edge permutations so the
    /// enumeration phase still reconstructs every concrete history exactly.
    bool symmetry{true};
};

struct violation {
    std::vector<operation> hist;
    std::string diagnosis;
};

/// What the partial-order/symmetry reduction did (all zero when disengaged).
struct reduction_stats {
    /// True when the run actually used the POR engine (cfg.por on AND the
    /// configuration was eligible -- see explore_config::por).
    bool engaged{false};
    /// True when symmetry canonicalization was active with a non-trivial
    /// group (>= 2 interchangeable processes).
    bool symmetry{false};
    std::uint64_t core_states{0};   ///< trace-quotient nodes interned
    std::uint64_t core_edges{0};    ///< labeled edges recorded
    std::uint64_t sleep_pruned{0};  ///< (node, process) expansions suppressed
    /// Arrivals canonicalized via a non-identity permutation.
    std::uint64_t symmetry_folds{0};
    std::uint64_t symmetry_group{1};  ///< |G|: symmetry permutations considered per arrival
    /// States of the determinized label DAG phase 2 built (por.hpp).
    std::uint64_t dfa_states{0};
    /// Accepting DAG paths counted in phase 2: one per distinct history
    /// judged, so it equals distinct_histories.
    std::uint64_t enumerated_paths{0};
    /// Judge states phase 2 interned (verdicts.hpp's label_judge; the empty
    /// prefix and the failed state included).
    std::uint64_t judge_states{0};
    /// (DAG state, judge state) pairs whose sub-DAG phase 2 walked and
    /// memoized; a later arrival at one is counted without walking it.
    std::uint64_t product_pairs{0};
    /// Non-empty when symmetry was requested, the configuration HAS classes
    /// of interchangeable processes, and the reduction still could not
    /// engage (unusable process ids, or a group past the 64-permutation
    /// cap): says what to fix. Empty when symmetry engaged or there was
    /// nothing to permute. Surfaced by model_explorer as a warning line --
    /// a silently disabled reduction masquerades as a weak one.
    std::string symmetry_warning;
};

/// Container-size accounting of the exploration's memo structures. The sets
/// only grow, so the final numbers are also the peaks -- bound sweeps die on
/// this as often as on time.
struct memory_stats {
    std::uint64_t memo_entries{0};    ///< visited-set entries (= peak)
    std::uint64_t memo_bytes{0};      ///< visited-set bytes, by capacity
    std::uint64_t bytes_per_state{0}; ///< memo_bytes / memo_entries
    /// Full engine: distinct-history verdict memo entries. The POR engine
    /// keeps no such memo (each DAG path is a distinct history): 0.
    std::uint64_t history_entries{0};
    /// POR engine, by capacity: the quotient's nodes and edge array, the
    /// label tables, the closure marks, the DAG's states, edges, kernel
    /// arena and index, the judge states, the step and product memos and
    /// the path counts.
    std::uint64_t graph_bytes{0};
};

struct explore_result {
    std::uint64_t states_explored{0};
    std::uint64_t memo_hits{0};
    std::uint64_t leaves{0};
    std::uint64_t distinct_histories{0};
    std::uint64_t violations{0};
    bool property_holds{true};
    bool truncated{false};
    /// A violating trace, present whenever property_holds is false. The POR
    /// engine records the first violating history in label order; the full
    /// engine records the first its DFS reaches.
    std::optional<violation> first_violation;
    /// Lockset-mode only: the first documented divergence between the
    /// lockset second opinion and happens-before (a raw candidate-set
    /// empty on a guarded site) with its witness schedule. Informational:
    /// never affects property_holds, and the state is NOT pruned -- the
    /// exploration continues past it, so certification still covers every
    /// bounded schedule.
    std::optional<violation> first_divergence;
    /// Lockset-mode only: states whose detector held a latched divergence.
    std::uint64_t divergences{0};
    /// Provenance of first_violation for honest replay (proof_replay): true
    /// when it was reconstructed from the reduced (trace-quotient) space
    /// rather than recorded off a raw explored schedule. Reconstructed
    /// traces are real executions -- the label path IS a schedule -- but a
    /// replay tool should know it is looking at a canonical representative,
    /// not the first raw DFS hit.
    bool first_violation_reduced{false};
    reduction_stats reduction;
    memory_stats memory;
};

/// Explores all executions of `initial_state`. The state's processes define
/// the protocol; the registers define the memory model.
[[nodiscard]] explore_result explore(const sim_state& initial_state,
                                     const explore_config& cfg);

/// Renders an operation list for diagnostics ("proc 0 write(3) [4,9)" ...).
[[nodiscard]] std::string format_operations(const std::vector<operation>& ops);

}  // namespace bloom87::mc
