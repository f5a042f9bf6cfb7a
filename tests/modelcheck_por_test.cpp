// Partial-order + symmetry reduction (src/modelcheck/por.cpp): the
// trace-quotient engine must agree with full exploration on every aggregate
// verdict -- property_holds, violations, distinct_histories -- while
// exploring far fewer states. This suite pins the reduction-specific
// surface the shared equivalence tests (modelcheck_parallel_test) do not:
// symmetry canonicalization over identical readers, epsilon-cycle
// enumeration (seqlock retry loops), budget semantics of the two-phase
// engine, automatic disengagement, and violation-trace provenance.
#include <gtest/gtest.h>

#include "modelcheck/explorer.hpp"
#include "modelcheck/processes.hpp"

namespace bloom87::mc {
namespace {

mc_register atomic_reg(mc_value domain, mc_value committed = 0) {
    mc_register r;
    r.level = reg_level::atomic;
    r.domain = domain;
    r.committed = committed;
    return r;
}

/// Two IDENTICAL readers (same read count): the canonical symmetry fixture.
sim_state bloom_twin_readers() {
    sim_state s;
    s.registers.push_back(atomic_reg(6));
    s.registers.push_back(atomic_reg(6));
    s.procs.push_back(make_bloom_writer(0, {1}));
    s.procs.push_back(make_bloom_writer(1, {2}));
    s.procs.push_back(make_bloom_reader(2, 1));
    s.procs.push_back(make_bloom_reader(3, 1));
    return s;
}

/// Readers with DIFFERENT read counts: interchangeability must NOT engage.
sim_state bloom_unequal_readers() {
    sim_state s;
    s.registers.push_back(atomic_reg(6));
    s.registers.push_back(atomic_reg(6));
    s.procs.push_back(make_bloom_writer(0, {1}));
    s.procs.push_back(make_bloom_writer(1, {2}));
    s.procs.push_back(make_bloom_reader(2, 2));
    s.procs.push_back(make_bloom_reader(3, 1));
    return s;
}

sim_state bloom_2x2_1reader() {
    sim_state s;
    s.registers.push_back(atomic_reg(12));
    s.registers.push_back(atomic_reg(12));
    s.procs.push_back(make_bloom_writer(0, {1, 2}));
    s.procs.push_back(make_bloom_writer(1, {3, 4}));
    s.procs.push_back(make_bloom_reader(2, 1));
    return s;
}

/// Seqlock reader retry loops are epsilon CYCLES in the quotient graph
/// (the retry returns to an already-interned core state without emitting a
/// label); the epsilon closures of phase 2 absorb them, and the result must
/// still agree with the full engine, which breaks the loop via
/// history-inclusive memoization.
sim_state seqlock_1write_1read() {
    sim_state s;
    s.registers.push_back(atomic_reg(3));  // sequence number: 2*writes+1
    s.registers.push_back(atomic_reg(2));  // payload
    s.procs.push_back(make_seqlock_writer(0, {1}));
    s.procs.push_back(make_seqlock_reader(0, 1, 1));
    return s;
}

explore_result run(const sim_state& s, bool por, bool symmetry,
                   bool stop_at_first = true) {
    explore_config cfg;
    cfg.threads = 1;
    cfg.por = por;
    cfg.symmetry = symmetry;
    cfg.stop_at_first_violation = stop_at_first;
    return explore(s, cfg);
}

TEST(Symmetry, TwinReadersFoldAndVerdictsAreExact) {
    const explore_result full = run(bloom_twin_readers(), false, false);
    const explore_result por = run(bloom_twin_readers(), true, false);
    const explore_result sym = run(bloom_twin_readers(), true, true);
    ASSERT_FALSE(full.truncated);

    // |G| = 2 over the twin readers; permuted states actually folded.
    EXPECT_TRUE(sym.reduction.engaged);
    EXPECT_TRUE(sym.reduction.symmetry);
    EXPECT_EQ(sym.reduction.symmetry_group, 2u);
    EXPECT_GT(sym.reduction.symmetry_folds, 0u);
    EXPECT_FALSE(por.reduction.symmetry);
    EXPECT_EQ(por.reduction.symmetry_group, 1u);

    // Fewer quotient nodes with symmetry, same verdicts everywhere: the
    // per-edge permutations reconstruct every CONCRETE history, so the
    // counts are exact, not per-orbit.
    EXPECT_LT(sym.reduction.core_states, por.reduction.core_states);
    for (const explore_result* r : {&por, &sym}) {
        EXPECT_EQ(r->property_holds, full.property_holds);
        EXPECT_EQ(r->violations, full.violations);
        EXPECT_EQ(r->distinct_histories, full.distinct_histories);
    }
}

TEST(Symmetry, UnequalReadersAreNotInterchanged) {
    const explore_result sym = run(bloom_unequal_readers(), true, true);
    EXPECT_TRUE(sym.reduction.engaged);
    EXPECT_FALSE(sym.reduction.symmetry);
    EXPECT_EQ(sym.reduction.symmetry_group, 1u);
    EXPECT_EQ(sym.reduction.symmetry_folds, 0u);
    const explore_result full = run(bloom_unequal_readers(), false, false);
    EXPECT_EQ(sym.distinct_histories, full.distinct_histories);
    EXPECT_EQ(sym.property_holds, full.property_holds);
}

TEST(EpsilonCycles, SeqlockRetryLoopTerminatesAndAgrees) {
    const explore_result full = run(seqlock_1write_1read(), false, false);
    const explore_result por = run(seqlock_1write_1read(), true, true);
    ASSERT_FALSE(full.truncated);
    ASSERT_FALSE(por.truncated);
    EXPECT_TRUE(por.reduction.engaged);
    EXPECT_EQ(por.property_holds, full.property_holds);
    EXPECT_EQ(por.violations, full.violations);
    EXPECT_EQ(por.distinct_histories, full.distinct_histories);
    EXPECT_EQ(por.reduction.enumerated_paths, por.distinct_histories);
}

TEST(Stats, ReductionAndMemoryAccountingAreCoherent) {
    const explore_result res = run(bloom_2x2_1reader(), true, true);
    ASSERT_TRUE(res.reduction.engaged);
    EXPECT_GT(res.reduction.core_states, 0u);
    // Arrivals = fresh interns + memo hits; every fresh intern is a core
    // state and every edge is one arrival.
    EXPECT_EQ(res.states_explored,
              res.reduction.core_states + res.memo_hits);
    EXPECT_GE(res.reduction.core_edges, res.reduction.core_states - 1);
    EXPECT_EQ(res.reduction.enumerated_paths, res.leaves);
    EXPECT_EQ(res.memory.memo_entries, res.reduction.core_states);
    EXPECT_GT(res.memory.memo_bytes, 0u);
    EXPECT_GT(res.memory.graph_bytes, 0u);
    EXPECT_GT(res.memory.bytes_per_state, 0u);
    // One DAG path per distinct history: nothing is walked twice.
    EXPECT_GT(res.reduction.dfa_states, 0u);
    EXPECT_EQ(res.reduction.enumerated_paths, res.distinct_histories);

    // The full engine reports memory too (graph_bytes stays 0).
    const explore_result full = run(bloom_2x2_1reader(), false, false);
    EXPECT_FALSE(full.reduction.engaged);
    EXPECT_GT(full.memory.memo_entries, 0u);
    EXPECT_GT(full.memory.memo_bytes, 0u);
    EXPECT_EQ(full.memory.graph_bytes, 0u);
    // The headline of the whole exercise: the quotient is much smaller.
    EXPECT_LT(res.reduction.core_states * 10, full.memory.memo_entries);
}

TEST(Provenance, ReducedViolationTraceIsFlagged) {
    sim_state broken;
    broken.registers.push_back(atomic_reg(8));
    broken.registers.push_back(atomic_reg(8));
    broken.procs.push_back(make_bloom_writer(0, {1}));
    broken.procs.push_back(make_bloom_writer_wrong_tag(1, {2}));
    broken.procs.push_back(make_bloom_reader(2, 2));

    const explore_result full = run(broken, false, false);
    ASSERT_FALSE(full.property_holds);
    ASSERT_TRUE(full.first_violation.has_value());
    EXPECT_FALSE(full.first_violation_reduced);

    const explore_result red = run(broken, true, true);
    ASSERT_FALSE(red.property_holds);
    ASSERT_TRUE(red.first_violation.has_value());
    EXPECT_TRUE(red.first_violation_reduced);
    EXPECT_FALSE(red.first_violation->hist.empty());
    EXPECT_FALSE(red.first_violation->diagnosis.empty());
}

TEST(Budget, TruncatedPhaseOneSkipsEnumeration) {
    explore_config cfg;
    cfg.threads = 1;
    cfg.max_states = 100;  // far below the quotient's ~6k arrivals
    const explore_result res = explore(bloom_2x2_1reader(), cfg);
    EXPECT_TRUE(res.reduction.engaged);
    EXPECT_TRUE(res.truncated);
    // A partial graph cannot be enumerated honestly: no paths, no verdicts.
    EXPECT_EQ(res.leaves, 0u);
    EXPECT_EQ(res.violations, 0u);
    EXPECT_GE(res.states_explored, cfg.max_states);
}

TEST(Budget, TruncatedDeterminizationStopsCleanly) {
    explore_config cfg;
    cfg.threads = 1;
    const explore_result whole = explore(bloom_2x2_1reader(), cfg);
    ASSERT_FALSE(whole.truncated);
    // Phase 1 fits; the DAG states plus the judged histories do not.
    cfg.max_states = whole.states_explored +
                     (whole.reduction.dfa_states + whole.distinct_histories) / 2;
    const explore_result res = explore(bloom_2x2_1reader(), cfg);
    EXPECT_TRUE(res.truncated);
    EXPECT_EQ(res.states_explored, whole.states_explored);
    EXPECT_LT(res.distinct_histories, whole.distinct_histories);
    EXPECT_LE(res.states_explored + res.reduction.dfa_states + res.leaves,
              cfg.max_states);
    EXPECT_TRUE(res.property_holds);
}

TEST(Disengage, RaceDetectionRoutesToTheFullEngine) {
    sim_state s = bloom_twin_readers();
    s.enable_race_detection();
    explore_config cfg;
    cfg.threads = 1;  // por/symmetry left on: must auto-disengage
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.reduction.engaged);
    EXPECT_TRUE(res.property_holds);  // packed-default sync: race-free
}

// A symmetric class whose process ids the reduction cannot use (here: out
// of the [0,16) relabeling range) must WARN, not silently run unreduced --
// a silently disabled reduction masquerades as a weak one.
TEST(SymmetryWarning, UnusableIdsWithTwinsWarn) {
    sim_state s;
    s.registers.push_back(atomic_reg(6));
    s.registers.push_back(atomic_reg(6));
    s.procs.push_back(make_bloom_writer(0, {1}));
    s.procs.push_back(make_bloom_writer(1, {2}));
    s.procs.push_back(make_bloom_reader(16, 1));  // twins, ids past the cap
    s.procs.push_back(make_bloom_reader(17, 1));
    explore_config cfg;
    cfg.threads = 1;
    const explore_result res = explore(s, cfg);
    EXPECT_TRUE(res.reduction.engaged);       // POR itself still runs
    EXPECT_FALSE(res.reduction.symmetry);     // ...without symmetry
    EXPECT_FALSE(res.reduction.symmetry_warning.empty());
    EXPECT_NE(res.reduction.symmetry_warning.find("unusable id"),
              std::string::npos);
    EXPECT_TRUE(res.property_holds);
}

TEST(SymmetryWarning, EngagedOrNothingToPermuteStaysSilent) {
    explore_config cfg;
    cfg.threads = 1;
    // Twins with good ids: symmetry engages, no warning.
    const explore_result twins = explore(bloom_twin_readers(), cfg);
    EXPECT_TRUE(twins.reduction.symmetry);
    EXPECT_TRUE(twins.reduction.symmetry_warning.empty());
    // No interchangeable processes at all: identity group, no warning.
    const explore_result lone = explore(bloom_unequal_readers(), cfg);
    EXPECT_FALSE(lone.reduction.symmetry);
    EXPECT_TRUE(lone.reduction.symmetry_warning.empty());
}

}  // namespace
}  // namespace bloom87::mc
