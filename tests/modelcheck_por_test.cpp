// Partial-order + symmetry reduction (src/modelcheck/por.cpp): the
// trace-quotient engine must agree with full exploration on every aggregate
// verdict -- property_holds, violations, distinct_histories -- while
// exploring far fewer states. This suite pins the reduction-specific
// surface the cross-engine tests (modelcheck_engines_test) do not:
// symmetry canonicalization over identical readers, epsilon-cycle
// enumeration (seqlock retry loops), budget semantics of the two-phase
// engine, phase 2's pinned counts, the checker's size limit, automatic
// disengagement, violation-trace provenance, and the memo table both
// engines share.
#include <gtest/gtest.h>

#include <functional>

#include "modelcheck/explorer.hpp"
#include "modelcheck/processes.hpp"
#include "modelcheck/verdicts.hpp"

namespace bloom87::mc {
namespace {

mc_register atomic_reg(mc_value domain, mc_value committed = 0) {
    mc_register r;
    r.level = reg_level::atomic;
    r.domain = domain;
    r.committed = committed;
    return r;
}

using state_factory = std::function<sim_state()>;

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

/// Smaller mutant (one write each) for FULL-space exploration: still
/// violates (130 distinct violating histories) at a fraction of the cost.
sim_state bloom_broken_tag_small() {
    sim_state s;
    s.registers.push_back(atomic_reg(8));
    s.registers.push_back(atomic_reg(8));
    s.procs.push_back(make_bloom_writer(0, {1}));
    s.procs.push_back(make_bloom_writer_wrong_tag(1, {2}));
    s.procs.push_back(make_bloom_reader(2, 2));
    return s;
}

/// Bloom over a faulty substrate: every process may fault once per `cls`.
sim_state faulty_bloom(fault_class cls) {
    sim_state s;
    for (int i = 0; i < 2; ++i) {
        mc_register r = atomic_reg(6);
        r.track_previous = true;
        s.registers.push_back(r);
    }
    s.procs.push_back(make_faulty_bloom_writer(0, {1}, cls, 1));
    s.procs.push_back(make_faulty_bloom_writer(1, {2}, cls, 1));
    s.procs.push_back(make_faulty_bloom_reader(2, 1, cls, 1));
    return s;
}

/// Bloom over a substrate that may serve one stale read per process.
sim_state faulty_stale_read() { return faulty_bloom(fault_class::stale_read); }

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
    // Judged in product with the DAG: far fewer pairs than histories.
    EXPECT_GT(res.reduction.judge_states, 0u);
    EXPECT_GT(res.reduction.product_pairs, 0u);
    EXPECT_LT(res.reduction.product_pairs, res.distinct_histories);

    // The full engine reports memory too (graph_bytes stays 0).
    const explore_result full = run(bloom_2x2_1reader(), false, false);
    EXPECT_FALSE(full.reduction.engaged);
    EXPECT_GT(full.memory.memo_entries, 0u);
    EXPECT_GT(full.memory.memo_bytes, 0u);
    EXPECT_EQ(full.memory.graph_bytes, 0u);
    // The headline of the whole exercise: the quotient is much smaller.
    EXPECT_LT(res.reduction.core_states * 10, full.memory.memo_entries);
}

// Both engines memoize in key_table. Its empty-slot marker, the all-ones
// key, is a fingerprint like any other: the table holds it beside the
// array, as a set and as a map, across growth.
TEST(KeyTable, TheEmptyMarkerIsAnOrdinaryKey) {
    constexpr std::uint64_t marker = key_table<>::kNoKey;
    key_table<> set;
    EXPECT_TRUE(set.try_emplace(marker).second);
    for (std::uint64_t k = 0; k < 5000; ++k) {
        EXPECT_TRUE(set.try_emplace(k * 0x9e3779b97f4a7c15ULL).second);
    }
    EXPECT_FALSE(set.try_emplace(marker).second);
    EXPECT_FALSE(set.try_emplace(4999 * 0x9e3779b97f4a7c15ULL).second);
    EXPECT_EQ(set.size(), 5001u);
    EXPECT_EQ(set.bytes(), 8192u * 8);

    key_table<std::uint32_t> map;
    EXPECT_EQ(map.find(marker), nullptr);
    EXPECT_EQ(map.try_emplace(marker, 7).first, 7u);
    EXPECT_EQ(map.try_emplace(marker, 9).first, 7u);
    ASSERT_NE(map.find(marker), nullptr);
    EXPECT_EQ(*map.find(marker), 7u);
    EXPECT_EQ(map.find(0), nullptr);
}

// The POR engine reaches verdicts through the judge state, but writes a
// violation's diagnosis with the per-history checker, on the same history.
TEST(Provenance, ReducedViolationTraceIsFlagged) {
    for (const state_factory& make :
         {state_factory(bloom_broken_tag_small), state_factory(faulty_stale_read)}) {
        const sim_state broken = make();
        const explore_result full = run(broken, false, false);
        ASSERT_FALSE(full.property_holds);
        ASSERT_TRUE(full.first_violation.has_value());
        EXPECT_FALSE(full.first_violation_reduced);

        const explore_result red = run(broken, true, true);
        ASSERT_FALSE(red.property_holds);
        ASSERT_TRUE(red.first_violation.has_value());
        EXPECT_TRUE(red.first_violation_reduced);
        EXPECT_FALSE(red.first_violation->hist.empty());
        const judgement j =
            judge_history(red.first_violation->hist, property::atomic, 0);
        EXPECT_FALSE(j.ok);
        EXPECT_EQ(red.first_violation->diagnosis, j.diagnosis);
    }
}

TEST(Budget, TruncatedPhaseOneSkipsEnumeration) {
    explore_config cfg;
    cfg.max_states = 100;  // far below the quotient's ~6k arrivals
    const explore_result res = explore(bloom_2x2_1reader(), cfg);
    EXPECT_TRUE(res.reduction.engaged);
    EXPECT_TRUE(res.truncated);
    // A partial graph cannot be enumerated honestly: no paths, no verdicts.
    EXPECT_EQ(res.leaves, 0u);
    EXPECT_EQ(res.violations, 0u);
    EXPECT_GE(res.states_explored, cfg.max_states);
}

// Phase 2's work counts against the budget after the phase-1 arrivals: its
// DAG states and memoized (DAG state, judge state) pairs, plus the histories
// it rebuilds for judge_history (none here: the property holds). Histories
// counted in bulk or passed by the judge state cost nothing. Wherever phase
// 2 truncates, it stops with the budget spent exactly.
TEST(Budget, TruncatedDeterminizationStopsCleanly) {
    explore_config cfg;
    const explore_result whole = explore(bloom_2x2_1reader(), cfg);
    ASSERT_FALSE(whole.truncated);
    ASSERT_GT(whole.reduction.product_pairs, 0u);
    const std::uint64_t phase2 =
        whole.reduction.dfa_states + whole.reduction.product_pairs;
    std::uint64_t last = 0;
    for (std::uint64_t k = 1; k < 20; ++k) {
        // Phase 1 fits; the DAG states plus the memoized pairs do not.
        cfg.max_states = whole.states_explored + phase2 * k / 20;
        const explore_result res = explore(bloom_2x2_1reader(), cfg);
        SCOPED_TRACE("max_states " + std::to_string(cfg.max_states));
        EXPECT_TRUE(res.truncated);
        EXPECT_EQ(res.states_explored, whole.states_explored);
        EXPECT_LT(res.distinct_histories, whole.distinct_histories);
        EXPECT_EQ(res.states_explored + res.reduction.dfa_states +
                      res.reduction.product_pairs,
                  cfg.max_states);
        EXPECT_GE(res.distinct_histories, last);
        last = res.distinct_histories;
        EXPECT_TRUE(res.property_holds);
    }
}

/// The paper's footnote 5: the reader samples the two tags in either order.
sim_state footnote5() {
    sim_state s;
    s.registers.push_back(atomic_reg(12));
    s.registers.push_back(atomic_reg(12));
    s.procs.push_back(make_bloom_writer(0, {1, 2}));
    s.procs.push_back(make_bloom_writer(1, {3, 4}));
    s.procs.push_back(make_bloom_reader_reversed(2, 2));
    return s;
}

// Phase 2's own counts, pinned: the label DAG, the judge states and the
// memoized pairs depend on how phase 2 builds and walks the DAG, not only
// on which histories exist, and the first violation's history pins the
// order in which histories are judged.
TEST(PhaseTwo, CountsArePinned) {
    const explore_result fn5 = run(footnote5(), true, true);
    EXPECT_EQ(fn5.reduction.symmetry_group, 1u);
    EXPECT_EQ(fn5.reduction.dfa_states, 4464u);
    EXPECT_EQ(fn5.reduction.judge_states, 1528u);
    EXPECT_EQ(fn5.reduction.product_pairs, 5653u);
    EXPECT_EQ(fn5.distinct_histories, 247354u);

    // |G| = 2: every stored label is numbered once per permutation.
    const explore_result twins = run(bloom_twin_readers(), true, true);
    EXPECT_EQ(twins.reduction.symmetry_group, 2u);
    EXPECT_EQ(twins.reduction.dfa_states, 1062u);
    EXPECT_EQ(twins.reduction.judge_states, 647u);
    EXPECT_EQ(twins.reduction.product_pairs, 1598u);
    EXPECT_EQ(twins.distinct_histories, 14032u);

    const explore_result mutant = run(bloom_broken_tag_small(), true, true);
    ASSERT_TRUE(mutant.first_violation.has_value());
    EXPECT_EQ(format_operations(mutant.first_violation->hist),
              "proc 0 write(1) [0, 1)\n"
              "proc 1 write(2) [2, 3)\n"
              "proc 2 read(1) [4, 5)\n"
              "proc 2 read(1) [6, 7)\n");
    EXPECT_EQ(mutant.first_violation->diagnosis, "history is not linearizable");
}

/// One writer of `writes` values and one reader of one read: writes + 1 ops.
sim_state long_single_writer(int writes) {
    std::vector<mc_value> values;
    for (int i = 0; i < writes; ++i) {
        values.push_back(static_cast<mc_value>(1 + i % 2));
    }
    sim_state s;
    s.registers.push_back(atomic_reg(3));
    s.procs.push_back(make_cell_writer(0, std::move(values)));
    s.procs.push_back(make_cell_reader(0, 2, 1));
    return s;
}

// check_exhaustive judges at most 62 ops. Past that the judge state steps
// to "unrepresentable" and the POR engine judges each such history with
// check_exhaustive itself: both engines report its size defect.
TEST(SizeLimit, SixtyThreeOpsFailWithTheCheckersDefectInBothEngines) {
    for (const bool por : {true, false}) {
        SCOPED_TRACE(por ? "por" : "full");
        const explore_result over = run(long_single_writer(62), por, por);
        EXPECT_EQ(over.reduction.engaged, por);
        EXPECT_FALSE(over.truncated);
        EXPECT_FALSE(over.property_holds);
        ASSERT_TRUE(over.first_violation.has_value());
        EXPECT_EQ(over.first_violation->hist.size(), 63u);
        EXPECT_NE(over.first_violation->diagnosis.find("limit 62 ops"),
                  std::string::npos)
            << over.first_violation->diagnosis;

        const explore_result fits = run(long_single_writer(61), por, por);
        EXPECT_FALSE(fits.truncated);
        EXPECT_TRUE(fits.property_holds);
        EXPECT_GT(fits.distinct_histories, 62u);
    }
}

TEST(Disengage, RaceDetectionRoutesToTheFullEngine) {
    sim_state s = bloom_twin_readers();
    s.enable_race_detection();
    explore_config cfg;  // por/symmetry left on: must auto-disengage
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
    const explore_result res = explore(s, explore_config{});
    EXPECT_TRUE(res.reduction.engaged);       // POR itself still runs
    EXPECT_FALSE(res.reduction.symmetry);     // ...without symmetry
    EXPECT_FALSE(res.reduction.symmetry_warning.empty());
    EXPECT_NE(res.reduction.symmetry_warning.find("unusable id"),
              std::string::npos);
    EXPECT_TRUE(res.property_holds);
}

TEST(SymmetryWarning, EngagedOrNothingToPermuteStaysSilent) {
    explore_config cfg;
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
