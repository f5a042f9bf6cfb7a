// Parallel work-sharing explorer (src/modelcheck/explorer.cpp): the thread
// count must never change a verdict. Every schedule-invariant counter
// (property_holds, leaves, distinct_histories, violations) is identical for
// threads in {1, 2, 4}; states_explored/memo_hits may differ only when the
// exploration is truncated or stopped early. The POR engine judges
// histories in one canonical order, so even a run stopped at its first
// violation reports the same history count and trace at every thread
// count. Also pins down the stop-flag semantics: stop_at_first_violation
// and max_states must terminate every worker without deadlock, and a FAIL
// verdict always carries a violating trace.
#include <gtest/gtest.h>

#include <functional>

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

mc_register weak_reg(reg_level level, mc_value domain, mc_value committed = 0) {
    mc_register r;
    r.level = level;
    r.domain = domain;
    r.committed = committed;
    return r;
}

using state_factory = std::function<sim_state()>;

/// Seed configurations mirroring modelcheck_test / modelcheck_sweep_test.
sim_state bloom_2x2_1reader() {
    sim_state s;
    s.registers.push_back(atomic_reg(12));
    s.registers.push_back(atomic_reg(12));
    s.procs.push_back(make_bloom_writer(0, {1, 2}));
    s.procs.push_back(make_bloom_writer(1, {3, 4}));
    s.procs.push_back(make_bloom_reader(2, 1));
    return s;
}

sim_state bloom_1x1_2readers() {
    sim_state s;
    s.registers.push_back(atomic_reg(6));
    s.registers.push_back(atomic_reg(6));
    s.procs.push_back(make_bloom_writer(0, {1}));
    s.procs.push_back(make_bloom_writer(1, {2}));
    s.procs.push_back(make_bloom_reader(2, 2));
    s.procs.push_back(make_bloom_reader(3, 1));
    return s;
}

sim_state bloom_broken_tag() {
    sim_state s;
    s.registers.push_back(atomic_reg(16));
    s.registers.push_back(atomic_reg(16));
    s.procs.push_back(make_bloom_writer(0, {1, 2}));
    s.procs.push_back(make_bloom_writer_wrong_tag(1, {3, 4}));
    s.procs.push_back(make_bloom_reader(2, 2));
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

sim_state tournament_fig5() {
    sim_state s;
    s.registers.push_back(atomic_reg(16, encode_tagged(1, false)));
    s.registers.push_back(atomic_reg(16, encode_tagged(1, false)));
    s.procs.push_back(make_tournament_writer(0, {2}));
    s.procs.push_back(make_tournament_writer(1, {3}));
    s.procs.push_back(make_tournament_writer(3, {4}));
    s.procs.push_back(make_tournament_reader(4, 2));
    return s;
}

/// One-read tournament for FULL-space exploration (the two-read Fig. 5
/// configuration is kept for the stop-flag tests, which stop early).
sim_state tournament_one_read() {
    sim_state s = tournament_fig5();
    s.procs.back() = make_tournament_reader(4, 1);
    return s;
}

/// Bloom over a substrate that may serve one stale read per process.
sim_state faulty_stale_read() {
    sim_state s;
    for (int i = 0; i < 2; ++i) {
        mc_register r = atomic_reg(6);
        r.track_previous = true;
        s.registers.push_back(r);
    }
    const fault_class stale = fault_class::stale_read;
    s.procs.push_back(make_faulty_bloom_writer(0, {1}, stale, 1));
    s.procs.push_back(make_faulty_bloom_writer(1, {2}, stale, 1));
    s.procs.push_back(make_faulty_bloom_reader(2, 1, stale, 1));
    return s;
}

sim_state fourslot_safe_atomic() {
    sim_state s;
    for (int i = 0; i < 4; ++i) s.registers.push_back(weak_reg(reg_level::safe, 3, 0));
    for (int i = 0; i < 4; ++i) s.registers.push_back(weak_reg(reg_level::atomic, 2, 0));
    s.procs.push_back(make_fourslot_writer(0, {1, 2}));
    s.procs.push_back(make_fourslot_reader(0, 1, 2));
    return s;
}

sim_state mr_2readers() {
    sim_state s;
    for (int i = 0; i < 2 + 4; ++i) s.registers.push_back(atomic_reg(3));
    s.procs.push_back(make_mr_writer(0, 2, {1, 2}));
    s.procs.push_back(make_mr_reader(0, 2, 0, 2, 2, {1, 2}));
    s.procs.push_back(make_mr_reader(0, 2, 1, 3, 1, {1, 2}));
    return s;
}

sim_state unary_3bits() {
    sim_state s;
    for (int i = 0; i < 3; ++i) {
        s.registers.push_back(weak_reg(reg_level::regular, 2, i == 0 ? 1 : 0));
    }
    s.procs.push_back(make_unary_writer(0, 3, {2, 1}));
    s.procs.push_back(make_unary_reader(0, 3, 1, 2));
    return s;
}

/// Runs the factory's configuration at threads in {1, 2, 4} and asserts
/// every schedule-invariant result matches the sequential engine -- once
/// through the POR (trace-quotient) engine and once through the full
/// explorer, so thread-count invariance holds with the reduction on AND off.
void expect_thread_equivalence(const state_factory& make, explore_config cfg) {
    for (bool por : {true, false}) {
        cfg.por = por;
        SCOPED_TRACE(por ? "engine=por" : "engine=full");
        cfg.threads = 1;
        const explore_result seq = explore(make(), cfg);
        ASSERT_FALSE(seq.truncated) << "equivalence configs must fit the budget";
        for (unsigned threads : {2u, 4u}) {
            cfg.threads = threads;
            const explore_result par = explore(make(), cfg);
            SCOPED_TRACE("threads=" + std::to_string(threads));
            EXPECT_EQ(par.property_holds, seq.property_holds);
            EXPECT_EQ(par.leaves, seq.leaves);
            EXPECT_EQ(par.distinct_histories, seq.distinct_histories);
            EXPECT_EQ(par.violations, seq.violations);
            EXPECT_FALSE(par.truncated);
            // Not truncated and not stopped early: even the traversal
            // counters are schedule-invariant (every reachable state --
            // raw or quotient node -- is expanded exactly once, so the
            // arrival count is a graph property).
            EXPECT_EQ(par.states_explored, seq.states_explored);
            EXPECT_EQ(par.memo_hits, seq.memo_hits);
            if (!par.property_holds) {
                ASSERT_TRUE(par.first_violation.has_value());
                EXPECT_FALSE(par.first_violation->hist.empty());
            }
        }
    }
}

/// The reduction's contract (explore_config::por): every aggregate verdict
/// is IDENTICAL with the reduction on and off. Exercised on the same seed
/// configurations as the thread-equivalence suite.
void expect_reduction_equivalence(const state_factory& make,
                                  explore_config cfg) {
    cfg.threads = 1;
    cfg.por = false;
    const explore_result full = explore(make(), cfg);
    ASSERT_FALSE(full.truncated) << "equivalence configs must fit the budget";
    EXPECT_FALSE(full.reduction.engaged);
    EXPECT_FALSE(full.first_violation_reduced);
    cfg.por = true;
    for (bool symmetry : {true, false}) {
        cfg.symmetry = symmetry;
        SCOPED_TRACE(symmetry ? "por+symmetry" : "por only");
        const explore_result red = explore(make(), cfg);
        ASSERT_FALSE(red.truncated);
        EXPECT_TRUE(red.reduction.engaged);
        EXPECT_EQ(red.property_holds, full.property_holds);
        EXPECT_EQ(red.violations, full.violations);
        EXPECT_EQ(red.distinct_histories, full.distinct_histories);
        EXPECT_EQ(red.reduction.enumerated_paths, red.distinct_histories);
        EXPECT_GT(red.reduction.core_states, 0u);
        EXPECT_LE(red.reduction.core_states, red.states_explored);
        if (!red.property_holds) {
            ASSERT_TRUE(red.first_violation.has_value());
            EXPECT_TRUE(red.first_violation_reduced);
            EXPECT_FALSE(red.first_violation->hist.empty());
        }
    }
}

TEST(ParallelEquivalence, Bloom2x2OneReader) {
    expect_thread_equivalence(bloom_2x2_1reader, explore_config{});
}

TEST(ParallelEquivalence, Bloom1x1TwoReaders) {
    expect_thread_equivalence(bloom_1x1_2readers, explore_config{});
}

TEST(ParallelEquivalence, FourSlotSafeDataAtomicControl) {
    expect_thread_equivalence(fourslot_safe_atomic, explore_config{});
}

TEST(ParallelEquivalence, MultiReaderConstruction) {
    expect_thread_equivalence(mr_2readers, explore_config{});
}

TEST(ParallelEquivalence, UnaryRegularity) {
    explore_config cfg;
    cfg.prop = property::regular_swmr;
    expect_thread_equivalence(unary_3bits, cfg);
}

TEST(ParallelEquivalence, ViolatingConfigsCountedExhaustively) {
    // With stop_at_first_violation off the full space is explored, so even
    // FAIL verdicts have schedule-invariant counts (distinct violating
    // histories are deduplicated globally).
    explore_config cfg;
    cfg.stop_at_first_violation = false;
    expect_thread_equivalence(bloom_broken_tag_small, cfg);
    cfg.initial = 1;
    expect_thread_equivalence(tournament_one_read, cfg);
}

TEST(ReductionEquivalence, VerdictsMatchFullExplorationOnEveryConfig) {
    expect_reduction_equivalence(bloom_2x2_1reader, explore_config{});
    expect_reduction_equivalence(bloom_1x1_2readers, explore_config{});
    expect_reduction_equivalence(fourslot_safe_atomic, explore_config{});
    expect_reduction_equivalence(mr_2readers, explore_config{});
    explore_config regular;
    regular.prop = property::regular_swmr;
    expect_reduction_equivalence(unary_3bits, regular);
    explore_config exhaustive;
    exhaustive.stop_at_first_violation = false;
    expect_reduction_equivalence(bloom_broken_tag_small, exhaustive);
    exhaustive.initial = 1;
    expect_reduction_equivalence(tournament_one_read, exhaustive);
}

TEST(ParallelEquivalence, AutoThreadCountMatchesSequential) {
    explore_config cfg;  // threads = 0: hardware_concurrency
    const explore_result auto_res = explore(bloom_2x2_1reader(), cfg);
    cfg.threads = 1;
    const explore_result seq = explore(bloom_2x2_1reader(), cfg);
    EXPECT_TRUE(auto_res.property_holds);
    EXPECT_EQ(auto_res.leaves, seq.leaves);
    EXPECT_EQ(auto_res.distinct_histories, seq.distinct_histories);
}

// ---------------------------------------------------------------------------
// Stop-flag semantics.
// ---------------------------------------------------------------------------

class StopFlag : public ::testing::TestWithParam<unsigned> {};

TEST_P(StopFlag, BrokenTagMutantAlwaysReportsATrace) {
    explore_config cfg;
    cfg.stop_at_first_violation = true;
    cfg.threads = GetParam();
    const explore_result res = explore(bloom_broken_tag(), cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_FALSE(res.property_holds);
    ASSERT_TRUE(res.first_violation.has_value());
    EXPECT_FALSE(res.first_violation->hist.empty());
    EXPECT_FALSE(res.first_violation->diagnosis.empty());
    EXPECT_GE(res.violations, 1u);
}

TEST_P(StopFlag, TournamentAlwaysReportsATrace) {
    explore_config cfg;
    cfg.stop_at_first_violation = true;
    cfg.initial = 1;
    cfg.threads = GetParam();
    const explore_result res = explore(tournament_fig5(), cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_FALSE(res.property_holds);
    ASSERT_TRUE(res.first_violation.has_value());
    EXPECT_FALSE(res.first_violation->hist.empty());
}

TEST(FirstViolation, ReducedTraceIsThreadInvariant) {
    explore_config cfg;
    cfg.stop_at_first_violation = true;
    const std::vector<std::pair<state_factory, value_t>> configs = {
        {bloom_broken_tag, 0}, {tournament_fig5, 1}, {faulty_stale_read, 0}};
    for (const auto& [make, initial] : configs) {
        cfg.initial = initial;
        cfg.threads = 1;
        const explore_result seq = explore(make(), cfg);
        ASSERT_TRUE(seq.reduction.engaged);
        ASSERT_FALSE(seq.truncated);
        ASSERT_FALSE(seq.property_holds);
        ASSERT_TRUE(seq.first_violation.has_value());
        for (unsigned threads : {2u, 4u}) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            cfg.threads = threads;
            const explore_result par = explore(make(), cfg);
            EXPECT_FALSE(par.property_holds);
            EXPECT_EQ(par.distinct_histories, seq.distinct_histories);
            ASSERT_TRUE(par.first_violation.has_value());
            EXPECT_EQ(format_operations(par.first_violation->hist),
                      format_operations(seq.first_violation->hist));
        }
    }
}

TEST_P(StopFlag, MaxStatesTruncatesWithoutDeadlock) {
    explore_config cfg;
    cfg.max_states = 2'000;  // far below the ~450k reachable states
    cfg.threads = GetParam();
    const explore_result res = explore(bloom_2x2_1reader(), cfg);
    EXPECT_TRUE(res.truncated);
    // A truncated run proves nothing; it must still report coherently.
    EXPECT_GE(res.states_explored, cfg.max_states);
}

TEST_P(StopFlag, MaxStatesOfOneStillTerminates) {
    explore_config cfg;
    cfg.max_states = 1;
    cfg.threads = GetParam();
    const explore_result res = explore(bloom_2x2_1reader(), cfg);
    EXPECT_TRUE(res.truncated);
}

INSTANTIATE_TEST_SUITE_P(Threads, StopFlag, ::testing::Values(1u, 2u, 4u));

}  // namespace
}  // namespace bloom87::mc
