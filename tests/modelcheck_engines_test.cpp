// The two model-check engines side by side: the reduced engine
// (src/modelcheck/por.cpp) must report the same property_holds,
// violations and distinct_histories as full exploration
// (src/modelcheck/explorer.cpp) on the seed configurations and on the
// judge state's edge cases. Also pins the stop semantics of both engines:
// a run stopped at its first violation or at the budget reports
// coherently, a FAIL verdict always carries a trace, and the full
// engine's stopped-early counts and trace are exact.
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

/// Bloom 1x1 with two readers of different read counts.
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

/// The wrong-tag Bloom mutant, two writes each.
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

/// The paper's Figure 5 (initial value 1): the four-writer tournament.
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

/// Writer 0 crashes inside its only write after `stage` real accesses: at
/// stages 0-1 its write stays open and unread, at stage 2 its register
/// holds the value and a read may return it from a write open forever.
sim_state bloom_crashing_writer(int stage) {
    sim_state s;
    s.registers.push_back(atomic_reg(6, encode_tagged(0, false)));
    s.registers.push_back(atomic_reg(6, encode_tagged(0, false)));
    s.procs.push_back(make_bloom_writer_crashing(0, {1}, 0, stage));
    s.procs.push_back(make_bloom_writer(1, {2}));
    s.procs.push_back(make_bloom_reader(2, 2));
    return s;
}

/// Both writers write the same value, one of them twice.
sim_state bloom_duplicate_values() {
    sim_state s;
    s.registers.push_back(atomic_reg(4));
    s.registers.push_back(atomic_reg(4));
    s.procs.push_back(make_bloom_writer(0, {1, 1}));
    s.procs.push_back(make_bloom_writer(1, {1}));
    s.procs.push_back(make_bloom_reader(2, 2));
    return s;
}

/// Lamport's binary-encoded register over two safe bits: safe, not regular.
sim_state binary_2bits() {
    sim_state s;
    for (int b = 0; b < 2; ++b) {
        s.registers.push_back(weak_reg(reg_level::safe, 2));
    }
    s.procs.push_back(make_binary_writer(0, 2, {1, 2}));
    s.procs.push_back(make_binary_reader(0, 2, 1, 2));
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

/// Seqlock reader retry loops are epsilon CYCLES in the quotient graph
// ---------------------------------------------------------------------------
// Reduced against full exploration.
// ---------------------------------------------------------------------------

/// The reduction's contract (explore_config::por): every aggregate verdict
/// is IDENTICAL with the reduction on and off.
void expect_reduction_equivalence(const state_factory& make,
                                  explore_config cfg) {
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

TEST(ReductionEquivalence, VerdictsMatchFullExplorationOnEveryConfig) {
    expect_reduction_equivalence(bloom_2x2_1reader, explore_config{});
    expect_reduction_equivalence(bloom_unequal_readers, explore_config{});
    expect_reduction_equivalence(fourslot_safe_atomic, explore_config{});
    expect_reduction_equivalence(mr_2readers, explore_config{});
    explore_config regular;
    regular.prop = property::regular_swmr;
    expect_reduction_equivalence(unary_3bits, regular);
    // With stop_at_first_violation off the whole space is explored, so even
    // FAIL verdicts count every distinct violating history.
    explore_config exhaustive;
    exhaustive.stop_at_first_violation = false;
    expect_reduction_equivalence(bloom_broken_tag_small, exhaustive);
    exhaustive.initial = 1;
    expect_reduction_equivalence(tournament_one_read, exhaustive);
}

// The cases the POR engine's judge state (verdicts.hpp) treats specially --
// ops left open by a crash, read or unread; duplicate write values; values
// no write produced; a read left open; the safe level -- counted over the
// whole space, every violation included.
TEST(ReductionEquivalence, JudgeStateEdgeCasesMatchFullExploration) {
    explore_config all;
    all.stop_at_first_violation = false;
    for (int stage = 0; stage <= 2; ++stage) {
        SCOPED_TRACE("crash stage " + std::to_string(stage));
        expect_reduction_equivalence(
            [stage] { return bloom_crashing_writer(stage); }, all);
    }
    expect_reduction_equivalence(bloom_duplicate_values, all);
    for (const fault_class cls :
         {fault_class::torn_value, fault_class::port_crash}) {
        SCOPED_TRACE(fault_class_name(cls));
        expect_reduction_equivalence([cls] { return faulty_bloom(cls); }, all);
    }
    explore_config safe = all;
    safe.prop = property::safe_swmr;
    expect_reduction_equivalence(binary_2bits, safe);
}

// ---------------------------------------------------------------------------
// Stop semantics: stop_at_first_violation and max_states end either engine
// with a coherent report, and a FAIL verdict always carries a trace.
// ---------------------------------------------------------------------------

/// The parameter: the reduction on (the POR engine) or off (the full one).
class StopFlag : public ::testing::TestWithParam<bool> {
protected:
    [[nodiscard]] explore_config param_config() const {
        explore_config cfg;
        cfg.por = GetParam();
        return cfg;
    }
};

TEST_P(StopFlag, BrokenTagMutantAlwaysReportsATrace) {
    explore_config cfg = param_config();
    cfg.stop_at_first_violation = true;
    const explore_result res = explore(bloom_broken_tag(), cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_FALSE(res.property_holds);
    ASSERT_TRUE(res.first_violation.has_value());
    EXPECT_FALSE(res.first_violation->hist.empty());
    EXPECT_FALSE(res.first_violation->diagnosis.empty());
    EXPECT_GE(res.violations, 1u);
}

TEST_P(StopFlag, TournamentAlwaysReportsATrace) {
    explore_config cfg = param_config();
    cfg.stop_at_first_violation = true;
    cfg.initial = 1;
    const explore_result res = explore(tournament_fig5(), cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_FALSE(res.property_holds);
    ASSERT_TRUE(res.first_violation.has_value());
    EXPECT_FALSE(res.first_violation->hist.empty());
}

TEST_P(StopFlag, MaxStatesTruncates) {
    explore_config cfg = param_config();
    cfg.max_states = 2'000;  // far below the ~450k reachable states
    const explore_result res = explore(bloom_2x2_1reader(), cfg);
    EXPECT_TRUE(res.truncated);
    // A truncated run proves nothing; it must still report coherently.
    EXPECT_GE(res.states_explored, cfg.max_states);
}

TEST_P(StopFlag, MaxStatesOfOneStillTerminates) {
    explore_config cfg = param_config();
    cfg.max_states = 1;
    const explore_result res = explore(bloom_2x2_1reader(), cfg);
    EXPECT_TRUE(res.truncated);
}

INSTANTIATE_TEST_SUITE_P(Engine, StopFlag, ::testing::Bool());

// The full engine is one sequential DFS, so a run stopped at its first
// violation is a function of the configuration: the states it explored,
// the histories it judged and the trace it reports are pinned.
TEST(FirstViolation, FullEngineStopsAtAPinnedTrace) {
    struct pinned {
        state_factory make;
        value_t initial;
        std::uint64_t states;
        std::uint64_t histories;
        const char* trace;
    };
    const pinned runs[] = {
        {tournament_fig5, 1, 355169, 17635,
         "proc 0 write(2) [0, 6)\n"
         "proc 1 write(3) [1, 3)\n"
         "proc 3 write(4) [2, 4)\n"
         "proc 4 read(2) [5, 7)\n"
         "proc 4 read(4) [8, 9)\n"},
        {bloom_broken_tag, 0, 27, 1,
         "proc 0 write(1) [0, 1)\n"
         "proc 0 write(2) [2, 3)\n"
         "proc 1 write(3) [4, 5)\n"
         "proc 1 write(4) [6, 7)\n"
         "proc 2 read(2) [8, 9)\n"
         "proc 2 read(2) [10, 11)\n"},
        {faulty_stale_read, 0, 16, 2,
         "proc 0 write(1) [0, 1)\n"
         "proc 1 write(2) [2, 3)\n"
         "proc 2 read(0) [4, 5)\n"},
    };
    for (const pinned& p : runs) {
        explore_config cfg;
        cfg.por = false;
        cfg.initial = p.initial;
        const explore_result res = explore(p.make(), cfg);
        ASSERT_FALSE(res.truncated);
        ASSERT_FALSE(res.property_holds);
        ASSERT_TRUE(res.first_violation.has_value());
        EXPECT_EQ(res.states_explored, p.states);
        EXPECT_EQ(res.distinct_histories, p.histories);
        EXPECT_EQ(format_operations(res.first_violation->hist), p.trace);
    }
}

}  // namespace
}  // namespace bloom87::mc
