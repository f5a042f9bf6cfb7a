// Bounded exhaustive verification (src/modelcheck): every interleaving of
// Bloom's protocol is atomic; the four-writer tournament is not; the
// substrate constructions provide exactly their claimed consistency level.
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <string>

#include "modelcheck/explorer.hpp"
#include "modelcheck/net_processes.hpp"
#include "modelcheck/processes.hpp"
#include "modelcheck/verdicts.hpp"
#include "util/rng.hpp"

namespace bloom87::mc {
namespace {

mc_register atomic_reg(mc_value domain, mc_value committed) {
    mc_register r;
    r.level = reg_level::atomic;
    r.domain = domain;
    r.committed = committed;
    return r;
}

mc_register weak_reg(reg_level level, mc_value domain, mc_value committed) {
    mc_register r;
    r.level = level;
    r.domain = domain;
    r.committed = committed;
    return r;
}

/// Bloom system: initial value 0, writers' scripts given as raw values.
sim_state bloom_system(std::vector<mc_value> w0, std::vector<mc_value> w1,
                       int readers, int reads_each) {
    mc_value max_v = 0;
    for (mc_value v : w0) max_v = std::max(max_v, v);
    for (mc_value v : w1) max_v = std::max(max_v, v);
    const auto domain = static_cast<mc_value>((max_v + 1) * 2);

    sim_state s;
    s.registers.push_back(atomic_reg(domain, encode_tagged(0, false)));
    s.registers.push_back(atomic_reg(domain, encode_tagged(0, false)));
    s.procs.push_back(make_bloom_writer(0, std::move(w0)));
    s.procs.push_back(make_bloom_writer(1, std::move(w1)));
    for (int r = 0; r < readers; ++r) {
        s.procs.push_back(
            make_bloom_reader(static_cast<processor_id>(2 + r), reads_each));
    }
    return s;
}

TEST(BloomModel, TwoWritesEachOneReaderAllSchedulesAtomic) {
    sim_state s = bloom_system({1, 2}, {3, 4}, 1, 1);
    explore_config cfg;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_TRUE(res.property_holds)
        << res.first_violation->diagnosis << "\n"
        << format_operations(res.first_violation->hist);
    EXPECT_GT(res.leaves, 0u);
    EXPECT_GT(res.distinct_histories, 100u);
}

TEST(BloomModel, TwoReadersAllSchedulesAtomic) {
    // A second reader catches cross-reader new-old inversions: reader A
    // returning the new value, then reader B (starting after A finished)
    // returning the old one.
    sim_state s = bloom_system({1}, {2}, 1, 2);
    s.procs.push_back(make_bloom_reader(3, 1));
    explore_config cfg;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_TRUE(res.property_holds)
        << res.first_violation->diagnosis << "\n"
        << format_operations(res.first_violation->hist);
}

TEST(BloomModel, DeepWriterContentionAtomic) {
    sim_state s = bloom_system({1, 2, 3}, {4, 5}, 1, 1);
    explore_config cfg;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_TRUE(res.property_holds);
}

// Footnote 5 of the paper: the proof tolerates reordering the reader's
// first two reads. The explorer confirms the reversed-order reader is
// atomic at the same bound that certifies the standard one.
TEST(BloomModel, ReversedTagSamplingStillAtomic) {
    sim_state s;
    s.registers.push_back(atomic_reg(16, encode_tagged(0, false)));
    s.registers.push_back(atomic_reg(16, encode_tagged(0, false)));
    s.procs.push_back(make_bloom_writer(0, {1, 2}));
    s.procs.push_back(make_bloom_writer(1, {3, 4}));
    s.procs.push_back(make_bloom_reader_reversed(2, 2));
    explore_config cfg;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_TRUE(res.property_holds)
        << res.first_violation->diagnosis << "\n"
        << format_operations(res.first_violation->hist);
}

// Ablation: the third real read is NECESSARY. A reader returning the value
// it captured alongside the chosen tag can return a value overwritten
// before the read even started (the explorer finds the stale-read trace).
TEST(BloomModel, SkippingTheThirdReadBreaksAtomicity) {
    sim_state s;
    s.registers.push_back(atomic_reg(16, encode_tagged(0, false)));
    s.registers.push_back(atomic_reg(16, encode_tagged(0, false)));
    s.procs.push_back(make_bloom_writer(0, {1, 2}));
    s.procs.push_back(make_bloom_writer(1, {3, 4}));
    s.procs.push_back(make_bloom_reader_no_reread(2, 2));
    explore_config cfg;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_FALSE(res.property_holds)
        << "the two-read shortcut should NOT be atomic";
}

// Mutation test: a writer applying the WRONG tag rule (the other writer's)
// must be caught by the explorer -- writer 1 then writes tag t0', so its
// writes never move the tag sum to 1 and readers can miss them entirely
// even after the write completed.
TEST(BloomModel, BrokenTagRuleCaught) {
    sim_state s;
    s.registers.push_back(atomic_reg(16, encode_tagged(0, false)));
    s.registers.push_back(atomic_reg(16, encode_tagged(0, false)));
    s.procs.push_back(make_bloom_writer(0, {1, 2}));
    s.procs.push_back(make_bloom_writer_wrong_tag(1, {3, 4}));
    s.procs.push_back(make_bloom_reader(2, 2));
    explore_config cfg;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_FALSE(res.property_holds);
}

// Exhaustive crash tolerance: a writer crashing at EVERY possible point of
// EVERY op, under EVERY schedule, leaves an atomic history (paper §5: "the
// write either occurs or does not occur").
class CrashPoints
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(CrashPoints, AllSchedulesAtomicAroundACrash) {
    const auto [crash_op, crash_stage] = GetParam();
    sim_state s;
    s.registers.push_back(atomic_reg(16, encode_tagged(0, false)));
    s.registers.push_back(atomic_reg(16, encode_tagged(0, false)));
    s.procs.push_back(
        make_bloom_writer_crashing(0, {1, 2}, crash_op, crash_stage));
    s.procs.push_back(make_bloom_writer(1, {3, 4}));
    s.procs.push_back(make_bloom_reader(2, 1));
    explore_config cfg;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_TRUE(res.property_holds)
        << "crash at op " << crash_op << " stage " << crash_stage << "\n"
        << res.first_violation->diagnosis << "\n"
        << format_operations(res.first_violation->hist);
}

INSTANTIATE_TEST_SUITE_P(
    Points, CrashPoints,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1),
                       ::testing::Values(0, 1, 2)));

// ---------------------------------------------------------------------------
// The four-writer tournament (paper, Section 8).
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Faulty substrate (registers/faulty.hpp, modeled): every value-corrupting
// class has a reachable violating schedule; port_crash does not.
// ---------------------------------------------------------------------------

/// Bloom system over a faulty substrate: both writers and the reader may
/// fault per `cls`, at most once each; registers track the previous commit
/// so modeled stale reads have a value to serve.
sim_state faulty_bloom_system(fault_class cls) {
    sim_state s;
    const auto domain = static_cast<mc_value>((2 * 1 + 1) * 2);
    for (int i = 0; i < 2; ++i) {
        mc_register r = atomic_reg(domain, encode_tagged(0, false));
        r.track_previous = true;
        s.registers.push_back(r);
    }
    s.procs.push_back(make_faulty_bloom_writer(0, {1}, cls, 1));
    s.procs.push_back(make_faulty_bloom_writer(1, {2}, cls, 1));
    s.procs.push_back(make_faulty_bloom_reader(2, 1, cls, 1));
    return s;
}

class CorruptingFaults : public ::testing::TestWithParam<fault_class> {};

TEST_P(CorruptingFaults, HaveAReachableViolatingSchedule) {
    sim_state s = faulty_bloom_system(GetParam());
    explore_config cfg;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_FALSE(res.property_holds)
        << fault_class_name(GetParam())
        << ": no schedule violated atomicity, but this class corrupts values";
    ASSERT_TRUE(res.first_violation.has_value());
    EXPECT_FALSE(res.first_violation->hist.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllValueCorruptingClasses, CorruptingFaults,
    ::testing::Values(fault_class::stale_read, fault_class::lost_write,
                      fault_class::torn_value,
                      fault_class::delayed_visibility),
    [](const auto& info) { return fault_class_name(info.param); });

TEST(FaultyModel, PortCrashesPreserveAtomicityOnEverySchedule) {
    sim_state s = faulty_bloom_system(fault_class::port_crash);
    explore_config cfg;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_TRUE(res.property_holds)
        << res.first_violation->diagnosis << "\n"
        << format_operations(res.first_violation->hist);
    EXPECT_GT(res.leaves, 0u);
}

TEST(TournamentModel, ViolationFoundWithThreeWriters) {
    // The Figure 5 schedule needs Wr00, Wr01 (pair 0) and Wr11 (pair 1),
    // plus a reader taking two reads. The explorer must find a
    // non-linearizable schedule.
    sim_state s;
    s.registers.push_back(atomic_reg(16, encode_tagged(1, false)));
    s.registers.push_back(atomic_reg(16, encode_tagged(1, false)));
    s.procs.push_back(make_tournament_writer(0, {2}));  // Wr00 writes 'x'
    s.procs.push_back(make_tournament_writer(1, {3}));  // Wr01 writes 'd'
    s.procs.push_back(make_tournament_writer(3, {4}));  // Wr11 writes 'c'
    s.procs.push_back(make_tournament_reader(4, 2));
    explore_config cfg;
    cfg.initial = 1;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_FALSE(res.property_holds)
        << "the tournament register should NOT be atomic";
    ASSERT_TRUE(res.first_violation.has_value());
}

TEST(TournamentModel, SingleWriterPerPairIsAtomic) {
    // With only one writer per pair the tournament degenerates to Bloom's
    // two-writer protocol and must pass.
    sim_state s;
    s.registers.push_back(atomic_reg(16, encode_tagged(1, false)));
    s.registers.push_back(atomic_reg(16, encode_tagged(1, false)));
    s.procs.push_back(make_tournament_writer(0, {2, 3}));
    s.procs.push_back(make_tournament_writer(2, {4, 5}));
    s.procs.push_back(make_tournament_reader(4, 2));
    explore_config cfg;
    cfg.initial = 1;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_TRUE(res.property_holds)
        << res.first_violation->diagnosis << "\n"
        << format_operations(res.first_violation->hist);
}

// ---------------------------------------------------------------------------
// Simpson's four-slot register over weak slots.
// ---------------------------------------------------------------------------

sim_state fourslot_system(reg_level data_level, reg_level control_level,
                          std::vector<mc_value> writes, int reads) {
    mc_value max_v = 0;
    for (mc_value v : writes) max_v = std::max(max_v, v);
    sim_state s;
    for (int i = 0; i < 4; ++i) {
        s.registers.push_back(
            weak_reg(data_level, static_cast<mc_value>(max_v + 1), 0));
    }
    for (int i = 0; i < 4; ++i) {
        s.registers.push_back(weak_reg(control_level, 2, 0));
    }
    s.procs.push_back(make_fourslot_writer(0, std::move(writes)));
    s.procs.push_back(make_fourslot_reader(0, 1, reads));
    return s;
}

TEST(FourSlotModel, AtomicWithAtomicControlBitsAndSafeSlots) {
    // Simpson's correctness argument assumes atomic control bits; the data
    // slots may be arbitrarily weak (safe).
    sim_state s = fourslot_system(reg_level::safe, reg_level::atomic, {1, 2}, 2);
    explore_config cfg;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_TRUE(res.property_holds)
        << res.first_violation->diagnosis << "\n"
        << format_operations(res.first_violation->hist);
    EXPECT_GT(res.distinct_histories, 10u);
}

TEST(FourSlotModel, RegularControlBitsAreNotEnough) {
    // With merely REGULAR control bits a reader can see the new slot index
    // and then an older one, producing a new-old inversion -- the explorer
    // finds it. (This is why the threaded four_slot_register uses atomic
    // control bits.)
    sim_state s = fourslot_system(reg_level::safe, reg_level::regular, {1, 2}, 2);
    explore_config cfg;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_FALSE(res.property_holds);
}

TEST(FourSlotModel, ThreeWritesStillAtomic) {
    sim_state s = fourslot_system(reg_level::safe, reg_level::atomic, {1, 2, 3}, 2);
    explore_config cfg;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_TRUE(res.property_holds)
        << res.first_violation->diagnosis << "\n"
        << format_operations(res.first_violation->hist);
}

// ---------------------------------------------------------------------------
// Lamport's unary construction: regular but not atomic.
// ---------------------------------------------------------------------------

sim_state unary_system(int k, std::vector<mc_value> writes, int reads) {
    sim_state s;
    for (int i = 0; i < k; ++i) {
        s.registers.push_back(weak_reg(reg_level::regular, 2, i == 0 ? 1 : 0));
    }
    s.procs.push_back(make_unary_writer(0, k, std::move(writes)));
    s.procs.push_back(make_unary_reader(0, k, 1, reads));
    return s;
}

TEST(UnaryModel, IsRegular) {
    sim_state s = unary_system(3, {2, 1}, 2);
    explore_config cfg;
    cfg.prop = property::regular_swmr;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_TRUE(res.property_holds)
        << res.first_violation->diagnosis << "\n"
        << format_operations(res.first_violation->hist);
}

TEST(UnaryModel, IsNotAtomic) {
    // Two sequential reads overlapping one write can see new-then-old
    // (the classic regular-but-not-atomic behavior).
    sim_state s = unary_system(3, {2, 1}, 2);
    explore_config cfg;
    cfg.prop = property::atomic;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_FALSE(res.property_holds);
}

// ---------------------------------------------------------------------------
// The SWMR-from-SWSR multi-reader construction.
// ---------------------------------------------------------------------------

sim_state mr_system(int n, std::vector<mc_value> writes,
                    std::vector<int> reads_per_reader, bool with_report) {
    sim_state s;
    const auto domain = static_cast<mc_value>(writes.size() + 1);
    for (int i = 0; i < n + n * n; ++i) {
        s.registers.push_back(atomic_reg(domain, 0));
    }
    s.procs.push_back(make_mr_writer(0, n, writes));
    for (int r = 0; r < n; ++r) {
        auto reader = with_report
                          ? make_mr_reader(0, n, r,
                                           static_cast<processor_id>(2 + r),
                                           reads_per_reader[static_cast<std::size_t>(r)],
                                           writes)
                          : make_mr_reader_no_report(
                                0, n, r, static_cast<processor_id>(2 + r),
                                reads_per_reader[static_cast<std::size_t>(r)],
                                writes);
        s.procs.push_back(std::move(reader));
    }
    return s;
}

TEST(MultiReaderModel, TwoReadersAtomic) {
    sim_state s = mr_system(2, {1, 2}, {2, 1}, true);
    explore_config cfg;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_TRUE(res.property_holds)
        << res.first_violation->diagnosis << "\n"
        << format_operations(res.first_violation->hist);
    EXPECT_GT(res.distinct_histories, 50u);
}

TEST(MultiReaderModel, ThreeReadersAtomic) {
    sim_state s = mr_system(3, {1}, {1, 1, 1}, true);
    explore_config cfg;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_TRUE(res.property_holds)
        << res.first_violation->diagnosis << "\n"
        << format_operations(res.first_violation->hist);
}

TEST(MultiReaderModel, SkippingTheReportRoundBreaksAtomicity) {
    // Without the report round, reader A can return the new value while a
    // later read by reader B still returns the old one: the mutation is
    // caught, proving the round is load-bearing.
    sim_state s = mr_system(2, {1, 2}, {2, 2}, false);
    explore_config cfg;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_FALSE(res.property_holds);
}

// ---------------------------------------------------------------------------
// Lamport's hierarchy, verified directly on single cells.
// ---------------------------------------------------------------------------

sim_state cell_system(reg_level level, std::vector<mc_value> writes, int readers,
                      int reads_each) {
    mc_value max_v = 0;
    for (mc_value v : writes) max_v = std::max(max_v, v);
    sim_state s;
    s.registers.push_back(weak_reg(level, static_cast<mc_value>(max_v + 1), 0));
    if (level == reg_level::atomic) s.registers[0].level = reg_level::atomic;
    s.procs.push_back(make_cell_writer(0, std::move(writes)));
    for (int r = 0; r < readers; ++r) {
        s.procs.push_back(make_cell_reader(0, static_cast<processor_id>(2 + r),
                                           reads_each));
    }
    return s;
}

TEST(Hierarchy, AtomicCellIsAtomic) {
    sim_state s = cell_system(reg_level::atomic, {1, 2}, 2, 2);
    explore_config cfg;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_TRUE(res.property_holds);
}

TEST(Hierarchy, RegularCellIsRegularButNotAtomic) {
    {
        sim_state s = cell_system(reg_level::regular, {1, 2}, 1, 2);
        explore_config cfg;
        cfg.prop = property::regular_swmr;
        EXPECT_TRUE(explore(s, cfg).property_holds);
    }
    {
        sim_state s = cell_system(reg_level::regular, {1, 2}, 1, 2);
        explore_config cfg;
        cfg.prop = property::atomic;
        EXPECT_FALSE(explore(s, cfg).property_holds);  // new-old inversion
    }
}

TEST(Hierarchy, SafeCellIsNotEvenRegular) {
    // Rewriting the same value lets an overlapping safe read flicker to a
    // value that is neither the old one nor the written one.
    sim_state s = cell_system(reg_level::safe, {1, 1}, 1, 1);
    explore_config cfg;
    cfg.prop = property::regular_swmr;
    EXPECT_FALSE(explore(s, cfg).property_holds);
}

TEST(Hierarchy, BinaryEncodedRegisterIsSafeButNotRegular) {
    // Lamport: B safe bits give a 2^B-valued SAFE register (construction by
    // binary encoding)...
    {
        sim_state s;
        for (int b = 0; b < 2; ++b) {
            s.registers.push_back(weak_reg(reg_level::safe, 2, 0));
        }
        s.procs.push_back(make_binary_writer(0, 2, {1, 2}));
        s.procs.push_back(make_binary_reader(0, 2, 1, 2));
        explore_config cfg;
        cfg.prop = property::safe_swmr;
        const explore_result res = explore(s, cfg);
        EXPECT_FALSE(res.truncated);
        EXPECT_TRUE(res.property_holds)
            << res.first_violation->diagnosis << "\n"
            << format_operations(res.first_violation->hist);
    }
    // ... but NOT a regular one: an overlapping read can assemble a
    // mixture of old and new bits (e.g. reading 3 while 1 -> 2).
    {
        sim_state s;
        for (int b = 0; b < 2; ++b) {
            s.registers.push_back(weak_reg(reg_level::safe, 2, 0));
        }
        s.procs.push_back(make_binary_writer(0, 2, {1, 2}));
        s.procs.push_back(make_binary_reader(0, 2, 1, 2));
        explore_config cfg;
        cfg.prop = property::regular_swmr;
        const explore_result res = explore(s, cfg);
        EXPECT_FALSE(res.truncated);
        EXPECT_FALSE(res.property_holds);
    }
}

TEST(Hierarchy, BinaryOverRegularBitsIsStillNotRegular) {
    // Even REGULAR bits do not make the binary-encoded register regular:
    // each bit individually returns old-or-new, but the mixture across
    // bits can be a value never written (1 -> 2 read as 3 or 0).
    sim_state s;
    for (int b = 0; b < 2; ++b) {
        s.registers.push_back(weak_reg(reg_level::regular, 2, 0));
    }
    s.procs.push_back(make_binary_writer(0, 2, {1, 2}));
    s.procs.push_back(make_binary_reader(0, 2, 1, 2));
    explore_config cfg;
    cfg.prop = property::regular_swmr;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_FALSE(res.property_holds);
}

TEST(Hierarchy, MonotoneStampsUpgradeRegularToSwsrAtomic) {
    // The classic construction: a single reader keeping the freshest
    // (seq, value) it ever saw turns a REGULAR cell into an ATOMIC SWSR
    // register.
    constexpr mc_value vdom = 4;
    sim_state s;
    // Stamps go up to (writes=2)+1 -> domain (2+1)*vdom.
    s.registers.push_back(weak_reg(reg_level::regular, 3 * vdom, 0));
    s.procs.push_back(make_stamped_cell_writer(0, {1, 2}, vdom));
    s.procs.push_back(make_stamped_cell_reader(0, 2, 3, vdom));
    explore_config cfg;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_TRUE(res.property_holds)
        << res.first_violation->diagnosis << "\n"
        << format_operations(res.first_violation->hist);
}

TEST(Hierarchy, MonotoneStampsDoNotFixTwoReaders) {
    // The same trick is NOT enough for two readers (that is what the
    // report round of swmr_from_swsr exists for).
    constexpr mc_value vdom = 4;
    sim_state s;
    s.registers.push_back(weak_reg(reg_level::regular, 3 * vdom, 0));
    s.procs.push_back(make_stamped_cell_writer(0, {1, 2}, vdom));
    s.procs.push_back(make_stamped_cell_reader(0, 2, 2, vdom));
    s.procs.push_back(make_stamped_cell_reader(0, 3, 2, vdom));
    explore_config cfg;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_FALSE(res.property_holds);
}

// ---------------------------------------------------------------------------
// Safe bit discipline (Lamport).
// ---------------------------------------------------------------------------

sim_state bit_system(bool disciplined, std::vector<mc_value> writes, int reads) {
    sim_state s;
    s.registers.push_back(weak_reg(reg_level::safe, 2, 0));
    s.procs.push_back(make_bit_writer(0, std::move(writes), disciplined));
    s.procs.push_back(make_bit_reader(0, 1, reads));
    return s;
}

TEST(SafeBitModel, UndisciplinedWriterIsNotRegular) {
    // Writing 1 twice: during the second (same-value) write a safe read may
    // flicker to 0, which regularity forbids.
    sim_state s = bit_system(false, {1, 1}, 1);
    explore_config cfg;
    cfg.prop = property::regular_swmr;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_FALSE(res.property_holds);
}

TEST(SafeBitModel, WriteOnlyChangesDisciplineIsRegular) {
    sim_state s = bit_system(true, {1, 1, 0, 0, 1}, 2);
    explore_config cfg;
    cfg.prop = property::regular_swmr;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_TRUE(res.property_holds)
        << res.first_violation->diagnosis << "\n"
        << format_operations(res.first_violation->hist);
}

// ---------------------------------------------------------------------------
// Pinned counts of every protocol model outside Bloom's own writer and
// reader, one small configuration per factory and variant. A rewrite of a
// protocol's process must keep each number: it is the same protocol only
// if it reaches the same states, the same histories and the same first
// violation.
// ---------------------------------------------------------------------------

sim_state seqlock_system(int writes, int reads,
                         analysis::sync_class payload_sync) {
    // The race mode of examples/model_explorer builds the same model.
    mc_register seq = atomic_reg(static_cast<mc_value>(2 * writes + 1), 0);
    seq.sync = analysis::sync_class::sync;
    mc_register payload = atomic_reg(static_cast<mc_value>(writes + 1), 0);
    payload.sync = payload_sync;
    sim_state s;
    s.registers = {seq, payload};
    std::vector<mc_value> script;
    for (int i = 1; i <= writes; ++i) {
        script.push_back(static_cast<mc_value>(i));
    }
    s.procs.push_back(make_seqlock_writer(0, script));
    s.procs.push_back(make_seqlock_reader(0, 1, reads));
    return s;
}

/// The four-slot model of model_explorer's race mode: plain data slots
/// guarded by the handshake bits, synchronizing control bits.
sim_state fourslot_race_system(reg_level control, int writes) {
    sim_state s;
    for (int i = 0; i < 4; ++i) {
        mc_register r = atomic_reg(static_cast<mc_value>(writes + 1), 0);
        r.sync = analysis::sync_class::plain;
        r.guards = 0xF0;
        s.registers.push_back(r);
    }
    for (int i = 0; i < 4; ++i) {
        mc_register r = weak_reg(control, 2, 0);
        r.sync = analysis::sync_class::sync;
        s.registers.push_back(r);
    }
    std::vector<mc_value> script;
    for (int i = 1; i <= writes; ++i) {
        script.push_back(static_cast<mc_value>(i));
    }
    s.procs.push_back(make_fourslot_writer(0, script));
    s.procs.push_back(make_fourslot_reader(0, 1, 1));
    return s;
}

sim_state va_system(int n, int reads) {
    const auto vdom = static_cast<mc_value>(n + 2);
    const auto domain = static_cast<mc_value>((n + 1) * n * vdom);
    sim_state s;
    for (int i = 0; i < n; ++i) s.registers.push_back(atomic_reg(domain, 0));
    for (int w = 0; w < n; ++w) {
        s.procs.push_back(
            make_va_writer(0, n, w, {static_cast<mc_value>(w + 1)}, vdom));
    }
    s.procs.push_back(make_va_reader(0, n, 4, reads, vdom));
    return s;
}

sim_state split_write_system() {
    sim_state s;
    for (int i = 0; i < 4; ++i) {
        s.registers.push_back(atomic_reg(i % 2 == 0 ? 5 : 2, 0));
    }
    s.procs.push_back(make_split_bloom_writer(0, {1, 2}));
    s.procs.push_back(make_split_bloom_writer(1, {3, 4}));
    s.procs.push_back(make_split_bloom_reader(2, 2));
    return s;
}

sim_state binary_system(reg_level level) {
    sim_state s;
    for (int b = 0; b < 2; ++b) s.registers.push_back(weak_reg(level, 2, 0));
    s.procs.push_back(make_binary_writer(0, 2, {1, 2}));
    s.procs.push_back(make_binary_reader(0, 2, 1, 2));
    return s;
}

sim_state stamped_cell_system(int readers, int reads_each) {
    constexpr mc_value vdom = 4;
    sim_state s;
    s.registers.push_back(weak_reg(reg_level::regular, 3 * vdom, 0));
    s.procs.push_back(make_stamped_cell_writer(0, {1, 2}, vdom));
    for (int r = 0; r < readers; ++r) {
        s.procs.push_back(make_stamped_cell_reader(
            0, static_cast<processor_id>(2 + r), reads_each, vdom));
    }
    return s;
}

struct pinned_model {
    const char* name;
    sim_state (*build)();
    property prop;
    /// "<verdict> <states> <core states> <histories> <DAG states> <judge
    /// states> <product pairs> | <full states> <full histories>": the
    /// reduced engine, then the full engine on one thread.
    const char* counts;
    /// format_operations of the reduced engine's first violation; empty
    /// when the property holds.
    const char* violation;
};

std::string pinned_counts(const explore_result& reduced,
                          const explore_result& full) {
    std::ostringstream o;
    o << (reduced.property_holds ? "holds " : "fails ")
      << reduced.states_explored << ' ' << reduced.reduction.core_states << ' '
      << reduced.distinct_histories << ' ' << reduced.reduction.dfa_states
      << ' ' << reduced.reduction.judge_states << ' '
      << reduced.reduction.product_pairs << " | " << full.states_explored << ' '
      << full.distinct_histories;
    return o.str();
}

const pinned_model kPinnedModels[] = {
    {"four-slot, atomic control bits",
     [] {
         return fourslot_system(reg_level::safe, reg_level::atomic, {1, 2}, 2);
     },
     property::atomic, "holds 837 689 206 64 52 78 | 8057 206",
     ""},
    {"four-slot, regular control bits",
     [] {
         return fourslot_system(reg_level::safe, reg_level::regular, {1, 2}, 2);
     },
     property::atomic, "fails 2543 1893 10 29 19 15 | 367 10",
     "proc 0 write(1) [0, 1)\n"
     "proc 0 write(2) [2, 6)\n"
     "proc 1 read(2) [3, 4)\n"
     "proc 1 read(1) [5, 7)\n"},
    {"four-slot, safe control bits",
     [] { return fourslot_system(reg_level::safe, reg_level::safe, {1}, 1); },
     property::atomic, "holds 407 328 10 15 14 17 | 959 10",
     ""},
    {"seqlock",
     [] { return seqlock_system(2, 2, analysis::sync_class::relaxed); },
     property::atomic, "holds 661 447 206 52 52 65 | 5303 206",
     ""},
    {"unary over regular bits, regularity",
     [] { return unary_system(3, {2, 1}, 2); }, property::regular_swmr,
     "holds 715 487 222 54 15 54 | 5971 222",
     ""},
    {"unary over regular bits, atomicity",
     [] { return unary_system(3, {2, 1}, 2); }, property::atomic,
     "fails 715 487 6 22 14 7 | 299 12",
     "proc 0 write(2) [0, 1)\n"
     "proc 0 write(1) [2, 6)\n"
     "proc 1 read(1) [3, 4)\n"
     "proc 1 read(2) [5, 7)\n"},
    {"split write", split_write_system, property::atomic,
     "fails 22191 13036 577 212 153 211 | 57871 3117",
     "proc 0 write(1) [0, 1)\n"
     "proc 0 write(2) [2, 6)\n"
     "proc 1 write(3) [3, 4)\n"
     "proc 2 read(4) [5, 8)\n"
     "proc 1 write(4) [7, 10)\n"
     "proc 2 read(2) [9, 11)\n"},
    {"VA, 2 writers", [] { return va_system(2, 2); }, property::atomic,
     "holds 1451 908 1720 193 178 235 | 33359 1720",
     ""},
    {"VA, 3 writers", [] { return va_system(3, 1); }, property::atomic,
     "holds 20676 12577 7824 983 769 1259 | 1009348 7824",
     ""},
    {"SWMR from SWSR",
     [] { return mr_system(2, {1, 2}, {2, 1}, true); }, property::atomic,
     "holds 5443 3452 18630 449 279 666 | 365660 18630",
     ""},
    {"SWMR from SWSR without the report round",
     [] { return mr_system(2, {1, 2}, {2, 2}, false); }, property::atomic,
     "fails 4865 2921 178 81 43 57 | 8194 631",
     "proc 0 write(1) [0, 1)\n"
     "proc 0 write(2) [2, 8)\n"
     "proc 2 read(1) [3, 4)\n"
     "proc 2 read(2) [5, 6)\n"
     "proc 3 read(1) [7, 9)\n"
     "proc 3 read(2) [10, 11)\n"},
    {"binary over safe bits",
     [] { return binary_system(reg_level::safe); }, property::safe_swmr,
     "holds 772 499 614 66 15 69 | 11249 614",
     ""},
    {"binary over regular bits",
     [] { return binary_system(reg_level::regular); }, property::regular_swmr,
     "fails 632 415 2 21 9 5 | 88 6",
     "proc 0 write(1) [0, 1)\n"
     "proc 0 write(2) [2, 4)\n"
     "proc 1 read(0) [3, 5)\n"
     "proc 1 read(2) [6, 7)\n"},
    {"atomic cell",
     [] { return cell_system(reg_level::atomic, {1, 2}, 2, 1); },
     property::atomic, "holds 573 340 1780 164 157 248 | 9491 1780",
     ""},
    {"regular cell",
     [] { return cell_system(reg_level::regular, {1, 2}, 1, 2); },
     property::atomic, "fails 340 203 10 23 19 13 | 115 12",
     "proc 0 write(1) [0, 1)\n"
     "proc 0 write(2) [2, 6)\n"
     "proc 2 read(2) [3, 4)\n"
     "proc 2 read(1) [5, 7)\n"},
    {"safe cell",
     [] { return cell_system(reg_level::safe, {1, 1}, 1, 1); },
     property::regular_swmr, "fails 116 80 2 15 7 3 | 31 4",
     "proc 0 write(1) [0, 1)\n"
     "proc 0 write(1) [2, 4)\n"
     "proc 2 read(0) [3, 5)\n"},
    {"stamped cell, one reader",
     [] { return stamped_cell_system(1, 3); }, property::atomic,
     "holds 546 316 798 83 76 103 | 9541 798",
     ""},
    {"stamped cell, two readers",
     [] { return stamped_cell_system(2, 2); }, property::atomic,
     "fails 14172 5826 178 91 43 67 | 13107 977",
     "proc 0 write(1) [0, 1)\n"
     "proc 0 write(2) [2, 8)\n"
     "proc 2 read(1) [3, 4)\n"
     "proc 2 read(2) [5, 6)\n"
     "proc 3 read(1) [7, 9)\n"
     "proc 3 read(2) [10, 11)\n"},
    {"naive safe bit", [] { return bit_system(false, {1, 1}, 1); },
     property::regular_swmr, "fails 116 80 2 15 7 3 | 31 4",
     "proc 0 write(1) [0, 1)\n"
     "proc 0 write(1) [2, 4)\n"
     "proc 1 read(0) [3, 5)\n"},
    {"disciplined safe bit",
     [] { return bit_system(true, {1, 1, 0, 0, 1}, 2); },
     property::regular_swmr, "holds 582 351 2813 113 19 113 | 32587 2813",
     ""},
};

TEST(PinnedModels, CountsAndFirstViolationsAreExact) {
    for (const pinned_model& m : kPinnedModels) {
        SCOPED_TRACE(m.name);
        explore_config cfg;
        cfg.prop = m.prop;
        const explore_result reduced = explore(m.build(), cfg);
        cfg.por = false;
        cfg.threads = 1;
        const explore_result full = explore(m.build(), cfg);
        EXPECT_TRUE(reduced.reduction.engaged);
        EXPECT_FALSE(reduced.truncated || full.truncated);
        EXPECT_EQ(reduced.property_holds, full.property_holds);
        EXPECT_EQ(pinned_counts(reduced, full), m.counts);
        EXPECT_EQ(reduced.first_violation
                      ? format_operations(reduced.first_violation->hist)
                      : std::string(),
                  m.violation);
    }
}

// The unary construction over ATOMIC bits: every bit access is one action
// (the same model over regular bits above has 715 reduced states), and at
// this bound no schedule breaks atomicity.
TEST(PinnedModels, UnaryOverAtomicBitsTakesOneActionPerAccess) {
    sim_state s = unary_system(3, {2, 1}, 2);
    for (mc_register& r : s.registers) r.level = reg_level::atomic;
    explore_config cfg;
    const explore_result reduced = explore(s, cfg);
    cfg.por = false;
    cfg.threads = 1;
    const explore_result full = explore(s, cfg);
    EXPECT_EQ(pinned_counts(reduced, full),
              "holds 251 184 206 52 52 65 | 2250 206");
}

/// model_explorer's race models: the detector rides the full engine, which
/// stops at the first race.
struct pinned_race {
    const char* name;
    sim_state (*build)();
    bool lockset;  ///< the lockset detector, else happens-before
    property prop;
    /// "<verdict> <states> <histories>" at one thread.
    const char* counts;
};

const pinned_race kPinnedRaces[] = {
    {"seqlock",
     [] { return seqlock_system(1, 1, analysis::sync_class::relaxed); }, false,
     property::atomic, "holds 226 10"},
    {"seqlock",
     [] { return seqlock_system(1, 1, analysis::sync_class::relaxed); }, true,
     property::atomic, "holds 214 10"},
    {"seqlock-weak",
     [] { return seqlock_system(1, 1, analysis::sync_class::plain); }, false,
     property::atomic, "fails 47 3"},
    {"seqlock-weak",
     [] { return seqlock_system(1, 1, analysis::sync_class::plain); }, true,
     property::atomic, "fails 69 3"},
    {"fourslot", [] { return fourslot_race_system(reg_level::atomic, 1); },
     false, property::atomic, "holds 282 10"},
    {"fourslot", [] { return fourslot_race_system(reg_level::atomic, 1); },
     true, property::atomic, "holds 206 10"},
    {"fourslot-regular",
     [] { return fourslot_race_system(reg_level::regular, 2); }, false,
     property::safe_swmr, "fails 201 5"},
};

TEST(PinnedModels, RaceModelCountsAreExact) {
    for (const pinned_race& m : kPinnedRaces) {
        SCOPED_TRACE(std::string(m.name) + (m.lockset ? " lockset" : " hb"));
        sim_state s = m.build();
        if (m.lockset) {
            s.enable_lockset_detection();
        } else {
            s.enable_race_detection();
        }
        explore_config cfg;
        cfg.prop = m.prop;
        cfg.threads = 1;
        const explore_result res = explore(s, cfg);
        EXPECT_FALSE(res.reduction.engaged);
        std::ostringstream o;
        o << (res.property_holds ? "holds " : "fails ") << res.states_explored
          << ' ' << res.distinct_histories;
        EXPECT_EQ(o.str(), m.counts);
    }
}

// ---------------------------------------------------------------------------
// The judge state (verdicts.hpp): stepping it label by label must reach
// judge_history's verdict on the rebuilt history, for every property.
// ---------------------------------------------------------------------------

/// A random label sequence: up to 4 processes, each a writer or a reader
/// with up to 3 ops. A process may stop with an op left open (a crash).
/// Write values repeat; a read returns a value begun so far or a random
/// one, possibly never written.
std::vector<emission> random_labels(rng& gen) {
    struct plan {
        op_kind kind;
        op_index ops;
        op_index crash_at;  // ops: never
        op_index next{0};
        bool open{false};
    };
    const auto nprocs = static_cast<std::size_t>(1 + gen.below(4));
    const std::size_t writers = gen.chance(1, 4) ? 2 : 1;
    std::vector<plan> procs;
    for (std::size_t p = 0; p < nprocs; ++p) {
        const auto ops = static_cast<op_index>(1 + gen.below(3));
        procs.push_back(plan{p < writers ? op_kind::write : op_kind::read, ops,
                             gen.chance(1, 4)
                                 ? static_cast<op_index>(gen.below(ops))
                                 : ops});
    }
    std::vector<emission> labels;
    std::vector<value_t> begun{0};
    for (;;) {
        std::vector<std::size_t> movable;
        for (std::size_t p = 0; p < procs.size(); ++p) {
            const plan& q = procs[p];
            const bool crashed = q.open && q.next == q.crash_at + 1;
            if (!crashed && (q.open || q.next < q.ops)) movable.push_back(p);
        }
        if (movable.empty()) return labels;
        const std::size_t p = movable[gen.below(movable.size())];
        plan& q = procs[p];
        emission l;
        l.kind = q.kind;
        l.proc = static_cast<processor_id>(p);
        l.is_begin = !q.open;
        l.op = q.open ? q.next - 1 : q.next;
        if (l.is_begin && q.kind == op_kind::write) {
            l.value = gen.range(1, 3);
            begun.push_back(l.value);
        } else if (!l.is_begin && q.kind == op_kind::read) {
            l.value = gen.chance(1, 2) ? begun[gen.below(begun.size())]
                                       : gen.range(0, 4);
        }
        if (l.is_begin) ++q.next;
        q.open = l.is_begin;
        labels.push_back(l);
    }
}

TEST(LabelJudge, AgreesWithJudgeHistoryOnRandomLabelSequences) {
    rng gen(0x1abe1);
    for (const property prop :
         {property::atomic, property::regular_swmr, property::safe_swmr}) {
        SCOPED_TRACE(static_cast<int>(prop));
        label_judge judge(prop, 0);
        std::size_t passed = 0;
        std::size_t failed = 0;
        for (int n = 0; n < 10000; ++n) {
            const std::vector<emission> labels = random_labels(gen);
            // The whole sequence, and a prefix cut anywhere (more ops open).
            const std::size_t cut = gen.below(labels.size() + 1);
            std::uint32_t state = label_judge::root();
            for (std::size_t i = 0; i <= labels.size(); ++i) {
                if (i == cut || i == labels.size()) {
                    ASSERT_NE(state, label_judge::unrepresentable);
                    const std::vector<emission> prefix(
                        labels.begin(),
                        labels.begin() + static_cast<std::ptrdiff_t>(i));
                    const std::vector<operation> hist = history_of(prefix);
                    const bool want = judge_history(hist, prop, 0).ok;
                    ASSERT_EQ(judge.passes(state), want)
                        << format_operations(hist);
                    (want ? passed : failed) += 1;
                }
                if (i < labels.size()) state = judge.step(state, labels[i]);
            }
        }
        // Both verdicts are well represented.
        EXPECT_GT(passed, 2000u);
        EXPECT_GT(failed, 2000u);
    }
}

TEST(LabelJudge, PrefixesPastItsLimitsAreUnrepresentable) {
    // atomic: 62 begins fit check_exhaustive; the 63rd does not.
    label_judge atomic(property::atomic, 0);
    std::uint32_t state = label_judge::root();
    for (op_index i = 0; i < 63; ++i) {
        ASSERT_NE(state, label_judge::unrepresentable);
        state = atomic.step(state, emission{true, op_kind::write, 0, i, 1});
        state = atomic.step(state, emission{false, op_kind::write, 0, i, 1});
    }
    EXPECT_EQ(state, label_judge::unrepresentable);
    // Value sets are one word: the initial value and 63 written ones fit;
    // a 65th distinct value does not.
    label_judge regular(property::regular_swmr, 0);
    state = label_judge::root();
    for (op_index i = 0; i < 64; ++i) {
        ASSERT_NE(state, label_judge::unrepresentable);
        const value_t v = static_cast<value_t>(i) + 1;
        state = regular.step(state, emission{true, op_kind::write, 0, i, v});
        state = regular.step(state, emission{false, op_kind::write, 0, i, v});
    }
    EXPECT_EQ(state, label_judge::unrepresentable);
}

TEST(LabelJudgeDeathTest, AProcessHasOneOpOpenAtATime) {
    label_judge judge(property::atomic, 0);
    const std::uint32_t open =
        judge.step(label_judge::root(), emission{true, op_kind::read, 2, 0, 0});
    EXPECT_DEATH((void)judge.step(open, emission{true, op_kind::read, 2, 1, 0}),
                 "previous one ended");
    EXPECT_DEATH(
        (void)judge.step(open, emission{false, op_kind::write, 2, 0, 0}),
        "open op of that kind");
}

// A value outside a register's domain, or a split-level register too wide
// for the 64-bit candidate masks, would shift past the mask width: an
// always-on check() rejects both in every build type.
TEST(SimStateDeathTest, OutOfDomainValuesAndWideMasksAreRejected) {
    sim_state s;
    s.registers = {atomic_reg(4, 0), weak_reg(reg_level::regular, 4, 0),
                   weak_reg(reg_level::regular, 65, 0)};
    EXPECT_DEATH(s.write_atomic(0, 4), "value outside");
    EXPECT_DEATH(s.write_atomic(0, -1), "value outside");
    EXPECT_DEATH(s.begin_write(1, 7), "value outside");
    EXPECT_DEATH(s.begin_write(2, 1), "64-bit candidate mask");
    EXPECT_DEATH(s.begin_read(2, 0), "64-bit candidate mask");
}

// A split read's candidate mask is looked up by its reader: ending or
// sizing a read that never began, or picking past its candidates, would
// dereference a missing entry or fall off the mask. Always-on checks.
TEST(SimStateDeathTest, SplitReadsNeedABeginAndAnInRangeChoice) {
    sim_state s;
    s.registers = {weak_reg(reg_level::regular, 4, 0)};
    EXPECT_DEATH((void)s.read_candidates(0, 1), "without begin_read");
    EXPECT_DEATH((void)s.end_read(0, 1, 0), "without begin_read");
    s.begin_read(0, 1);
    ASSERT_EQ(s.read_candidates(0, 1), 1);
    EXPECT_DEATH((void)s.end_read(0, 1, 1), "choice out of range");
    EXPECT_EQ(s.end_read(0, 1, 0), 0);
}

// end_write commits the open write's value: with none open it would commit
// -1, which a later begin_read uses as a shift count. A second begin_write
// would silently drop the first one's value. Always-on checks.
TEST(SimStateDeathTest, SplitWritesOpenAndCloseInPairs) {
    sim_state s;
    s.registers = {weak_reg(reg_level::regular, 4, 0)};
    EXPECT_DEATH(s.end_write(0), "end_write without begin_write");
    s.begin_write(0, 1);
    EXPECT_DEATH(s.begin_write(0, 2), "open write");
    s.end_write(0);
    EXPECT_EQ(s.registers[0].committed, 1);
}

// A misbuilt model must not run silently: an atomic access to a split-level
// register would read `committed` through an open write, a split access to
// an atomic register would give it regular semantics, and a stale read
// without track_previous would serve 0. Always-on checks.
TEST(SimStateDeathTest, AccessesMustMatchTheRegisterLevel) {
    sim_state s;
    s.registers = {atomic_reg(4, 0), weak_reg(reg_level::regular, 4, 0)};
    EXPECT_DEATH((void)s.read_atomic(1), "read_atomic on a split-level");
    EXPECT_DEATH(s.write_atomic(1, 1), "write_atomic on a split-level");
    EXPECT_DEATH(s.begin_read(0, 1), "begin_read on an atomic register");
    EXPECT_DEATH(s.begin_write(0, 1), "begin_write on an atomic register");
    EXPECT_DEATH((void)s.read_previous(0), "without track_previous");
}

// An ABD client picks the choice-th unvisited server; a choice past them
// must not fall back to server 0.
TEST(SimStateDeathTest, AServerChoicePastTheUnvisitedOnesIsRejected) {
    sim_state s;
    s.registers = {atomic_reg(8, 0), atomic_reg(8, 0), atomic_reg(8, 0)};
    const std::unique_ptr<process> writer =
        make_abd_writer(3, 2, 1, 0, {1}, 2, false);
    writer->step(s, 0);  // invoke; the SWMR writer goes straight to install
    EXPECT_DEATH(writer->step(s, 3), "unvisited servers");
}

// The full engine steps forced stretches in place, never resetting the
// emission capture: a writer with 70 writes emits 140 labels on one state.
// The count stops at 3 instead of wrapping into a negative array index.
TEST(SimState, EmissionCountStopsInsteadOfWrapping) {
    sim_state s;
    for (op_index i = 0; i < 70; ++i) {
        s.end_op(s.begin_op(0, i, op_kind::write, 1), 0);
    }
    EXPECT_EQ(s.emitted_count(), 3);
    EXPECT_FALSE(s.emitted(1).is_begin);
    // The same stretch inside the full engine: a lone writer's every step
    // is forced.
    std::vector<mc_value> writes(70);
    std::iota(writes.begin(), writes.end(), mc_value{1});
    explore_config cfg;
    cfg.prop = property::regular_swmr;
    cfg.por = false;
    cfg.threads = 1;
    const explore_result res =
        explore(bloom_system(std::move(writes), {}, 0, 0), cfg);
    EXPECT_TRUE(res.property_holds);
    EXPECT_EQ(res.distinct_histories, 1u);
}

}  // namespace
}  // namespace bloom87::mc
