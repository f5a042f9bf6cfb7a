// Concurrent verification of the two-writer register: the run harness
// drives real threads over the recording substrate (bloom/recording); every
// recorded gamma is checked three ways -- by the paper's constructive
// linearizer, by the polynomial register checker, and (for small runs) by
// the exhaustive checker.
#include <gtest/gtest.h>

#include "harness/driver.hpp"
#include "histories/history.hpp"
#include "histories/workload.hpp"
#include "linearizability/bloom_linearizer.hpp"
#include "linearizability/exhaustive.hpp"
#include "linearizability/fast_register.hpp"

namespace bloom87 {
namespace {

/// A bloom/recording run of `load` from `seed`, real accesses recorded.
harness::run_spec recorded_spec(const workload_config& load,
                                std::uint64_t seed) {
    harness::run_spec spec;
    spec.register_name = "bloom/recording";
    spec.load = load;
    spec.seed = seed;
    spec.collect = harness::collect_mode::per_thread;
    return spec;
}

/// Runs one recorded execution and returns its parsed history.
history run_recorded(const harness::run_spec& spec) {
    const harness::run_result res = harness::run(spec);
    EXPECT_TRUE(res.ok) << res.error;
    parse_result parsed = parse_history(res.events, spec.initial);
    EXPECT_TRUE(parsed.ok()) << parsed.error->message;
    return std::move(parsed.hist);
}

std::vector<operation> complete_ops(const history& h) { return h.ops; }

// ---------------------------------------------------------------------------
// Property sweep: many seeds, three checkers in agreement.
// ---------------------------------------------------------------------------

class RecordedExecution : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecordedExecution, ConstructiveLinearizerAcceptsEveryRun) {
    workload_config cfg;
    cfg.readers = 3;
    cfg.ops_per_writer = 150;
    cfg.ops_per_reader = 150;
    const history h = run_recorded(recorded_spec(cfg, GetParam()));

    const bloom_result res = bloom_linearize(h);
    ASSERT_TRUE(res.ok()) << *res.defect;
    EXPECT_TRUE(res.atomic) << res.diagnosis;
    // Every completed op got a linearization point.
    std::size_t complete = 0;
    for (const operation& op : h.ops) complete += op.complete();
    EXPECT_EQ(res.linearization.size(), complete);
}

TEST_P(RecordedExecution, FastCheckerAgrees) {
    workload_config cfg;
    cfg.readers = 3;
    cfg.ops_per_writer = 120;
    cfg.ops_per_reader = 120;
    const history h = run_recorded(recorded_spec(cfg, GetParam() + 1000));

    const auto fast = check_fast(complete_ops(h), 0);
    ASSERT_TRUE(fast.ok()) << *fast.defect;
    EXPECT_TRUE(fast.linearizable) << fast.diagnosis;
    const auto constructive = bloom_linearize(h);
    ASSERT_TRUE(constructive.ok());
    EXPECT_TRUE(constructive.atomic) << constructive.diagnosis;
}

TEST_P(RecordedExecution, SmallRunsPassExhaustiveChecker) {
    workload_config cfg;
    cfg.readers = 2;
    cfg.ops_per_writer = 6;
    cfg.ops_per_reader = 6;
    const history h = run_recorded(recorded_spec(cfg, GetParam() + 2000));

    const auto slow = check_exhaustive(complete_ops(h), 0);
    ASSERT_TRUE(slow.ok()) << *slow.defect;
    EXPECT_TRUE(slow.linearizable);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordedExecution,
                         ::testing::Range<std::uint64_t>(0, 24));

// ---------------------------------------------------------------------------
// Lemma statistics: impotent writes do occur under contention, and every one
// has a potent prefinisher (Lemmas 1-2 as runtime invariants; the linearizer
// fails loudly if they break, so here we just confirm both classes happen).
// ---------------------------------------------------------------------------

TEST(LemmaStats, BothPotencyClassesOccurUnderContention) {
    // Tight write loops almost never interleave inside the read->write
    // window, so pace the writers on the seeded schedule: a paced write's
    // pause runs a burst of the other writer's ops between its real read
    // and real write, so impotent writes occur whatever the machine load.
    // Every history still must linearize.
    workload_config cfg;
    cfg.readers = 0;
    cfg.ops_per_writer = 800;
    cfg.writer_read_num = 0;
    std::size_t potent = 0, impotent = 0;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        harness::run_spec spec = recorded_spec(cfg, seed);
        spec.schedule = harness::schedule_mode::seeded;
        spec.pace.writer_pace_num = 1;
        spec.pace.writer_pace_den = 8;
        spec.pace.pause_yields = 4;
        const history h = run_recorded(spec);
        const bloom_result res = bloom_linearize(h);
        ASSERT_TRUE(res.ok());
        ASSERT_TRUE(res.atomic) << res.diagnosis;
        potent += res.potent_count;
        impotent += res.impotent_count;
    }
    EXPECT_GT(potent, 0u);
    EXPECT_GT(impotent, 0u);
}

// ---------------------------------------------------------------------------
// Crash injection: a writer dying at any protocol step leaves an atomic
// history and never blocks the other processors.
// ---------------------------------------------------------------------------

class CrashSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrashSweep, CrashedWritesLeaveHistoryAtomic) {
    // Half the writes crash, cycling through the three crash points.
    workload_config cfg;
    cfg.readers = 1;
    cfg.ops_per_writer = 120;
    cfg.ops_per_reader = 200;
    harness::run_spec spec = recorded_spec(cfg, GetParam());
    spec.pace.crash_num = 1;
    spec.pace.crash_den = 2;
    const history h = run_recorded(spec);

    const auto fast = check_fast(h.ops, 0);
    ASSERT_TRUE(fast.ok()) << *fast.defect;
    EXPECT_TRUE(fast.linearizable) << fast.diagnosis;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashSweep, ::testing::Range<std::uint64_t>(0, 8));

// ---------------------------------------------------------------------------
// The cached writer-read variant (Section 5 optimization) under concurrency,
// verified with the generic checker and the constructive linearizer (which
// reads a cached read as the plain protocol with virtual own-register
// reads).
// ---------------------------------------------------------------------------

TEST(CachedRead, ConcurrentHistoriesAtomic) {
    workload_config cfg;
    cfg.readers = 1;
    cfg.ops_per_writer = 150;
    cfg.ops_per_reader = 150;
    cfg.writer_read_num = 1;
    cfg.writer_read_den = 3;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        harness::run_spec spec = recorded_spec(cfg, seed);
        spec.cached_writer_reads = true;
        const history h = run_recorded(spec);

        const auto fast = check_fast(h.ops, 0);
        ASSERT_TRUE(fast.ok()) << *fast.defect;
        EXPECT_TRUE(fast.linearizable) << "seed " << seed << ": " << fast.diagnosis;
        const bloom_result bloom = bloom_linearize(h);
        ASSERT_TRUE(bloom.ok()) << *bloom.defect;
        EXPECT_TRUE(bloom.atomic) << "seed " << seed << ": " << bloom.diagnosis;
    }
}

}  // namespace
}  // namespace bloom87
