// Scale stress: large histories, long-running contention, and many reader
// threads, all driven through the run harness (src/harness). Kept to tens
// of seconds total; the point is to shake out races and scale limits the
// small tests cannot reach.
#include <gtest/gtest.h>

#include "harness/checkers.hpp"
#include "harness/driver.hpp"

namespace bloom87 {
namespace {

using namespace bloom87::harness;

TEST(Stress, QuarterMillionOpsCheckedEndToEnd) {
    // 2 writers x 50k ops + 4 readers x 40k reads on the recording
    // substrate, verified by BOTH the constructive linearizer and the fast
    // checker through the pipeline.
    run_spec spec;
    spec.register_name = "bloom/recording";
    spec.load.writers = 2;
    spec.load.readers = 4;
    spec.load.ops_per_writer = 50000;
    spec.load.ops_per_reader = 40000;
    spec.seed = 7;
    spec.collect = collect_mode::per_thread;

    const run_result res = run(spec);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.total_reads + res.total_writes,
              2u * 50000 + 4u * 40000);

    const pipeline_result checks = run_checkers(
        res.events, 0, {checker_kind::bloom, checker_kind::fast});
    ASSERT_TRUE(checks.parsed) << checks.parse_error;
    EXPECT_EQ(checks.operations, 2u * 50000 + 4u * 40000);
    for (const check_verdict& v : checks.verdicts) {
        ASSERT_TRUE(v.ran) << checker_name(v.kind) << ": " << v.skip_reason;
        EXPECT_TRUE(v.pass) << checker_name(v.kind) << ": " << v.diagnosis;
    }
}

TEST(Stress, ManyReaderThreadsOnPackedSubstrate) {
    // 12 reader threads against both writers on the lock-free substrate,
    // with contention-free per-thread event collection; the merged history
    // must be linearizable (strictly stronger than the per-writer
    // monotonicity the pre-harness version of this test asserted).
    run_spec spec;
    spec.register_name = "bloom/packed";
    spec.load.writers = 2;
    spec.load.readers = 12;
    spec.load.ops_per_writer = 20000;
    spec.load.ops_per_reader = 15000;
    spec.seed = 11;
    spec.collect = collect_mode::per_thread;

    const run_result res = run(spec);
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(res.threads.size(), 14u);

    const pipeline_result checks =
        run_checkers(res.events, 0, {checker_kind::fast});
    ASSERT_TRUE(checks.parsed) << checks.parse_error;
    ASSERT_EQ(checks.verdicts.size(), 1u);
    ASSERT_TRUE(checks.verdicts[0].ran) << checks.verdicts[0].skip_reason;
    EXPECT_TRUE(checks.verdicts[0].pass) << checks.verdicts[0].diagnosis;
}

TEST(Stress, PacedContentionKeepsLemmasTrue) {
    // Long paced run maximizing impotent writes; the linearizer revalidates
    // Lemmas 1/2/4 on every one of them. The seeded schedule makes it
    // deterministic: a paced write's pause runs a burst of the other
    // processors' ops between its real read and real write, so overlap --
    // and with it impotent writes -- never depends on machine load.
    run_spec spec;
    spec.register_name = "bloom/recording";
    spec.load.writers = 2;
    spec.load.readers = 1;
    spec.load.ops_per_writer = 12000;
    spec.load.ops_per_reader = 15000;
    spec.seed = 1234;
    spec.collect = collect_mode::per_thread;
    spec.schedule = schedule_mode::seeded;
    spec.pace.writer_pace_num = 1;
    spec.pace.writer_pace_den = 12;
    spec.pace.reader_pace_num = 1;
    spec.pace.reader_pace_den = 8;
    spec.pace.pause_yields = 512;

    const run_result res = run(spec);
    ASSERT_TRUE(res.ok) << res.error;

    const pipeline_result checks =
        run_checkers(res.events, 0, {checker_kind::bloom});
    ASSERT_TRUE(checks.parsed) << checks.parse_error;
    ASSERT_EQ(checks.verdicts.size(), 1u);
    const check_verdict& v = checks.verdicts[0];
    ASSERT_TRUE(v.ran) << v.skip_reason;
    EXPECT_TRUE(v.pass) << v.diagnosis;
    EXPECT_GT(v.impotent_writes, 0u);
}

}  // namespace
}  // namespace bloom87
