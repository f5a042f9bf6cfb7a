// Substrate-parameterized concurrency tests: the two-writer register must
// be atomic over EVERY substrate the repository provides. Each case runs a
// threaded workload through the run harness on one bloom/* registry entry
// and checks the recorded external schedule with the polynomial register
// checker.
#include <gtest/gtest.h>

#include <string>

#include "harness/driver.hpp"
#include "histories/history.hpp"
#include "linearizability/fast_register.hpp"

namespace bloom87 {
namespace {

using namespace bloom87::harness;

class SubstrateConcurrency : public ::testing::TestWithParam<std::string> {
protected:
    /// A recorded threaded run of 2 writers and 2 readers on the
    /// substrate under test.
    [[nodiscard]] run_spec spec(std::uint64_t seed) const {
        run_spec s;
        s.register_name = GetParam();
        s.load.readers = 2;
        s.seed = seed;
        s.collect = collect_mode::per_thread;
        return s;
    }

    static void expect_atomic(const run_spec& s) {
        const run_result res = run(s);
        ASSERT_TRUE(res.ok) << res.error;
        const parse_result parsed = parse_history(res.events, s.initial);
        ASSERT_TRUE(parsed.ok()) << parsed.error->message;
        const auto fast = check_fast(parsed.hist.ops, s.initial);
        ASSERT_TRUE(fast.ok()) << *fast.defect;
        EXPECT_TRUE(fast.linearizable)
            << "seed " << s.seed << ": " << fast.diagnosis;
    }
};

TEST_P(SubstrateConcurrency, ConcurrentHistoriesAtomic) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
        run_spec s = spec(seed);
        s.load.ops_per_writer = 600;
        s.load.ops_per_reader = 3000;
        s.load.writer_read_num = 0;
        expect_atomic(s);
    }
}

TEST_P(SubstrateConcurrency, MixedReadersAndWriterReads) {
    // Writer reads through the full protocol, then through the cached one.
    for (bool cached : {false, true}) {
        run_spec s = spec(cached ? 8 : 7);
        s.load.ops_per_writer = 400;
        s.load.ops_per_reader = 800;
        s.load.writer_read_num = 1;
        s.load.writer_read_den = 6;
        s.cached_writer_reads = cached;
        expect_atomic(s);
    }
}

TEST_P(SubstrateConcurrency, CrashSweepOverSubstrate) {
    // Three of every four writes crash, cycling through the crash points.
    run_spec s = spec(9);
    s.load.ops_per_writer = 300;
    s.load.ops_per_reader = 600;
    s.pace.crash_num = 3;
    s.pace.crash_den = 4;
    expect_atomic(s);
}

INSTANTIATE_TEST_SUITE_P(
    Substrates, SubstrateConcurrency,
    ::testing::Values("bloom/recording", "bloom/seqlock", "bloom/fourslot"),
    [](const ::testing::TestParamInfo<std::string>& info) {
        std::string name = info.param;
        for (char& c : name) {
            if (c == '/') c = '_';
        }
        return name;
    });

}  // namespace
}  // namespace bloom87
