// Tests for the VA-style multi-writer register (threads) and its model
// (exhaustive): n writers work where the tournament fails, at the price the
// paper's economy avoids for n = 2.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "histories/workload.hpp"
#include "linearizability/monitor.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/processes.hpp"
#include "registers/va_register.hpp"
#include "util/sync.hpp"

namespace bloom87 {
namespace {

TEST(VaRegister, SequentialLastWriteWins) {
    va_register<int> reg(9, 4);
    EXPECT_EQ(reg.read(), 9);
    auto w0 = reg.make_writer_port(0);
    auto w3 = reg.make_writer_port(3);
    w0.write(1);
    EXPECT_EQ(reg.read(), 1);
    w3.write(2);
    EXPECT_EQ(reg.read(), 2);
    w0.write(3);
    EXPECT_EQ(reg.read(), 3);
    EXPECT_EQ(w3.read(), 3);
}

TEST(VaRegister, TimestampTieBrokenByWriterId) {
    // Two writers scanning the same state write the same timestamp; the
    // higher writer id must win deterministically (no value loss).
    va_register<int> reg(0, 2);
    auto w0 = reg.make_writer_port(0);
    auto w1 = reg.make_writer_port(1);
    // Simulate the tie by writing from both from the same initial state:
    // sequential code cannot create a true tie, but after w0's write, w1
    // scans and goes one higher -- reads must never go backwards.
    w0.write(10);
    w1.write(20);
    EXPECT_EQ(reg.read(), 20);
}

class VaConcurrent : public ::testing::TestWithParam<std::size_t> {};

TEST_P(VaConcurrent, HistoriesAtomicForManyWriters) {
    const std::size_t writers = GetParam();
    va_register<value_t> reg(0, writers);
    atomicity_monitor mon(0);
    start_gate gate;

    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < writers; ++w) {
        pool.emplace_back([&, w] {
            auto port = reg.make_writer_port(w);
            auto mport = mon.make_port(static_cast<processor_id>(w));
            gate.wait();
            for (std::uint32_t i = 0; i < 400; ++i) {
                const value_t v = unique_value(static_cast<processor_id>(w), i);
                mport.begin_write(v);
                port.write(v);
                mport.end_write();
            }
        });
    }
    for (std::size_t r = 0; r < 2; ++r) {
        pool.emplace_back([&, r] {
            auto mport = mon.make_port(static_cast<processor_id>(10 + r));
            gate.wait();
            for (int i = 0; i < 600; ++i) {
                mport.begin_read();
                mport.end_read(reg.read());
            }
        });
    }
    gate.open();
    for (auto& t : pool) t.join();

    const monitor_verdict v = mon.verify();
    EXPECT_TRUE(v.atomic) << writers << " writers: " << v.diagnosis;
}

INSTANTIATE_TEST_SUITE_P(WriterCounts, VaConcurrent,
                         ::testing::Values(2, 3, 4, 6));

// ---------------------------------------------------------------------------
// Model checking: VA passes with THREE writers (exactly where the
// tournament fails), and the split-write Bloom mutant is caught.
// ---------------------------------------------------------------------------

namespace modelchecks {
using namespace bloom87::mc;

mc_register stamp_reg(mc_value domain) {
    mc_register r;
    r.level = reg_level::atomic;
    r.domain = domain;
    r.committed = 0;
    return r;
}

TEST(VaModel, TwoWritersAtomic) {
    constexpr int n = 2;
    constexpr mc_value vdom = 4;  // values 0..3; 0 is initial
    constexpr mc_value domain = (2 + 1) * n * vdom;  // up to 2 total writes
    sim_state s;
    for (int i = 0; i < n; ++i) s.registers.push_back(stamp_reg(domain));
    s.procs.push_back(make_va_writer(0, n, 0, {1}, vdom));
    s.procs.push_back(make_va_writer(0, n, 1, {2}, vdom));
    s.procs.push_back(make_va_reader(0, n, 4, 2, vdom));
    explore_config cfg;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_TRUE(res.property_holds)
        << res.first_violation->diagnosis << "\n"
        << format_operations(res.first_violation->hist);
}

TEST(VaModel, ThreeWritersAtomicWhereTournamentFails) {
    constexpr int n = 3;
    constexpr mc_value vdom = 5;
    constexpr mc_value domain = (3 + 1) * n * vdom;
    sim_state s;
    for (int i = 0; i < n; ++i) s.registers.push_back(stamp_reg(domain));
    s.procs.push_back(make_va_writer(0, n, 0, {1}, vdom));
    s.procs.push_back(make_va_writer(0, n, 1, {2}, vdom));
    s.procs.push_back(make_va_writer(0, n, 2, {3}, vdom));
    s.procs.push_back(make_va_reader(0, n, 4, 2, vdom));
    explore_config cfg;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_TRUE(res.property_holds)
        << res.first_violation->diagnosis << "\n"
        << format_operations(res.first_violation->hist);
    EXPECT_GT(res.distinct_histories, 100u);
}

TEST(SplitWriteModel, SeparateValueAndTagWritesAreNotAtomic) {
    sim_state s;
    // Layout: value0, tag0, value1, tag1. Values 0..4; tags 0/1.
    for (int i = 0; i < 4; ++i) {
        mc_register r;
        r.level = reg_level::atomic;
        r.domain = i % 2 == 0 ? 5 : 2;
        r.committed = 0;
        s.registers.push_back(r);
    }
    s.procs.push_back(make_split_bloom_writer(0, {1, 2}));
    s.procs.push_back(make_split_bloom_writer(1, {3, 4}));
    s.procs.push_back(make_split_bloom_reader(2, 2));
    explore_config cfg;
    const explore_result res = explore(s, cfg);
    EXPECT_FALSE(res.truncated);
    EXPECT_FALSE(res.property_holds)
        << "splitting the (value, tag) pair must break atomicity";
}

}  // namespace modelchecks

}  // namespace
}  // namespace bloom87
