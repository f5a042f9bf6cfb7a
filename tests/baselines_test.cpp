// Tests for src/baselines: the mutex and native-atomic baselines behave as
// MRMW atomic registers; the four-writer tournament reproduces the paper's
// Figure 5 counterexample and is flagged non-atomic by the checkers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "baselines/mutex_register.hpp"
#include "baselines/native_atomic.hpp"
#include "baselines/rwlock_register.hpp"
#include "baselines/tournament.hpp"
#include "histories/event_log.hpp"
#include "histories/history.hpp"
#include "histories/workload.hpp"
#include "linearizability/exhaustive.hpp"
#include "linearizability/fast_register.hpp"
#include "linearizability/monitor.hpp"
#include "util/sync.hpp"

namespace bloom87 {
namespace {

TEST(MutexRegister, SequentialSemantics) {
    mutex_register<int> reg(5);
    EXPECT_EQ(reg.read(), 5);
    reg.write(9);
    EXPECT_EQ(reg.read(), 9);
}

/// Hammers a blocking register from `writers` writer and `readers` reader
/// threads, recording every operation's boundaries through the atomicity
/// monitor, and returns its verdict.
template <typename Reg>
monitor_verdict hammer(Reg& reg, int writers, int readers) {
    atomicity_monitor mon(0);
    start_gate gate;
    std::vector<std::thread> pool;
    for (int p = 0; p < writers + readers; ++p) {
        pool.emplace_back([&, p] {
            auto port = mon.make_port(static_cast<processor_id>(p));
            gate.wait();
            for (std::uint32_t i = 0; i < 200; ++i) {
                if (p < writers) {
                    const value_t v =
                        unique_value(static_cast<processor_id>(p), i);
                    port.begin_write(v);
                    reg.write(v);
                    port.end_write();
                } else {
                    port.begin_read();
                    port.end_read(reg.read());
                }
            }
        });
    }
    gate.open();
    for (auto& t : pool) t.join();
    return mon.verify();
}

TEST(MutexRegister, ConcurrentHistoryIsAtomic) {
    mutex_register<value_t> reg(0);
    const monitor_verdict v = hammer(reg, 3, 3);
    EXPECT_TRUE(v.atomic) << v.diagnosis;
}

TEST(RwlockRegister, SequentialSemantics) {
    rwlock_register<int> reg(5);
    EXPECT_EQ(reg.read(), 5);
    reg.write(9);
    EXPECT_EQ(reg.read(), 9);
}

TEST(RwlockRegister, ConcurrentHistoryIsAtomic) {
    rwlock_register<value_t> reg(0);
    const monitor_verdict v = hammer(reg, 2, 3);
    EXPECT_TRUE(v.atomic) << v.diagnosis;
}

TEST(RwlockRegister, StalledWriterBlocksReaders) {
    rwlock_register<int> reg(0);
    std::atomic<bool> read_done{false};
    auto lock = reg.stall_writer();
    std::thread reader([&] {
        (void)reg.read();
        read_done.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(read_done.load());  // the anti-property, again
    lock.unlock();
    reader.join();
    EXPECT_TRUE(read_done.load());
}

TEST(NativeAtomic, SequentialSemantics) {
    native_atomic_register<std::int32_t> reg(-3);
    EXPECT_EQ(reg.read(), -3);
    reg.write(12);
    EXPECT_EQ(reg.read(), 12);
}

// ---------------------------------------------------------------------------
// Figure 5: the four-writer tournament counterexample, replayed exactly.
// ---------------------------------------------------------------------------

TEST(Tournament, SequentialWritesWork) {
    tournament_four_writer<std::int32_t> reg(0);
    auto rd = reg.make_reader();
    auto w0 = reg.make_writer(0);
    auto w3 = reg.make_writer(3);
    w0.write(10);
    EXPECT_EQ(rd.read(), 10);
    w3.write(20);
    EXPECT_EQ(rd.read(), 20);
}

TEST(Tournament, Figure5ValueReappears) {
    // Values: 'a' = 1 (initial), 'x' = 10, 'c' = 20, 'd' = 30.
    tournament_four_writer<std::int32_t> reg(1);
    auto rd = reg.make_reader();
    auto wr00 = reg.make_writer(0);
    auto wr01 = reg.make_writer(1);
    auto wr11 = reg.make_writer(3);

    EXPECT_EQ(rd.read(), 1);      // initial: 'a'
    wr00.begin_write(10);         // Wr00 performs its real reads, sleeps
    wr11.write(20);               // Wr11 writes 'c'
    EXPECT_EQ(rd.read(), 20);     // register holds 'c'
    wr01.write(30);               // Wr01 writes 'd': 'c' is now obsolete
    EXPECT_EQ(rd.read(), 30);     // register holds 'd'
    wr00.finish_write();          // Wr00's stale write lands
    EXPECT_EQ(rd.read(), 20);     // 'c' has REAPPEARED: not atomic

    // The real registers match the paper's final row: Reg0 = ('x', 0),
    // Reg1 = ('c', 1).
    EXPECT_EQ(reg.real_contents(0).value, 10);
    EXPECT_FALSE(reg.real_contents(0).tag);
    EXPECT_EQ(reg.real_contents(1).value, 20);
    EXPECT_TRUE(reg.real_contents(1).tag);
}

TEST(Tournament, Figure5HistoryRejectedByCheckers) {
    event_log log(256);
    tournament_four_writer<std::int32_t> reg(1, &log);
    auto rd = reg.make_reader();
    auto wr00 = reg.make_writer(0);
    auto wr01 = reg.make_writer(1);
    auto wr11 = reg.make_writer(3);

    wr00.begin_write(10);
    wr11.write(20);
    (void)rd.read();
    wr01.write(30);
    (void)rd.read();
    wr00.finish_write();
    (void)rd.read();

    parse_result parsed = parse_history(log.snapshot(), 1);
    ASSERT_TRUE(parsed.ok()) << parsed.error->message;
    const auto fast = check_fast(parsed.hist.ops, 1);
    ASSERT_TRUE(fast.ok()) << *fast.defect;
    EXPECT_FALSE(fast.linearizable);
    const auto slow = check_exhaustive(parsed.hist.ops, 1);
    ASSERT_TRUE(slow.ok()) << *slow.defect;
    EXPECT_FALSE(slow.linearizable);
}

TEST(Tournament, TwoWritersOnlyIsStillAtomic) {
    // Degenerate use: only one writer per pair active -- reduces to the
    // two-writer protocol, which is correct. Sanity check that the failure
    // really needs two writers in one pair.
    event_log log(1 << 14);
    tournament_four_writer<std::int32_t> reg(0, &log);
    start_gate gate;
    std::thread t0([&] {
        gate.wait();
        auto w = reg.make_writer(0);
        for (std::int32_t i = 0; i < 300; ++i) w.write((1 << 16) + i);
    });
    std::thread t1([&] {
        gate.wait();
        auto w = reg.make_writer(2);
        for (std::int32_t i = 0; i < 300; ++i) w.write((2 << 16) + i);
    });
    std::thread t2([&] {
        gate.wait();
        auto rd = reg.make_reader(4);
        for (int i = 0; i < 400; ++i) (void)rd.read();
    });
    gate.open();
    t0.join();
    t1.join();
    t2.join();

    parse_result parsed = parse_history(log.snapshot(), 0);
    ASSERT_TRUE(parsed.ok()) << parsed.error->message;
    const auto res = check_fast(parsed.hist.ops, 0);
    ASSERT_TRUE(res.ok()) << *res.defect;
    EXPECT_TRUE(res.linearizable) << res.diagnosis;
}

TEST(MutexRegister, StallHoldsUpReaders) {
    // The anti-property the paper calls out (Section 4): one stalled
    // processor blocks everyone on a mutual-exclusion register.
    mutex_register<int> reg(0);
    std::atomic<bool> read_done{false};
    auto lock = reg.stall();  // a "crashed" writer inside its critical section
    std::thread reader([&] {
        (void)reg.read();
        read_done.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(read_done.load());  // reader is stuck
    lock.unlock();
    reader.join();
    EXPECT_TRUE(read_done.load());
}

}  // namespace
}  // namespace bloom87
