// Concurrent verification of the two-writer register: real threads hammer
// the protocol over the recording substrate; every recorded gamma is checked
// three ways -- by the paper's constructive linearizer, by the polynomial
// register checker, and (for small runs) by the exhaustive checker.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/two_writer.hpp"
#include "histories/event_log.hpp"
#include "histories/workload.hpp"
#include "linearizability/bloom_linearizer.hpp"
#include "linearizability/exhaustive.hpp"
#include "linearizability/fast_register.hpp"
#include "registers/packed_atomic.hpp"
#include "registers/recording.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace bloom87 {
namespace {

using recorded_reg = two_writer_register<value_t, recording_register>;

/// Runs one recorded multi-threaded execution of the given workload and
/// returns its parsed history.
history run_recorded(const workload& w, value_t initial) {
    const std::size_t total = w.total_ops();
    event_log log(total * 8 + 64);
    recorded_reg reg(initial, &log);

    start_gate gate;
    std::vector<std::thread> pool;
    for (std::size_t p = 0; p < w.scripts.size(); ++p) {
        pool.emplace_back([&, p] {
            gate.wait();
            if (p < 2) {
                auto& writer = p == 0 ? reg.writer0() : reg.writer1();
                for (const workload_op& op : w.scripts[p]) {
                    if (op.kind == op_kind::write) {
                        writer.write(op.value);
                    } else {
                        (void)writer.read();
                    }
                }
            } else {
                auto reader = reg.make_reader(static_cast<processor_id>(p));
                for (const workload_op& op : w.scripts[p]) {
                    (void)op;
                    (void)reader.read();
                }
            }
        });
    }
    gate.open();
    for (auto& t : pool) t.join();

    parse_result parsed = parse_history(log.snapshot(), initial);
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
    const workload w = make_workload(cfg, GetParam());
    const history h = run_recorded(w, 0);

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
    const workload w = make_workload(cfg, GetParam() + 1000);
    const history h = run_recorded(w, 0);

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
    const workload w = make_workload(cfg, GetParam() + 2000);
    const history h = run_recorded(w, 0);

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
    // window (cache-line arbitration makes the two writers' access pairs
    // bursty), so pace the writers with random spins to exercise the
    // impotent path. Every history still must linearize.
    std::size_t potent = 0, impotent = 0;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        event_log log(1 << 16);
        recorded_reg reg(0, &log);
        start_gate gate;
        auto writer_loop = [&](int index) {
            rng pace(seed * 2 + static_cast<std::uint64_t>(index));
            auto& wr = index == 0 ? reg.writer0() : reg.writer1();
            for (std::uint32_t i = 0; i < 800; ++i) {
                const bool stall = pace.chance(1, 8);
                wr.write_paced(
                    unique_value(static_cast<processor_id>(index), i), [&] {
                        if (stall) {
                            std::this_thread::sleep_for(
                                std::chrono::microseconds(50));
                        }
                    });
            }
        };
        std::thread t0([&] { gate.wait(); writer_loop(0); });
        std::thread t1([&] { gate.wait(); writer_loop(1); });
        gate.open();
        t0.join();
        t1.join();

        parse_result parsed = parse_history(log.snapshot(), 0);
        ASSERT_TRUE(parsed.ok()) << parsed.error->message;
        const bloom_result res = bloom_linearize(parsed.hist);
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
    rng gen(GetParam());
    event_log log(1 << 16);
    recorded_reg reg(0, &log);
    start_gate gate;

    std::thread t0([&] {
        gate.wait();
        auto& wr = reg.writer0();
        for (std::uint32_t i = 0; i < 120; ++i) {
            const value_t v = unique_value(0, i);
            switch (i % 4) {
                case 0: wr.write_crashed(v, crash_point::before_read); break;
                case 1: wr.write_crashed(v, crash_point::after_read); break;
                case 2: wr.write_crashed(v, crash_point::after_write); break;
                default: wr.write(v); break;
            }
        }
    });
    std::thread t1([&] {
        gate.wait();
        auto& wr = reg.writer1();
        for (std::uint32_t i = 0; i < 120; ++i) wr.write(unique_value(1, i));
    });
    std::thread t2([&] {
        gate.wait();
        auto rd = reg.make_reader(2);
        for (int i = 0; i < 200; ++i) (void)rd.read();
    });
    gate.open();
    t0.join();
    t1.join();
    t2.join();

    parse_result parsed = parse_history(log.snapshot(), 0);
    ASSERT_TRUE(parsed.ok()) << parsed.error->message;
    const auto fast = check_fast(parsed.hist.ops, 0);
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
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        event_log log(1 << 16);
        recorded_reg reg(0, &log);
        start_gate gate;

        std::thread t0([&] {
            gate.wait();
            auto& wr = reg.writer0();
            rng g(seed * 3 + 1);
            for (std::uint32_t i = 0; i < 150; ++i) {
                if (g.chance(1, 3)) {
                    (void)wr.read_cached();
                } else {
                    wr.write(unique_value(0, i));
                }
            }
        });
        std::thread t1([&] {
            gate.wait();
            auto& wr = reg.writer1();
            rng g(seed * 3 + 2);
            for (std::uint32_t i = 0; i < 150; ++i) {
                if (g.chance(1, 3)) {
                    (void)wr.read_cached();
                } else {
                    wr.write(unique_value(1, i));
                }
            }
        });
        std::thread t2([&] {
            gate.wait();
            auto rd = reg.make_reader(2);
            for (int i = 0; i < 150; ++i) (void)rd.read();
        });
        gate.open();
        t0.join();
        t1.join();
        t2.join();

        parse_result parsed = parse_history(log.snapshot(), 0);
        ASSERT_TRUE(parsed.ok()) << parsed.error->message;
        const auto fast = check_fast(parsed.hist.ops, 0);
        ASSERT_TRUE(fast.ok()) << *fast.defect;
        EXPECT_TRUE(fast.linearizable) << "seed " << seed << ": " << fast.diagnosis;
        const bloom_result bloom = bloom_linearize(parsed.hist);
        ASSERT_TRUE(bloom.ok()) << *bloom.defect;
        EXPECT_TRUE(bloom.atomic) << "seed " << seed << ": " << bloom.diagnosis;
    }
}

}  // namespace
}  // namespace bloom87
