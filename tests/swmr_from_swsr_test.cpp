// Tests for the multi-reader construction (swmr_from_swsr) and the full
// register-simulation stack: safe slots -> Simpson SWSR -> SWMR -> Bloom's
// two-writer register.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/two_writer.hpp"
#include "harness/driver.hpp"
#include "histories/workload.hpp"
#include "linearizability/fast_register.hpp"
#include "linearizability/monitor.hpp"
#include "registers/swmr_from_swsr.hpp"
#include "util/sync.hpp"

namespace bloom87 {
namespace {

TEST(SwmrFromSwsr, InitialValueOnEveryPort) {
    swmr_from_swsr<std::int64_t> reg(tagged<std::int64_t>{42, true}, 4);
    for (std::size_t i = 0; i < 4; ++i) {
        auto port = reg.make_reader_port(i);
        const auto got = port.read();
        EXPECT_EQ(got.value, 42);
        EXPECT_TRUE(got.tag);
    }
}

TEST(SwmrFromSwsr, WritesVisibleOnEveryPort) {
    swmr_from_swsr<std::int64_t> reg(tagged<std::int64_t>{0, false}, 3);
    auto p0 = reg.make_reader_port(0);
    auto p1 = reg.make_reader_port(1);
    auto p2 = reg.make_reader_port(2);
    for (std::int64_t v = 1; v <= 10; ++v) {
        reg.write(tagged<std::int64_t>{v, (v & 1) != 0});
        EXPECT_EQ(p0.read().value, v);
        EXPECT_EQ(p1.read().value, v);
        EXPECT_EQ(p2.read().value, v);
        EXPECT_EQ(p2.read().tag, (v & 1) != 0);
    }
}

TEST(SwmrFromSwsr, RegisterBudgetMatchesConstruction) {
    // n value registers + n*(n-1) report registers.
    for (std::size_t n : {1u, 2u, 4u, 7u}) {
        swmr_from_swsr<std::int64_t> reg(tagged<std::int64_t>{0, false}, n);
        EXPECT_EQ(reg.swsr_register_count(), n + n * (n - 1));
    }
}

TEST(SwmrFromSwsr, PerReaderMonotonicityTorture) {
    constexpr int readers = 3;
    constexpr std::int64_t writes = 60000;
    swmr_from_swsr<std::int64_t> reg(tagged<std::int64_t>{0, false}, readers);
    start_gate gate;
    std::atomic<bool> done{false};
    std::atomic<int> violations{0};
    std::vector<std::thread> pool;
    for (int r = 0; r < readers; ++r) {
        pool.emplace_back([&, r] {
            auto port = reg.make_reader_port(static_cast<std::size_t>(r));
            gate.wait();
            std::int64_t last = -1;
            while (!done.load(std::memory_order_acquire)) {
                const std::int64_t v = port.read().value;
                if (v < last) violations.fetch_add(1);
                if (v > last) last = v;
            }
        });
    }
    std::thread writer([&] {
        gate.wait();
        for (std::int64_t v = 1; v <= writes; ++v) {
            reg.write(tagged<std::int64_t>{v, false});
        }
        done.store(true, std::memory_order_release);
    });
    gate.open();
    writer.join();
    for (auto& t : pool) t.join();
    EXPECT_EQ(violations.load(), 0);
}

// Cross-reader atomicity: report the external schedule to a monitor and
// check it with the polynomial register checker. This is the property the
// report round exists for (no new-old inversion BETWEEN readers).
TEST(SwmrFromSwsr, CrossReaderHistoriesAtomic) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        constexpr int readers = 3;
        swmr_from_swsr<value_t> reg(tagged<value_t>{0, false}, readers);
        atomicity_monitor mon(0);
        start_gate gate;
        std::atomic<bool> done{false};

        std::thread writer([&] {
            auto port = mon.make_port(0);
            gate.wait();
            for (std::uint32_t i = 0; i < 1500; ++i) {
                const value_t v = unique_value(0, i);
                port.begin_write(v);
                reg.write(tagged<value_t>{v, false});
                port.end_write();
            }
            done.store(true, std::memory_order_release);
        });
        std::vector<std::thread> pool;
        for (int r = 0; r < readers; ++r) {
            pool.emplace_back([&, r] {
                auto port = mon.make_port(static_cast<processor_id>(2 + r));
                auto rd = reg.make_reader_port(static_cast<std::size_t>(r));
                gate.wait();
                for (int op = 0;
                     op < 3000 && !done.load(std::memory_order_acquire); ++op) {
                    port.begin_read();
                    port.end_read(rd.read().value);
                }
            });
        }
        gate.open();
        writer.join();
        for (auto& t : pool) t.join();

        const monitor_verdict v = mon.verify();
        EXPECT_TRUE(v.atomic) << "seed " << seed << ": " << v.diagnosis;
    }
}

// ---------------------------------------------------------------------------
// The full stack: Bloom's two-writer register whose "real" registers are
// themselves simulated from SWSR four-slot registers.
// ---------------------------------------------------------------------------

using full_stack =
    two_writer_register<std::int64_t, ported_substrate<std::int64_t>>;

full_stack make_stack_register(std::int64_t initial, std::size_t sim_readers) {
    return full_stack(initial,
                      [sim_readers](tagged<std::int64_t> init, int reg_index) {
                          return ported_substrate<std::int64_t>(init, sim_readers,
                                                                reg_index);
                      });
}

TEST(FullStack, SequentialSemantics) {
    auto reg = make_stack_register(7, 2);
    auto rd = reg.make_reader(2);
    EXPECT_EQ(rd.read(), 7);
    reg.writer0().write(10);
    EXPECT_EQ(rd.read(), 10);
    reg.writer1().write(11);
    EXPECT_EQ(rd.read(), 11);
    EXPECT_EQ(reg.writer0().read(), 11);
    EXPECT_EQ(reg.writer1().read(), 11);
}

TEST(FullStack, AlternatingWritersLastWriteWins) {
    auto reg = make_stack_register(0, 1);
    auto rd = reg.make_reader(2);
    for (std::int64_t v = 1; v <= 30; ++v) {
        if (v % 2 == 0) {
            reg.writer0().write(v);
        } else {
            reg.writer1().write(v);
        }
        EXPECT_EQ(rd.read(), v);
    }
}

TEST(FullStack, ConcurrentHistoriesAtomic) {
    // bloom/fourslot is this full stack behind the registry: Bloom over the
    // SWMR-from-SWSR ladder, threaded, recorded per processor.
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        harness::run_spec spec;
        spec.register_name = "bloom/fourslot";
        spec.load.readers = 2;
        spec.load.ops_per_writer = 800;
        spec.load.ops_per_reader = 2500;
        spec.load.writer_read_num = 0;
        spec.seed = seed;
        spec.collect = harness::collect_mode::per_thread;
        const harness::run_result res = harness::run(spec);
        ASSERT_TRUE(res.ok) << res.error;

        const parse_result parsed = parse_history(res.events, 0);
        ASSERT_TRUE(parsed.ok()) << parsed.error->message;
        const auto fast = check_fast(parsed.hist.ops, 0);
        ASSERT_TRUE(fast.ok()) << *fast.defect;
        EXPECT_TRUE(fast.linearizable) << "seed " << seed << ": " << fast.diagnosis;
    }
}

TEST(FullStack, CrashToleranceSurvivesTheWholeStack) {
    auto reg = make_stack_register(0, 1);
    auto rd = reg.make_reader(2);
    reg.writer0().write(5);
    reg.writer1().write_crashed(99, crash_point::after_read);
    EXPECT_EQ(rd.read(), 5);  // crashed write invisible
    reg.writer1().write_crashed(100, crash_point::after_write);
    EXPECT_EQ(rd.read(), 100);  // crashed-after-write fully visible
    reg.writer0().write(6);
    EXPECT_EQ(rd.read(), 6);  // everyone still live
}

}  // namespace
}  // namespace bloom87
