// Tests for the runtime atomicity monitor: correct registers pass, broken
// ones are caught, pending operations and misuse are handled.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "baselines/native_atomic.hpp"
#include "core/two_writer.hpp"
#include "linearizability/monitor.hpp"
#include "registers/packed_atomic.hpp"
#include "util/sync.hpp"

namespace bloom87 {
namespace {

TEST(Monitor, EmptyHistoryIsAtomic) {
    atomicity_monitor mon(0);
    const auto v = mon.verify();
    EXPECT_TRUE(v.atomic);
    EXPECT_EQ(v.operations, 0u);
}

TEST(Monitor, SequentialOpsPass) {
    atomicity_monitor mon(5);
    auto w = mon.make_port(0);
    auto r = mon.make_port(2);
    r.begin_read();
    r.end_read(5);
    w.begin_write(9);
    w.end_write();
    r.begin_read();
    r.end_read(9);
    const auto v = mon.verify();
    EXPECT_TRUE(v.atomic) << v.diagnosis;
    EXPECT_EQ(v.operations, 3u);
}

TEST(Monitor, CatchesStaleRead) {
    atomicity_monitor mon(0);
    auto w = mon.make_port(0);
    auto r = mon.make_port(2);
    w.begin_write(7);
    w.end_write();
    r.begin_read();
    r.end_read(0);  // stale: the write completed before this read began
    const auto v = mon.verify();
    EXPECT_FALSE(v.atomic);
    EXPECT_FALSE(v.diagnosis.empty());
}

TEST(Monitor, PendingOperationTreatedAsCrash) {
    atomicity_monitor mon(0);
    auto w = mon.make_port(0);
    auto r = mon.make_port(2);
    w.begin_write(7);  // never ends: pending
    r.begin_read();
    r.end_read(7);  // legal: the pending write may have taken effect
    EXPECT_TRUE(mon.verify().atomic);
}

TEST(Monitor, AbandonAllowsPortReuse) {
    atomicity_monitor mon(0);
    auto w = mon.make_port(0);
    w.begin_write(7);
    w.abandon();  // crashed
    w.begin_write(8);
    w.end_write();
    auto r = mon.make_port(2);
    r.begin_read();
    r.end_read(8);
    EXPECT_TRUE(mon.verify().atomic);
}

TEST(Monitor, WatchesARealRegisterConcurrently) {
    // Put the two-writer register under the monitor with real threads.
    two_writer_register<std::int32_t, packed_atomic_register<std::int32_t>>
        reg(0);
    atomicity_monitor mon(0);
    start_gate gate;

    std::vector<std::thread> pool;
    for (int w = 0; w < 2; ++w) {
        pool.emplace_back([&, w] {
            auto port = mon.make_port(static_cast<processor_id>(w));
            gate.wait();
            for (std::int32_t i = 1; i <= 2000; ++i) {
                const std::int32_t v = (w << 20) | i;
                port.begin_write(v);
                (w == 0 ? reg.writer0() : reg.writer1()).write(v);
                port.end_write();
            }
        });
    }
    for (int r = 0; r < 2; ++r) {
        pool.emplace_back([&, r] {
            auto port = mon.make_port(static_cast<processor_id>(2 + r));
            auto rd = reg.make_reader(static_cast<processor_id>(2 + r));
            gate.wait();
            for (int i = 0; i < 3000; ++i) {
                port.begin_read();
                const std::int32_t v = rd.read();
                port.end_read(v);
            }
        });
    }
    gate.open();
    for (auto& t : pool) t.join();

    const auto v = mon.verify();
    EXPECT_TRUE(v.atomic) << v.diagnosis;
    EXPECT_EQ(v.operations, 2u * 2000 + 2u * 3000);
}

TEST(Monitor, CatchesABrokenRegisterConcurrently) {
    // A deliberately broken "register": plain non-atomic read of two
    // separate words written non-atomically (torn view). The monitor must
    // flag SOME run; to keep the test deterministic we fabricate the
    // classic new-old inversion instead of relying on a data race.
    atomicity_monitor mon(0);
    auto w = mon.make_port(0);
    auto r1 = mon.make_port(2);
    auto r2 = mon.make_port(3);
    w.begin_write(1);     // long write...
    r1.begin_read();
    r1.end_read(1);       // reader 1 sees the new value
    r2.begin_read();
    r2.end_read(0);       // reader 2, starting after r1 ended, sees the old
    w.end_write();
    const auto v = mon.verify();
    EXPECT_FALSE(v.atomic);
}

// --- culprit localization over hand-built histories ---------------------

[[nodiscard]] event sim_event(event_kind k, processor_id p, op_index op,
                              value_t v) {
    event e;
    e.kind = k;
    e.processor = p;
    e.op = op;
    e.value = v;
    return e;
}

void append_write(std::vector<event>& h, processor_id p, op_index op,
                  value_t v) {
    h.push_back(sim_event(event_kind::sim_invoke_write, p, op, v));
    h.push_back(sim_event(event_kind::sim_respond_write, p, op, v));
}

void append_read(std::vector<event>& h, processor_id p, op_index op,
                 value_t v) {
    h.push_back(sim_event(event_kind::sim_invoke_read, p, op, 0));
    h.push_back(sim_event(event_kind::sim_respond_read, p, op, v));
}

TEST(MinimalPrefix, CleanHistoryHasNone) {
    std::vector<event> h;
    append_write(h, 0, 0, 7);
    append_read(h, 2, 0, 7);
    EXPECT_FALSE(minimal_violating_prefix(h, 0).has_value());
    EXPECT_FALSE(minimal_violating_prefix({}, 0).has_value());
}

// A known-bad recorded history with a known culprit: the second read
// returns a value overwritten strictly before it was invoked. The search
// must shrink to the minimal violating prefix and name the read.
TEST(MinimalPrefix, NamesTheViolatingOp) {
    std::vector<event> h;
    append_write(h, 0, 0, 7);  // events 0-1
    append_read(h, 2, 0, 7);   // events 2-3: fine
    append_write(h, 0, 1, 9);  // events 4-5
    append_read(h, 2, 1, 7);   // events 6-7: STALE -- 9 landed first
    append_read(h, 3, 0, 9);   // events 8-9: fine, but past the culprit
    const auto found = minimal_violating_prefix(h, 0);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->culprit.processor, 2);
    EXPECT_EQ(found->culprit.op, 1u);
    // Everything up to and including the stale read's response (8 events)
    // -- no shorter prefix violates.
    EXPECT_EQ(found->length, 8u);
    EXPECT_FALSE(found->diagnosis.empty());
}

// Linearizability is prefix-closed: "repairing-looking" later events
// cannot unflag a violation, and the culprit stays the first stale read.
TEST(MinimalPrefix, LaterEventsDoNotMoveTheCulprit) {
    std::vector<event> h;
    append_write(h, 0, 0, 5);
    append_read(h, 2, 0, 0);  // stale: initial value after the write
    const auto first = minimal_violating_prefix(h, 0);
    append_read(h, 2, 1, 5);  // a perfectly fine later read
    const auto later = minimal_violating_prefix(h, 0);
    ASSERT_TRUE(first.has_value());
    ASSERT_TRUE(later.has_value());
    EXPECT_EQ(later->length, first->length);
    EXPECT_TRUE(later->culprit == first->culprit);
}

// A read of a value no write produced (a torn word) surfaces as a checker
// defect on the parsed prefix; it counts as a violation, not an internal
// error.
TEST(MinimalPrefix, TornValueSurfacesAsViolation) {
    std::vector<event> h;
    append_write(h, 0, 0, 0x0F);
    append_write(h, 1, 0, 0xF0);
    append_read(h, 2, 0, 0xFF);  // neither write produced 0xFF
    const auto found = minimal_violating_prefix(h, 0);
    ASSERT_TRUE(found.has_value());
    EXPECT_FALSE(found->diagnosis.empty());
    EXPECT_EQ(found->culprit.processor, 2);
}

TEST(Monitor, ReportsOverflow) {
    atomicity_monitor mon(0, /*capacity=*/4);
    auto w = mon.make_port(0);
    for (int i = 1; i <= 5; ++i) {
        w.begin_write(i);
        w.end_write();
    }
    EXPECT_TRUE(mon.overflowed());
    const auto v = mon.verify();
    EXPECT_FALSE(v.atomic);
    EXPECT_NE(v.diagnosis.find("capacity"), std::string::npos);
}

}  // namespace
}  // namespace bloom87
