// Tests for src/registers: substrate registers (packed atomic, seqlock,
// Simpson four-slot, recording, instrumented) -- sequential semantics plus
// concurrent SWMR/SWSR torture with per-reader monotonicity checks.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "histories/thread_log.hpp"
#include "registers/concepts.hpp"
#include "registers/fourslot.hpp"
#include "registers/instrumented.hpp"
#include "registers/packed_atomic.hpp"
#include "registers/plain.hpp"
#include "registers/recording.hpp"
#include "registers/seqlock.hpp"
#include "util/sync.hpp"

namespace bloom87 {
namespace {

// ---------------------------------------------------------------------------
// Sequential semantics, identical across substrates (typed test).
// ---------------------------------------------------------------------------

template <typename Reg>
class SubstrateSequential : public ::testing::Test {};

struct big_payload {
    std::int64_t a{0};
    std::int64_t b{0};
    std::int64_t c{0};
    friend bool operator==(const big_payload&, const big_payload&) = default;
};

using SmallSubstrates =
    ::testing::Types<packed_atomic_register<std::int32_t>,
                     seqlock_register<std::int32_t>,
                     four_slot_register<std::int32_t>>;
TYPED_TEST_SUITE(SubstrateSequential, SmallSubstrates);

TYPED_TEST(SubstrateSequential, InitialValueReadable) {
    TypeParam reg(tagged<std::int32_t>{41, false});
    const auto got = reg.read();
    EXPECT_EQ(got.value, 41);
    EXPECT_FALSE(got.tag);
}

TYPED_TEST(SubstrateSequential, WriteThenReadRoundTrips) {
    TypeParam reg(tagged<std::int32_t>{0, false});
    for (std::int32_t v : {1, -5, 100, 0}) {
        for (bool t : {true, false}) {
            reg.write(tagged<std::int32_t>{v, t});
            const auto got = reg.read();
            EXPECT_EQ(got.value, v);
            EXPECT_EQ(got.tag, t);
        }
    }
}

TYPED_TEST(SubstrateSequential, TagBitIndependentOfValue) {
    TypeParam reg(tagged<std::int32_t>{7, true});
    EXPECT_TRUE(reg.read().tag);
    reg.write(tagged<std::int32_t>{7, false});
    EXPECT_FALSE(reg.read().tag);
    EXPECT_EQ(reg.read().value, 7);
}

// ---------------------------------------------------------------------------
// Concurrent: single writer streams increasing values; each reader must see
// a monotonically non-decreasing sequence drawn from written values
// (atomicity of an SWMR register implies per-reader monotonicity).
// ---------------------------------------------------------------------------

template <typename Reg, typename V>
void swmr_monotonic_torture(int num_readers, int writes) {
    Reg reg(tagged<V>{0, false});
    std::atomic<bool> done{false};
    start_gate gate;
    std::atomic<int> violations{0};

    std::vector<std::thread> readers;
    for (int r = 0; r < num_readers; ++r) {
        readers.emplace_back([&] {
            gate.wait();
            V last = -1;
            while (!done.load(std::memory_order_acquire)) {
                const auto got = reg.read();
                if (got.value < last) violations.fetch_add(1);
                if (got.value > last) last = got.value;
                // Tag must match parity convention used below.
                if (got.tag != ((got.value & 1) != 0)) violations.fetch_add(1);
            }
        });
    }
    std::thread writer([&] {
        gate.wait();
        for (V v = 1; v <= writes; ++v) {
            reg.write(tagged<V>{v, (v & 1) != 0});
        }
        done.store(true, std::memory_order_release);
    });
    gate.open();
    writer.join();
    for (auto& t : readers) t.join();
    EXPECT_EQ(violations.load(), 0);
    EXPECT_EQ(reg.read().value, writes);
}

TEST(PackedAtomic, SwmrMonotonicTorture) {
    swmr_monotonic_torture<packed_atomic_register<std::int32_t>, std::int32_t>(
        3, 200000);
}

TEST(Seqlock, SwmrMonotonicTorture) {
    swmr_monotonic_torture<seqlock_register<std::int64_t>, std::int64_t>(
        3, 200000);
}

TEST(FourSlot, SwsrMonotonicTorture) {
    // Simpson's algorithm is single-reader: one reader only.
    swmr_monotonic_torture<four_slot_register<std::int64_t>, std::int64_t>(
        1, 200000);
}

TEST(Seqlock, LargePayloadNeverTears) {
    seqlock_register<big_payload> reg(tagged<big_payload>{{0, 0, 0}, false});
    std::atomic<bool> done{false};
    std::atomic<int> torn{0};
    std::thread reader([&] {
        while (!done.load(std::memory_order_acquire)) {
            const auto got = reg.read();
            // Writers maintain a = b = c; any divergence is a torn read.
            if (got.value.a != got.value.b || got.value.b != got.value.c) {
                torn.fetch_add(1);
            }
        }
    });
    for (std::int64_t v = 1; v <= 100000; ++v) {
        reg.write(tagged<big_payload>{{v, v, v}, false});
    }
    done.store(true, std::memory_order_release);
    reader.join();
    EXPECT_EQ(torn.load(), 0);
}

TEST(FourSlot, LargePayloadNeverTears) {
    four_slot_register<big_payload> reg(tagged<big_payload>{{0, 0, 0}, false});
    std::atomic<bool> done{false};
    std::atomic<int> torn{0};
    std::thread reader([&] {
        while (!done.load(std::memory_order_acquire)) {
            const auto got = reg.read();
            if (got.value.a != got.value.b || got.value.b != got.value.c) {
                torn.fetch_add(1);
            }
        }
    });
    for (std::int64_t v = 1; v <= 100000; ++v) {
        reg.write(tagged<big_payload>{{v, v, v}, false});
    }
    done.store(true, std::memory_order_release);
    reader.join();
    EXPECT_EQ(torn.load(), 0);
}

// ---------------------------------------------------------------------------
// Recording register.
// ---------------------------------------------------------------------------

TEST(Recording, LogsAccessesWithObservedWrites) {
    run_log log(3);
    recording_register reg(tagged<value_t>{10, false}, &log, 0);

    access_context w_ctx{0, 0};
    access_context r_ctx{2, 0};
    EXPECT_EQ(reg.read(r_ctx).value, 10);
    reg.write(tagged<value_t>{20, true}, w_ctx);
    const auto got = reg.read(r_ctx);
    EXPECT_EQ(got.value, 20);
    EXPECT_TRUE(got.tag);

    const auto snap = log.merge();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].kind, event_kind::real_read);
    EXPECT_EQ(snap[0].observed_write, no_event);  // initial value
    EXPECT_EQ(snap[1].kind, event_kind::real_write);
    EXPECT_EQ(snap[2].kind, event_kind::real_read);
    EXPECT_EQ(snap[2].observed_write, 1u);  // observed the write at position 1
    EXPECT_EQ(snap[2].value, 20);
    EXPECT_TRUE(snap[2].tag);
}

TEST(Recording, ConcurrentAccessesProduceConsistentGamma) {
    run_log log(3);
    recording_register reg(tagged<value_t>{0, false}, &log, 0);
    std::thread writer([&] {
        for (value_t v = 1; v <= 5000; ++v) {
            reg.write(tagged<value_t>{v, false}, access_context{0, 0});
        }
    });
    std::thread reader([&] {
        for (int i = 0; i < 5000; ++i) {
            (void)reg.read(access_context{2, 0});
        }
    });
    writer.join();
    reader.join();

    // Replay gamma: every read's observed_write must be the latest write.
    const auto snap = log.merge();
    event_pos last_write = no_event;
    for (event_pos p = 0; p < snap.size(); ++p) {
        if (snap[p].kind == event_kind::real_write) {
            last_write = p;
        } else {
            ASSERT_EQ(snap[p].observed_write, last_write) << "at position " << p;
        }
    }
}

// ---------------------------------------------------------------------------
// Instrumented wrapper.
// ---------------------------------------------------------------------------

TEST(Instrumented, CountsReadsAndWrites) {
    instrumented_register<packed_atomic_register<std::int32_t>> reg(
        tagged<std::int32_t>{0, false});
    (void)reg.read();
    (void)reg.read();
    reg.write(tagged<std::int32_t>{1, false});
    const access_counts c = reg.counts();
    EXPECT_EQ(c.reads, 2u);
    EXPECT_EQ(c.writes, 1u);
    EXPECT_EQ(c.total(), 3u);
    reg.reset_counts();
    EXPECT_EQ(reg.counts().total(), 0u);
}

TEST(Plain, SingleThreadedSemantics) {
    plain_register<int> reg(3);
    EXPECT_EQ(reg.read(), 3);
    reg.write(9);
    EXPECT_EQ(reg.read(), 9);
}

}  // namespace
}  // namespace bloom87
