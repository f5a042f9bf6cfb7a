// Tests for src/core: the protocol decision rules and single-threaded
// behavior of the two-writer register (alternating writers, tag evolution,
// writer-read variants, crash injection, recording integration).
#include <gtest/gtest.h>

#include "core/protocol.hpp"
#include "core/two_writer.hpp"
#include "histories/event_log.hpp"
#include "histories/history.hpp"
#include "histories/workload.hpp"
#include "registers/instrumented.hpp"
#include "registers/packed_atomic.hpp"
#include "registers/recording.hpp"
#include "registers/seqlock.hpp"

namespace bloom87 {
namespace {

using packed_reg = two_writer_register<int, packed_atomic_register<int>>;

TEST(Protocol, WriterTagChoiceMakesSumEqualIndex) {
    // After writer i writes tag i(+)t' while the other register still holds
    // t', the sum is i -- the write is potent.
    for (int i : {0, 1}) {
        for (bool other : {false, true}) {
            const bool t = writer_tag_choice(i, other);
            const bool t0 = i == 0 ? t : other;
            const bool t1 = i == 0 ? other : t;
            EXPECT_EQ(reader_pick(t0, t1), i);
            EXPECT_TRUE(write_is_potent(i, t0, t1));
        }
    }
}

TEST(Protocol, ReaderPicksRegisterOfTagSum) {
    EXPECT_EQ(reader_pick(false, false), 0);
    EXPECT_EQ(reader_pick(true, true), 0);
    EXPECT_EQ(reader_pick(true, false), 1);
    EXPECT_EQ(reader_pick(false, true), 1);
}

TEST(TwoWriter, InitialValueVisibleToEveryone) {
    packed_reg reg(99);
    auto r = reg.make_reader();
    EXPECT_EQ(r.read(), 99);
    EXPECT_EQ(reg.writer0().read(), 99);
    EXPECT_EQ(reg.writer1().read(), 99);
    EXPECT_EQ(reg.writer0().read_cached(), 99);
    EXPECT_EQ(reg.writer1().read_cached(), 99);
}

TEST(TwoWriter, SingleWriterSequence) {
    packed_reg reg(0);
    auto r = reg.make_reader();
    for (int v = 1; v <= 20; ++v) {
        reg.writer0().write(v);
        EXPECT_EQ(r.read(), v);
    }
}

TEST(TwoWriter, AlternatingWritersLastWriteWins) {
    packed_reg reg(0);
    auto r = reg.make_reader();
    for (int v = 1; v <= 20; ++v) {
        if (v % 2 == 0) {
            reg.writer0().write(v);
        } else {
            reg.writer1().write(v);
        }
        EXPECT_EQ(r.read(), v) << "after write " << v;
        EXPECT_EQ(reg.writer0().read(), v);
        EXPECT_EQ(reg.writer1().read(), v);
        EXPECT_EQ(reg.writer0().read_cached(), v);
        EXPECT_EQ(reg.writer1().read_cached(), v);
    }
}

TEST(TwoWriter, QuiescentWriteIsPotent) {
    // Section 5: "If one writer is quiescent while the other writes, the
    // active writer can set the sum of the tag bits to its own index."
    packed_reg reg(0);
    for (int v = 1; v <= 5; ++v) {
        reg.writer0().write(v);
        const auto c0 = reg.real_register(0).read();
        const auto c1 = reg.real_register(1).read();
        EXPECT_TRUE(write_is_potent(0, c0.tag, c1.tag));
    }
    for (int v = 6; v <= 10; ++v) {
        reg.writer1().write(v);
        const auto c0 = reg.real_register(0).read();
        const auto c1 = reg.real_register(1).read();
        EXPECT_TRUE(write_is_potent(1, c0.tag, c1.tag));
    }
}

TEST(TwoWriter, WorksOverSeqlockSubstrate) {
    two_writer_register<std::int64_t, seqlock_register<std::int64_t>> reg(-1);
    auto r = reg.make_reader();
    EXPECT_EQ(r.read(), -1);
    reg.writer1().write(1234567890123LL);
    EXPECT_EQ(r.read(), 1234567890123LL);
    reg.writer0().write(-7);
    EXPECT_EQ(r.read(), -7);
}

// ---------------------------------------------------------------------------
// Cost accounting (paper, Section 5).
// ---------------------------------------------------------------------------

using counted_reg =
    two_writer_register<int, instrumented_register<packed_atomic_register<int>>>;

access_counts total(counted_reg& reg) {
    return reg.real_register(0).counts() + reg.real_register(1).counts();
}

TEST(Costs, SimulatedWriteIsOneReadOneWrite) {
    counted_reg reg(0);
    reg.real_register(0).reset_counts();
    reg.real_register(1).reset_counts();
    reg.writer0().write(1);
    const access_counts c = total(reg);
    EXPECT_EQ(c.reads, 1u);
    EXPECT_EQ(c.writes, 1u);
}

TEST(Costs, SimulatedReadIsThreeReads) {
    counted_reg reg(0);
    auto r = reg.make_reader();
    reg.real_register(0).reset_counts();
    reg.real_register(1).reset_counts();
    (void)r.read();
    const access_counts c = total(reg);
    EXPECT_EQ(c.reads, 3u);
    EXPECT_EQ(c.writes, 0u);
}

TEST(Costs, CachedWriterReadIsOneOrTwoReads) {
    counted_reg reg(0);
    // Warm both writers' caches with one write each; writer 0 writes last,
    // so the tag sum points at register 0.
    reg.writer1().write(1);
    reg.writer0().write(2);

    // Writer 0: the sum points at its OWN register -- one real read.
    reg.real_register(0).reset_counts();
    reg.real_register(1).reset_counts();
    EXPECT_EQ(reg.writer0().read_cached(), 2);
    EXPECT_EQ(total(reg).reads, 1u);

    // Writer 1: the sum points at the OTHER register -- two real reads.
    reg.real_register(0).reset_counts();
    reg.real_register(1).reset_counts();
    EXPECT_EQ(reg.writer1().read_cached(), 2);
    EXPECT_EQ(total(reg).reads, 2u);
    EXPECT_EQ(total(reg).writes, 0u);
}

// ---------------------------------------------------------------------------
// Crash injection (paper, Section 5: a writer crash leaves the register
// consistent -- the write either fully occurs or not at all).
// ---------------------------------------------------------------------------

TEST(Crash, BeforeRealWriteIsInvisible) {
    packed_reg reg(0);
    auto r = reg.make_reader();
    reg.writer0().write(1);
    reg.writer1().write_crashed(50, crash_point::before_read);
    EXPECT_EQ(r.read(), 1);
    reg.writer1().write_crashed(60, crash_point::after_read);
    EXPECT_EQ(r.read(), 1);
    // The register remains fully usable by everyone.
    reg.writer0().write(2);
    EXPECT_EQ(r.read(), 2);
    reg.writer1().write(3);
    EXPECT_EQ(r.read(), 3);
}

TEST(Crash, AfterRealWriteIsFullyVisible) {
    packed_reg reg(0);
    auto r = reg.make_reader();
    reg.writer0().write_crashed(42, crash_point::after_write);
    EXPECT_EQ(r.read(), 42);
    reg.writer1().write(43);
    EXPECT_EQ(r.read(), 43);
}

// Each crash point's substrate footprint matches its visibility claim:
// before_read touches neither real register, after_read performs only the
// real read (so the written value can never become visible), after_write
// completes both real accesses (so the write is fully visible).
TEST(Crash, CrashPointFootprintsMatchVisibilityClaims) {
    counted_reg reg(0);
    auto r = reg.make_reader();

    reg.real_register(0).reset_counts();
    reg.real_register(1).reset_counts();
    reg.writer0().write_crashed(10, crash_point::before_read);
    EXPECT_EQ(total(reg).reads, 0u);
    EXPECT_EQ(total(reg).writes, 0u);
    EXPECT_EQ(r.read(), 0);

    reg.real_register(0).reset_counts();
    reg.real_register(1).reset_counts();
    reg.writer0().write_crashed(20, crash_point::after_read);
    EXPECT_EQ(reg.real_register(1).counts().reads, 1u);  // the other register
    EXPECT_EQ(total(reg).writes, 0u);
    EXPECT_EQ(r.read(), 0);

    reg.real_register(0).reset_counts();
    reg.real_register(1).reset_counts();
    reg.writer0().write_crashed(30, crash_point::after_write);
    EXPECT_EQ(reg.real_register(1).counts().reads, 1u);
    EXPECT_EQ(reg.real_register(0).counts().writes, 1u);
    EXPECT_EQ(r.read(), 30);
}

// An out-of-range crash_point (memory corruption, a miscast integer) is a
// programming error: an always-on check() rejects it in every build type,
// before any real access.
TEST(Crash, OutOfRangeCrashPointIsRejectedOrConservative) {
    const auto bogus = static_cast<crash_point>(7);
    packed_reg reg(0);
    EXPECT_DEATH(reg.writer0().write_crashed(99, bogus), "crash_point");
}

// ---------------------------------------------------------------------------
// Recording integration: the external schedule and the real accesses land
// in gamma in the right shape.
// ---------------------------------------------------------------------------

TEST(RecordingIntegration, GammaHasProtocolShape) {
    event_log log(256);
    two_writer_register<value_t, recording_register> reg(0, &log);
    auto r = reg.make_reader(2);
    reg.writer0().write(unique_value(0, 0));
    reg.writer1().write(unique_value(1, 0));
    EXPECT_EQ(r.read(), unique_value(1, 0));

    const parse_result res = parse_history(log.snapshot(), 0);
    ASSERT_TRUE(res.ok()) << res.error->message;
    ASSERT_EQ(res.hist.ops.size(), 3u);
    const operation* w0 = res.hist.find(op_id{0, 0});
    ASSERT_NE(w0, nullptr);
    EXPECT_EQ(w0->real_accesses.size(), 2u);
    const operation* rd = res.hist.find(op_id{2, 0});
    ASSERT_NE(rd, nullptr);
    EXPECT_EQ(rd->real_accesses.size(), 3u);
    EXPECT_EQ(rd->value, unique_value(1, 0));
}

}  // namespace
}  // namespace bloom87
