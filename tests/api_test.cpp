// API-surface tests: concept conformance of every substrate, value-type
// generality of the two-writer register (integers, floats, enums, structs),
// and compile-time interface guarantees.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "core/two_writer.hpp"
#include "registers/concepts.hpp"
#include "registers/fourslot.hpp"
#include "registers/packed_atomic.hpp"
#include "registers/recording.hpp"
#include "registers/seqlock.hpp"
#include "registers/swmr_from_swsr.hpp"
#include "util/bits.hpp"

namespace bloom87 {
namespace {

// ---------------------------------------------------------------------------
// Compile-time interface guarantees.
// ---------------------------------------------------------------------------

// Every substrate satisfies the SWMR register concept over its value type.
static_assert(swmr_register<packed_atomic_register<std::int32_t>,
                            tagged<std::int32_t>>);
static_assert(swmr_register<seqlock_register<double>, tagged<double>>);
static_assert(swmr_register<four_slot_register<std::int64_t>,
                            tagged<std::int64_t>>);
static_assert(swmr_register<recording_register, tagged<value_t>>);
static_assert(swmr_register<ported_substrate<std::int32_t>,
                            tagged<std::int32_t>>);

// word_packable covers exactly the types the packed substrate accepts.
static_assert(word_packable<std::int8_t>);
static_assert(word_packable<std::uint32_t>);
static_assert(word_packable<float>);
// std::int64_t packs as a 63-bit two's-complement value, range-checked to
// [-2^62, 2^62); other 8-byte types need all 64 bits, leaving no tag bit.
static_assert(word_packable<std::int64_t>);
static_assert(!word_packable<std::uint64_t>);
static_assert(!word_packable<double>);

// Registers are pinned in memory (no copies or moves that would tear the
// protocol state out from under concurrent users).
static_assert(!std::is_copy_constructible_v<
              two_writer_register<int, packed_atomic_register<int>>>);
static_assert(!std::is_copy_assignable_v<
              two_writer_register<int, packed_atomic_register<int>>>);

enum class color : std::uint8_t { red, green, blue };
static_assert(word_packable<color>);

struct coordinates {
    double x{0}, y{0}, z{0};
    friend bool operator==(const coordinates&, const coordinates&) = default;
};

// ---------------------------------------------------------------------------
// Value-type generality.
// ---------------------------------------------------------------------------

TEST(ValueTypes, FloatOverPackedSubstrate) {
    two_writer_register<float, packed_atomic_register<float>> reg(1.5f);
    auto rd = reg.make_reader(2);
    EXPECT_EQ(rd.read(), 1.5f);
    reg.writer0().write(2.25f);
    EXPECT_EQ(rd.read(), 2.25f);
    reg.writer1().write(-0.125f);
    EXPECT_EQ(rd.read(), -0.125f);
    EXPECT_EQ(reg.writer0().read_cached(), -0.125f);
}

TEST(ValueTypes, EnumOverPackedSubstrate) {
    two_writer_register<color, packed_atomic_register<color>> reg(color::red);
    auto rd = reg.make_reader(2);
    EXPECT_EQ(rd.read(), color::red);
    reg.writer1().write(color::blue);
    EXPECT_EQ(rd.read(), color::blue);
    reg.writer0().write(color::green);
    EXPECT_EQ(reg.writer1().read(), color::green);
}

TEST(ValueTypes, StructOverSeqlockSubstrate) {
    two_writer_register<coordinates, seqlock_register<coordinates>> reg(
        coordinates{1, 2, 3});
    auto rd = reg.make_reader(2);
    EXPECT_EQ(rd.read(), (coordinates{1, 2, 3}));
    reg.writer0().write(coordinates{4, 5, 6});
    EXPECT_EQ(rd.read(), (coordinates{4, 5, 6}));
    reg.writer1().write(coordinates{7, 8, 9});
    EXPECT_EQ(reg.writer0().read_cached(), (coordinates{7, 8, 9}));
}

TEST(ValueTypes, DoubleOverFourSlotStack) {
    // The whole simulation ladder with a floating-point payload.
    using stack = two_writer_register<double, ported_substrate<double>>;
    stack reg(0.5, [](tagged<double> init, int reg_index) {
        return ported_substrate<double>(init, /*sim_readers=*/1, reg_index);
    });
    auto rd = reg.make_reader(2);
    EXPECT_EQ(rd.read(), 0.5);
    reg.writer1().write(3.125);
    EXPECT_EQ(rd.read(), 3.125);
    reg.writer0().write(-2.5);
    EXPECT_EQ(rd.read(), -2.5);
}

TEST(ValueTypes, NegativeValuesPackCorrectly) {
    // Bit 63 carries the tag; negative small ints must survive the round
    // trip through the packed word.
    two_writer_register<std::int32_t, packed_atomic_register<std::int32_t>>
        reg(-1);
    auto rd = reg.make_reader(2);
    EXPECT_EQ(rd.read(), -1);
    reg.writer0().write(std::numeric_limits<std::int32_t>::min());
    EXPECT_EQ(rd.read(), std::numeric_limits<std::int32_t>::min());
    reg.writer1().write(std::numeric_limits<std::int32_t>::max());
    EXPECT_EQ(rd.read(), std::numeric_limits<std::int32_t>::max());
}

// ---------------------------------------------------------------------------
// Port/handle semantics.
// ---------------------------------------------------------------------------

TEST(Ports, ReaderHandlesAreIndependent) {
    two_writer_register<int, packed_atomic_register<int>> reg(0);
    auto r1 = reg.make_reader(2);
    auto r2 = reg.make_reader(3);
    reg.writer0().write(5);
    EXPECT_EQ(r1.read(), 5);
    EXPECT_EQ(r2.read(), 5);
    EXPECT_EQ(r1.processor(), 2);
    EXPECT_EQ(r2.processor(), 3);
}

TEST(Ports, WriterIndicesAreFixed) {
    two_writer_register<int, packed_atomic_register<int>> reg(0);
    EXPECT_EQ(reg.writer0().index(), 0);
    EXPECT_EQ(reg.writer1().index(), 1);
}

}  // namespace
}  // namespace bloom87
