// bloom87: bit-level packing helpers.
//
// Bloom's protocol stores a (tag-bit, value) pair that must be written with a
// single atomic store when the substrate is a hardware word (Section 5: "one
// value in Val and a single tag bit"). These helpers pack a value together
// with a tag bit into one 64-bit word: the tag is bit 63, the value the low
// 63 bits.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "util/check.hpp"

namespace bloom87 {

/// Bit 63 of a packed word: the tag.
inline constexpr std::uint64_t tag_bit = 1ULL << 63;

/// std::int64_t packs as a 63-bit two's-complement value, so its domain is
/// [packed_int64_min, packed_int64_max] = [-2^62, 2^62).
inline constexpr std::int64_t packed_int64_min = -(std::int64_t{1} << 62);
inline constexpr std::int64_t packed_int64_max = (std::int64_t{1} << 62) - 1;

/// True when `v` survives the 63-bit packing of std::int64_t.
constexpr bool fits_packed_int64(std::int64_t v) noexcept {
    return v >= packed_int64_min && v <= packed_int64_max;
}

/// True when T can be round-tripped through a 64-bit word alongside a tag
/// bit: any trivially-copyable type of at most 7 bytes (copied bytewise into
/// the low bits), or std::int64_t restricted to [-2^62, 2^62) (shifts and
/// masks; pack_tagged checks the range). Other 8-byte types need all 64
/// bits, so the tag has no room.
template <typename T>
concept word_packable =
    std::is_object_v<T> && std::is_trivially_copyable_v<T> &&
    (sizeof(T) <= 7 || std::is_same_v<T, std::int64_t>);

/// Packs `value` into the low 63 bits and `tag` into bit 63 of a 64-bit
/// word. An std::int64_t outside [-2^62, 2^62) fails a check() and aborts.
template <word_packable T>
constexpr std::uint64_t pack_tagged(T value, bool tag) noexcept {
    std::uint64_t word = 0;
    if constexpr (std::is_same_v<T, std::int64_t>) {
        check(fits_packed_int64(value),
              "std::int64_t value outside the packed domain [-2^62, 2^62)");
        word = static_cast<std::uint64_t>(value) & ~tag_bit;
    } else if (std::is_constant_evaluated()) {
        // Constant evaluation path only supports integral T.
        if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
            word = static_cast<std::uint64_t>(
                static_cast<std::make_unsigned_t<T>>(value));
        }
    } else {
        // memcpy (not bit_cast) because sizeof(T) < 8.
        std::memcpy(&word, &value, sizeof(T));
    }
    return word | (static_cast<std::uint64_t>(tag) << 63);
}

/// Inverse of pack_tagged: extracts the value.
template <word_packable T>
constexpr T unpack_value(std::uint64_t word) noexcept {
    if constexpr (std::is_same_v<T, std::int64_t>) {
        // Drop the tag, then sign-extend bit 62 back over bit 63.
        return static_cast<std::int64_t>(word << 1) >> 1;
    } else {
        word &= ~tag_bit;
        if (std::is_constant_evaluated()) {
            if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
                return static_cast<T>(word);
            }
        }
        T value{};
        std::memcpy(&value, &word, sizeof(T));
        return value;
    }
}

/// Inverse of pack_tagged: extracts the tag bit.
constexpr bool unpack_tag(std::uint64_t word) noexcept {
    return (word >> 63) != 0;
}

/// Exclusive-or of two boolean "tag bits"; the paper's mod-2 sum.
constexpr bool tag_xor(bool a, bool b) noexcept { return a != b; }

}  // namespace bloom87
