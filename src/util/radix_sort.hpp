// bloom87: stable sort on unsigned 64-bit keys.
//
// The checkers sort operation endpoints by stream position and operations
// by value on every check. Both keys cluster: a window's positions span a
// few thousand events, and write values differ in a few counter bits plus
// a processor field. A least-significant-digit radix sort over the keys'
// spread above their minimum touches only the digits that vary, so a
// window costs two or three linear passes instead of an N log N
// comparison sort.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace bloom87 {

/// Sorts `items` by `key(item)` (a std::uint64_t), keeping equal keys in
/// their input order. `spare` is working storage; its contents are
/// unspecified afterwards.
template <class T, class Key>
void radix_sort(std::vector<T>& items, std::vector<T>& spare, Key key) {
    const std::size_t n = items.size();
    check(n <= UINT32_MAX, "radix_sort: more items than a 32-bit count holds");
    if (n <= 32) {
        // Insertion sort: stable, and cheaper than a histogram pass.
        for (std::size_t i = 1; i < n; ++i) {
            T x = items[i];
            const std::uint64_t k = key(x);
            std::size_t j = i;
            for (; j > 0 && key(items[j - 1]) > k; --j) items[j] = items[j - 1];
            items[j] = x;
        }
        return;
    }
    std::uint64_t lo = UINT64_MAX;
    std::uint64_t hi = 0;
    for (const T& x : items) {
        const std::uint64_t k = key(x);
        lo = k < lo ? k : lo;
        hi = k > hi ? k : hi;
    }
    constexpr unsigned digit_bits = 11;
    constexpr std::uint64_t mask = (1U << digit_bits) - 1;
    std::array<std::uint32_t, mask + 1> start{};
    spare.resize(n);
    for (unsigned shift = 0; shift < 64 && ((hi - lo) >> shift) != 0;
         shift += digit_bits) {
        start.fill(0);
        for (const T& x : items) ++start[((key(x) - lo) >> shift) & mask];
        if (start[((key(items[0]) - lo) >> shift) & mask] == n) continue;
        std::uint32_t sum = 0;
        for (std::uint32_t& c : start) {
            const std::uint32_t here = c;
            c = sum;
            sum += here;
        }
        for (const T& x : items) spare[start[((key(x) - lo) >> shift) & mask]++] = x;
        items.swap(spare);
    }
}

}  // namespace bloom87
