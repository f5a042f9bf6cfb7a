// Tests for src/util: rng determinism and uniformity sanity, bit packing,
// the stable radix sort, table formatting, synchronization helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "util/bits.hpp"
#include "util/radix_sort.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "util/table.hpp"

namespace bloom87 {
namespace {

TEST(Rng, DeterministicFromSeed) {
    rng a(42), b(42);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
    rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) same += (a() == b());
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
    rng g(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i) EXPECT_LT(g.below(bound), bound);
    }
    EXPECT_EQ(g.below(0), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
    rng g(123);
    std::vector<int> buckets(10, 0);
    constexpr int n = 100000;
    for (int i = 0; i < n; ++i) ++buckets[g.below(10)];
    for (int count : buckets) {
        EXPECT_GT(count, n / 10 - n / 50);
        EXPECT_LT(count, n / 10 + n / 50);
    }
}

TEST(Rng, RangeIsInclusive) {
    rng g(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) seen.insert(g.range(-2, 2));
    EXPECT_EQ(seen.size(), 5u);
    EXPECT_TRUE(seen.contains(-2));
    EXPECT_TRUE(seen.contains(2));
}

TEST(Rng, ShufflePreservesElements) {
    rng g(11);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    g.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Rng, SplitProducesIndependentStream) {
    rng g(5);
    rng child = g.split();
    EXPECT_NE(g(), child());
}

TEST(Bits, PackRoundTripsValueAndTag) {
    for (std::int32_t v : {0, 1, -1, 42, -42, 1 << 30, -(1 << 30)}) {
        for (bool tag : {false, true}) {
            const std::uint64_t w = pack_tagged(v, tag);
            EXPECT_EQ(unpack_value<std::int32_t>(w), v);
            EXPECT_EQ(unpack_tag(w), tag);
        }
    }
}

TEST(Bits, PackSmallTypes) {
    const std::uint64_t w = pack_tagged<std::uint8_t>(0xAB, true);
    EXPECT_EQ(unpack_value<std::uint8_t>(w), 0xAB);
    EXPECT_TRUE(unpack_tag(w));
}

TEST(Bits, PackInt64RoundTripsAcrossItsDomain) {
    for (std::int64_t v : {std::int64_t{0}, std::int64_t{-1},
                           packed_int64_max, packed_int64_min}) {
        for (bool tag : {false, true}) {
            const std::uint64_t w = pack_tagged(v, tag);
            EXPECT_EQ(unpack_value<std::int64_t>(w), v);
            EXPECT_EQ(unpack_tag(w), tag);
        }
    }
    EXPECT_EQ(packed_int64_max, (std::int64_t{1} << 62) - 1);
    EXPECT_EQ(packed_int64_min, -(std::int64_t{1} << 62));
    static_assert(unpack_value<std::int64_t>(pack_tagged(std::int64_t{-5},
                                                         true)) == -5);
}

TEST(Bits, PackInt64OutsideItsDomainAborts) {
    EXPECT_FALSE(fits_packed_int64(packed_int64_max + 1));
    EXPECT_FALSE(fits_packed_int64(packed_int64_min - 1));
    EXPECT_DEATH((void)pack_tagged(packed_int64_max + 1, false),
                 "outside the packed domain");
    EXPECT_DEATH((void)pack_tagged(packed_int64_min - 1, true),
                 "outside the packed domain");
}

TEST(Bits, TagXorMatchesMod2Sum) {
    EXPECT_FALSE(tag_xor(false, false));
    EXPECT_TRUE(tag_xor(false, true));
    EXPECT_TRUE(tag_xor(true, false));
    EXPECT_FALSE(tag_xor(true, true));
}

// The radix sort must agree with std::stable_sort on every size and key
// spread: below the insertion-sort cutoff, a window-sized clustered range,
// full 64-bit keys, and runs of equal keys (whose input order it keeps).
TEST(RadixSort, MatchesStableSort) {
    struct item {
        std::uint64_t key;
        std::uint32_t order;
    };
    rng gen(7);
    for (const std::size_t n : {0U, 1U, 5U, 32U, 33U, 1000U, 20000U}) {
        for (const std::uint64_t spread :
             {std::uint64_t{3}, std::uint64_t{5000}, ~std::uint64_t{0}}) {
            std::vector<item> items;
            for (std::uint32_t i = 0; i < n; ++i) {
                const std::uint64_t off =
                    spread == ~std::uint64_t{0} ? gen() : gen.below(spread);
                items.push_back({(std::uint64_t{1} << 40) + off, i});
            }
            std::vector<item> expect = items;
            std::stable_sort(expect.begin(), expect.end(),
                             [](const item& a, const item& b) { return a.key < b.key; });
            std::vector<item> scratch;
            radix_sort(items, scratch, [](const item& x) { return x.key; });
            ASSERT_EQ(items.size(), expect.size());
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(items[i].key, expect[i].key) << "n=" << n << " i=" << i;
                ASSERT_EQ(items[i].order, expect[i].order) << "n=" << n << " i=" << i;
            }
        }
    }
}

TEST(Table, AlignsColumns) {
    table t({"a", "long_header"});
    t.row({"xx", "y"});
    const std::string s = t.to_string();
    EXPECT_NE(s.find("| a  | long_header |"), std::string::npos);
    EXPECT_NE(s.find("| xx | y           |"), std::string::npos);
}

TEST(Table, PadsShortRows) {
    table t({"a", "b"});
    t.row({"only"});
    EXPECT_NE(t.to_string().find("| only |   |"), std::string::npos);
}

TEST(Table, WithCommas) {
    EXPECT_EQ(with_commas(0), "0");
    EXPECT_EQ(with_commas(999), "999");
    EXPECT_EQ(with_commas(1000), "1,000");
    EXPECT_EQ(with_commas(1234567), "1,234,567");
}

TEST(Table, Fixed) {
    EXPECT_EQ(fixed(3.14159, 2), "3.14");
    EXPECT_EQ(fixed(2.0, 1), "2.0");
}

TEST(Sync, SpinBarrierSynchronizesRounds) {
    constexpr int threads = 4, rounds = 50;
    spin_barrier barrier(threads);
    std::atomic<int> counter{0};
    std::vector<std::thread> pool;
    std::atomic<bool> failed{false};
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            for (int r = 0; r < rounds; ++r) {
                counter.fetch_add(1);
                barrier.arrive_and_wait();
                // Between barriers, the counter must be a multiple of
                // `threads` * (r+1): all increments of this round landed.
                if (counter.load() < threads * (r + 1)) failed = true;
                barrier.arrive_and_wait();
            }
        });
    }
    for (auto& th : pool) th.join();
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(counter.load(), threads * rounds);
}

TEST(Sync, StartGateReleasesWaiters) {
    start_gate gate;
    std::atomic<int> released{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < 3; ++t) {
        pool.emplace_back([&] {
            gate.wait();
            released.fetch_add(1);
        });
    }
    EXPECT_EQ(released.load(), 0);
    gate.open();
    for (auto& th : pool) th.join();
    EXPECT_EQ(released.load(), 3);
}

}  // namespace
}  // namespace bloom87
