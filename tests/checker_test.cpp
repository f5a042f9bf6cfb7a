// Tests for src/linearizability: exhaustive checker, fast register checker,
// regularity checker -- hand-built histories with known verdicts, plus
// random cross-validation of fast vs exhaustive.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "linearizability/exhaustive.hpp"
#include "linearizability/fast_register.hpp"
#include "linearizability/normalize.hpp"
#include "linearizability/regularity.hpp"
#include "linearizability/zones.hpp"
#include "util/rng.hpp"

namespace bloom87 {
namespace {

operation make_op(processor_id proc, op_index idx, op_kind kind, value_t v,
                  event_pos inv, event_pos resp) {
    operation op;
    op.id = op_id{proc, idx};
    op.kind = kind;
    op.value = v;
    op.invoked = inv;
    op.responded = resp;
    return op;
}

// ---------------------------------------------------------------------------
// Hand-built verdicts.
// ---------------------------------------------------------------------------

TEST(Exhaustive, EmptyHistoryIsAtomic) {
    EXPECT_TRUE(check_exhaustive({}, 0).linearizable);
}

TEST(Exhaustive, SequentialReadsAndWrites) {
    std::vector<operation> h{
        make_op(0, 0, op_kind::write, 5, 0, 1),
        make_op(2, 0, op_kind::read, 5, 2, 3),
        make_op(1, 0, op_kind::write, 9, 4, 5),
        make_op(2, 1, op_kind::read, 9, 6, 7),
    };
    EXPECT_TRUE(check_exhaustive(h, 0).linearizable);
}

TEST(Exhaustive, StaleReadRejected) {
    std::vector<operation> h{
        make_op(0, 0, op_kind::write, 5, 0, 1),
        make_op(2, 0, op_kind::read, 0, 2, 3),  // reads initial after write done
    };
    EXPECT_FALSE(check_exhaustive(h, 0).linearizable);
}

TEST(Exhaustive, OverlappingWriteMayOrMayNotBeSeen) {
    // Read overlaps the write: both outcomes are atomic.
    for (value_t seen : {0, 5}) {
        std::vector<operation> h{
            make_op(0, 0, op_kind::write, 5, 0, 10),
            make_op(2, 0, op_kind::read, seen, 1, 2),
        };
        EXPECT_TRUE(check_exhaustive(h, 0).linearizable) << "seen=" << seen;
    }
}

TEST(Exhaustive, NewOldInversionRejected) {
    // r1 sees the new value, then a later (non-overlapping) r2 sees the old:
    // the classic atomicity violation.
    std::vector<operation> h{
        make_op(0, 0, op_kind::write, 5, 0, 11),
        make_op(2, 0, op_kind::read, 5, 1, 2),
        make_op(3, 0, op_kind::read, 0, 3, 4),
    };
    EXPECT_FALSE(check_exhaustive(h, 0).linearizable);
}

TEST(Exhaustive, ValueReappearanceRejected) {
    // Figure 5's essence: c is written, overwritten by d (observed), then a
    // later read sees c again.
    std::vector<operation> h{
        make_op(0, 0, op_kind::write, 100, 0, 1),   // 'c'
        make_op(1, 0, op_kind::write, 200, 2, 3),   // 'd'
        make_op(2, 0, op_kind::read, 200, 4, 5),
        make_op(2, 1, op_kind::read, 100, 6, 7),    // 'c' reappears
    };
    EXPECT_FALSE(check_exhaustive(h, 0).linearizable);
}

TEST(Exhaustive, PendingWriteMayTakeEffect) {
    std::vector<operation> h{
        make_op(0, 0, op_kind::write, 5, 0, no_event),  // crashed mid-write
        make_op(2, 0, op_kind::read, 5, 1, 2),
    };
    EXPECT_TRUE(check_exhaustive(h, 0).linearizable);
}

TEST(Exhaustive, PendingWriteMayVanish) {
    std::vector<operation> h{
        make_op(0, 0, op_kind::write, 5, 0, no_event),
        make_op(2, 0, op_kind::read, 0, 1, 2),
        make_op(2, 1, op_kind::read, 0, 3, 4),
    };
    EXPECT_TRUE(check_exhaustive(h, 0).linearizable);
}

TEST(Exhaustive, ReadFromFutureRejected) {
    std::vector<operation> h{
        make_op(2, 0, op_kind::read, 5, 0, 1),
        make_op(0, 0, op_kind::write, 5, 2, 3),
    };
    EXPECT_FALSE(check_exhaustive(h, 0).linearizable);
}

TEST(Exhaustive, TooLargeReportsDefect) {
    std::vector<operation> h;
    for (op_index i = 0; i < 70; ++i) {
        h.push_back(make_op(0, i, op_kind::write, 1000 + i, 2 * i, 2 * i + 1));
    }
    const auto res = check_exhaustive(h, 0);
    EXPECT_FALSE(res.ok());
}

// The same verdicts from the fast checker.

TEST(Fast, MatchesHandVerdicts) {
    std::vector<operation> good{
        make_op(0, 0, op_kind::write, 5, 0, 1),
        make_op(2, 0, op_kind::read, 5, 2, 3),
    };
    EXPECT_TRUE(check_fast(good, 0).linearizable);

    std::vector<operation> stale{
        make_op(0, 0, op_kind::write, 5, 0, 1),
        make_op(2, 0, op_kind::read, 0, 2, 3),
    };
    EXPECT_FALSE(check_fast(stale, 0).linearizable);

    std::vector<operation> inversion{
        make_op(0, 0, op_kind::write, 5, 0, 11),
        make_op(2, 0, op_kind::read, 5, 1, 2),
        make_op(3, 0, op_kind::read, 0, 3, 4),
    };
    EXPECT_FALSE(check_fast(inversion, 0).linearizable);

    std::vector<operation> reappear{
        make_op(0, 0, op_kind::write, 100, 0, 1),
        make_op(1, 0, op_kind::write, 200, 2, 3),
        make_op(2, 0, op_kind::read, 200, 4, 5),
        make_op(2, 1, op_kind::read, 100, 6, 7),
    };
    EXPECT_FALSE(check_fast(reappear, 0).linearizable);
}

TEST(Fast, RejectsDuplicateWriteValues) {
    std::vector<operation> h{
        make_op(0, 0, op_kind::write, 5, 0, 1),
        make_op(1, 0, op_kind::write, 5, 2, 3),
    };
    EXPECT_FALSE(check_fast(h, 0).ok());
}

TEST(Fast, WitnessIsValidLinearization) {
    std::vector<operation> h{
        make_op(0, 0, op_kind::write, 5, 0, 10),
        make_op(1, 0, op_kind::write, 9, 1, 4),
        make_op(2, 0, op_kind::read, 9, 2, 6),
        make_op(2, 1, op_kind::read, 5, 7, 12),
    };
    const auto res = check_fast(h, 0);
    ASSERT_TRUE(res.ok());
    ASSERT_TRUE(res.linearizable);
    EXPECT_EQ(res.witness.size(), 4u);
    // Replaying the witness satisfies the register property.
    value_t cur = 0;
    for (const operation& op : res.witness) {
        if (op.kind == op_kind::write) {
            cur = op.value;
        } else {
            EXPECT_EQ(op.value, cur);
        }
    }
}

// ---------------------------------------------------------------------------
// Random cross-validation: the fast checker and the zone judge must agree
// with the exhaustive checker on every randomly generated small history
// (valid or not).
// ---------------------------------------------------------------------------

class CrossValidation : public ::testing::TestWithParam<std::uint64_t> {};

std::vector<operation> random_history(rng& gen) {
    // 2 writers, 2 readers; random interleaving of intervals; read values
    // picked from written values / initial (sometimes deliberately bogus).
    const int num_writes = static_cast<int>(gen.below(4)) + 1;
    const int num_reads = static_cast<int>(gen.below(5)) + 1;

    struct pending {
        processor_id proc;
        op_kind kind;
        value_t value;
    };
    std::vector<pending> plan;
    std::vector<value_t> values{0};
    for (int i = 0; i < num_writes; ++i) {
        const auto proc = static_cast<processor_id>(gen.below(2));
        const value_t v = 100 + i;
        values.push_back(v);
        plan.push_back({proc, op_kind::write, v});
    }
    for (int i = 0; i < num_reads; ++i) {
        const auto proc = static_cast<processor_id>(2 + gen.below(2));
        plan.push_back({proc, op_kind::read,
                        values[gen.below(values.size())]});
    }
    gen.shuffle(plan);

    // Assign intervals: per-processor sequential, random overlap across.
    std::vector<operation> ops;
    event_pos clock = 0;
    std::vector<std::vector<std::size_t>> open_slots;  // ops awaiting response
    std::map<processor_id, op_index> counters;
    std::vector<std::size_t> open;
    std::size_t next = 0;
    while (next < plan.size() || !open.empty()) {
        const bool can_open = next < plan.size();
        const bool do_open = can_open && (open.empty() || gen.chance(1, 2));
        if (do_open) {
            // Respect per-processor sequentiality: close any open op of the
            // same processor first.
            bool blocked = false;
            for (std::size_t idx : open) {
                if (ops[idx].id.processor == plan[next].proc) blocked = true;
            }
            if (!blocked) {
                operation op;
                op.id = op_id{plan[next].proc, counters[plan[next].proc]++};
                op.kind = plan[next].kind;
                op.value = plan[next].value;
                op.invoked = clock++;
                open.push_back(ops.size());
                ops.push_back(op);
                ++next;
                continue;
            }
        }
        if (!open.empty()) {
            const std::size_t pick = gen.below(open.size());
            ops[open[pick]].responded = clock++;
            open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
        }
    }
    return ops;
}

TEST_P(CrossValidation, FastAndZonesAgreeWithExhaustive) {
    rng gen(GetParam());
    zone_judge zones;
    for (int iter = 0; iter < 400; ++iter) {
        const std::vector<operation> h = random_history(gen);
        const auto slow = check_exhaustive(h, 0);
        const auto fast = check_fast(h, 0);
        ASSERT_TRUE(slow.ok());
        ASSERT_TRUE(fast.ok()) << *fast.defect;
        ASSERT_EQ(slow.linearizable, fast.linearizable)
            << "disagreement on seed " << GetParam() << " iter " << iter;
        ASSERT_EQ(zones.judge(h, 0), slow.linearizable)
            << "zones disagree on seed " << GetParam() << " iter " << iter;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossValidation,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16));

// ---------------------------------------------------------------------------
// Regularity checker.
// ---------------------------------------------------------------------------

TEST(Regularity, AcceptsOverlapValues) {
    std::vector<operation> h{
        make_op(0, 0, op_kind::write, 5, 0, 10),
        make_op(2, 0, op_kind::read, 5, 1, 2),   // overlapping new value
        make_op(2, 1, op_kind::read, 0, 3, 4),   // overlapping old value (regular!)
    };
    EXPECT_TRUE(check_regular_swmr(h, 0).regular);
    // ... but that history is NOT atomic (new-old inversion).
    EXPECT_FALSE(check_exhaustive(h, 0).linearizable);
}

TEST(Regularity, RejectsStaleAfterCompletedWrite) {
    std::vector<operation> h{
        make_op(0, 0, op_kind::write, 5, 0, 1),
        make_op(2, 0, op_kind::read, 0, 2, 3),
    };
    EXPECT_FALSE(check_regular_swmr(h, 0).regular);
}

TEST(Regularity, RejectsValueFromNowhere) {
    std::vector<operation> h{
        make_op(0, 0, op_kind::write, 5, 0, 1),
        make_op(2, 0, op_kind::read, 77, 2, 3),
    };
    EXPECT_FALSE(check_regular_swmr(h, 0).regular);
}

TEST(Normalize, DropsUnobservedPendingWrite) {
    std::vector<operation> h{
        make_op(0, 0, op_kind::write, 5, 0, no_event),
        make_op(2, 0, op_kind::read, 0, 1, 2),
    };
    const auto norm = normalize_history(h, 0);
    ASSERT_TRUE(norm.ok());
    EXPECT_EQ(norm.ops.size(), 1u);
}

// Two uniqueness defects in one history: the report names the one a scan
// in raw order meets first.
TEST(Normalize, ReportsTheFirstUniquenessDefectInRawOrder) {
    const operation dup_a = make_op(0, 0, op_kind::write, 5, 0, 1);
    const operation dup_b = make_op(1, 0, op_kind::write, 5, 2, 3);
    const operation init_w = make_op(0, 1, op_kind::write, 0, 4, 5);
    const std::string dup_msg =
        "duplicate write value; checkers require unique writes";
    const std::string init_msg = "write of the initial value breaks uniqueness";

    const auto dup_first = normalize_history({dup_a, dup_b, init_w}, 0);
    ASSERT_FALSE(dup_first.ok());
    EXPECT_EQ(*dup_first.defect, dup_msg);
    const auto init_first = normalize_history({init_w, dup_a, dup_b}, 0);
    ASSERT_FALSE(init_first.ok());
    EXPECT_EQ(*init_first.defect, init_msg);
    const auto between = normalize_history({dup_a, init_w, dup_b}, 0);
    ASSERT_FALSE(between.ok());
    EXPECT_EQ(*between.defect, init_msg);
    EXPECT_EQ(*check_fast({dup_a, dup_b, init_w}, 0).defect, dup_msg);
    EXPECT_EQ(*check_fast({init_w, dup_a, dup_b}, 0).defect, init_msg);
}

TEST(Normalize, KeepsObservedPendingWrite) {
    std::vector<operation> h{
        make_op(0, 0, op_kind::write, 5, 0, no_event),
        make_op(2, 0, op_kind::read, 5, 1, 2),
    };
    const auto norm = normalize_history(h, 0);
    ASSERT_TRUE(norm.ok());
    EXPECT_EQ(norm.ops.size(), 2u);
}

}  // namespace
}  // namespace bloom87
