// Edge-case and adversarial coverage for the linearizability module:
// degenerate histories, pending-operation corner cases, witness validity,
// diagnosis quality, and randomized cross-validation including crashes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "linearizability/exhaustive.hpp"
#include "linearizability/fast_register.hpp"
#include "linearizability/normalize.hpp"
#include "linearizability/regularity.hpp"
#include "linearizability/spec.hpp"
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
// Degenerate shapes.
// ---------------------------------------------------------------------------

TEST(FastEdge, EmptyHistory) {
    const auto res = check_fast({}, 0);
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res.linearizable);
    EXPECT_TRUE(res.witness.empty());
}

TEST(FastEdge, OnlyReadsOfInitial) {
    std::vector<operation> h{
        make_op(2, 0, op_kind::read, 7, 0, 1),
        make_op(3, 0, op_kind::read, 7, 0, 2),
        make_op(2, 1, op_kind::read, 7, 3, 4),
    };
    EXPECT_TRUE(check_fast(h, 7).linearizable);
}

TEST(FastEdge, OnlyWrites) {
    // Write-only histories are always linearizable (intervals form an
    // interval order; any linear extension works).
    std::vector<operation> h{
        make_op(0, 0, op_kind::write, 1, 0, 10),
        make_op(1, 0, op_kind::write, 2, 2, 4),
        make_op(0, 1, op_kind::write, 3, 11, 12),
    };
    const auto res = check_fast(h, 0);
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res.linearizable);
    EXPECT_EQ(res.witness.size(), 3u);
}

TEST(FastEdge, WitnessRespectsRealTimeOrder) {
    std::vector<operation> h{
        make_op(0, 0, op_kind::write, 1, 0, 1),
        make_op(1, 0, op_kind::write, 2, 2, 3),
        make_op(2, 0, op_kind::read, 2, 4, 5),
    };
    const auto res = check_fast(h, 0);
    ASSERT_TRUE(res.linearizable);
    ASSERT_EQ(res.witness.size(), 3u);
    EXPECT_EQ(res.witness[0].value, 1);
    EXPECT_EQ(res.witness[1].value, 2);
    EXPECT_EQ(res.witness[2].kind, op_kind::read);
}

TEST(FastEdge, PendingWriteBeforeSequentialSuccessors) {
    // A crashed (pending) write whose value WAS read, followed by more ops
    // from the same writer: exercises the complete/pending split in the
    // per-processor binary searches.
    std::vector<operation> h{
        make_op(0, 0, op_kind::write, 1, 0, no_event),  // crashed, observed
        make_op(2, 0, op_kind::read, 1, 1, 2),
        make_op(0, 1, op_kind::write, 3, 3, 4),
        make_op(2, 1, op_kind::read, 3, 5, 6),
    };
    const auto res = check_fast(h, 0);
    ASSERT_TRUE(res.ok()) << *res.defect;
    EXPECT_TRUE(res.linearizable) << res.diagnosis;
}

TEST(FastEdge, PendingWriteCannotRescueStaleRead) {
    // read(0) at the very end is stale regardless of the pending write.
    std::vector<operation> h{
        make_op(0, 0, op_kind::write, 1, 0, 1),
        make_op(1, 0, op_kind::write, 2, 2, no_event),  // pending
        make_op(2, 0, op_kind::read, 2, 3, 4),          // observed pending
        make_op(2, 1, op_kind::read, 0, 5, 6),          // initial?! stale
    };
    EXPECT_FALSE(check_fast(h, 0).linearizable);
    EXPECT_FALSE(check_exhaustive(h, 0).linearizable);
}

TEST(FastEdge, DiagnosisNamesTheProblem) {
    std::vector<operation> stale{
        make_op(0, 0, op_kind::write, 1, 0, 1),
        make_op(2, 0, op_kind::read, 0, 2, 3),
    };
    const auto res = check_fast(stale, 0);
    ASSERT_TRUE(res.ok());
    ASSERT_FALSE(res.linearizable);
    EXPECT_FALSE(res.diagnosis.empty());

    std::vector<operation> future{
        make_op(2, 0, op_kind::read, 1, 0, 1),
        make_op(0, 0, op_kind::write, 1, 2, 3),
    };
    const auto res2 = check_fast(future, 0);
    ASSERT_FALSE(res2.linearizable);
    EXPECT_NE(res2.diagnosis.find("after"), std::string::npos);
}

TEST(FastEdge, ManySequentialOpsScale) {
    // 2,000 strictly sequential ops; sanity that nothing is accidentally
    // quadratic in an obvious way and the verdict is right.
    std::vector<operation> h;
    event_pos t = 0;
    value_t current = 0;
    rng gen(3);
    for (op_index i = 0; i < 2000; ++i) {
        if (gen.chance(1, 2)) {
            const value_t v = 1000 + i;
            h.push_back(make_op(static_cast<processor_id>(gen.below(2)),
                                i, op_kind::write, v, t, t + 1));
            current = v;
        } else {
            h.push_back(make_op(static_cast<processor_id>(2 + gen.below(3)),
                                i, op_kind::read, current, t, t + 1));
        }
        t += 2;
    }
    EXPECT_TRUE(check_fast(h, 0).linearizable);
}

// ---------------------------------------------------------------------------
// Exhaustive checker internals.
// ---------------------------------------------------------------------------

TEST(ExhaustiveEdge, MemoizationPrunes) {
    // k concurrent reads of the same value explode combinatorially without
    // memoization; with it the state count stays tiny.
    std::vector<operation> h{make_op(0, 0, op_kind::write, 1, 0, 1)};
    for (int r = 0; r < 10; ++r) {
        h.push_back(make_op(static_cast<processor_id>(2 + r), 0, op_kind::read,
                            1, 2, 100));
    }
    const auto res = check_exhaustive(h, 0);
    ASSERT_TRUE(res.linearizable);
    EXPECT_LT(res.states_explored, 200u);  // 11! paths without memoization
}

TEST(ExhaustiveEdge, WitnessReplayIsValid) {
    std::vector<operation> h{
        make_op(0, 0, op_kind::write, 1, 0, 5),
        make_op(1, 0, op_kind::write, 2, 1, 3),
        make_op(2, 0, op_kind::read, 2, 2, 6),
        make_op(2, 1, op_kind::read, 1, 7, 8),
    };
    const auto res = check_exhaustive(h, 0);
    ASSERT_TRUE(res.ok());
    ASSERT_TRUE(res.linearizable);
    // Witness indices refer to the normalized ops (same as input here);
    // replay it against the spec.
    value_t cur = 0;
    for (const std::size_t idx : res.witness) {
        const operation& op = h[idx];
        if (op.kind == op_kind::write) {
            cur = op.value;
        } else {
            EXPECT_EQ(op.value, cur);
        }
    }
}

// ---------------------------------------------------------------------------
// Regularity edges.
// ---------------------------------------------------------------------------

TEST(RegularityEdge, PendingWriteCountsAsOverlapping) {
    std::vector<operation> h{
        make_op(0, 0, op_kind::write, 1, 0, no_event),
        make_op(2, 0, op_kind::read, 1, 1, 2),
        make_op(2, 1, op_kind::read, 0, 3, 4),  // old value: regular-legal
    };
    EXPECT_TRUE(check_regular_swmr(h, 0).regular);
}

TEST(RegularityEdge, TwoWritersRejected) {
    std::vector<operation> h{
        make_op(0, 0, op_kind::write, 1, 0, 1),
        make_op(1, 0, op_kind::write, 2, 2, 3),
    };
    EXPECT_FALSE(check_regular_swmr(h, 0).regular);
}

TEST(RegularityEdge, EmptyIsRegular) {
    EXPECT_TRUE(check_regular_swmr({}, 0).regular);
}

TEST(SafetyEdge, NonOverlappingReadMustBeExact) {
    std::vector<operation> h{
        make_op(0, 0, op_kind::write, 5, 0, 1),
        make_op(2, 0, op_kind::read, 0, 2, 3),  // stale, no overlap
    };
    EXPECT_FALSE(check_safe_swmr(h, 0).regular);
    h[1].value = 5;
    EXPECT_TRUE(check_safe_swmr(h, 0).regular);
}

TEST(SafetyEdge, OverlappingReadMayReturnGarbage) {
    std::vector<operation> h{
        make_op(0, 0, op_kind::write, 5, 0, 10),
        make_op(2, 0, op_kind::read, 98765, 1, 2),  // anything goes
    };
    EXPECT_TRUE(check_safe_swmr(h, 0).regular);
    // ... which regularity does NOT allow.
    EXPECT_FALSE(check_regular_swmr(h, 0).regular);
}

TEST(SafetyEdge, SafeIsWeakerThanRegular) {
    // Every regular history is safe: spot-check with an overlap case.
    std::vector<operation> h{
        make_op(0, 0, op_kind::write, 5, 0, 10),
        make_op(2, 0, op_kind::read, 0, 1, 2),   // old value under overlap
        make_op(2, 1, op_kind::read, 5, 11, 12), // settled value after
    };
    EXPECT_TRUE(check_regular_swmr(h, 0).regular);
    EXPECT_TRUE(check_safe_swmr(h, 0).regular);
}

TEST(SafetyEdge, TwoWritersRejected) {
    std::vector<operation> h{
        make_op(0, 0, op_kind::write, 5, 0, 1),
        make_op(1, 0, op_kind::write, 6, 2, 3),
    };
    EXPECT_FALSE(check_safe_swmr(h, 0).regular);
}

// ---------------------------------------------------------------------------
// Randomized cross-validation WITH pending operations.
// ---------------------------------------------------------------------------

class CrashCrossValidation : public ::testing::TestWithParam<std::uint64_t> {};

std::vector<operation> random_history_with_crashes(rng& gen) {
    const int num_writes = static_cast<int>(gen.below(4)) + 1;
    const int num_reads = static_cast<int>(gen.below(4)) + 1;
    struct planned {
        processor_id proc;
        op_kind kind;
        value_t value;
    };
    std::vector<planned> plan;
    std::vector<value_t> values{0};
    for (int i = 0; i < num_writes; ++i) {
        values.push_back(100 + i);
        plan.push_back({static_cast<processor_id>(gen.below(2)), op_kind::write,
                        100 + i});
    }
    for (int i = 0; i < num_reads; ++i) {
        plan.push_back({static_cast<processor_id>(2 + gen.below(2)),
                        op_kind::read, values[gen.below(values.size())]});
    }
    gen.shuffle(plan);

    std::vector<operation> ops;
    std::map<processor_id, op_index> counters;
    std::vector<std::size_t> open;
    event_pos clock = 0;
    std::size_t next = 0;
    while (next < plan.size() || !open.empty()) {
        const bool do_open =
            next < plan.size() && (open.empty() || gen.chance(1, 2));
        if (do_open) {
            bool blocked = false;
            for (std::size_t idx : open) {
                if (ops[idx].id.processor == plan[next].proc &&
                    ops[idx].complete() == false &&
                    ops[idx].responded == no_event) {
                    // fine: crashed op does not block per crash semantics,
                    // but keep it simple -- only one open op per processor.
                    blocked = true;
                }
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
            // 1-in-5 chance the op crashes instead of responding.
            if (!gen.chance(1, 5)) {
                ops[open[pick]].responded = clock++;
            }
            open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
        }
    }
    return ops;
}

TEST_P(CrashCrossValidation, FastAndZonesAgreeWithExhaustive) {
    rng gen(GetParam() * 977 + 5);
    zone_judge zones;
    for (int iter = 0; iter < 300; ++iter) {
        const auto h = random_history_with_crashes(gen);
        const auto slow = check_exhaustive(h, 0);
        const auto fast = check_fast(h, 0);
        ASSERT_TRUE(slow.ok());
        ASSERT_TRUE(fast.ok()) << *fast.defect;
        ASSERT_EQ(slow.linearizable, fast.linearizable)
            << "disagreement at seed " << GetParam() << " iter " << iter;
        ASSERT_EQ(zones.judge(h, 0), slow.linearizable)
            << "zones disagree at seed " << GetParam() << " iter " << iter;
    }
}

// The zone judge's last values are the values a read appended after
// everything may return: for an atomic history, u is one iff check_fast
// passes the history plus that read of u. Histories with an unobserved
// pending write are skipped -- the appended read could observe it, and the
// streaming checker never judges such a write (it retains only completed
// ops, plus the pending writes their reads decided).
TEST_P(CrashCrossValidation, LastValuesMatchVirtualReadProbes) {
    rng gen(GetParam() * 7919 + 3);
    zone_judge zones;
    int judged = 0;
    int several = 0;  // histories with two or more last values
    for (int iter = 0; iter < 4000; ++iter) {
        std::vector<operation> h = random_history_with_crashes(gen);
        const bool unobserved_pending =
            std::any_of(h.begin(), h.end(), [&](const operation& w) {
                return w.kind == op_kind::write && !w.complete() &&
                       std::none_of(h.begin(), h.end(), [&](const operation& r) {
                           return r.kind == op_kind::read && r.complete() &&
                                  r.value == w.value;
                       });
            });
        if (unobserved_pending || !zones.judge(h, 0)) continue;
        ++judged;
        const std::vector<value_t> last = zones.last_values();
        several += last.size() > 1 ? 1 : 0;

        // Candidates in the order last_values() lists them: the writes in
        // history order, then the initial value.
        std::vector<value_t> universe;
        event_pos end = 0;
        for (const operation& o : h) {
            if (o.kind == op_kind::write) universe.push_back(o.value);
            end = std::max(end, o.invoked + 1);
            if (o.complete()) end = std::max(end, o.responded + 1);
        }
        universe.push_back(0);
        h.push_back(make_op(9, 0, op_kind::read, 0, end, end + 1));
        std::vector<value_t> probed;
        for (const value_t u : universe) {
            h.back().value = u;
            if (check_fast(h, 0).linearizable) probed.push_back(u);
        }
        ASSERT_EQ(last, probed) << "seed " << GetParam() << " iter " << iter;
    }
    EXPECT_GT(judged, 800);
    EXPECT_GT(several, 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashCrossValidation,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace bloom87
