// Mutation tests: corrupt known-good recorded executions in targeted ways
// and verify each checker catches exactly what it should. This is how we
// know the verification stack has teeth -- a checker that never fails
// proves nothing.
#include <gtest/gtest.h>

#include "core/protocol.hpp"
#include "histories/history.hpp"
#include "histories/thread_log.hpp"
#include "linearizability/bloom_linearizer.hpp"
#include "linearizability/exhaustive.hpp"
#include "linearizability/fast_register.hpp"
#include "registers/recording.hpp"

namespace bloom87 {
namespace {

/// Produces a known-good gamma: W0(100) potent, W1(200) potent, read(200),
/// W0(300) impotent (overlapped), read(300)... built single-threaded for
/// determinism.
std::vector<event> known_good_gamma() {
    run_log log(4);
    recording_register reg0(tagged<value_t>{0, false}, &log, 0);
    recording_register reg1(tagged<value_t>{0, false}, &log, 1);

    auto sim = [&](event_kind k, processor_id p, op_index op, value_t v = 0) {
        event e;
        e.kind = k;
        e.processor = p;
        e.op = op;
        e.value = v;
        log.record(p, e);
    };
    auto full_write = [&](int w, op_index op, value_t v) {
        sim(event_kind::sim_invoke_write, static_cast<processor_id>(w), op, v);
        const bool t = writer_tag_choice(
            w, (w == 0 ? reg1 : reg0).read({static_cast<processor_id>(w), op}).tag);
        (w == 0 ? reg0 : reg1)
            .write(tagged<value_t>{v, t}, {static_cast<processor_id>(w), op});
        sim(event_kind::sim_respond_write, static_cast<processor_id>(w), op);
    };
    auto full_read = [&](processor_id p, op_index op) {
        sim(event_kind::sim_invoke_read, p, op);
        const bool t0 = reg0.read({p, op}).tag;
        const bool t1 = reg1.read({p, op}).tag;
        const value_t v =
            (reader_pick(t0, t1) == 0 ? reg0 : reg1).read({p, op}).value;
        sim(event_kind::sim_respond_read, p, op, v);
    };

    full_write(0, 0, 100);  // tags (0,0): potent
    full_read(2, 0);        // returns 100

    // An impotent write: from tag state (0,0), W0 samples Reg1's tag, W1's
    // complete write flips it, then W0 lands with stale information.
    sim(event_kind::sim_invoke_write, 0, 1, 300);
    const bool stale = reg1.read({0, 1}).tag;  // sees 0
    full_write(1, 0, 200);                     // flips Reg1's tag: (0,1)
    reg0.write(tagged<value_t>{300, writer_tag_choice(0, stale)}, {0, 1});
    sim(event_kind::sim_respond_write, 0, 1);  // tags still (0,1): impotent

    full_read(2, 1);        // picks Reg1: returns 200
    full_write(1, 1, 400);  // potent
    full_read(3, 0);        // returns 400
    return log.merge();
}

history parse_ok(const std::vector<event>& g) {
    parse_result res = parse_history(g, 0);
    EXPECT_TRUE(res.ok()) << (res.ok() ? "" : res.error->message);
    return std::move(res.hist);
}

TEST(Mutation, BaselineIsAccepted) {
    const history h = parse_ok(known_good_gamma());
    const bloom_result c = bloom_linearize(h);
    ASSERT_TRUE(c.ok()) << *c.defect;
    EXPECT_TRUE(c.atomic) << c.diagnosis;
    EXPECT_EQ(c.impotent_count, 1u);
    EXPECT_TRUE(check_fast(h.ops, 0).linearizable);
    EXPECT_TRUE(check_exhaustive(h.ops, 0).linearizable);
}

TEST(Mutation, StaleReadValueCaughtByAllCheckers) {
    std::vector<event> g = known_good_gamma();
    // The second read (op 1 of proc 2) returned 200; claim it returned the
    // long-overwritten 100 instead. External-level corruption: patch the
    // response event only (gamma's real accesses stay consistent, so this
    // models a protocol that RETURNS the wrong value).
    bool patched = false;
    for (event& e : g) {
        if (e.kind == event_kind::sim_respond_read && e.processor == 2 &&
            e.op == 1) {
            e.value = 100;
            patched = true;
        }
    }
    ASSERT_TRUE(patched);
    const history h = parse_ok(g);
    EXPECT_FALSE(check_fast(h.ops, 0).linearizable);
    EXPECT_FALSE(check_exhaustive(h.ops, 0).linearizable);
    // The constructive linearizer sees the real reads disagree with the
    // response -- its register-property verification fails.
    const bloom_result c = bloom_linearize(h);
    ASSERT_TRUE(c.ok());
    EXPECT_FALSE(c.atomic);
}

TEST(Mutation, ValueFromNowhereRejected) {
    std::vector<event> g = known_good_gamma();
    for (event& e : g) {
        if (e.kind == event_kind::sim_respond_read && e.processor == 3) {
            e.value = 98765;
        }
    }
    const history h = parse_ok(g);
    // Both checkers flag it during normalization, with a clear message
    // rather than a bare "not linearizable".
    const auto fast = check_fast(h.ops, 0);
    EXPECT_FALSE(fast.ok());
    EXPECT_NE(fast.defect->find("no write produced"), std::string::npos);
    const auto slow = check_exhaustive(h.ops, 0);
    EXPECT_FALSE(slow.ok());
}

TEST(Mutation, WrongThirdReadRegisterIsAProtocolDefect) {
    std::vector<event> g = known_good_gamma();
    // Flip the register of some read's FINAL real access: the linearizer
    // must flag the gamma as not protocol-shaped (reader_pick mismatch).
    for (std::size_t i = 2; i < g.size(); ++i) {
        if (g[i].kind == event_kind::real_read && g[i].processor == 2 &&
            g[i - 1].kind == event_kind::real_read &&
            g[i - 2].kind == event_kind::real_read) {
            g[i].reg = static_cast<std::uint8_t>(1 - g[i].reg);
            // Keep parse-level invariants believable: cite no observed
            // write on the other register if there was none... simplest is
            // to point at initial; parse may reject, which also counts.
            g[i].observed_write = no_event;
            break;
        }
    }
    parse_result parsed = parse_history(g, 0);
    if (!parsed.ok()) {
        SUCCEED() << "caught at parse level: " << parsed.error->message;
        return;
    }
    EXPECT_FALSE(bloom_linearize(parsed.hist).ok());
}

TEST(Mutation, CorruptedObservedWriteCaughtAtParse) {
    std::vector<event> g = known_good_gamma();
    // Point a read's observed_write at an older write of the same register:
    // the recording invariant ("reads observe the latest write") breaks.
    event_pos first_w0 = no_event, second_r2_on_reg0 = no_event;
    for (event_pos p = 0; p < g.size(); ++p) {
        if (g[p].kind == event_kind::real_write && g[p].reg == 0 &&
            first_w0 == no_event) {
            first_w0 = p;
        }
    }
    for (event_pos p = g.size(); p-- > 0;) {
        if (g[p].kind == event_kind::real_read && g[p].reg == 0 &&
            g[p].observed_write != no_event && g[p].observed_write != first_w0) {
            second_r2_on_reg0 = p;
            break;
        }
    }
    ASSERT_NE(first_w0, no_event);
    ASSERT_NE(second_r2_on_reg0, no_event);
    g[second_r2_on_reg0].observed_write = first_w0;
    EXPECT_FALSE(parse_history(g, 0).ok());
}

TEST(Mutation, FlippedTagBitBreaksTheProofMachinery) {
    std::vector<event> g = known_good_gamma();
    // Flip the tag bit of the FIRST real write. Downstream reads recorded
    // the original tag, so the recording becomes inconsistent -- the
    // constructive linearizer (or the parse validation) must notice;
    // at minimum the verdict machinery must not silently succeed with a
    // different linearization than the unmutated gamma.
    for (event& e : g) {
        if (e.kind == event_kind::real_write) {
            e.tag = !e.tag;
            break;
        }
    }
    parse_result parsed = parse_history(g, 0);
    if (!parsed.ok()) {
        SUCCEED();
        return;
    }
    const bloom_result res = bloom_linearize(parsed.hist);
    // Either the access-shape validation trips (defect), or the potency
    // analysis diverges and some verification step fails.
    EXPECT_TRUE(!res.ok() || !res.atomic)
        << "flipped tag bit must not yield a clean ATOMIC verdict";
}

TEST(Mutation, DroppedResponseMakesOpPendingButHistoryStaysAtomic) {
    std::vector<event> g = known_good_gamma();
    // Remove the LAST response event: that operation becomes pending
    // (crashed); the history must still check out.
    for (std::size_t i = g.size(); i-- > 0;) {
        if (is_response(g[i].kind)) {
            g.erase(g.begin() + static_cast<std::ptrdiff_t>(i));
            break;
        }
    }
    const history h = parse_ok(g);
    EXPECT_TRUE(check_fast(h.ops, 0).linearizable);
    EXPECT_TRUE(check_exhaustive(h.ops, 0).linearizable);
}

TEST(Mutation, ReorderedRealWritePairCaught) {
    std::vector<event> g = known_good_gamma();
    // Swap a write's real_read and real_write events (protocol order
    // violation): the linearizer's access-shape validation must trip.
    for (std::size_t i = 0; i + 1 < g.size(); ++i) {
        if (g[i].kind == event_kind::real_read &&
            g[i + 1].kind == event_kind::real_write &&
            g[i].processor == g[i + 1].processor) {
            std::swap(g[i], g[i + 1]);
            break;
        }
    }
    parse_result parsed = parse_history(g, 0);
    if (!parsed.ok()) {
        SUCCEED();
        return;
    }
    EXPECT_FALSE(bloom_linearize(parsed.hist).ok());
}

}  // namespace
}  // namespace bloom87
