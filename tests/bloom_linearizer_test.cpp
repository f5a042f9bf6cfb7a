// Tests for the executable Section 7 proof: deterministic protocol
// scenarios driven step-by-step against recording registers, checking
// potency classification, prefinisher discovery, read classes, *-action
// placement, and the linearizer's defect/diagnosis reporting.
#include <gtest/gtest.h>

#include <array>
#include <sstream>

#include "core/protocol.hpp"
#include "histories/history.hpp"
#include "histories/serialize.hpp"
#include "histories/thread_log.hpp"
#include "linearizability/bloom_linearizer.hpp"
#include "registers/recording.hpp"

namespace bloom87 {
namespace {

/// Single-threaded scenario driver: performs the writer/reader protocols of
/// the paper one real access at a time, under test-controlled interleaving.
/// Processors 0..3 record into one run_log.
class scenario {
public:
    scenario()
        : log_(4), reg0_(tagged<value_t>{0, false}, &log_, 0),
          reg1_(tagged<value_t>{0, false}, &log_, 1) {}

    recording_register& reg(std::size_t i) { return i == 0 ? reg0_ : reg1_; }

    /// A simulated write, split into its protocol steps.
    struct write_op {
        scenario* s;
        int writer;
        op_index op;
        value_t value;
        bool tag{};

        void invoke() {
            event e;
            e.kind = event_kind::sim_invoke_write;
            e.processor = static_cast<processor_id>(writer);
            e.op = op;
            e.value = value;
            s->log_.record(e.processor, e);
        }
        void real_read() {
            const auto other = s->reg(static_cast<std::size_t>(1 - writer)).read(
                {static_cast<processor_id>(writer), op});
            tag = writer_tag_choice(writer, other.tag);
        }
        void real_write() {
            s->reg(static_cast<std::size_t>(writer)).write(
                tagged<value_t>{value, tag},
                {static_cast<processor_id>(writer), op});
        }
        void respond() {
            event e;
            e.kind = event_kind::sim_respond_write;
            e.processor = static_cast<processor_id>(writer);
            e.op = op;
            s->log_.record(e.processor, e);
        }
        void run_all() {
            invoke();
            real_read();
            real_write();
            respond();
        }
    };

    /// A simulated read, split into its protocol steps.
    struct read_op {
        scenario* s;
        processor_id proc;
        op_index op;
        bool t0{}, t1{};
        value_t result{};

        void invoke() {
            event e;
            e.kind = event_kind::sim_invoke_read;
            e.processor = proc;
            e.op = op;
            s->log_.record(proc, e);
        }
        void read_r0() { t0 = s->reg(0).read({proc, op}).tag; }
        void read_r1() { t1 = s->reg(1).read({proc, op}).tag; }
        void read_r2() {
            result = s->reg(static_cast<std::size_t>(reader_pick(t0, t1)))
                         .read({proc, op})
                         .value;
        }
        void respond() {
            event e;
            e.kind = event_kind::sim_respond_read;
            e.processor = proc;
            e.op = op;
            e.value = result;
            s->log_.record(proc, e);
        }
        void run_all() {
            invoke();
            read_r0();
            read_r1();
            read_r2();
            respond();
        }
    };

    write_op writer(int w, op_index op, value_t v) { return {this, w, op, v}; }
    read_op reader(processor_id proc, op_index op) { return {this, proc, op}; }

    history parsed() {
        parse_result res = parse_history(log_.merge(), 0);
        EXPECT_TRUE(res.ok()) << res.error->message;
        return std::move(res.hist);
    }

private:
    run_log log_;
    recording_register reg0_;
    recording_register reg1_;
};

// ---------------------------------------------------------------------------

TEST(Scenario, SoloWritesArePotent) {
    scenario s;
    s.writer(0, 0, 100).run_all();
    s.writer(1, 0, 200).run_all();
    s.writer(0, 1, 300).run_all();

    const bloom_result res = bloom_linearize(s.parsed());
    ASSERT_TRUE(res.ok()) << *res.defect;
    EXPECT_TRUE(res.atomic) << res.diagnosis;
    EXPECT_EQ(res.potent_count, 3u);
    EXPECT_EQ(res.impotent_count, 0u);
}

TEST(Scenario, OverlappedWriteIsImpotentWithPotentPrefinisher) {
    scenario s;
    // W0 (by Wr0) reads Reg1's tag, then sleeps; W1 (by Wr1) completes a
    // full write; W0 wakes and writes. W0's tag information is stale: it is
    // impotent and W1 prefinishes it.
    auto w0 = s.writer(0, 0, 100);
    w0.invoke();
    w0.real_read();
    auto w1 = s.writer(1, 0, 200);
    w1.run_all();
    w0.real_write();
    w0.respond();

    const bloom_result res = bloom_linearize(s.parsed());
    ASSERT_TRUE(res.ok()) << *res.defect;
    EXPECT_TRUE(res.atomic) << res.diagnosis;
    EXPECT_EQ(res.potent_count, 1u);
    EXPECT_EQ(res.impotent_count, 1u);

    const write_analysis* impotent = nullptr;
    for (const auto& wa : res.writes) {
        if (!wa.potent) impotent = &wa;
    }
    ASSERT_NE(impotent, nullptr);
    EXPECT_EQ(impotent->id, (op_id{0, 0}));
    ASSERT_TRUE(impotent->has_prefinisher);
    EXPECT_EQ(impotent->prefinisher, (op_id{1, 0}));

    // Step 1 places the impotent write's *-action immediately before its
    // prefinisher's: W0 linearizes before W1, so W1's value survives --
    // which is what a subsequent read must see.
    ASSERT_EQ(res.linearization.size(), 2u);
    EXPECT_EQ(res.linearization[0].id, (op_id{0, 0}));
    EXPECT_EQ(res.linearization[1].id, (op_id{1, 0}));
}

TEST(Scenario, SlowReaderReadsImpotentWrite) {
    scenario s;
    // Reader samples both tags (0,0), then stalls. W1 writes (tags 0,1);
    // W0 starts, reads Reg1's tag, W1's second write lands, W0 finishes
    // impotent. The reader wakes, picks Reg0 (its stale tags sum to 0) and
    // returns the IMPOTENT write's value -- the paper's "very slow reader"
    // (Section 7.2). Step 3 must anchor the read right after that write.
    auto r = s.reader(2, 0);
    r.invoke();
    r.read_r0();
    r.read_r1();

    auto w0 = s.writer(0, 0, 100);
    w0.invoke();
    w0.real_read();       // sees Reg1's tag 0
    auto w1 = s.writer(1, 0, 200);
    w1.run_all();         // flips Reg1's tag: tags now (0, 1)
    w0.real_write();      // writes stale tag 0: sum stays 1 -> impotent
    w0.respond();

    r.read_r2();          // stale tags (0,0) pick Reg0: the impotent value
    r.respond();
    EXPECT_EQ(r.result, 100);

    const bloom_result res = bloom_linearize(s.parsed());
    ASSERT_TRUE(res.ok()) << *res.defect;
    EXPECT_TRUE(res.atomic) << res.diagnosis;
    EXPECT_EQ(res.impotent_count, 1u);
    EXPECT_EQ(res.reads_of_impotent, 1u);

    // Step 1 + Step 3: W0 just before its prefinisher W1, the read right
    // after W0 -- so the final order is W0, R, W1.
    std::vector<op_id> order;
    for (const auto& sa : res.linearization) order.push_back(sa.id);
    const std::vector<op_id> expected{op_id{0, 0}, op_id{2, 0}, op_id{1, 0}};
    EXPECT_EQ(order, expected);
}

TEST(Scenario, ReadOfInitialValue) {
    scenario s;
    auto r = s.reader(2, 0);
    r.run_all();
    EXPECT_EQ(r.result, 0);

    const bloom_result res = bloom_linearize(s.parsed());
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res.atomic);
    EXPECT_EQ(res.reads_of_initial, 1u);
}

TEST(Scenario, ReadOverlappingWriteClassifiedByWhatItSaw) {
    scenario s;
    // Read starts before the write's real write but its final real read
    // lands after: it returns the new value (read of a potent write).
    auto r = s.reader(2, 0);
    r.invoke();
    r.read_r0();
    auto w = s.writer(0, 0, 100);
    w.run_all();
    r.read_r1();
    r.read_r2();
    r.respond();

    const bloom_result res = bloom_linearize(s.parsed());
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res.atomic) << res.diagnosis;
    // Tags seen: t0 = 0 (before write), t1 = 0 -> picks Reg0, which now
    // holds the write: a read of a potent write.
    EXPECT_EQ(res.reads_of_potent, 1u);
    EXPECT_EQ(r.result, 100);
}

TEST(Scenario, CrashedWriteObservedByReader) {
    scenario s;
    // Writer performs its real write but never responds (crash). A reader
    // still sees the value; the linearizer treats the crashed write as
    // having taken effect.
    auto w = s.writer(0, 0, 100);
    w.invoke();
    w.real_read();
    w.real_write();
    // no respond(): crashed.
    auto r = s.reader(2, 0);
    r.run_all();
    EXPECT_EQ(r.result, 100);

    const bloom_result res = bloom_linearize(s.parsed());
    ASSERT_TRUE(res.ok()) << *res.defect;
    EXPECT_TRUE(res.atomic) << res.diagnosis;
}

TEST(Scenario, CrashedWriteBeforeRealWriteIsInvisible) {
    scenario s;
    auto w = s.writer(0, 0, 100);
    w.invoke();
    w.real_read();
    // crash before the real write
    auto r = s.reader(2, 0);
    r.run_all();
    EXPECT_EQ(r.result, 0);

    const bloom_result res = bloom_linearize(s.parsed());
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res.atomic);
    // The crashed write got no linearization point.
    EXPECT_EQ(res.linearization.size(), 1u);
}

// ---------------------------------------------------------------------------
// Defect reporting: structurally broken gammas are rejected with clear
// messages rather than bogus verdicts.
// ---------------------------------------------------------------------------

TEST(Defects, WriteWithWrongAccessPattern) {
    // Hand-build a gamma where the "write" reads its OWN register.
    std::vector<event> g;
    {
        event e;
        e.kind = event_kind::sim_invoke_write;
        e.processor = 0;
        e.op = 0;
        e.value = 100;
        g.push_back(e);
    }
    {
        event e;
        e.kind = event_kind::real_read;
        e.reg = 0;  // wrong: writer 0 must read register 1
        e.processor = 0;
        e.op = 0;
        g.push_back(e);
    }
    {
        event e;
        e.kind = event_kind::real_write;
        e.reg = 0;
        e.processor = 0;
        e.op = 0;
        e.value = 100;
        g.push_back(e);
    }
    {
        event e;
        e.kind = event_kind::sim_respond_write;
        e.processor = 0;
        e.op = 0;
        g.push_back(e);
    }
    parse_result parsed = parse_history(g, 0);
    ASSERT_TRUE(parsed.ok());
    const bloom_result res = bloom_linearize(parsed.hist);
    EXPECT_FALSE(res.ok());
}

TEST(Defects, WriteByNonWriterProcessor) {
    std::vector<event> g;
    event e;
    e.kind = event_kind::sim_invoke_write;
    e.processor = 5;
    e.op = 0;
    g.push_back(e);
    e.kind = event_kind::sim_respond_write;
    g.push_back(e);
    parse_result parsed = parse_history(g, 0);
    // The completed write performed no real accesses AND came from a
    // non-writer: the linearizer must flag it.
    ASSERT_TRUE(parsed.ok());
    EXPECT_FALSE(bloom_linearize(parsed.hist).ok());
}

// Regression case: parse_history exempts registers above 1 (net/ servers)
// from validation, and the linearizer used to index its two-register table
// with them (check_history segfaulted on this archive).
TEST(DefectsRegression, RealAccessToAuxiliaryRegister) {
    std::istringstream is(
        "gamma v1 initial=0\n"
        "W_start proc=0 op=0 value=5\n"
        "real_read proc=0 op=0 reg=1 tag=0 value=0 observed=initial\n"
        "real_write proc=0 op=0 reg=200 tag=0 value=5\n"
        "W_finish proc=0 op=0 value=0\n");
    const gamma_parse_result text = read_gamma(is);
    ASSERT_TRUE(text.ok()) << *text.error;
    const parse_result parsed = parse_history(text.gamma, text.initial);
    ASSERT_TRUE(parsed.ok());
    const bloom_result res = bloom_linearize(parsed.hist);
    ASSERT_FALSE(res.ok());
    EXPECT_NE(res.defect->find("register 200"), std::string::npos)
        << *res.defect;
    EXPECT_NE(res.defect->find("gamma position 2"), std::string::npos)
        << *res.defect;
}

}  // namespace
}  // namespace bloom87
