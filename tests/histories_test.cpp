// Tests for src/histories: the stamped recorder, history parsing and
// validation, workload generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include <sstream>

#include "histories/events.hpp"
#include "histories/history.hpp"
#include "histories/serialize.hpp"
#include "histories/stats.hpp"
#include "histories/thread_log.hpp"
#include "histories/workload.hpp"

namespace bloom87 {
namespace {

event sim_ev(event_kind k, processor_id proc, op_index op, value_t v = 0) {
    event e;
    e.kind = k;
    e.processor = proc;
    e.op = op;
    e.value = v;
    return e;
}

event real_ev(event_kind k, std::uint8_t reg, processor_id proc, op_index op,
              bool tag, value_t v, event_pos observed = no_event) {
    event e;
    e.kind = k;
    e.reg = reg;
    e.processor = proc;
    e.op = op;
    e.tag = tag;
    e.value = v;
    e.observed_write = observed;
    return e;
}

// Each processor records into its own buffer; the merge places the event
// stamped k at index k, so every record lands once, in stamp order.
TEST(RunLog, ConcurrentRecordsMergeByStamp) {
    constexpr int threads = 8, per_thread = 2000;
    run_log log(threads);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            for (int i = 0; i < per_thread; ++i) {
                log.record(static_cast<processor_id>(t),
                           sim_ev(event_kind::sim_invoke_read,
                                  static_cast<processor_id>(t),
                                  static_cast<op_index>(i)));
            }
        });
    }
    for (auto& th : pool) th.join();
    EXPECT_EQ(log.next_pos(), static_cast<event_pos>(threads * per_thread));
    const std::vector<event> merged = log.merge();
    ASSERT_EQ(merged.size(), static_cast<std::size_t>(threads * per_thread));
    // Every (processor, op) pair appears exactly once, each processor's in
    // program order.
    std::set<std::pair<processor_id, op_index>> seen;
    std::vector<op_index> next(threads, 0);
    for (const event& e : merged) {
        seen.insert({e.processor, e.op});
        EXPECT_EQ(e.op, next[static_cast<std::size_t>(e.processor)]++);
    }
    EXPECT_EQ(seen.size(), merged.size());
}

// The processor indexes a buffer: one outside the run fails a check() in
// every build type instead of writing past the buffers.
TEST(RunLogDeathTest, ProcessorOutsideTheRunIsRejected) {
    run_log log(2);
    EXPECT_DEATH(log.record(2, sim_ev(event_kind::sim_invoke_read, 2, 0)),
                 "processor outside the run");
    EXPECT_DEATH(log.record(-1, sim_ev(event_kind::sim_invoke_read, 0, 0)),
                 "processor outside the run");
}

TEST(ParseHistory, BuildsOperations) {
    std::vector<event> g;
    g.push_back(sim_ev(event_kind::sim_invoke_write, 0, 0, 5));
    g.push_back(real_ev(event_kind::real_read, 1, 0, 0, false, 0));
    g.push_back(real_ev(event_kind::real_write, 0, 0, 0, false, 5));
    g.push_back(sim_ev(event_kind::sim_respond_write, 0, 0));
    g.push_back(sim_ev(event_kind::sim_invoke_read, 2, 0));
    g.push_back(real_ev(event_kind::real_read, 0, 2, 0, false, 5, 2));
    g.push_back(real_ev(event_kind::real_read, 1, 2, 0, false, 0));
    g.push_back(real_ev(event_kind::real_read, 0, 2, 0, false, 5, 2));
    g.push_back(sim_ev(event_kind::sim_respond_read, 2, 0, 5));

    const parse_result res = parse_history(g, 0);
    ASSERT_TRUE(res.ok()) << res.error->message;
    ASSERT_EQ(res.hist.ops.size(), 2u);
    const operation* w = res.hist.find(op_id{0, 0});
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->kind, op_kind::write);
    EXPECT_EQ(w->value, 5);
    EXPECT_EQ(w->real_accesses.size(), 2u);
    const operation* r = res.hist.find(op_id{2, 0});
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->kind, op_kind::read);
    EXPECT_EQ(r->value, 5);
    EXPECT_EQ(r->real_accesses.size(), 3u);
}

TEST(ParseHistory, SecondInvocationMeansCrashRecovery) {
    // A processor invoking again without a response crashed mid-operation:
    // the first operation is kept as pending.
    std::vector<event> g;
    g.push_back(sim_ev(event_kind::sim_invoke_read, 2, 0));
    g.push_back(sim_ev(event_kind::sim_invoke_read, 2, 1));
    const parse_result res = parse_history(g, 0);
    ASSERT_TRUE(res.ok());
    ASSERT_EQ(res.hist.ops.size(), 2u);
    EXPECT_FALSE(res.hist.ops[0].complete());
    EXPECT_FALSE(res.hist.ops[1].complete());
}

TEST(ParseHistory, RejectsResponseWithoutInvocation) {
    std::vector<event> g;
    g.push_back(sim_ev(event_kind::sim_respond_read, 2, 0, 1));
    EXPECT_FALSE(parse_history(g, 0).ok());
}

TEST(ParseHistory, RejectsStaleObservedWrite) {
    std::vector<event> g;
    g.push_back(sim_ev(event_kind::sim_invoke_write, 0, 0, 5));
    g.push_back(real_ev(event_kind::real_write, 0, 0, 0, false, 5));
    g.push_back(sim_ev(event_kind::sim_respond_write, 0, 0));
    g.push_back(sim_ev(event_kind::sim_invoke_read, 2, 0));
    // Claims to observe the initial value although position 1 wrote reg 0.
    g.push_back(real_ev(event_kind::real_read, 0, 2, 0, false, 0));
    EXPECT_FALSE(parse_history(g, 0).ok());
}

// The recorder's op index and the register's access_context op must name
// the same operation; a real access tagged with another op is a recording
// bug, not something to attribute silently.
TEST(ParseHistory, RejectsRealAccessOfAnotherOp) {
    std::vector<event> g;
    g.push_back(sim_ev(event_kind::sim_invoke_write, 0, 1, 5));
    g.push_back(real_ev(event_kind::real_read, 1, 0, 0, false, 0));
    const parse_result res = parse_history(g, 0);
    ASSERT_FALSE(res.ok());
    EXPECT_NE(res.error->message.find("op index"), std::string::npos)
        << res.error->message;
}

TEST(ParseHistory, KeepsCrashedWriteAsPending) {
    std::vector<event> g;
    g.push_back(sim_ev(event_kind::sim_invoke_write, 0, 0, 5));
    g.push_back(real_ev(event_kind::real_read, 1, 0, 0, false, 0));
    // No real write, no response: the writer crashed.
    const parse_result res = parse_history(g, 0);
    ASSERT_TRUE(res.ok());
    ASSERT_EQ(res.hist.ops.size(), 1u);
    EXPECT_FALSE(res.hist.ops[0].complete());
}

TEST(ParseHistory, FormatsEvents) {
    std::vector<event> g;
    g.push_back(sim_ev(event_kind::sim_invoke_write, 0, 0, 5));
    const parse_result res = parse_history(g, 0);
    ASSERT_TRUE(res.ok());
    EXPECT_NE(format_history(res.hist).find("W_start"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

TEST(Stats, SequentialHistoryHasNoOverlap) {
    std::vector<event> g;
    g.push_back(sim_ev(event_kind::sim_invoke_write, 0, 0, 5));
    g.push_back(sim_ev(event_kind::sim_respond_write, 0, 0));
    g.push_back(sim_ev(event_kind::sim_invoke_read, 2, 0));
    g.push_back(sim_ev(event_kind::sim_respond_read, 2, 0, 5));
    const parse_result res = parse_history(g, 0);
    ASSERT_TRUE(res.ok());
    const history_stats s = compute_stats(res.hist);
    EXPECT_EQ(s.operations, 2u);
    EXPECT_EQ(s.writes, 1u);
    EXPECT_EQ(s.reads, 1u);
    EXPECT_EQ(s.pending, 0u);
    EXPECT_EQ(s.processors, 2u);
    EXPECT_EQ(s.max_concurrency, 1u);
    EXPECT_EQ(s.overlapping_pairs, 0u);
    EXPECT_EQ(s.contended_ops, 0u);
}

TEST(Stats, OverlappingOpsCounted) {
    std::vector<event> g;
    g.push_back(sim_ev(event_kind::sim_invoke_write, 0, 0, 5));   // pos 0
    g.push_back(sim_ev(event_kind::sim_invoke_read, 2, 0));       // pos 1
    g.push_back(sim_ev(event_kind::sim_invoke_read, 3, 0));       // pos 2
    g.push_back(sim_ev(event_kind::sim_respond_read, 3, 0, 0));   // pos 3
    g.push_back(sim_ev(event_kind::sim_respond_read, 2, 0, 5));   // pos 4
    g.push_back(sim_ev(event_kind::sim_respond_write, 0, 0));     // pos 5
    const parse_result res = parse_history(g, 0);
    ASSERT_TRUE(res.ok());
    const history_stats s = compute_stats(res.hist);
    EXPECT_EQ(s.max_concurrency, 3u);
    EXPECT_EQ(s.overlapping_pairs, 3u);  // all three pairwise overlap
    EXPECT_EQ(s.contended_ops, 3u);
}

TEST(Stats, PendingOpOverlapsEverythingAfterIt) {
    std::vector<event> g;
    g.push_back(sim_ev(event_kind::sim_invoke_write, 0, 0, 5));  // crashes
    g.push_back(sim_ev(event_kind::sim_invoke_read, 2, 0));
    g.push_back(sim_ev(event_kind::sim_respond_read, 2, 0, 5));
    const parse_result res = parse_history(g, 0);
    ASSERT_TRUE(res.ok());
    const history_stats s = compute_stats(res.hist);
    EXPECT_EQ(s.pending, 1u);
    EXPECT_EQ(s.overlapping_pairs, 1u);
    EXPECT_EQ(s.max_concurrency, 2u);
}

TEST(Stats, FormatMentionsTheNumbers) {
    history_stats s;
    s.operations = 7;
    s.writes = 3;
    s.reads = 4;
    s.max_concurrency = 2;
    const std::string text = format_stats(s);
    EXPECT_NE(text.find("7"), std::string::npos);
    EXPECT_NE(text.find("max 2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Serialization.
// ---------------------------------------------------------------------------

std::vector<event> sample_gamma() {
    std::vector<event> g;
    g.push_back(sim_ev(event_kind::sim_invoke_write, 0, 0, 5));
    g.push_back(real_ev(event_kind::real_read, 1, 0, 0, true, -3));
    g.push_back(real_ev(event_kind::real_write, 0, 0, 0, true, 5));
    g.push_back(sim_ev(event_kind::sim_respond_write, 0, 0));
    g.push_back(sim_ev(event_kind::sim_invoke_read, 2, 0));
    g.push_back(real_ev(event_kind::real_read, 0, 2, 0, true, 5, 2));
    g.push_back(real_ev(event_kind::real_read, 1, 2, 0, true, -3));
    g.push_back(real_ev(event_kind::real_read, 0, 2, 0, true, 5, 2));
    g.push_back(sim_ev(event_kind::sim_respond_read, 2, 0, 5));
    return g;
}

TEST(Serialize, RoundTripsExactly) {
    const std::vector<event> g = sample_gamma();
    std::ostringstream os;
    write_gamma(os, g, 7);
    std::istringstream is(os.str());
    const gamma_parse_result res = read_gamma(is);
    ASSERT_TRUE(res.ok()) << *res.error;
    EXPECT_EQ(res.initial, 7);
    ASSERT_EQ(res.gamma.size(), g.size());
    for (std::size_t i = 0; i < g.size(); ++i) {
        EXPECT_EQ(res.gamma[i].kind, g[i].kind) << i;
        EXPECT_EQ(res.gamma[i].processor, g[i].processor) << i;
        EXPECT_EQ(res.gamma[i].op, g[i].op) << i;
        EXPECT_EQ(res.gamma[i].reg, g[i].reg) << i;
        EXPECT_EQ(res.gamma[i].tag, g[i].tag) << i;
        EXPECT_EQ(res.gamma[i].value, g[i].value) << i;
        EXPECT_EQ(res.gamma[i].observed_write, g[i].observed_write) << i;
    }
}

TEST(Serialize, ToleratesCommentsAndBlankLines) {
    std::istringstream is(
        "# a comment\n"
        "\n"
        "gamma v1 initial=3\n"
        "W_start proc=0 op=0 value=9   # trailing comment\n"
        "\n"
        "W_finish proc=0 op=0 value=0\n");
    const gamma_parse_result res = read_gamma(is);
    ASSERT_TRUE(res.ok()) << *res.error;
    EXPECT_EQ(res.initial, 3);
    EXPECT_EQ(res.gamma.size(), 2u);
    EXPECT_EQ(res.gamma[0].value, 9);
}

TEST(Serialize, RejectsMissingHeader) {
    std::istringstream is("W_start proc=0 op=0 value=9\n");
    EXPECT_FALSE(read_gamma(is).ok());
}

TEST(Serialize, RejectsUnknownEventKind) {
    std::istringstream is("gamma v1 initial=0\nW_zap proc=0 op=0\n");
    EXPECT_FALSE(read_gamma(is).ok());
}

TEST(Serialize, RejectsMalformedField) {
    std::istringstream is("gamma v1 initial=0\nW_start proc=zero op=0\n");
    EXPECT_FALSE(read_gamma(is).ok());
}

// Regression cases: malformed header numbers used to escape as uncaught
// exceptions (check_history aborted). They must come back as errors that
// name the line.
TEST(SerializeRegression, HeaderInitialNotANumber) {
    std::istringstream is("gamma v1 initial=x\n");
    const gamma_parse_result res = read_gamma(is);
    ASSERT_FALSE(res.ok());
    EXPECT_NE(res.error->find("line 1"), std::string::npos) << *res.error;
    EXPECT_NE(res.error->find("initial=x"), std::string::npos) << *res.error;
}

TEST(SerializeRegression, HeaderInitialOverflows) {
    std::istringstream is(
        "# archived run\ngamma v1 initial=99999999999999999999\n");
    const gamma_parse_result res = read_gamma(is);
    ASSERT_FALSE(res.ok());
    EXPECT_NE(res.error->find("line 2"), std::string::npos) << *res.error;
}

TEST(SerializeRegression, HeaderInitialTrailingGarbage) {
    std::istringstream is("gamma v1 initial=5x\n");
    EXPECT_FALSE(read_gamma(is).ok());
}

/// The error read_gamma returns for a one-event archive.
std::string event_error(const std::string& event_line) {
    std::istringstream is("gamma v1 initial=0\n" + event_line + "\n");
    const gamma_parse_result res = read_gamma(is);
    return res.ok() ? std::string("accepted") : *res.error;
}

TEST(SerializeRegression, EventValueTrailingGarbage) {
    EXPECT_EQ(event_error("W_start proc=0 op=0 value=5x"),
              "line 2: bad number in field 'value=5x'");
}

TEST(SerializeRegression, EventProcOverflows) {
    EXPECT_EQ(event_error("R_start proc=70000 op=0 value=0"),
              "line 2: bad number in field 'proc=70000'");
}

TEST(SerializeRegression, EventProcNegative) {
    EXPECT_EQ(event_error("R_start proc=-1 op=0 value=0"),
              "line 2: bad number in field 'proc=-1'");
}

TEST(SerializeRegression, EventRegOverflows) {
    EXPECT_EQ(event_error("real_write proc=0 op=0 reg=256 tag=0 value=1"),
              "line 2: bad number in field 'reg=256'");
}

TEST(SerializeRegression, EventObservedNegative) {
    EXPECT_EQ(event_error("real_read proc=2 op=0 reg=0 tag=0 value=0 "
                          "observed=-1"),
              "line 2: bad number in field 'observed=-1'");
}

TEST(SerializeRegression, EventTagNotABit) {
    EXPECT_EQ(event_error("real_write proc=0 op=0 reg=0 tag=2 value=1"),
              "line 2: bad number in field 'tag=2'");
}

TEST(Serialize, RoundTripParsesBackToSameHistory) {
    const std::vector<event> g = sample_gamma();
    std::ostringstream os;
    write_gamma(os, g, 0);
    std::istringstream is(os.str());
    const gamma_parse_result back = read_gamma(is);
    ASSERT_TRUE(back.ok());
    const parse_result a = parse_history(g, 0);
    const parse_result b = parse_history(back.gamma, back.initial);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(format_history(a.hist), format_history(b.hist));
}

TEST(Workload, UniqueValuesNeverCollide) {
    std::set<value_t> seen;
    for (processor_id p = 0; p < 4; ++p) {
        for (std::uint32_t c = 0; c < 100; ++c) {
            EXPECT_TRUE(seen.insert(unique_value(p, c)).second);
            EXPECT_NE(unique_value(p, c), 0);
        }
    }
}

TEST(Workload, GeneratesRequestedShape) {
    workload_config cfg;
    cfg.writers = 2;
    cfg.readers = 3;
    cfg.ops_per_writer = 40;
    cfg.ops_per_reader = 25;
    const workload w = make_workload(cfg, 1234);
    ASSERT_EQ(w.scripts.size(), 5u);
    EXPECT_EQ(w.scripts[0].size(), 40u);
    EXPECT_EQ(w.scripts[4].size(), 25u);
    for (std::size_t r = 2; r < 5; ++r) {
        for (const workload_op& op : w.scripts[r]) {
            EXPECT_EQ(op.kind, op_kind::read);
        }
    }
}

TEST(Workload, WriterReadFractionRespected) {
    workload_config cfg;
    cfg.ops_per_writer = 400;
    cfg.writer_read_num = 1;
    cfg.writer_read_den = 2;
    const workload w = make_workload(cfg, 99);
    int reads = 0;
    for (const workload_op& op : w.scripts[0]) reads += (op.kind == op_kind::read);
    EXPECT_GT(reads, 120);
    EXPECT_LT(reads, 280);
}

TEST(Workload, DeterministicAcrossCalls) {
    workload_config cfg;
    const workload a = make_workload(cfg, 7);
    const workload b = make_workload(cfg, 7);
    ASSERT_EQ(a.scripts.size(), b.scripts.size());
    for (std::size_t i = 0; i < a.scripts.size(); ++i) {
        ASSERT_EQ(a.scripts[i].size(), b.scripts[i].size());
        for (std::size_t j = 0; j < a.scripts[i].size(); ++j) {
            EXPECT_EQ(a.scripts[i][j].kind, b.scripts[i][j].kind);
            EXPECT_EQ(a.scripts[i][j].value, b.scripts[i][j].value);
        }
    }
}

}  // namespace
}  // namespace bloom87
