// The high-throughput front end: per-thread lock-free collection with the
// deterministic seq merge, and the bounded-memory streaming checker.
//
// Pins the two properties the collection rework promises -- seeded runs
// merge byte-identically, and the streaming verdict matches the post-hoc
// checker on the same history (including known-violating faulty runs) --
// plus the streaming checker's bounded-memory and mid-stream-detection
// behavior, and its quiescent-cut/candidate-set corner cases fed as
// hand-built event sequences.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "harness/checkers.hpp"
#include "harness/driver.hpp"
#include "histories/serialize.hpp"
#include "histories/thread_log.hpp"
#include "linearizability/fast_register.hpp"
#include "linearizability/streaming.hpp"

namespace bloom87 {
namespace {

using namespace bloom87::harness;

// ------------------------------------------------ hand-built event helpers --

[[nodiscard]] event inv_w(processor_id p, op_index op, value_t v) {
    event e;
    e.kind = event_kind::sim_invoke_write;
    e.processor = p;
    e.op = op;
    e.value = v;
    return e;
}
[[nodiscard]] event resp_w(processor_id p, op_index op) {
    event e;
    e.kind = event_kind::sim_respond_write;
    e.processor = p;
    e.op = op;
    return e;
}
[[nodiscard]] event inv_r(processor_id p, op_index op) {
    event e;
    e.kind = event_kind::sim_invoke_read;
    e.processor = p;
    e.op = op;
    return e;
}
[[nodiscard]] event resp_r(processor_id p, op_index op, value_t v) {
    event e;
    e.kind = event_kind::sim_respond_read;
    e.processor = p;
    e.op = op;
    e.value = v;
    return e;
}

void read_of(streaming_checker& chk, processor_id p, op_index op, value_t v) {
    chk.ingest(inv_r(p, op));
    chk.ingest(resp_r(p, op, v));
}

[[nodiscard]] streaming_config tiny_window() {
    streaming_config cfg;
    cfg.window = 2;
    cfg.stride = 1;
    return cfg;
}

// ----------------------------------------------------- seq-merge plumbing --

TEST(ThreadLog, SeqMergeOrdersByStamp) {
    event_ring a(8);
    event_ring b(8);
    seq_source seqs;
    // Interleave stamps across the two rings out of push order.
    a.push(seqs.draw(), inv_w(0, 0, 1));   // seq 0
    b.push(seqs.draw(), inv_w(1, 0, 2));   // seq 1
    b.push(seqs.draw(), resp_w(1, 0));     // seq 2
    a.push(seqs.draw(), resp_w(0, 0));     // seq 3
    a.finish();
    b.finish();
    event_ring* rings[] = {&a, &b};
    ring_merger merger(rings);
    stamped_event se;
    std::uint64_t expect = 0;
    while (merger.next(&se)) {
        EXPECT_EQ(se.seq, expect) << "merge emitted out of seq order";
        ++expect;
    }
    EXPECT_EQ(expect, 4u);
    EXPECT_EQ(seqs.issued(), 4u);
}

// Seeded schedule + per_thread collection: the merged history is a pure
// function of the spec -- byte for byte, across repeated runs, with
// pacing-induced overlap in the schedule.
TEST(PerThreadCollection, SeededMergeIsDeterministic) {
    for (std::uint64_t seed : {1ULL, 7ULL, 23ULL}) {
        run_spec spec;
        spec.register_name = "bloom/packed";
        spec.load.writers = 2;
        spec.load.readers = 3;
        spec.load.ops_per_writer = 200;
        spec.load.ops_per_reader = 200;
        spec.seed = seed;
        spec.collect = collect_mode::per_thread;
        spec.schedule = schedule_mode::seeded;
        spec.pace.writer_pace_num = 1;
        spec.pace.writer_pace_den = 4;
        spec.pace.reader_pace_num = 1;
        spec.pace.reader_pace_den = 8;

        const run_result a = run(spec);
        const run_result b = run(spec);
        ASSERT_TRUE(a.ok) << a.error;
        ASSERT_TRUE(b.ok) << b.error;
        ASSERT_FALSE(a.events.empty());
        std::ostringstream ga;
        std::ostringstream gb;
        write_gamma(ga, a.events, 0);
        write_gamma(gb, b.events, 0);
        EXPECT_EQ(ga.str(), gb.str()) << "seed " << seed;

        const pipeline_result checks =
            run_checkers(a.events, spec.initial, {checker_kind::fast});
        ASSERT_TRUE(checks.parsed) << checks.parse_error;
        EXPECT_TRUE(checks.verdicts[0].pass) << checks.verdicts[0].diagnosis;
    }
}

// Real concurrency through the rings: the seq merge of a threads-mode run
// still parses and checks atomic (the fetch_add order is a legal
// serialization of the recording instants).
TEST(PerThreadCollection, ThreadsModeMergeChecksAtomic) {
    run_spec spec;
    spec.register_name = "bloom/packed";
    spec.load.writers = 2;
    spec.load.readers = 2;
    spec.load.ops_per_writer = 400;
    spec.load.ops_per_reader = 400;
    spec.seed = 9;
    spec.collect = collect_mode::per_thread;
    spec.schedule = schedule_mode::threads;
    const run_result res = run(spec);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.events.size(),
              2 * (res.total_reads + res.total_writes));
    const pipeline_result checks =
        run_checkers(res.events, spec.initial, {checker_kind::fast});
    ASSERT_TRUE(checks.parsed) << checks.parse_error;
    EXPECT_TRUE(checks.verdicts[0].pass) << checks.verdicts[0].diagnosis;
}

// ------------------------------------------- streaming vs post-hoc verdict --

// On clean registers the streaming checker must agree with the post-hoc
// fast checker: no violation, and everything eventually retires.
TEST(StreamingChecker, MatchesBatchOnCleanRuns) {
    for (const std::string reg :
         {"bloom/packed", "bloom/seqlock", "bloom/fourslot"}) {
        for (std::uint64_t seed : {2ULL, 5ULL}) {
            run_spec spec;
            spec.register_name = reg;
            spec.load.writers = 2;
            spec.load.readers = 2;
            spec.load.ops_per_writer = 150;
            spec.load.ops_per_reader = 150;
            spec.seed = seed;
            spec.collect = collect_mode::per_thread;
            spec.schedule = schedule_mode::seeded;
            spec.pace.writer_pace_num = 1;
            spec.pace.writer_pace_den = 4;
            spec.streaming_monitor = true;
            spec.stream_window = 64;
            spec.stream_stride = 16;
            const run_result res = run(spec);
            ASSERT_TRUE(res.ok) << reg << ": " << res.error;
            ASSERT_TRUE(res.stream.ran);
            EXPECT_FALSE(res.stream.violation)
                << reg << " seed " << seed << ": " << res.stream.diagnosis;
            EXPECT_GT(res.stream.ops_retired, 0u);

            const pipeline_result checks =
                run_checkers(res.events, spec.initial, {checker_kind::fast});
            ASSERT_TRUE(checks.parsed) << checks.parse_error;
            EXPECT_EQ(checks.verdicts[0].pass, !res.stream.violation)
                << reg << " seed " << seed
                << ": streaming and batch verdicts disagree";
        }
    }
}

[[nodiscard]] run_spec faulty_stream_spec(fault_class cls,
                                          std::uint64_t seed) {
    run_spec spec;
    spec.register_name = "faulty/seqlock";
    spec.load.writers = 2;
    spec.load.readers = 2;
    spec.load.ops_per_writer = 160;
    spec.load.ops_per_reader = 160;
    spec.seed = seed;
    spec.collect = collect_mode::gamma;  // faulty/ records real accesses
    spec.schedule = schedule_mode::seeded;
    spec.fault.cls = cls;
    spec.fault.rate_num = 1;
    spec.fault.rate_den = 32;
    spec.fault.seed = seed;
    spec.streaming_monitor = true;
    spec.stream_window = 64;
    spec.stream_stride = 16;
    return spec;
}

// Known-violating faulty runs: the streaming checker must flag what the
// post-hoc pipeline flags, mid-stream, with a finite op latency between
// injection and detection.
TEST(StreamingChecker, CatchesInjectedFaultsMidStream) {
    for (fault_class cls :
         {fault_class::stale_read, fault_class::lost_write,
          fault_class::torn_value}) {
        const run_spec spec = faulty_stream_spec(cls, 3);
        const run_result res = run(spec);
        ASSERT_TRUE(res.ok) << fault_class_name(cls) << ": " << res.error;
        EXPECT_GT(res.faults_injected.total(), 0u) << fault_class_name(cls);
        ASSERT_TRUE(res.stream.ran);
        EXPECT_TRUE(res.stream.violation)
            << fault_class_name(cls) << ": corruption went unnoticed";
        ASSERT_NE(res.faults_injected.first_injection, no_event);
        EXPECT_GT(res.stream.detection_pos,
                  res.faults_injected.first_injection);
        EXPECT_LT(res.stream.latency_ops,
                  res.total_reads + res.total_writes);

        const pipeline_result checks =
            run_checkers(res.events, spec.initial, {checker_kind::fast});
        ASSERT_TRUE(checks.parsed) << checks.parse_error;
        EXPECT_FALSE(checks.verdicts[0].pass)
            << fault_class_name(cls)
            << ": batch checker disagrees with the streaming verdict";
    }
}

// Bounded memory: a run far larger than the window retains only O(window)
// operations at any instant while retiring nearly everything.
TEST(StreamingChecker, WindowBoundsRetainedOperations) {
    run_spec spec;
    spec.register_name = "bloom/packed";
    spec.load.writers = 2;
    spec.load.readers = 2;
    spec.load.ops_per_writer = 2000;
    spec.load.ops_per_reader = 2000;
    spec.seed = 4;
    spec.collect = collect_mode::per_thread;
    spec.schedule = schedule_mode::seeded;
    spec.streaming_monitor = true;
    spec.stream_window = 256;
    spec.stream_stride = 64;
    const run_result res = run(spec);
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_TRUE(res.stream.ran);
    EXPECT_FALSE(res.stream.violation) << res.stream.diagnosis;
    EXPECT_EQ(res.stream.ops_completed, res.total_reads + res.total_writes);
    // The peak live window must track the configured window, not the run:
    // 8000 ops pass through while at most ~window + stride stay retained.
    EXPECT_LT(res.stream.retained_peak,
              2 * (spec.stream_window + spec.stream_stride));
    EXPECT_GT(res.stream.ops_retired, res.stream.ops_completed / 2);
}

// ----------------------------------- quiescent cut + candidate set corners --

// Two writes that overlap can linearize in either order, so after they
// retire BOTH values are legitimate current values -- until a read decides.
TEST(StreamingChecker, ConcurrentWritesLeaveBothCandidates) {
    for (const value_t chosen : {101LL, 202LL}) {
        streaming_checker chk(7, tiny_window());
        chk.ingest(inv_w(0, 0, 101));
        chk.ingest(inv_w(1, 0, 202));
        chk.ingest(resp_w(0, 0));
        chk.ingest(resp_w(1, 0));
        for (op_index i = 0; i < 4; ++i) read_of(chk, 2, i, chosen);
        EXPECT_FALSE(chk.finish())
            << "reading " << chosen << ": " << chk.diagnosis();
        EXPECT_GT(chk.stats().ops_retired, 0u)
            << "corner never exercised retirement";
    }
}

// ...but once a read commits to one order, the other value is dead: a
// later read of it is a stale read of an overwritten value, and it must be
// caught AFTER the writes have already retired (the candidate set, not the
// retained window, carries the knowledge).
TEST(StreamingChecker, ReadCommitsTheWriteOrderAcrossRetirement) {
    streaming_checker chk(7, tiny_window());
    chk.ingest(inv_w(0, 0, 101));
    chk.ingest(inv_w(1, 0, 202));
    chk.ingest(resp_w(0, 0));
    chk.ingest(resp_w(1, 0));
    for (op_index i = 0; i < 3; ++i) read_of(chk, 2, i, 101);
    EXPECT_FALSE(chk.violation_found());
    EXPECT_GT(chk.stats().ops_retired, 0u);
    read_of(chk, 2, 3, 202);  // 202 was overwritten before the first read
    EXPECT_TRUE(chk.finish()) << "stale read of a retired value survived";
}

// Sequential (non-overlapping) writes leave exactly one candidate; reading
// the overwritten value across the retirement boundary is a violation.
TEST(StreamingChecker, SequentialWritesLeaveOneCandidate) {
    streaming_checker chk(7, tiny_window());
    chk.ingest(inv_w(0, 0, 101));
    chk.ingest(resp_w(0, 0));
    chk.ingest(inv_w(0, 1, 202));
    chk.ingest(resp_w(0, 1));
    for (op_index i = 0; i < 3; ++i) read_of(chk, 2, i, 202);
    EXPECT_FALSE(chk.violation_found());
    EXPECT_GT(chk.stats().ops_retired, 0u);
    read_of(chk, 2, 3, 101);
    EXPECT_TRUE(chk.finish()) << "read of the overwritten value survived";
}

// A write whose port crashed (invocation, never a response) is declared
// crashed after pending_grace events and carried -- undecided -- until a
// read materializes it. Reading the pre-crash value afterwards violates.
TEST(StreamingChecker, PendingWriteDecidedByLaterRead) {
    streaming_config cfg = tiny_window();
    cfg.pending_grace = 4;
    {
        // The crashed write lands: a read observes it, so reads of the old
        // value afterwards are stale.
        streaming_checker chk(7, cfg);
        chk.ingest(inv_w(0, 0, 101));  // never responds
        read_of(chk, 2, 0, 7);
        read_of(chk, 2, 1, 7);
        EXPECT_EQ(chk.stats().pending_carried, 1u)
            << "open write was not declared crashed after the grace";
        read_of(chk, 2, 2, 101);  // the crashed write materializes here
        read_of(chk, 2, 3, 101);
        EXPECT_FALSE(chk.violation_found()) << chk.diagnosis();
        read_of(chk, 2, 4, 7);  // 7 was overwritten by the landed write
        EXPECT_TRUE(chk.finish());
    }
    {
        // The crashed write never lands: reads of the initial value stay
        // valid forever.
        streaming_checker chk(7, cfg);
        chk.ingest(inv_w(0, 0, 101));
        for (op_index i = 0; i < 6; ++i) read_of(chk, 2, i, 7);
        EXPECT_FALSE(chk.finish()) << chk.diagnosis();
    }
}

// A writer that crashed mid-write and recovered invokes its next operation
// while the crashed one is still open. That is not a malformed stream: the
// crashed write becomes pending on the spot (parse_history's reading, long
// before pending_grace), and a later read decides whether it landed.
TEST(StreamingChecker, InvocationAfterCrashedWriteMakesItPending) {
    const auto crashed_then_read = [](value_t later) {
        std::vector<event> evs{inv_w(0, 0, 101),  // crashes: never responds
                               inv_r(0, 1),       // the recovered writer
                               resp_r(0, 1, 7),
                               inv_r(2, 0), resp_r(2, 0, 101),  // it landed
                               inv_r(2, 1), resp_r(2, 1, later)};
        streaming_checker chk(7, tiny_window());
        for (std::size_t i = 0; i < evs.size(); ++i) {
            chk.ingest(evs[i]);
            if (i == 1) {
                EXPECT_FALSE(chk.violation_found()) << chk.diagnosis();
                EXPECT_EQ(chk.stats().pending_carried, 1u);
            }
        }
        const bool streamed = chk.finish();
        const parse_result parsed = parse_history(evs, 7);
        EXPECT_TRUE(parsed.ok());
        const fast_check_result batch = check_fast(parsed.hist.ops, 7);
        EXPECT_EQ(streamed, !batch.linearizable) << chk.diagnosis();
        return streamed;
    };
    EXPECT_FALSE(crashed_then_read(101));
    EXPECT_TRUE(crashed_then_read(7)) << "7 was overwritten by the landed write";
}

// A response arriving after its operation was declared crashed means the
// grace was configured shorter than a real stall: an explicit
// configuration violation, never a silent mis-judgment.
TEST(StreamingChecker, LateResponseAfterGraceIsFlagged) {
    streaming_config cfg = tiny_window();
    cfg.pending_grace = 4;
    streaming_checker chk(7, cfg);
    chk.ingest(inv_w(0, 0, 101));
    for (op_index i = 0; i < 3; ++i) read_of(chk, 2, i, 7);
    chk.ingest(resp_w(0, 0));  // outlived the grace
    EXPECT_TRUE(chk.violation_found());
    EXPECT_NE(chk.diagnosis().find("pending_grace"), std::string::npos)
        << chk.diagnosis();
}

// ------------------------------------------------------- spec validation --

TEST(StreamingSpecs, ValidationRules) {
    run_spec base;
    base.register_name = "bloom/packed";
    base.load.writers = 2;
    base.load.readers = 2;

    {
        // Timed + per_thread is allowed ONLY under the streaming checker.
        run_spec s = base;
        s.duration_ms = 10;
        s.collect = collect_mode::per_thread;
        EXPECT_FALSE(run(s).ok);
        s.streaming_monitor = true;
        const run_result res = run(s);
        EXPECT_TRUE(res.ok) << res.error;
        EXPECT_TRUE(res.stream.ran);
        EXPECT_TRUE(res.events.empty())
            << "timed streaming runs must discard, not retain";
    }
    {
        // The streaming checker needs a collector.
        run_spec s = base;
        s.collect = collect_mode::none;
        s.streaming_monitor = true;
        EXPECT_FALSE(run(s).ok);
    }
    {
        // Clients need a timed threads run, and at least one per worker.
        run_spec s = base;
        s.clients = 8;
        EXPECT_FALSE(run(s).ok);
        s.duration_ms = 10;
        s.collect = collect_mode::none;
        s.clients = 2;  // fewer clients than the 4 workers
        EXPECT_FALSE(run(s).ok);
    }
}

// A timed paced-client run produces the v4 latency block: every op is
// measured from its due time, merged across workers.
TEST(StreamingSpecs, PacedClientsProduceLatency) {
    run_spec spec;
    spec.register_name = "bloom/packed";
    spec.load.writers = 2;
    spec.load.readers = 1;
    spec.duration_ms = 60;
    spec.collect = collect_mode::none;
    spec.clients = 8;
    spec.client_pace_ns = 500000;  // 2k req/s per client: far from saturation
    const run_result res = run(spec);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_GT(res.latency.samples, 0u);
    EXPECT_GT(res.latency.p50_us, 0.0);
    EXPECT_GE(res.latency.p99_us, res.latency.p50_us);
    EXPECT_GE(res.latency.p999_us, res.latency.p99_us);
    EXPECT_GE(res.latency.max_us, res.latency.p999_us);
    EXPECT_GT(res.total_reads + res.total_writes, 0u);
}

}  // namespace
}  // namespace bloom87
