// The high-throughput front end: the stamped recorder and rings with the
// seq merge, and the bounded-memory streaming checker.
//
// Pins that the streaming verdict matches the post-hoc checker on the same
// history (including known-violating faulty runs), plus the streaming
// checker's bounded-memory and mid-stream-detection behavior, and its
// quiescent-cut/candidate-set corner cases fed as hand-built event
// sequences. (tests/harness_test.cpp pins the seeded merges byte for byte.)
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/checkers.hpp"
#include "harness/driver.hpp"
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

// Three producers wrap 16-slot rings thousands of times while the merger
// drains them live: every event arrives exactly once, in seq order. Then a
// full ring's try_reserve sees a slot the consumer just freed at once --
// the producer's copy of the consumer index is reloaded before "full".
TEST(ThreadLog, LiveMergeWrapsSmallRings) {
    constexpr std::size_t producers = 3;
    constexpr op_index ops_per_producer = 50000;  // two events per op
    std::vector<std::unique_ptr<event_ring>> rings;
    std::vector<event_ring*> rp;
    for (std::size_t p = 0; p < producers; ++p) {
        rings.push_back(std::make_unique<event_ring>(16));
        rp.push_back(rings.back().get());
    }
    ASSERT_EQ(rings[0]->capacity(), 16u);
    seq_source seqs;
    std::vector<std::thread> pool;
    for (std::size_t p = 0; p < producers; ++p) {
        pool.emplace_back([&, p] {
            event_ring& ring = *rings[p];
            const auto proc = static_cast<processor_id>(p);
            for (op_index i = 0; i < ops_per_producer; ++i) {
                ring.reserve(2);  // at the op boundary, as recorders do
                ring.push(seqs.draw(), inv_r(proc, i));
                ring.push(seqs.draw(), resp_r(proc, i, 0));
            }
            ring.finish();
        });
    }
    ring_merger merger(rp);
    stamped_event se;
    std::uint64_t expect = 0;
    std::vector<std::uint64_t> next_event(producers, 0);
    bool in_order = true;
    while (merger.next(&se)) {
        const auto p = static_cast<std::size_t>(se.e.processor);
        // seq k is the k-th stamp drawn, and processor p's events arrive in
        // program order: invocation, then response, of op 0, 1, ...
        in_order = in_order && se.seq == expect && p < producers &&
                   se.e.op == next_event[p] / 2 &&
                   is_invocation(se.e.kind) == (next_event[p] % 2 == 0);
        if (p < producers) ++next_event[p];
        ++expect;
    }
    for (std::thread& t : pool) t.join();
    EXPECT_TRUE(in_order) << "first bad event near seq " << expect;
    EXPECT_EQ(expect, producers * ops_per_producer * 2);
    EXPECT_EQ(seqs.issued(), expect);

    // The rings' indices now sit far past their capacity. Refill one
    // (this thread is its producer now) and free one slot.
    event_ring& ring = *rings[0];
    while (ring.try_reserve(1)) ring.push(seqs.draw(), inv_r(0, 0));
    ASSERT_TRUE(ring.peek(&se));
    ring.pop();
    EXPECT_TRUE(ring.try_reserve(1)) << "a popped slot stayed invisible";
    EXPECT_FALSE(ring.try_reserve(2));

    // A consumer that knows what was pushed may pop without peeking; peek
    // must still see the drained ring as empty, then the next push.
    ring.push(seqs.draw(), inv_r(0, 1));
    for (std::size_t i = 0; i < ring.capacity(); ++i) ring.pop();
    EXPECT_FALSE(ring.peek(&se)) << "peek read past the last push";
    ring.push(seqs.draw(), inv_r(0, 2));
    ASSERT_TRUE(ring.peek(&se));
    EXPECT_EQ(se.e.op, 2u);
}

// The merger hands a ring's slots back in batches of at most a quarter ring,
// and before next() returns false: after k records of a ring are emitted its
// producer sees at least k - capacity/4 free slots, and once the merge is
// over every slot of every ring is back.
TEST(ThreadLog, MergerHandsSlotsBackPerBatch) {
    event_ring a(16);
    event_ring b(16);
    const std::size_t cap = a.capacity();
    ASSERT_EQ(cap, 16u);
    seq_source seqs;
    // This thread produces both rings: a full ring a, then three records on
    // b stamped after all of a's, so the merger emits a's first and never
    // waits.
    while (a.try_reserve(1)) a.push(seqs.draw(), inv_r(0, 0));
    for (int i = 0; i < 3; ++i) b.push(seqs.draw(), inv_r(1, 0));
    event_ring* rings[] = {&a, &b};
    ring_merger merger(rings);
    stamped_event se;
    for (std::size_t k = 1; k <= cap; ++k) {
        ASSERT_TRUE(merger.next(&se));
        ASSERT_EQ(se.e.processor, processor_id{0});
        if (k > cap / 4) {
            EXPECT_TRUE(a.try_reserve(k - cap / 4))
                << k << " records emitted, fewer slots freed";
        }
    }
    // Fewer than a batch more on a: both rings end with slots held.
    for (int i = 0; i < 2; ++i) a.push(seqs.draw(), inv_r(0, 1));
    a.finish();
    b.finish();
    std::size_t rest = 0;
    while (merger.next(&se)) ++rest;
    EXPECT_EQ(rest, 5u);
    EXPECT_TRUE(a.try_reserve(cap)) << "a slot of ring a stayed held";
    EXPECT_TRUE(b.try_reserve(cap)) << "a slot of ring b stayed held";
}

// Real concurrency through the per-processor buffers: the stamp merge of a
// threads-mode run still parses and checks atomic (the fetch_add order is a
// legal serialization of the recording instants).
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
    spec.collect = collect_mode::per_thread;
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

// Known-violating faulty runs across window x stride: the streaming
// checker must flag what the post-hoc pipeline flags, mid-stream, with a
// finite op latency between injection and detection. Every cell's
// detection position is pinned (a checkpoint may reorder its work, never
// move a verdict), and the diagnosis is the checker's, never an internal
// error.
TEST(StreamingChecker, CatchesInjectedFaultsMidStream) {
    // Window 4096 outlasts every run: nothing retires before detection, so
    // the judged cut runs far ahead of the retirement cut.
    constexpr unsigned windows[] = {0, 8, 64, 4096};
    constexpr unsigned strides[] = {1, 16, 64};
    struct row {
        fault_class cls;
        std::uint64_t seed;
        std::uint64_t detection_pos[4][3];  ///< [window][stride]
    };
    const row golden[] = {
        {fault_class::stale_read,
         3,
         {{42, 48, 64}, {42, 48, 64}, {42, 48, 64}, {42, 48, 64}}},
        {fault_class::stale_read,
         7,
         {{84, 96, 128}, {84, 96, 128}, {84, 96, 128}, {84, 96, 128}}},
        {fault_class::lost_write,
         3,
         {{28, 32, 64}, {28, 32, 64}, {28, 32, 64}, {28, 32, 64}}},
        {fault_class::lost_write,
         7,
         {{102, 112, 128}, {102, 112, 128}, {102, 112, 128}, {102, 112, 128}}},
        {fault_class::torn_value,
         3,
         {{28, 32, 64}, {28, 32, 64}, {28, 32, 64}, {28, 32, 64}}},
        {fault_class::torn_value,
         7,
         {{102, 112, 128}, {102, 112, 128}, {102, 112, 128}, {102, 112, 128}}},
        {fault_class::delayed_visibility,
         3,
         {{28, 32, 64}, {28, 32, 64}, {28, 32, 64}, {28, 32, 64}}},
        {fault_class::delayed_visibility,
         7,
         {{102, 112, 128}, {102, 112, 128}, {102, 112, 128}, {102, 112, 128}}},
    };
    for (const row& r : golden) {
        for (std::size_t w = 0; w < 4; ++w) {
            for (std::size_t s = 0; s < 3; ++s) {
                run_spec spec = faulty_stream_spec(r.cls, r.seed);
                spec.stream_window = windows[w];
                spec.stream_stride = strides[s];
                const run_result res = run(spec);
                const std::string where =
                    std::string(fault_class_name(r.cls)) + " seed " +
                    std::to_string(r.seed) + " window " +
                    std::to_string(windows[w]) + " stride " +
                    std::to_string(strides[s]);
                ASSERT_TRUE(res.ok) << where << ": " << res.error;
                EXPECT_GT(res.faults_injected.total(), 0u) << where;
                ASSERT_TRUE(res.stream.ran) << where;
                EXPECT_TRUE(res.stream.violation)
                    << where << ": corruption went unnoticed";
                ASSERT_NE(res.faults_injected.first_injection, no_event)
                    << where;
                EXPECT_GT(res.stream.detection_pos,
                          res.faults_injected.first_injection)
                    << where;
                EXPECT_EQ(res.stream.detection_pos, r.detection_pos[w][s])
                    << where;
                EXPECT_LT(res.stream.latency_ops,
                          res.total_reads + res.total_writes)
                    << where;
                EXPECT_EQ(res.stream.diagnosis.find("internal error"),
                          std::string::npos)
                    << where << ": " << res.stream.diagnosis;

                const pipeline_result checks = run_checkers(
                    res.events, spec.initial, {checker_kind::fast});
                ASSERT_TRUE(checks.parsed) << where << ": "
                                           << checks.parse_error;
                EXPECT_FALSE(checks.verdicts[0].pass)
                    << where
                    << ": batch checker disagrees with the streaming verdict";
            }
        }
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
    // A stale read is a violation of the history, not of the checker.
    EXPECT_NE(chk.diagnosis().find("no write produced"), std::string::npos)
        << chk.diagnosis();
    EXPECT_EQ(chk.diagnosis().find("checker defect"), std::string::npos)
        << chk.diagnosis();
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
    EXPECT_NE(chk.diagnosis().find("no write produced"), std::string::npos)
        << chk.diagnosis();
    EXPECT_EQ(chk.diagnosis().find("checker defect"), std::string::npos)
        << chk.diagnosis();
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

// Once its processor invokes again, a grace-expired operation can no longer
// respond: a response arriving after that is a malformed stream. (The
// checker keeps no crashed id past that invocation, so its memory stays
// flat however many operations crash.)
TEST(StreamingChecker, LateResponseAfterNextInvocationIsMalformed) {
    streaming_config cfg = tiny_window();
    cfg.pending_grace = 4;
    streaming_checker chk(7, cfg);
    chk.ingest(inv_w(0, 0, 101));
    for (op_index i = 0; i < 3; ++i) read_of(chk, 2, i, 7);
    EXPECT_EQ(chk.stats().pending_carried, 1u);
    chk.ingest(inv_w(0, 1, 102));  // processor 0 moved on
    chk.ingest(resp_w(0, 1));
    ASSERT_FALSE(chk.violation_found()) << chk.diagnosis();
    chk.ingest(resp_w(0, 0));
    EXPECT_TRUE(chk.violation_found());
    EXPECT_NE(chk.diagnosis().find("malformed stream"), std::string::npos)
        << chk.diagnosis();
}

// ------------------------------------------------ pinned checker outputs --

// The benchmark ledger's recorded shape: bloom/packed on the seeded
// schedule, 2 writers + 1 reader, every op paced 1/8, 40k ops each.
[[nodiscard]] const run_result& ledger_shaped_run() {
    static const run_result res = [] {
        run_spec spec;
        spec.register_name = "bloom/packed";
        spec.seed = 1;
        spec.schedule = schedule_mode::seeded;
        spec.collect = collect_mode::per_thread;
        spec.load.writers = 2;
        spec.load.readers = 1;
        spec.load.ops_per_writer = 40000;
        spec.load.ops_per_reader = 40000;
        spec.pace.writer_pace_num = 1;
        spec.pace.writer_pace_den = 8;
        spec.pace.reader_pace_num = 1;
        spec.pace.reader_pace_den = 8;
        spec.pace.pause_yields = 4;
        return run(spec);
    }();
    return res;
}

// FNV-1a over the witness's (processor, op) ids, in linearization order.
[[nodiscard]] std::uint64_t witness_hash(const std::vector<operation>& w) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t x) {
        for (int b = 0; b < 8; ++b) {
            h ^= (x >> (8 * b)) & 0xffU;
            h *= 0x100000001b3ULL;
        }
    };
    for (const operation& op : w) {
        mix(static_cast<std::uint64_t>(op.id.processor));
        mix(op.id.op);
    }
    return h;
}

// check_fast's witness is the smallest-ready-node-first topological order
// of its write-order graph; any rewrite of the checker must keep it.
TEST(PinnedOutputs, FastWitnessOnLedgerHistory) {
    const run_result& res = ledger_shaped_run();
    ASSERT_TRUE(res.ok) << res.error;
    const parse_result parsed = parse_history(res.events, 0);
    ASSERT_TRUE(parsed.ok());
    const fast_check_result fast = check_fast(parsed.hist.ops, 0);
    ASSERT_TRUE(fast.ok()) << *fast.defect;
    ASSERT_TRUE(fast.linearizable) << fast.diagnosis;
    EXPECT_EQ(fast.witness.size(), 120000u);
    EXPECT_EQ(witness_hash(fast.witness), 0xac0a3729b4741cb9ULL)
        << std::hex << witness_hash(fast.witness);
}

[[nodiscard]] operation make_op(processor_id proc, op_index idx, op_kind kind,
                                value_t v, event_pos inv, event_pos resp) {
    operation op;
    op.id = op_id{proc, idx};
    op.kind = kind;
    op.value = v;
    op.invoked = inv;
    op.responded = resp;
    return op;
}

// One fast_checker over histories that grow and shrink and mix every
// outcome answers each exactly as a fresh check_fast does: no state left
// in its work arrays by one check reaches the next.
TEST(FastChecker, ReusedMatchesFresh) {
    const run_result& res = ledger_shaped_run();
    ASSERT_TRUE(res.ok) << res.error;
    const parse_result parsed = parse_history(res.events, 0);
    ASSERT_TRUE(parsed.ok());
    const std::vector<operation>& ledger = parsed.hist.ops;
    ASSERT_GE(ledger.size(), 20000u);
    const auto slice = [&](std::size_t from, std::size_t count) {
        const auto b = ledger.begin() + static_cast<std::ptrdiff_t>(from);
        return std::vector<operation>(b, b + static_cast<std::ptrdiff_t>(count));
    };
    constexpr op_kind w = op_kind::write;
    constexpr op_kind r = op_kind::read;
    const std::vector<operation> clean{  // linearizes as w(2) r(2) w(1) r(1)
        make_op(0, 0, w, 1, 0, 3), make_op(1, 0, w, 2, 1, 5),
        make_op(2, 0, r, 2, 2, 4), make_op(2, 1, r, 1, 6, 7)};
    const std::vector<operation> cyclic{  // 1 reappears after 2 was read
        make_op(0, 0, w, 1, 0, 1), make_op(1, 0, w, 2, 2, 3),
        make_op(2, 0, r, 2, 4, 5), make_op(2, 1, r, 1, 6, 7)};
    const std::vector<operation> duplicate{
        make_op(0, 0, w, 5, 0, 1), make_op(1, 0, w, 5, 2, 3)};
    const std::vector<operation> writes_initial{
        make_op(0, 0, w, 3, 0, 1), make_op(1, 0, w, 0, 2, 3)};
    const std::vector<operation> unwritten{
        make_op(0, 0, w, 0x0F, 0, 1), make_op(2, 0, r, 0xFF, 2, 3)};
    const std::vector<operation> from_future{
        make_op(2, 0, r, 1, 0, 1), make_op(0, 0, w, 1, 2, 3)};
    const std::vector<operation> pending_decided{
        make_op(0, 0, w, 1, 0, no_event), make_op(2, 0, r, 1, 1, 2),
        make_op(1, 0, w, 3, 3, 4), make_op(2, 1, r, 3, 5, 6)};
    const std::vector<operation> cases[] = {
        slice(0, 20000), clean, slice(0, 300), cyclic, slice(0, 5000),
        duplicate, slice(1000, 2000), writes_initial, {}, unwritten,
        slice(0, 12000), from_future, pending_decided, slice(0, 20),
        cyclic, slice(0, 20000), clean};
    fast_checker reused;
    for (std::size_t c = 0; c < std::size(cases); ++c) {
        const std::vector<operation>& h = cases[c];
        const fast_check_result got = reused.check(h, 0);
        const fast_check_result want = check_fast(h, 0);
        EXPECT_EQ(got.linearizable, want.linearizable) << "case " << c;
        EXPECT_EQ(got.diagnosis, want.diagnosis) << "case " << c;
        EXPECT_EQ(got.defect, want.defect) << "case " << c;
        EXPECT_TRUE(got.witness.empty()) << "case " << c;
        const std::vector<const operation*>& seq = reused.witness();
        ASSERT_EQ(seq.size(), want.witness.size()) << "case " << c;
        for (std::size_t k = 0; k < seq.size(); ++k) {
            ASSERT_TRUE(seq[k]->id == want.witness[k].id)
                << "case " << c << ", witness position " << k;
        }
    }
}

// The `verified` settings (window = stride = 4096) over the ledger history
// with one write's response cut out: the writer's next invocation makes it
// pending, and a later read decides it. Verdict, every retirement counter
// and the ops handed to check_fast are pinned.
TEST(PinnedOutputs, StreamingStatsAtVerifiedSettings) {
    const run_result& res = ledger_shaped_run();
    ASSERT_TRUE(res.ok) << res.error;
    std::vector<event> evs = res.events;
    ASSERT_GE(evs.size(), 100000u);
    // The first write read back after event 2000 crashes: its response is
    // cut out of the stream.
    const auto after = [&](std::size_t from, auto pred) {
        std::size_t i = from;
        while (i < evs.size() && !pred(evs[i])) ++i;
        return i;
    };
    const std::size_t read = after(2000, [](const event& e) {
        return e.kind == event_kind::sim_respond_read && e.value != 0;
    });
    ASSERT_LT(read, evs.size());
    const std::size_t inv = after(0, [&](const event& e) {
        return e.kind == event_kind::sim_invoke_write &&
               e.value == evs[read].value;
    });
    ASSERT_LT(inv, evs.size());
    const std::size_t resp = after(inv, [&](const event& e) {
        return e.kind == event_kind::sim_respond_write &&
               e.processor == evs[inv].processor && e.op == evs[inv].op;
    });
    ASSERT_LT(resp, evs.size());
    evs.erase(evs.begin() + static_cast<std::ptrdiff_t>(resp));

    streaming_config cfg;
    cfg.window = 4096;
    cfg.stride = 4096;
    streaming_checker chk(0, cfg);
    for (const event& e : evs) chk.ingest(e);
    EXPECT_FALSE(chk.finish()) << chk.diagnosis();
    const streaming_stats& s = chk.stats();
    EXPECT_EQ(s.events, evs.size());
    EXPECT_EQ(s.checkpoints, 59u);
    EXPECT_EQ(s.retire_batches, 57u);
    EXPECT_EQ(s.ops_retired, 116735u);
    EXPECT_EQ(s.peak_retained_ops, 4100u);
    EXPECT_EQ(s.candidate_values, 1u);
    EXPECT_EQ(s.pending_carried, 0u);
    EXPECT_EQ(s.ops_checked, 136554u);
}

// Each completed op reaches check_fast about once, whatever the stride:
// the judged cut follows the frontier, and retirement probes nothing.
TEST(StreamingChecker, EachOpIsCheckedAboutOnce) {
    const run_result& res = ledger_shaped_run();
    ASSERT_TRUE(res.ok) << res.error;
    for (const std::size_t stride : {4096, 256, 64}) {
        streaming_config cfg;
        cfg.window = 4096;
        cfg.stride = stride;
        streaming_checker chk(0, cfg);
        for (const event& e : res.events) chk.ingest(e);
        ASSERT_FALSE(chk.finish()) << chk.diagnosis();
        const streaming_stats& s = chk.stats();
        EXPECT_LE(static_cast<double>(s.ops_checked),
                  1.25 * static_cast<double>(s.ops_completed))
            << "stride " << stride << ": " << s.ops_checked
            << " ops checked for " << s.ops_completed << " completed";
    }
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
