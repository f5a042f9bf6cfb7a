// The net/ substrate: deterministic bus delivery, ABD quorum replication,
// the two-bit bounded-control construction, and their harness composition.
// Everything the message-passing layer promises: same seed => byte-identical
// merged history, loss/duplication stay within the configured bounds while
// retransmission preserves liveness, quorum operations survive f server
// crashes, the streaming checker agrees with the batch checker on net
// histories, and the bounded ABD model certifies the protocol under POR.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "harness/checkers.hpp"
#include "harness/driver.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/net_processes.hpp"
#include "net/abd.hpp"
#include "net/twobit.hpp"

namespace bloom87 {
namespace {

using namespace bloom87::harness;

[[nodiscard]] run_spec net_spec(const std::string& name, std::size_t writers,
                                std::uint64_t seed) {
    run_spec spec;
    spec.register_name = name;
    spec.load.writers = writers;
    spec.load.readers = 2;
    spec.load.ops_per_writer = 60;
    spec.load.ops_per_reader = 60;
    spec.seed = seed;
    spec.collect = collect_mode::per_thread;
    // Determinism is a property of the seeded schedule (threads-mode runs
    // interleave for real); every test here wants reproducible histories.
    spec.schedule = schedule_mode::seeded;
    return spec;
}

[[nodiscard]] bool same_events(const std::vector<event>& a,
                               const std::vector<event>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].kind != b[i].kind || a[i].processor != b[i].processor ||
            a[i].op != b[i].op || a[i].value != b[i].value) {
            return false;
        }
    }
    return true;
}

TEST(NetDeterminism, DifferentSeedsDiverge) {
    const run_result a = run(net_spec("net/abd-mw", 2, 1));
    const run_result b = run(net_spec("net/abd-mw", 2, 2));
    ASSERT_TRUE(a.ok && b.ok);
    // Different workload AND bus seeds: some counter must move.
    EXPECT_TRUE(a.net.sent != b.net.sent || !same_events(a.events, b.events));
}

// FNV-1a over every event's (kind, processor, op, value), in merged order.
[[nodiscard]] std::uint64_t history_hash(const std::vector<event>& evs) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t x) {
        for (int b = 0; b < 8; ++b) {
            h ^= (x >> (8 * b)) & 0xffU;
            h *= 0x100000001b3ULL;
        }
    };
    for (const event& e : evs) {
        mix(static_cast<std::uint64_t>(e.kind));
        mix(e.processor);
        mix(e.op);
        mix(static_cast<std::uint64_t>(e.value));
    }
    return h;
}

// The benchmark's net_faulty settings (benchmark/workloads.cpp): paced ops
// on the seeded schedule under loss, delay and crash-recovery.
[[nodiscard]] run_spec faulty_net_spec(const std::string& name,
                                       std::size_t writers, std::size_t ops) {
    run_spec spec;
    spec.register_name = name;
    spec.net_servers = 3;
    spec.seed = 1;
    spec.schedule = schedule_mode::seeded;
    spec.collect = collect_mode::per_thread;
    spec.load.writers = writers;
    spec.load.readers = 1;
    spec.load.ops_per_writer = ops;
    spec.load.ops_per_reader = ops;
    spec.pace.writer_pace_num = 1;
    spec.pace.writer_pace_den = 8;
    spec.pace.reader_pace_num = 1;
    spec.pace.reader_pace_den = 8;
    spec.pace.pause_yields = 4;
    spec.fault.composed = {{fault_class::lost_write, 1, 100},
                           {fault_class::delayed_visibility, 1, 50},
                           {fault_class::port_crash, 1, 20000}};
    spec.fault.recover_after = 2000;
    spec.fault.seed = 1;
    return spec;
}

// Every seeded bus schedule is a pure function of its seeds, and the bus's
// delivery path may be rewritten only if it keeps it: the same rng draws
// in the same order must pick the same messages. These counters and
// history hashes pin one schedule per composition, FIFO (twobit) included:
// the simulated events alone, and the full gamma with the replica touches.
TEST(NetDeterminism, PinnedSchedules) {
    struct pinned {
        run_spec spec;
        std::uint64_t sent, delivered, lost, delayed, rounds, retransmissions,
            recoveries, events, hash, gamma_events, gamma_hash;
    };
    run_spec twobit = faulty_net_spec("net/twobit", 1, 2000);
    twobit.load.readers = 2;
    // The fault matrix's composed recovery row.
    twobit.fault.composed = {{fault_class::lost_write, 1, 64},
                             {fault_class::port_crash, 1, 64},
                             {fault_class::delayed_visibility, 1, 64}};
    twobit.fault.recover_after = 40;
    const std::vector<pinned> cases = {
        {faulty_net_spec("net/abd-mw", 2, 20000), 548647, 540353, 8293,
         11160, 92092, 341, 6, 120000, 0x52178f5605c480bdULL, 391526,
         0xf43209b702a309cfULL},
        {faulty_net_spec("net/abd-swmr", 1, 20000), 246654, 242793, 3860,
         5094, 41429, 154, 3, 80000, 0xa721d1b4c5c131baULL, 201984,
         0xcc65cfe5b58bd350ULL},
        {twobit, 35045, 32937, 2108, 514, 6000, 304, 204, 12000,
         0x68a47f15782e1dddULL, 28189, 0x0ea24f2d89f3d34cULL},
    };
    for (const pinned& c : cases) {
        SCOPED_TRACE(c.spec.register_name);
        const run_result r = run(c.spec);
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.net.sent, c.sent);
        EXPECT_EQ(r.net.delivered, c.delivered);
        EXPECT_EQ(r.net.lost, c.lost);
        EXPECT_EQ(r.net.delayed, c.delayed);
        EXPECT_EQ(r.net.rounds, c.rounds);
        EXPECT_EQ(r.net.retransmissions, c.retransmissions);
        EXPECT_EQ(r.net.recoveries, c.recoveries);
        std::vector<event> sim;
        for (const event& e : r.events) {
            if (!is_real(e.kind)) sim.push_back(e);
        }
        EXPECT_EQ(sim.size(), c.events);
        EXPECT_EQ(history_hash(sim), c.hash)
            << std::hex << "0x" << history_hash(sim);
        EXPECT_EQ(r.events.size(), c.gamma_events);
        EXPECT_EQ(history_hash(r.events), c.gamma_hash)
            << std::hex << "0x" << history_hash(r.events);
    }
}

// --- report plumbing -------------------------------------------------------

TEST(NetStats, SurfaceThroughTheDriver) {
    const run_result res = run(net_spec("net/abd-swmr", 1, 7));
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_TRUE(res.net.ran);
    EXPECT_EQ(res.net.servers, 3u);
    EXPECT_EQ(res.net.quorum, 2u);
    EXPECT_EQ(res.net.ops, res.total_reads + res.total_writes);
    // SWMR: writes are 1 round; reads 1 (fast) or 2.
    EXPECT_GE(res.net.rounds, res.net.ops);
    EXPECT_LE(res.net.rounds, 2 * res.net.ops);
    EXPECT_GT(res.net.sent, 0u);
    EXPECT_GE(res.net.sent, res.net.delivered);
    // Non-net registers must not grow a net block.
    run_spec mem = net_spec("bloom/packed", 2, 7);
    const run_result memres = run(mem);
    ASSERT_TRUE(memres.ok) << memres.error;
    EXPECT_FALSE(memres.net.ran);
}

// --- loss / duplication bounds and liveness --------------------------------

// With lossy and duplicating delivery the phase retransmission machinery
// must keep every operation terminating, the observed loss/dup counts must
// stay plausibly near their configured rates, and the result must still be
// atomic (ABD's whole point).
TEST(NetBus, LossAndDuplicationBoundedAndLive) {
    net::abd_config cfg;
    cfg.servers = 3;
    cfg.clients = 3;
    cfg.writers = 1;
    cfg.multi_writer = false;
    cfg.bus.seed = 99;
    cfg.bus.loss_num = 1;
    cfg.bus.loss_den = 8;
    cfg.bus.dup_num = 1;
    cfg.bus.dup_den = 8;
    net::abd_system sys(cfg);
    for (int i = 1; i <= 50; ++i) {
        ASSERT_TRUE(sys.write(0, static_cast<value_t>(i)));
        const std::optional<value_t> r1 = sys.read(1);
        const std::optional<value_t> r2 = sys.read(2);
        // Sequential ops: each read must return the just-written value.
        EXPECT_EQ(r1, static_cast<value_t>(i));
        EXPECT_EQ(r2, static_cast<value_t>(i));
    }
    const net::net_counters c = sys.counters();
    EXPECT_EQ(c.ops, 150u);
    EXPECT_GT(c.lost, 0u);
    EXPECT_GT(c.duplicated, 0u);
    EXPECT_GT(c.retransmissions, 0u);  // loss forces re-broadcasts
    // Rates: ~1/8 each with generous slack (seeded, not adversarial).
    EXPECT_LT(c.lost, c.sent / 3);
    EXPECT_LT(c.duplicated, c.sent / 3);
    EXPECT_GT(c.delivered, 0u);
}

TEST(NetBus, DelayKnobDefersButDelivers) {
    net::abd_config cfg;
    cfg.servers = 3;
    cfg.clients = 2;
    cfg.writers = 1;
    cfg.bus.seed = 5;
    cfg.bus.delay_num = 1;
    cfg.bus.delay_den = 4;
    cfg.bus.delay_steps = 5;
    net::abd_system sys(cfg);
    for (int i = 1; i <= 30; ++i) {
        ASSERT_TRUE(sys.write(0, static_cast<value_t>(i)));
        EXPECT_EQ(sys.read(1), static_cast<value_t>(i));
    }
    const net::net_counters c = sys.counters();
    EXPECT_GT(c.delayed, 0u);
    EXPECT_EQ(c.ops, 60u);
}

// --- quorum liveness under server crashes ----------------------------------

TEST(NetAbd, SurvivesMaxCrashes) {
    net::abd_config cfg;
    cfg.servers = 5;
    cfg.clients = 4;
    cfg.writers = 2;
    cfg.multi_writer = true;
    net::abd_system sys(cfg);
    EXPECT_EQ(sys.quorum(), 3u);
    EXPECT_EQ(sys.max_crashes(), 2u);
    ASSERT_TRUE(sys.write(0, 10));
    sys.crash_server(0);
    EXPECT_EQ(sys.read(2), 10);
    ASSERT_TRUE(sys.write(1, 20));
    sys.crash_server(3);
    // f = 2 of 5 down: a quorum of 3 still answers every phase.
    EXPECT_EQ(sys.read(3), 20);
    ASSERT_TRUE(sys.write(0, 30));
    EXPECT_EQ(sys.read(2), 30);
    const net::net_counters c = sys.counters();
    EXPECT_EQ(c.server_crashes, 2u);
    EXPECT_EQ(c.ops, 6u);
}

TEST(NetTwobit, SurvivesOneCrashOfThree) {
    net::twobit_config cfg;
    cfg.servers = 3;
    cfg.clients = 3;
    net::twobit_system sys(cfg);
    ASSERT_TRUE(sys.write(5));
    sys.crash_server(1);
    EXPECT_EQ(sys.read(1), 5);
    ASSERT_TRUE(sys.write(6));
    EXPECT_EQ(sys.read(2), 6);
}

// --- crash-recovery lifecycle ----------------------------------------------

// A crashed server rejoins with EMPTY state under a new incarnation, runs
// the state-transfer catch-up against its live peers, and then serves
// again as a full quorum member: after the rejoin the ORIGINAL quorum
// partner may crash, so a correct answer proves the recovered replica
// really holds the frontier value.
TEST(NetRecovery, AbdRejoinCatchesUpAndServes) {
    net::abd_config cfg;
    cfg.servers = 3;
    cfg.clients = 3;
    cfg.writers = 1;
    net::abd_system sys(cfg);
    ASSERT_TRUE(sys.write(0, 10));
    sys.crash_server(0);
    ASSERT_TRUE(sys.write(0, 20));  // lands on the live quorum {1, 2}
    sys.recover_server(0);
    EXPECT_EQ(sys.server_incarnation(0), 1u);
    // Recovery completed, so the crash budget is free again: take down one
    // of the servers that held 20 all along. The remaining quorum must
    // include the recovered replica -- and still answer 20.
    sys.crash_server(1);
    EXPECT_EQ(sys.read(1), 20);
    ASSERT_TRUE(sys.write(0, 30));
    EXPECT_EQ(sys.read(2), 30);
    const net::net_counters c = sys.counters();
    EXPECT_EQ(c.recoveries, 1u);
    EXPECT_GE(c.catchup_rounds, 1u);
}

// Messages addressed to a server's PREVIOUS incarnation must be rejected
// at delivery: a write in flight when the server went down may leave
// protocol messages parked in the bus, and replaying them into the reborn
// empty replica would resurrect state the recovery contract erased.
TEST(NetRecovery, StaleIncarnationMessagesRejected) {
    net::abd_config cfg;
    cfg.servers = 3;
    cfg.clients = 3;
    cfg.writers = 1;
    cfg.bus.seed = 17;
    // Duplication keeps extra copies of every protocol message in flight
    // past the quorum ack that completes each phase.
    cfg.bus.dup_num = 1;
    cfg.bus.dup_den = 2;
    net::abd_system sys(cfg);
    for (int i = 1; i <= 8; ++i) {
        ASSERT_TRUE(sys.write(0, static_cast<value_t>(i)));
    }
    // Crash with those leftovers still in flight, then rejoin: the bus now
    // delivers them to incarnation 1 while they are stamped for 0.
    sys.crash_server(0);
    sys.recover_server(0);
    ASSERT_TRUE(sys.write(0, 100));
    EXPECT_EQ(sys.read(1), 100);
    EXPECT_EQ(sys.read(2), 100);
    const net::net_counters c = sys.counters();
    EXPECT_GT(c.stale_inc_drops, 0u);
    EXPECT_EQ(c.recoveries, 1u);
}

// The lifecycle is re-entrant per server: crash / recover / crash /
// recover of the SAME replica bumps the incarnation each time and each
// catch-up restores the then-current frontier.
TEST(NetRecovery, DoubleCrashRecoverSameServer) {
    net::abd_config cfg;
    cfg.servers = 3;
    cfg.clients = 3;
    cfg.writers = 1;
    net::abd_system sys(cfg);
    ASSERT_TRUE(sys.write(0, 1));
    sys.crash_server(2);
    ASSERT_TRUE(sys.write(0, 2));
    sys.recover_server(2);
    EXPECT_EQ(sys.server_incarnation(2), 1u);
    sys.crash_server(2);
    ASSERT_TRUE(sys.write(0, 3));
    sys.recover_server(2);
    EXPECT_EQ(sys.server_incarnation(2), 2u);
    // Both original holders of 3 may not fail at once, but either ALONE
    // may: the recovered replica plus the other must answer 3.
    sys.crash_server(0);
    EXPECT_EQ(sys.read(1), 3);
    const net::net_counters c = sys.counters();
    EXPECT_EQ(c.recoveries, 2u);
    EXPECT_GE(c.catchup_rounds, 2u);
}

// Catch-up with the rest of the crash budget already spent: 5 servers
// tolerate f = 2; with one server crash-stopped for good, a second one
// still completes recovery against the remaining live peers -- the
// ">= 1 live holder per completed write" argument at its boundary.
TEST(NetRecovery, RecoveryWithMaxCrashesOutstanding) {
    net::abd_config cfg;
    cfg.servers = 5;
    cfg.clients = 3;
    cfg.writers = 1;
    net::abd_system sys(cfg);
    ASSERT_TRUE(sys.write(0, 10));
    sys.crash_server(0);
    sys.crash_server(1);  // f = 2: both down at once is still tolerated
    sys.recover_server(0);
    EXPECT_EQ(sys.server_incarnation(0), 1u);
    EXPECT_EQ(sys.read(1), 10);
    // s1 is still down; crash another original holder. Quorum = 3 of the
    // live {0, and two of 2..4}: only correct if s0 caught up to 10.
    sys.crash_server(2);
    EXPECT_EQ(sys.read(2), 10);
    ASSERT_TRUE(sys.write(0, 11));
    EXPECT_EQ(sys.read(1), 11);
    EXPECT_EQ(sys.counters().recoveries, 1u);
}

// The twobit composition recovers through the same lifecycle: the reborn
// replica is caught up via the out-of-band full-version transfer, so the
// writer's every-live-replica install keeps the mod-4 codes consecutive
// afterwards (no unfillable gap, no livelock).
TEST(NetRecovery, TwobitRejoinCatchesUp) {
    net::twobit_config cfg;
    cfg.servers = 3;
    cfg.clients = 3;
    net::twobit_system sys(cfg);
    ASSERT_TRUE(sys.write(1));
    sys.crash_server(0);
    ASSERT_TRUE(sys.write(2));
    ASSERT_TRUE(sys.write(3));
    sys.recover_server(0);
    EXPECT_EQ(sys.server_incarnation(0), 1u);
    sys.crash_server(1);
    // The recovered replica must serve the frontier (or the writer's next
    // install fills it): sequential reads must keep seeing latest writes.
    EXPECT_EQ(sys.read(1), 3);
    for (int i = 4; i <= 12; ++i) {
        ASSERT_TRUE(sys.write(static_cast<value_t>(i)));
        EXPECT_EQ(sys.read(2), static_cast<value_t>(i));
    }
    const net::net_counters c = sys.counters();
    EXPECT_EQ(c.recoveries, 1u);
    EXPECT_GE(c.catchup_rounds, 1u);
}

// Plan-driven recovery through the driver: a composed crash+recover plan
// under the SEEDED schedule must give byte-identical histories and
// identical recovery counters across runs -- recovery schedules are part
// of the reproducibility contract -- and the recovered history must still
// check atomic.
TEST(NetRecovery, SeededRecoveryScheduleDeterministic) {
    run_spec spec = net_spec("net/abd-mw", 2, 13);
    spec.fault.composed.push_back({fault_class::port_crash, 1, 32});
    spec.fault.recover_after = 40;
    spec.fault.seed = 7;
    const run_result a = run(spec);
    const run_result b = run(spec);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_TRUE(same_events(a.events, b.events));
    EXPECT_EQ(a.net.recoveries, b.net.recoveries);
    EXPECT_EQ(a.net.catchup_rounds, b.net.catchup_rounds);
    EXPECT_EQ(a.net.stale_inc_drops, b.net.stale_inc_drops);
    EXPECT_GE(a.net.recoveries, 1u);
    EXPECT_EQ(a.net.unavailable_ops, 0u);  // within budget: never starved
    const pipeline_result checks =
        run_checkers(a.events, spec.initial, {checker_kind::fast});
    ASSERT_TRUE(checks.parsed) << checks.parse_error;
    EXPECT_TRUE(checks.verdicts[0].pass) << checks.verdicts[0].diagnosis;
}

// Servers crash often and rejoin one delivery later. A crash swallows only
// the messages TO the dead server, so acks it sent before dying are still
// in flight when it rejoins empty.
[[nodiscard]] run_spec quick_rejoin_spec(const std::string& name,
                                         std::size_t writers, bool delay,
                                         std::uint64_t seed) {
    run_spec spec;
    spec.register_name = name;
    spec.net_servers = 3;
    spec.seed = seed;
    spec.schedule = schedule_mode::seeded;
    spec.collect = collect_mode::per_thread;
    spec.load.writers = writers;
    spec.load.readers = 2;
    spec.load.ops_per_writer = 300;
    spec.load.ops_per_reader = 300;
    spec.pace.writer_pace_num = 1;
    spec.pace.writer_pace_den = 2;
    spec.pace.reader_pace_num = 1;
    spec.pace.reader_pace_den = 2;
    spec.pace.pause_yields = 4;
    spec.fault.composed = {{fault_class::port_crash, 1, 8}};
    if (delay) {
        spec.fault.composed.push_back({fault_class::delayed_visibility, 1, 4});
    }
    spec.fault.recover_after = 1;
    spec.fault.seed = seed;
    return spec;
}

[[nodiscard]] bool checks_atomic(const run_spec& spec, std::string* why) {
    const run_result res = run(spec);
    if (!res.ok) {
        *why = res.error;
        return false;
    }
    const pipeline_result checks =
        run_checkers(res.events, spec.initial, {checker_kind::fast});
    *why = checks.parsed ? checks.verdicts[0].diagnosis : checks.parse_error;
    return checks.parsed && checks.verdicts[0].pass;
}

// An ack counts for the incarnation that SENT it. Crediting a pre-crash
// ack that lands after the rejoin to the reborn, empty server lets a
// quorum include an erased copy (the new/old inversion of docs/NET.md §5).
// Each seed here broke atomicity that way.
TEST(NetRecovery, AcksFromAPreviousIncarnationAreVoid) {
    struct repro {
        const char* name;
        std::size_t writers;
        bool delay;
        std::vector<std::uint64_t> seeds;
    };
    for (const repro& r : std::vector<repro>{
             {"net/abd-mw", 2, true, {53, 104, 109, 134, 152, 168, 177, 191}},
             {"net/abd-mw", 2, false, {54, 95}},
             {"net/abd-swmr", 1, true, {60, 123, 124, 197}}}) {
        for (std::uint64_t seed : r.seeds) {
            std::string why;
            EXPECT_TRUE(checks_atomic(
                quick_rejoin_spec(r.name, r.writers, r.delay, seed), &why))
                << r.name << (r.delay ? " crash+delay" : " crash")
                << " seed " << seed << ": " << why;
        }
    }
}

TEST(NetRecovery, QuickRejoinSweepStaysAtomic) {
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        std::string why;
        EXPECT_TRUE(checks_atomic(
            quick_rejoin_spec("net/abd-mw", 2, true, seed), &why))
            << "seed " << seed << ": " << why;
    }
}

// --- graceful degradation: the driver's global op deadline -----------------

// Regression for the quorum-unavailability wedge: crash a MAJORITY during
// a timed run (crash budget raised past f, no recovery) and the run must
// still return within duration + grace, with the starved ops surfaced as
// dropped-but-accounted instead of hanging their workers.
TEST(NetDriver, MajorityCrashTimedRunDoesNotWedge) {
    run_spec spec;
    spec.register_name = "net/abd-mw";
    spec.load.writers = 2;
    spec.load.readers = 2;
    spec.seed = 5;
    spec.duration_ms = 100;
    spec.grace_ms = 400;
    spec.collect = collect_mode::none;
    spec.schedule = schedule_mode::threads;
    spec.fault.composed.push_back({fault_class::port_crash, 1, 4});
    spec.fault.crash_budget = 3;  // all three replicas may die: no quorum
    spec.fault.seed = 3;
    const run_result res = run(spec);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_GE(res.net.server_crashes, 2u);  // majority gone
    EXPECT_GT(res.net.unavailable_ops, 0u);
    // Unavailable ops ride the PR-8 accounting seam.
    EXPECT_GE(res.ops_dropped, res.net.unavailable_ops);
}

// --- twobit sequential sanity ----------------------------------------------

TEST(NetTwobit, SequentialReadsSeeLatestWrite) {
    net::twobit_config cfg;
    net::twobit_system sys(cfg);
    EXPECT_EQ(sys.read(1), 0);  // initial
    for (int i = 1; i <= 40; ++i) {
        ASSERT_TRUE(sys.write(static_cast<value_t>(i)));
        EXPECT_EQ(sys.read(1), static_cast<value_t>(i));
        EXPECT_EQ(sys.read(2), static_cast<value_t>(i));
    }
}

// --- harness composition: checkers agree -----------------------------------

// Concurrent histories off the net compositions must check atomic, and the
// bounded-memory streaming checker must agree with the batch verdict on
// the same events -- the net compositions are just another substrate to
// the checking stack.
TEST(NetHarness, StreamingAgreesWithBatchChecker) {
    for (std::uint64_t seed : {3u, 11u, 29u}) {
        run_spec spec = net_spec("net/abd-mw", 2, seed);
        spec.schedule = schedule_mode::threads;  // real concurrency + monitor
        spec.collect = collect_mode::per_thread;
        spec.streaming_monitor = true;
        const run_result res = run(spec);
        ASSERT_TRUE(res.ok) << res.error;
        ASSERT_TRUE(res.stream.ran);
        EXPECT_FALSE(res.stream.violation) << res.stream.diagnosis;
        const pipeline_result checks =
            run_checkers(res.events, spec.initial, {checker_kind::fast});
        ASSERT_TRUE(checks.parsed) << checks.parse_error;
        ASSERT_TRUE(checks.verdicts[0].ran);
        EXPECT_EQ(checks.verdicts[0].pass, !res.stream.violation)
            << "seed " << seed << ": " << checks.verdicts[0].diagnosis;
    }
}

TEST(NetHarness, FaultSpecRejectedOffTheFaultFamilies) {
    run_spec spec = net_spec("bloom/packed", 2, 1);
    spec.fault.cls = fault_class::lost_write;
    spec.fault.rate_num = 1;
    spec.fault.rate_den = 8;
    const run_result res = run(spec);
    EXPECT_FALSE(res.ok);
    // ...but accepted on a net/ composition.
    run_spec netspec = net_spec("net/abd-mw", 2, 1);
    netspec.fault.cls = fault_class::lost_write;
    netspec.fault.rate_num = 1;
    netspec.fault.rate_den = 16;
    const run_result netres = run(netspec);
    ASSERT_TRUE(netres.ok) << netres.error;
    EXPECT_GT(netres.faults_injected.lost_writes, 0u);
    // Message loss is tolerated, not an atomicity break.
    const pipeline_result checks =
        run_checkers(netres.events, netspec.initial, {checker_kind::fast});
    ASSERT_TRUE(checks.parsed);
    EXPECT_TRUE(checks.verdicts[0].pass) << checks.verdicts[0].diagnosis;
}

// --- bounded model: ABD certification smoke --------------------------------

// The full 3-server certification configs live in the model_explorer CI
// job (per-phase quorum CHOICE is what costs: 41M label paths for SWMR);
// these pin the model itself at the 2-server bound -- every phase contacts
// both servers, so the quorum-choice fanout collapses but the protocol
// logic, the conditional adopts, and the reductions all still run.
TEST(NetModel, AbdSwmrAtomicUnderPorAndSymmetry) {
    mc::abd_model_config cfg;
    cfg.servers = 2;
    cfg.quorum = 2;  // f = 0: intersection still holds
    mc::explore_config ecfg;
    const mc::explore_result res =
        mc::explore(mc::make_abd_state(cfg), ecfg);
    ASSERT_FALSE(res.truncated);
    EXPECT_TRUE(res.property_holds)
        << (res.first_violation ? res.first_violation->diagnosis : "");
    EXPECT_TRUE(res.reduction.engaged);
    EXPECT_TRUE(res.reduction.symmetry);
    EXPECT_TRUE(res.reduction.symmetry_warning.empty());
    EXPECT_EQ(res.reduction.symmetry_group, 2u);  // the two readers
}

TEST(NetModel, AbdMwAtomicTwoWriters) {
    mc::abd_model_config cfg;
    cfg.servers = 2;
    cfg.quorum = 2;
    cfg.writers = 2;
    cfg.multi_writer = true;
    cfg.readers = 1;
    mc::explore_config ecfg;
    const mc::explore_result res =
        mc::explore(mc::make_abd_state(cfg), ecfg);
    ASSERT_FALSE(res.truncated);
    EXPECT_TRUE(res.property_holds)
        << (res.first_violation ? res.first_violation->diagnosis : "");
    EXPECT_TRUE(res.reduction.engaged);
}

// Crash/rejoin mid-history: an environment step erases one server and
// catches it up from its peers at a scheduler-chosen instant, with the
// implementation's install-ack invalidation. Atomicity must survive every
// placement of that step -- certifying the recovery design (amnesia-safe
// write quorums + catch-up from all live peers) at the model level.
// THE invalidation-certifying configuration: 3 servers / quorum 2 (the
// smallest wiring where a later quorum can exclude the surviving copy) and
// one reader performing two SEQUENTIAL reads (program order gives the
// completed-read-then-stale-read pair for free, with one fewer process to
// interleave than two single-read readers). Mutation-tested both ways:
// with invalidation scoped to install visits only, this run finds the read
// fast path's new/old inversion (stale pre-crash ack + fresh re-install
// read as "unanimous") within ~151k label paths; with the crash step
// absent it reduces to the plain SWMR certification. ~4.4M label paths.
TEST(NetModel, AbdSwmrAtomicUnderCrashRejoin) {
    mc::abd_model_config cfg;
    cfg.servers = 3;
    cfg.quorum = 2;
    cfg.readers = 1;
    cfg.reads_each = 2;
    cfg.crash_rejoin = true;
    cfg.crash_server_id = 0;
    mc::explore_config ecfg;
    ecfg.max_states = 10'000'000;
    const mc::explore_result res =
        mc::explore(mc::make_abd_state(cfg), ecfg);
    ASSERT_FALSE(res.truncated);
    EXPECT_TRUE(res.property_holds)
        << (res.first_violation ? res.first_violation->diagnosis : "");
}

// The expensive one: TWO writers (query + install, both subject to
// install-ack invalidation) racing the crash step and a reader, covering
// the MW machinery -- query-max arithmetic, tiebreaks, and catch-up --
// under rebirth. At 2 servers every quorum contains both, so a lone
// surviving copy is always read and this size CANNOT see the invalidation
// bugs (that is AbdSwmrAtomicUnderCrashRejoin's job, and 3-server MW
// exceeds 600M label paths -- infeasible here). The crash step is
// dependent with nearly every protocol step, so the label-path enumeration
// runs ~116M paths (~27 s): budget raised accordingly.
TEST(NetModel, AbdMwAtomicUnderCrashRejoin) {
    mc::abd_model_config cfg;
    cfg.servers = 2;
    cfg.quorum = 2;
    cfg.writers = 2;
    cfg.multi_writer = true;
    cfg.readers = 1;
    cfg.crash_rejoin = true;
    cfg.crash_server_id = 1;
    mc::explore_config ecfg;
    ecfg.max_states = 130'000'000;
    const mc::explore_result res =
        mc::explore(mc::make_abd_state(cfg), ecfg);
    ASSERT_FALSE(res.truncated);
    EXPECT_TRUE(res.property_holds)
        << (res.first_violation ? res.first_violation->diagnosis : "");
}

// Mutation fixture: a quorum too small to intersect (1 of 3) must exhibit
// a violation -- proving the model can SEE quorum bugs, so its passes mean
// something.
TEST(NetModel, NonIntersectingQuorumsViolate) {
    mc::abd_model_config cfg;
    cfg.quorum = 1;
    cfg.writers = 1;
    cfg.multi_writer = false;
    cfg.readers = 2;
    mc::explore_config ecfg;
    const mc::explore_result res =
        mc::explore(mc::make_abd_state(cfg), ecfg);
    EXPECT_FALSE(res.property_holds);
    ASSERT_TRUE(res.first_violation.has_value());
    EXPECT_FALSE(res.first_violation->diagnosis.empty());
}

}  // namespace
}  // namespace bloom87
