// The run harness itself: registry round-trips, driver determinism, spec
// validation, the pinned seeded histories, and the checker pipeline's skip
// rules.
// Everything a bench or example relies on when it trusts `run()` blindly.
#include <gtest/gtest.h>

#include <set>

#include "harness/checkers.hpp"
#include "harness/cli.hpp"
#include "harness/driver.hpp"
#include "histories/workload.hpp"
#include "util/bits.hpp"

namespace bloom87 {
namespace {

using namespace bloom87::harness;

[[nodiscard]] run_spec smoke_spec(const registry_entry& e) {
    run_spec spec;
    spec.register_name = e.info.name;
    spec.load.writers = e.info.min_writers;
    spec.load.readers = 2;
    spec.load.ops_per_writer = 150;
    spec.load.ops_per_reader = 150;
    spec.seed = 5;
    spec.collect = collect_mode::per_thread;
    return spec;
}

// Acceptance bar for the registry: every name constructs through the
// factory, survives a concurrent smoke run, and -- unless the registry
// itself marks it broken -- passes the fast checker on the recorded
// history.
TEST(HarnessRegistry, EveryNameConstructsRunsAndChecks) {
    ASSERT_FALSE(registry().empty());
    std::set<std::string> seen;
    for (const registry_entry& e : registry()) {
        EXPECT_TRUE(seen.insert(e.info.name).second)
            << "duplicate registry name " << e.info.name;
        const run_spec spec = smoke_spec(e);
        const run_result res = run(spec);
        ASSERT_TRUE(res.ok) << e.info.name << ": " << res.error;
        EXPECT_EQ(res.threads.size(), spec.load.writers + spec.load.readers)
            << e.info.name;

        const pipeline_result checks =
            run_checkers(res.events, spec.initial, {checker_kind::fast});
        ASSERT_TRUE(checks.parsed) << e.info.name << ": " << checks.parse_error;
        ASSERT_TRUE(checks.verdicts[0].ran) << e.info.name;
        if (e.info.expected_atomic) {
            EXPECT_TRUE(checks.verdicts[0].pass)
                << e.info.name << ": " << checks.verdicts[0].diagnosis;
        }
        // The known-broken tournament may or may not get caught on one
        // particular schedule; no assertion either way.
    }
}

TEST(HarnessRegistry, FindRegisterRoundTripsAndRejectsUnknown) {
    for (const registry_entry& e : registry()) {
        const registry_entry* found = find_register(e.info.name);
        ASSERT_NE(found, nullptr) << e.info.name;
        EXPECT_EQ(found->info.name, e.info.name);
    }
    EXPECT_EQ(find_register("no/such-register"), nullptr);
}

// The entries that pack values beside the tag bit in one word carry the
// whole 63-bit signed domain [-2^62, 2^62) -- negative values included --
// through every read path, and reject an initial value outside it instead
// of truncating it.
TEST(HarnessRegistry, PackedEntriesRoundTripTheirValueDomain) {
    const std::set<std::string> packed{"bloom/packed", "baseline/native",
                                       "tournament/native"};
    for (const registry_entry& e : registry()) {
        EXPECT_EQ(e.info.packed_values, packed.contains(e.info.name))
            << e.info.name;
    }
    for (const std::string& name : packed) {
        const registry_entry* e = find_register(name);
        ASSERT_NE(e, nullptr) << name;
        register_args a;
        a.writers = e->info.min_writers;
        a.readers = 1;
        for (value_t v : {value_t{-1}, packed_int64_min, packed_int64_max}) {
            a.initial = v;
            std::string error;
            const std::unique_ptr<any_register> reg =
                make_register(name, a, &error);
            ASSERT_NE(reg, nullptr) << name << ": " << error;
            const std::unique_ptr<any_port> w =
                reg->make_port(0, port_role::writer);
            const std::unique_ptr<any_port> r = reg->make_port(
                static_cast<processor_id>(a.writers), port_role::reader);
            EXPECT_EQ(w->read(), v) << name;
            value_t cached = 0;
            if (w->read_cached(cached)) {
                EXPECT_EQ(cached, v) << name;
            }
            EXPECT_EQ(r->read(), v) << name;
            w->write(-v - 1);  // the opposite edge of the domain
            EXPECT_EQ(r->read(), -v - 1) << name;
        }
        for (value_t v : {packed_int64_max + 1, packed_int64_min - 1}) {
            a.initial = v;
            std::string error;
            EXPECT_EQ(make_register(name, a, &error), nullptr) << name;
            EXPECT_NE(error.find("outside"), std::string::npos) << error;
        }
    }
}

/// What one port answers on a fresh register: the optional operations'
/// return values, and how often read_paced and write_paced run their pause.
struct port_surface {
    bool read_cached;
    bool write_crashed;
    bool stall;
    int read_pauses;
    int write_pauses;
};

/// Every register_info field of one entry, and its writer port 0's and
/// first reader port's surface.
struct pinned_entry {
    const char* name;
    const char* family;
    const char* description;
    std::size_t min_writers, max_writers;
    bool wait_free, records_real_accesses, requires_log, expected_atomic,
        packed_values;
    const char* access_contract;
    port_surface writer, reader;
};

constexpr port_surface bloom_writer{true, true, true, 1, 1};
constexpr port_surface bloom_reader{false, false, true, 1, 1};
constexpr port_surface plain_port{false, false, false, 1, 1};
constexpr port_surface stalling_port{false, false, true, 1, 1};
constexpr port_surface net_reader{false, false, false, 1, 0};

const pinned_entry pinned_entries[] = {
    {"bloom/packed", "bloom",
     "Bloom two-writer over one packed atomic word per real register "
     "(production substrate)",
     2, 2, true, false, false, true, true, "sync", bloom_writer, bloom_reader},
    {"bloom/seqlock", "bloom",
     "Bloom two-writer over seqlock registers (arbitrary-size values; "
     "readers retry during writes)",
     2, 2, true, false, false, true, false, "sync", bloom_writer,
     bloom_reader},
    {"bloom/fourslot", "bloom",
     "Bloom two-writer over the depth-2 ladder: SWMR from SWSR four-slot "
     "registers (footnote 3)",
     2, 2, true, false, false, true, false, "sync", bloom_writer,
     bloom_reader},
    {"bloom/recording", "bloom",
     "Bloom two-writer over the recording substrate (gamma with real "
     "accesses; input to the Section 7 checker)",
     2, 2, true, true, true, true, false, "sync", bloom_writer, bloom_reader},
    {"bloom/plain", "bloom",
     "Bloom two-writer DECLARED over plain (unsynchronized) registers -- "
     "the race checker's expected-fail fixture",
     2, 2, true, true, true, false, false, "plain", bloom_writer,
     bloom_reader},
    {"faulty/seqlock", "faulty",
     "Bloom two-writer over seqlock substrates wrapped in the fault "
     "injector (--fault picks the class; docs/FAULTS.md)",
     2, 2, true, false, false, true, false, "sync", bloom_writer,
     bloom_reader},
    {"faulty/fourslot", "faulty",
     "Bloom two-writer over the fault-injected SWMR-from-SWSR ladder "
     "(substrate faults under the deepest stack)",
     2, 2, true, false, false, true, false, "sync", bloom_writer,
     bloom_reader},
    {"faulty/recording", "faulty",
     "fault-injected recording substrate: corrupted runs keep a full gamma "
     "for forensics and culprit localization",
     2, 2, true, true, true, true, false, "sync", bloom_writer, bloom_reader},
    {"repair/seqlock", "repair",
     "fault-injected seqlock substrates behind the self-healing repair "
     "wrapper: majority-vote reads and verify-rewrite writes mask injected "
     "faults at a measured access-count cost (docs/FAULTS.md)",
     2, 2, true, false, false, true, false, "sync", bloom_writer,
     bloom_reader},
    {"swmr/fourslot", "swmr",
     "the SWMR-from-SWSR ladder alone: 1 writer, n readers over Simpson "
     "four-slot registers",
     1, 1, true, false, false, true, false, "sync", plain_port, plain_port},
    {"va/seqlock", "va",
     "n-writer timestamp register (Vitanyi-Awerbuch style, Section 8's way "
     "forward) over seqlock cells",
     1, 16, true, false, false, true, false, "sync", plain_port, plain_port},
    {"tournament/native", "tournament",
     "the BROKEN four-writer tournament (Section 8) over native atomic "
     "words -- checkers are expected to reject it",
     4, 4, true, false, false, false, true, "sync", stalling_port, plain_port},
    {"net/abd-swmr", "net",
     "ABD quorum replication over the in-process message bus, single "
     "writer: 1-round writes, fast-path reads",
     1, 1, true, true, false, true, false, "lock_region", plain_port,
     net_reader},
    {"net/abd-mw", "net",
     "two-writer ABD: quorum timestamp replication -- the paper's "
     "two-writer register, distributed",
     2, 2, true, true, false, true, false, "lock_region", plain_port,
     net_reader},
    {"net/twobit", "net",
     "Mostefaoui-Raynal bounded-control replication: only two-bit version "
     "codes cross the wire (single writer; reads obstruction-free)",
     1, 1, false, true, false, true, false, "lock_region", plain_port,
     net_reader},
    {"baseline/mutex", "baseline",
     "blocking MRMW register via one mutex (the Section 4 anti-pattern)", 1,
     16, false, false, false, true, false, "sync", stalling_port, plain_port},
    {"baseline/rwlock", "baseline",
     "blocking MRMW register via a readers-writers lock ([CHP])", 1, 16,
     false, false, false, true, false, "sync", stalling_port, plain_port},
    {"baseline/native", "baseline",
     "one native MRMW atomic word (the hardware upper baseline)", 1, 16, true,
     false, false, true, true, "sync", plain_port, plain_port},
};

/// Drives one fresh port through every optional operation of any_port.
void expect_surface(any_port& port, processor_id proc,
                    const port_surface& want) {
    EXPECT_FALSE(port.crashed());
    value_t cached = 0;
    EXPECT_EQ(port.read_cached(cached), want.read_cached);
    EXPECT_EQ(
        port.write_crashed(unique_value(proc, 1), crash_point::after_read),
        want.write_crashed);
    EXPECT_EQ(port.stall([] {}), want.stall);
    int pauses = 0;
    const pause_fn count = [&pauses] { ++pauses; };
    (void)port.read_paced(count);
    EXPECT_EQ(pauses, want.read_pauses);
    pauses = 0;
    port.write_paced(unique_value(proc, 2), count);
    EXPECT_EQ(pauses, want.write_pauses);
}

// The registry's whole surface, entry by entry: every register_info field,
// and what a fresh writer and reader port answer to each optional
// operation. Any rewrite of the entries and their ports keeps all of it.
TEST(HarnessRegistry, EveryEntryKeepsItsInfoAndPortSurface) {
    ASSERT_EQ(registry().size(), std::size(pinned_entries));
    for (std::size_t i = 0; i < registry().size(); ++i) {
        const register_info& got = registry()[i].info;
        const pinned_entry& want = pinned_entries[i];
        SCOPED_TRACE(want.name);
        EXPECT_EQ(got.name, want.name);
        EXPECT_EQ(got.family, want.family);
        EXPECT_EQ(got.description, want.description);
        EXPECT_EQ(got.min_writers, want.min_writers);
        EXPECT_EQ(got.max_writers, want.max_writers);
        EXPECT_EQ(got.wait_free, want.wait_free);
        EXPECT_EQ(got.records_real_accesses, want.records_real_accesses);
        EXPECT_EQ(got.requires_log, want.requires_log);
        EXPECT_EQ(got.expected_atomic, want.expected_atomic);
        EXPECT_EQ(got.packed_values, want.packed_values);
        EXPECT_EQ(got.access_contract, want.access_contract);

        register_args a;
        a.writers = want.min_writers;
        a.readers = 2;
        run_log log(a.writers + a.readers);
        a.log = &log;
        std::string error;
        const std::unique_ptr<any_register> reg =
            make_register(want.name, a, &error);
        ASSERT_NE(reg, nullptr) << error;
        const auto first_reader = static_cast<processor_id>(a.writers);
        const std::unique_ptr<any_port> w =
            reg->make_port(0, port_role::writer);
        const std::unique_ptr<any_port> r =
            reg->make_port(first_reader, port_role::reader);
        expect_surface(*w, 0, want.writer);
        expect_surface(*r, first_reader, want.reader);
    }
}

// make_register checks every argument the driver checks, so a caller that
// builds a register directly gets an error instead of a register over no
// replica (which aborted), 257 replicas, 65 processors (one past the fault
// plan's crash flags), or a fault plan the entry never reads.
TEST(HarnessRegistry, MakeRegisterRejectsWhatTheDriverRejects) {
    const auto expect_rejected = [](const char* name, const register_args& a,
                                    const char* why) {
        SCOPED_TRACE(name);
        std::string error;
        EXPECT_EQ(make_register(name, a, &error), nullptr);
        EXPECT_NE(error.find(why), std::string::npos) << error;
    };
    for (const char* name : {"net/abd-swmr", "net/abd-mw", "net/twobit"}) {
        register_args a;
        a.writers = find_register(name)->info.min_writers;
        a.servers = 0;
        expect_rejected(name, a, "net_servers must be at least 1");
        a.servers = 257;
        expect_rejected(name, a, "at most 256 net servers, got 257");
    }
    register_args a;
    a.readers = 63;
    expect_rejected("bloom/packed", a, "at most 64 processors");
    a.readers = 2;
    a.fault.cls = fault_class::stale_read;
    expect_rejected("bloom/packed", a, "has no fault plan");
}

// A port exists only for a processor of the register, in the role its
// number gives it (writers first): anything else is a caller bug that would
// index past the register's reader ports.
TEST(HarnessRegistryDeathTest, MakePortChecksProcessorAndRole) {
    register_args a;
    a.writers = 1;
    a.readers = 2;
    std::string error;
    const std::unique_ptr<any_register> swmr =
        make_register("swmr/fourslot", a, &error);
    ASSERT_NE(swmr, nullptr) << error;
    EXPECT_DEATH((void)swmr->make_port(0, port_role::reader), "role");
    a.writers = 2;
    const std::unique_ptr<any_register> bloom =
        make_register("bloom/fourslot", a, &error);
    ASSERT_NE(bloom, nullptr) << error;
    EXPECT_DEATH((void)bloom->make_port(4, port_role::reader),
                 "processor outside the register");
}

TEST(HarnessDriver, SameSeedSameWorkload) {
    workload_config cfg;
    cfg.writers = 2;
    cfg.readers = 3;
    cfg.ops_per_writer = 500;
    cfg.ops_per_reader = 400;
    const workload a = make_workload(cfg, 99);
    const workload b = make_workload(cfg, 99);
    ASSERT_EQ(a.scripts.size(), b.scripts.size());
    EXPECT_EQ(a.writers, b.writers);
    for (std::size_t p = 0; p < a.scripts.size(); ++p) {
        ASSERT_EQ(a.scripts[p].size(), b.scripts[p].size()) << "proc " << p;
        for (std::size_t i = 0; i < a.scripts[p].size(); ++i) {
            EXPECT_EQ(a.scripts[p][i].kind, b.scripts[p][i].kind);
            EXPECT_EQ(a.scripts[p][i].value, b.scripts[p][i].value);
        }
    }
    const workload c = make_workload(cfg, 100);
    bool differs = false;
    for (std::size_t p = 0; p < a.scripts.size() && !differs; ++p) {
        for (std::size_t i = 0; i < a.scripts[p].size() && !differs; ++i) {
            differs = a.scripts[p][i].kind != c.scripts[p][i].kind ||
                      a.scripts[p][i].value != c.scripts[p][i].value;
        }
    }
    EXPECT_TRUE(differs) << "different seeds produced identical workloads";
}

/// FNV-1a over every field of every event, each widened to 64 bits.
[[nodiscard]] std::uint64_t gamma_hash(const std::vector<event>& evs) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t x) {
        for (int b = 0; b < 8; ++b) {
            h ^= (x >> (8 * b)) & 0xffU;
            h *= 0x100000001b3ULL;
        }
    };
    for (const event& e : evs) {
        mix(static_cast<std::uint64_t>(e.kind));
        mix(e.reg);
        mix(static_cast<std::uint64_t>(e.processor));
        mix(e.op);
        mix(e.tag ? 1 : 0);
        mix(static_cast<std::uint64_t>(e.value));
        mix(e.observed_write);
    }
    return h;
}

enum plan : std::uint8_t { paced, stale, torn, composed };

/// smoke_spec's shape on the seeded schedule, with paced ops and cached
/// writer reads. The paced plan also crashes writes; the fault plans
/// stream-check with a small window instead.
[[nodiscard]] run_spec pinned_spec(const registry_entry& e, plan p) {
    run_spec spec = smoke_spec(e);
    spec.schedule = schedule_mode::seeded;
    spec.load.ops_per_writer = 120;
    spec.load.ops_per_reader = 120;
    spec.pace.writer_pace_num = 1;
    spec.pace.writer_pace_den = 6;
    spec.pace.reader_pace_num = 1;
    spec.pace.reader_pace_den = 7;
    spec.pace.pause_yields = 8;
    spec.cached_writer_reads = true;
    if (p == paced) {
        spec.pace.crash_num = 1;
        spec.pace.crash_den = 9;
        return spec;
    }
    spec.streaming_monitor = true;
    spec.stream_window = 64;
    spec.stream_stride = 16;
    if (e.info.family == "net") spec.fault.recover_after = 40;
    if (p == stale) {
        spec.fault.cls = fault_class::stale_read;
        spec.fault.rate_den = 32;
        spec.fault.seed = 11;
    } else if (p == torn) {
        spec.fault.cls = fault_class::torn_value;
        spec.fault.rate_den = 24;
        spec.fault.seed = 12;
    } else {
        spec.fault.composed = {{fault_class::lost_write, 1, 16},
                               {fault_class::delayed_visibility, 1, 8},
                               {fault_class::port_crash, 1, 200}};
        spec.fault.seed = 13;
    }
    return spec;
}

/// One pinned seeded run. The defaults mean "nothing injected" and
/// "no violation flagged".
struct golden {
    const char* name;
    plan p;
    std::size_t events;
    std::uint64_t hash;  ///< gamma_hash
    event_pos injection{no_event};
    std::uint64_t detection{0};  ///< stream.detection_pos
    std::uint64_t prefix{0};     ///< stream.detection_prefix
    int culprit_processor{-1};
    op_index culprit_op{0};
};

const golden pinned_runs[] = {
    {"bloom/packed", paced, 945, 0xb0207b769503d8d7},
    {"bloom/seqlock", paced, 945, 0xb0207b769503d8d7},
    {"bloom/fourslot", paced, 945, 0xb0207b769503d8d7},
    {"bloom/recording", paced, 2101, 0x566ea9265e736f9c},
    {"bloom/plain", paced, 2101, 0x566ea9265e736f9c},
    {"faulty/seqlock", paced, 945, 0xb0207b769503d8d7},
    {"faulty/seqlock", stale, 960, 0xe87600e14217b486, 29, 64, 53, 3, 6},
    {"faulty/seqlock", torn, 960, 0xeef86113f0209148, 155, 160, 158, 3, 20},
    {"faulty/seqlock", composed, 601, 0xd879003398adae83, 10, 32, 19, 2, 2},
    {"faulty/fourslot", paced, 945, 0xb0207b769503d8d7},
    {"faulty/fourslot", stale, 960, 0xe87600e14217b486, 29, 64, 53, 3, 6},
    {"faulty/fourslot", torn, 960, 0xeef86113f0209148, 155, 160, 158, 3, 20},
    {"faulty/fourslot", composed, 601, 0xd879003398adae83, 10, 32, 19, 2, 2},
    {"faulty/recording", paced, 2101, 0x566ea9265e736f9c},
    {"faulty/recording", stale, 2134, 0x0b2ca0ae609712c9, 65, 142, 117, 3, 6},
    {"faulty/recording", torn, 2132, 0x49d32dee79e611eb, 339, 351, 346, 3, 20},
    {"faulty/recording", composed, 1357, 0xcbf9bf7d0306fb50, 22, 71, 42, 2, 2},
    {"repair/seqlock", paced, 945, 0xb0207b769503d8d7},
    {"repair/seqlock", stale, 960, 0x3d6600730ccc3e6f, 7, 128, 116, 3, 10},
    {"repair/seqlock", torn, 960, 0x2bd3196f0acc8b88, 276},
    {"repair/seqlock", composed, 411, 0xccdfbb2a88cd8716, 5},
    {"swmr/fourslot", paced, 720, 0xdf1d1865b7a037db},
    {"va/seqlock", paced, 720, 0xdf1d1865b7a037db},
    {"tournament/native", paced, 1440, 0xf7c602795bc35703},
    {"net/abd-swmr", paced, 1813, 0x0e3fee637a38bcb9},
    {"net/abd-swmr", stale, 1899, 0xb651c1871759974c, 16, 586, 581, 2, 39},
    {"net/abd-swmr", torn, 1832, 0x2302fd8920f8bc98, 21, 80, 41, 2, 3},
    {"net/abd-swmr", composed, 1815, 0x241af32dad293829, 12},
    {"net/abd-mw", paced, 2967, 0xcdcf7f97a0f685ef},
    {"net/abd-mw", stale, 3045, 0xaa48ec7c9a27babc, 14, 522, 518, 3, 20},
    {"net/abd-mw", torn, 2991, 0xe24ffbdfd44a7f16, 17, 413, 371, 1, 17},
    {"net/abd-mw", composed, 2929, 0x3d72025333c50837, 10},
    {"net/twobit", paced, 1803, 0x740ed7cee4834992},
    {"net/twobit", stale, 1857, 0x25d2ab69cfcdaac3, 16},
    {"net/twobit", torn, 1751, 0x5ae62cc41e52212e, 29},
    {"net/twobit", composed, 1791, 0x564a256fb60fe0c7, 12},
    {"baseline/mutex", paced, 720, 0xdf1d1865b7a037db},
    {"baseline/rwlock", paced, 720, 0xdf1d1865b7a037db},
    {"baseline/native", paced, 720, 0xdf1d1865b7a037db},
};

// The per-processor recorder keeps every seeded history the shared MPMC
// gamma log used to record, byte for byte: the real accesses and their
// observed_write positions, the net/ replica touches, the fault plan's
// first-injection position, and the streaming checker's detection
// position, minimal violating prefix and culprit. Every registry entry
// runs the paced plan (crashed writes, cached writer reads); the faulty/,
// repair/ and net/ entries also run stale, torn and composed fault plans.
// The pinned values were recorded by the shared gamma log. Pinning exact
// bytes also pins the seeded schedule's determinism.
TEST(HarnessDriver, SeededRunsMatchTheRetiredGammaLog) {
    std::set<std::string> covered;
    for (const golden& g : pinned_runs) {
        SCOPED_TRACE(std::string(g.name) + " plan " + std::to_string(g.p));
        const registry_entry* e = find_register(g.name);
        ASSERT_NE(e, nullptr);
        covered.insert(g.name);
        const run_result r = run(pinned_spec(*e, g.p));
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.events.size(), g.events);
        EXPECT_EQ(gamma_hash(r.events), g.hash)
            << std::hex << "0x" << gamma_hash(r.events);
        EXPECT_EQ(r.faults_injected.first_injection, g.injection);
        const stream_outcome& s = r.stream;
        EXPECT_EQ(s.violation ? s.detection_pos : 0, g.detection);
        EXPECT_EQ(s.culprit_known ? s.detection_prefix : 0, g.prefix);
        EXPECT_EQ(s.culprit_known ? s.culprit.processor : -1,
                  g.culprit_processor);
        EXPECT_EQ(s.culprit_known ? s.culprit.op : 0, g.culprit_op);
    }
    EXPECT_EQ(covered.size(), registry().size());
}

// The driver numbers a processor's ops; the recording register tags its
// real accesses with the op index its own access_context counter draws.
// The parser rejects a real access whose op is not the open one, so a
// seeded bloom/recording run that mixes paced writes, crashed writes and
// cached writer reads parses -- and passes the constructive Section 7
// checker -- only if the two counters never drift apart.
TEST(HarnessDriver, RecordingOpIndicesMatchTheDriver) {
    run_spec spec;
    spec.register_name = "bloom/recording";
    spec.load.writers = 2;
    spec.load.readers = 2;
    spec.load.ops_per_writer = 400;
    spec.load.ops_per_reader = 300;
    spec.load.writer_read_num = 1;
    spec.load.writer_read_den = 2;
    spec.seed = 77;
    spec.collect = collect_mode::per_thread;
    spec.schedule = schedule_mode::seeded;
    spec.cached_writer_reads = true;
    spec.pace.writer_pace_num = 1;
    spec.pace.writer_pace_den = 4;
    spec.pace.reader_pace_num = 1;
    spec.pace.reader_pace_den = 6;
    spec.pace.crash_num = 1;
    spec.pace.crash_den = 10;
    spec.pace.pause_yields = 16;
    const run_result res = run(spec);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_GT(res.crashes_injected, 0u);

    const pipeline_result checks = run_checkers(
        res.events, 0, {checker_kind::bloom, checker_kind::fast});
    ASSERT_TRUE(checks.parsed) << checks.parse_error;
    for (const check_verdict& v : checks.verdicts) {
        ASSERT_TRUE(v.ran) << v.skip_reason;
        EXPECT_TRUE(v.pass) << checker_name(v.kind) << ": " << v.diagnosis;
    }
    EXPECT_GT(checks.verdicts[0].impotent_writes, 0u);
}

// The writer count is a first-class, VALIDATED workload field: specs
// outside a register's supported range fail up front with a range message
// instead of constructing a half-broken composition.
TEST(HarnessDriver, WriterCountOutsideRangeIsRejected) {
    for (const auto& [name, writers] :
         std::vector<std::pair<std::string, std::size_t>>{
             {"bloom/packed", 3},
             {"bloom/packed", 1},
             {"swmr/fourslot", 2},
             {"tournament/native", 2},
             {"va/seqlock", 17}}) {
        run_spec spec;
        spec.register_name = name;
        spec.load.writers = writers;
        const run_result res = run(spec);
        EXPECT_FALSE(res.ok) << name << " accepted " << writers << " writers";
        EXPECT_NE(res.error.find("writers"), std::string::npos) << res.error;
    }
}

TEST(HarnessDriver, InvalidSpecsFailFast) {
    {
        run_spec spec;
        spec.register_name = "no/such-register";
        EXPECT_FALSE(run(spec).ok);
    }
    {
        // The recording register records into a scripted run's gamma: it
        // cannot run uncollected, nor timed (a timed run records no real
        // accesses, even under the streaming checker).
        run_spec spec;
        spec.register_name = "bloom/recording";
        spec.collect = collect_mode::none;
        EXPECT_FALSE(run(spec).ok);
        spec.collect = collect_mode::per_thread;
        spec.duration_ms = 10;
        spec.streaming_monitor = true;
        const run_result res = run(spec);
        EXPECT_FALSE(res.ok);
        EXPECT_NE(res.error.find("real accesses"), std::string::npos)
            << res.error;
    }
    {
        // Timed runs are throughput-only: unbounded histories don't fit the
        // event collectors.
        run_spec spec;
        spec.register_name = "bloom/packed";
        spec.duration_ms = 10;
        spec.collect = collect_mode::per_thread;
        EXPECT_FALSE(run(spec).ok);
    }
    {
        run_spec spec;
        spec.register_name = "bloom/packed";
        spec.duration_ms = 10;
        spec.collect = collect_mode::none;
        spec.schedule = schedule_mode::seeded;
        EXPECT_FALSE(run(spec).ok);
    }
    // A net/ composition with no replica has no quorum to run against.
    for (const char* name : {"net/abd-swmr", "net/abd-mw", "net/twobit"}) {
        run_spec spec;
        spec.register_name = name;
        spec.load.writers = std::string(name) == "net/abd-mw" ? 2 : 1;
        spec.net_servers = 0;
        const run_result res = run(spec);
        EXPECT_FALSE(res.ok) << name;
        EXPECT_NE(res.error.find("net_servers"), std::string::npos)
            << res.error;
    }
}

// One OS thread and one fault-plan crash flag per processor, and a script
// allocated up front: `quickstart --readers 100000` and `--ops 4000000000`
// fail with an error naming the bound, not an uncaught thread-creation
// failure or bad_alloc.
TEST(HarnessDriver, ProcessorAndOpBoundsAreRejected) {
    run_spec spec;
    spec.load.readers = 100000;
    run_result res = run(spec);
    EXPECT_NE(res.error.find("at most 64 processors"), std::string::npos)
        << res.error;
    spec.load.readers = 62;
    spec.load.ops_per_writer = spec.load.ops_per_reader = 4000000000;
    res = run(spec);
    EXPECT_NE(res.error.find("at most 16777216 ops per processor"),
              std::string::npos)
        << res.error;
    spec.load.ops_per_writer = spec.load.ops_per_reader = 4;
    res = run(spec);  // 64 processors: the bound itself runs
    EXPECT_TRUE(res.ok) << res.error;
}

// Replicas and open-loop clients are bounded too, before any register,
// port or thread is made: `quickstart --net-servers 4294967295` fails with
// an error naming the bound. Each spec also asks for clients on a scripted
// run, which is rejected only after the bounds, so a missing bound fails
// here on the message instead of building 2^32-1 replicas or clients.
TEST(HarnessDriver, ServerAndClientBoundsAreRejected) {
    run_spec spec;
    spec.register_name = "net/abd-mw";
    spec.load.writers = 2;
    spec.clients = 8;
    spec.net_servers = 4294967295;
    run_result res = run(spec);
    EXPECT_NE(res.error.find("at most 256 net servers"), std::string::npos)
        << res.error;
    spec.net_servers = 3;
    spec.clients = 4294967295;
    res = run(spec);
    EXPECT_NE(res.error.find("at most 65536 clients"), std::string::npos)
        << res.error;
    spec.clients = 8;
    res = run(spec);
    EXPECT_NE(res.error.find("timed threads-mode run"), std::string::npos)
        << res.error;
    // The server bound itself runs, on the single-thread seeded schedule.
    spec.clients = 0;
    spec.net_servers = 256;
    spec.schedule = schedule_mode::seeded;
    spec.load.ops_per_writer = spec.load.ops_per_reader = 4;
    res = run(spec);
    EXPECT_TRUE(res.ok) << res.error;
}

TEST(HarnessWorkload, WritersFieldIsValidated) {
    workload wl;
    wl.scripts = {{{op_kind::write, 1}}, {{op_kind::read, 0}}};
    wl.writers = 1;
    EXPECT_TRUE(wl.valid());
    EXPECT_EQ(wl.readers(), 1u);

    // A write in a reader slot breaks the processor-id convention.
    wl.scripts[1].push_back({op_kind::write, 2});
    EXPECT_FALSE(wl.valid());
    wl.scripts[1].pop_back();

    wl.writers = 3;  // more writers than scripts
    EXPECT_FALSE(wl.valid());
}

TEST(HarnessCheckers, SkipRulesReportWhy) {
    // A per-thread history has no real accesses and two writing
    // processors: bloom and regular/safe must skip with a reason,
    // fast/monitor must run.
    run_spec spec;
    spec.register_name = "bloom/packed";
    spec.load.ops_per_writer = 100;
    spec.load.ops_per_reader = 100;
    spec.collect = collect_mode::per_thread;
    const run_result res = run(spec);
    ASSERT_TRUE(res.ok) << res.error;

    const pipeline_result checks = run_checkers(
        res.events, 0,
        {checker_kind::bloom, checker_kind::fast, checker_kind::exhaustive,
         checker_kind::monitor, checker_kind::regular, checker_kind::safe,
         checker_kind::race});
    ASSERT_TRUE(checks.parsed) << checks.parse_error;
    for (const check_verdict& v : checks.verdicts) {
        switch (v.kind) {
            case checker_kind::bloom:
            case checker_kind::exhaustive:  // 400 ops > the 62-op limit
            case checker_kind::regular:
            case checker_kind::safe:
            case checker_kind::race:  // no register name passed
                EXPECT_FALSE(v.ran) << checker_name(v.kind);
                EXPECT_FALSE(v.skip_reason.empty()) << checker_name(v.kind);
                break;
            case checker_kind::fast:
            case checker_kind::monitor:
                ASSERT_TRUE(v.ran) << v.skip_reason;
                EXPECT_TRUE(v.pass) << v.diagnosis;
                break;
        }
    }
}

TEST(HarnessCli, ParserHandlesFlagsEqualsAndPositionals) {
    common_flags flags;
    flag_parser parser("t", "test");
    flags.add_to(parser);
    std::uint64_t pos = 7;
    parser.add_positional("pos", "positional", &pos);
    const char* argv[] = {"t",      "--register", "va/seqlock", "--writers=4",
                          "--ops",  "32",         "19",         "--list"};
    ASSERT_TRUE(parser.parse(8, const_cast<char**>(argv)));
    EXPECT_EQ(flags.register_name, "va/seqlock");
    EXPECT_EQ(flags.writers, 4u);
    EXPECT_EQ(flags.ops, 32u);
    EXPECT_EQ(pos, 19u);
    EXPECT_TRUE(flags.list);

    const run_spec spec = flags.to_spec();
    EXPECT_EQ(spec.register_name, "va/seqlock");
    EXPECT_EQ(spec.load.writers, 4u);
    EXPECT_EQ(spec.load.ops_per_writer, 32u);
}

TEST(HarnessCli, ParserRejectsUnknownFlag) {
    common_flags flags;
    flag_parser parser("t", "test");
    flags.add_to(parser);
    const char* argv[] = {"t", "--no-such-flag"};
    EXPECT_FALSE(parser.parse(2, const_cast<char**>(argv)));
}

// No harness binary sizes a thread pool from its command line, so
// --threads is not a flag: passing it fails to parse instead of being
// silently ignored.
TEST(HarnessCli, ParserRejectsThreads) {
    common_flags flags;
    flag_parser parser("t", "test");
    flags.add_to(parser);
    const char* argv[] = {"t", "--threads", "4"};
    EXPECT_FALSE(parser.parse(3, const_cast<char**>(argv)));
}

TEST(HarnessCli, CheckerListParses) {
    std::string err;
    const auto kinds = parse_checker_list("fast,bloom,monitor", &err);
    ASSERT_TRUE(kinds.has_value()) << err;
    EXPECT_EQ(kinds->size(), 3u);
    EXPECT_FALSE(parse_checker_list("fast,nope", &err).has_value());
    EXPECT_NE(err.find("nope"), std::string::npos);
    const auto none = parse_checker_list("none", &err);
    ASSERT_TRUE(none.has_value());
    EXPECT_TRUE(none->empty());
}

}  // namespace
}  // namespace bloom87
