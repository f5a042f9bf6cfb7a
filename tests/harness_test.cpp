// The run harness itself: registry round-trips, driver determinism, spec
// validation, collection modes, and the checker pipeline's skip rules.
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
    spec.collect =
        e.info.requires_log ? collect_mode::gamma : collect_mode::per_thread;
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
        EXPECT_FALSE(res.log_overflowed) << e.info.name;
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

// Under the seeded scheduler the ENTIRE execution is a function of the
// spec: running the same spec twice must record byte-identical histories.
TEST(HarnessDriver, SeededScheduleIsDeterministic) {
    run_spec spec;
    spec.register_name = "bloom/recording";
    spec.load.writers = 2;
    spec.load.readers = 2;
    spec.load.ops_per_writer = 300;
    spec.load.ops_per_reader = 300;
    spec.seed = 1234;
    spec.collect = collect_mode::gamma;
    spec.schedule = schedule_mode::seeded;
    spec.pace.writer_pace_num = 1;
    spec.pace.writer_pace_den = 8;

    const run_result a = run(spec);
    const run_result b = run(spec);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].kind, b.events[i].kind) << "event " << i;
        EXPECT_EQ(a.events[i].processor, b.events[i].processor) << "event " << i;
        EXPECT_EQ(a.events[i].op, b.events[i].op) << "event " << i;
        EXPECT_EQ(a.events[i].value, b.events[i].value) << "event " << i;
        EXPECT_EQ(a.events[i].reg, b.events[i].reg) << "event " << i;
    }
    const pipeline_result checks =
        run_checkers(a.events, 0, {checker_kind::bloom, checker_kind::fast});
    ASSERT_TRUE(checks.parsed) << checks.parse_error;
    for (const check_verdict& v : checks.verdicts) {
        ASSERT_TRUE(v.ran) << v.skip_reason;
        EXPECT_TRUE(v.pass) << checker_name(v.kind) << ": " << v.diagnosis;
    }
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
        // The recording register cannot run without the shared gamma log.
        run_spec spec;
        spec.register_name = "bloom/recording";
        spec.collect = collect_mode::per_thread;
        EXPECT_FALSE(run(spec).ok);
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
