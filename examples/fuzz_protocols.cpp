// fuzz_protocols: long-running randomized torture for the whole stack.
//
// Each round draws a random harness configuration PER REGISTRY ENTRY --
// workload mix, reader count, pacing, crash pattern, cached reads, thread
// or seeded schedule -- runs it through the one workload driver, and feeds
// the recorded history to the full checker pipeline. Registers the registry
// marks atomic must pass every checker that applies; the known-broken
// tournament is allowed (and over enough rounds expected) to fail. Any
// unexpected verdict stops the run with the serialized gamma so it can be
// replayed through check_history.
//
// With --fault=<class> the fuzzer instead tortures the faulty/ compositions
// under that substrate fault class with the streaming checker attached:
// value-corrupting classes must produce detected violations (exit 1 if the
// whole run stays silent), port_crash must stay clean on every round.
//
// Usage: fuzz_protocols [rounds] [base_seed] [--fault=<class>]
//        (defaults: 50, 1, no fault)
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "harness/checkers.hpp"
#include "harness/cli.hpp"
#include "harness/driver.hpp"
#include "histories/serialize.hpp"
#include "util/rng.hpp"

using namespace bloom87;
using namespace bloom87::harness;

namespace {

run_spec draw_spec(const registry_entry& e, rng& gen, std::uint64_t seed) {
    run_spec spec;
    spec.register_name = e.info.name;
    spec.seed = seed;
    // Writer count anywhere in the entry's range, capped at min+3 so the
    // 16-writer baselines don't dominate the round.
    const std::size_t wmax =
        std::min(e.info.max_writers, e.info.min_writers + 3);
    spec.load.writers =
        e.info.min_writers + gen.below(wmax - e.info.min_writers + 1);
    spec.load.readers = 1 + gen.below(4);
    spec.load.ops_per_writer = 100 + gen.below(400);
    spec.load.ops_per_reader = 100 + gen.below(400);
    spec.collect = collect_mode::per_thread;
    spec.schedule = gen.chance(1, 3) ? schedule_mode::seeded
                                     : schedule_mode::threads;
    spec.pace.writer_pace_num = gen.below(6);
    spec.pace.writer_pace_den = 32;
    spec.pace.reader_pace_num = gen.below(8);
    spec.pace.reader_pace_den = 32;
    spec.pace.pause_yields = 32 + static_cast<unsigned>(gen.below(224));
    if (gen.chance(1, 3)) {
        spec.pace.crash_num = 1;
        spec.pace.crash_den = 40;
    }
    spec.cached_writer_reads = gen.chance(1, 3);
    return spec;
}

/// Every checker that can apply: the pipeline itself skips the exhaustive
/// search over 62 ops, the Bloom linearizer without real accesses, and
/// regular/safe with several writing processors.
const std::vector<checker_kind> all_checkers = {
    checker_kind::fast,    checker_kind::exhaustive, checker_kind::monitor,
    checker_kind::regular, checker_kind::safe,       checker_kind::bloom};

bool run_round(const registry_entry& e, const run_spec& spec,
               std::uint64_t* tournament_violations) {
    const run_result res = run(spec);
    if (!res.ok) {
        std::fprintf(stderr, "%s seed %llu: RUN FAILED: %s\n",
                     e.info.name.c_str(),
                     static_cast<unsigned long long>(spec.seed),
                     res.error.c_str());
        return false;
    }
    const pipeline_result checks = run_checkers(
        res.events, spec.initial, all_checkers, spec.register_name);
    if (!checks.parsed) {
        std::fprintf(stderr, "%s seed %llu: MALFORMED GAMMA: %s\n",
                     e.info.name.c_str(),
                     static_cast<unsigned long long>(spec.seed),
                     checks.parse_error.c_str());
        write_gamma(std::cerr, res.events, spec.initial);
        return false;
    }
    if (checks.all_pass()) return true;
    if (!e.info.expected_atomic) {
        // The broken tournament failing its checkers is the EXPECTED
        // outcome -- count it as evidence the pipeline has teeth.
        ++*tournament_violations;
        return true;
    }
    for (const check_verdict& v : checks.verdicts) {
        if (v.ran && !v.pass) {
            std::fprintf(stderr, "%s seed %llu: %s FAILED: %s\n",
                         e.info.name.c_str(),
                         static_cast<unsigned long long>(spec.seed),
                         checker_name(v.kind).c_str(), v.diagnosis.c_str());
        }
    }
    write_gamma(std::cerr, res.events, spec.initial);
    return false;
}

/// The --fault mode: every round runs each faulty/ composition under one
/// substrate fault class, streaming checker attached. Returns the exit code.
int fuzz_faulty(fault_class cls, std::uint64_t rounds,
                std::uint64_t base_seed) {
    const std::vector<std::string> comps = {
        "faulty/seqlock", "faulty/fourslot", "faulty/recording"};
    rng meta(base_seed ^ 0xFA417);
    std::uint64_t runs = 0;
    std::uint64_t detections = 0;
    std::uint64_t injected_total = 0;
    std::uint64_t silent_rounds = 0;
    for (std::uint64_t round = 0; round < rounds; ++round) {
        for (const std::string& comp : comps) {
            run_spec spec;
            spec.register_name = comp;
            spec.seed = base_seed * 100000 + runs;
            spec.load.writers = 2;
            spec.load.readers = 1 + meta.below(3);
            spec.load.ops_per_writer = 100 + meta.below(300);
            spec.load.ops_per_reader = 100 + meta.below(300);
            spec.collect = collect_mode::per_thread;
            // Seeded: the fault plan and the schedule replay byte for byte,
            // so a reported seed reproduces the round exactly.
            spec.schedule = schedule_mode::seeded;
            spec.fault.cls = cls;
            spec.fault.rate_num = 1;
            spec.fault.rate_den = 64;
            spec.fault.seed = spec.seed;
            spec.streaming_monitor = true;
            ++runs;

            const run_result res = run(spec);
            if (!res.ok) {
                std::fprintf(stderr, "%s seed %llu: RUN FAILED: %s\n",
                             comp.c_str(),
                             static_cast<unsigned long long>(spec.seed),
                             res.error.c_str());
                return 1;
            }
            const pipeline_result checks = run_checkers(
                res.events, spec.initial,
                {checker_kind::fast, checker_kind::monitor},
                spec.register_name);
            if (!checks.parsed) {
                std::fprintf(stderr, "%s seed %llu: MALFORMED GAMMA: %s\n",
                             comp.c_str(),
                             static_cast<unsigned long long>(spec.seed),
                             checks.parse_error.c_str());
                write_gamma(std::cerr, res.events, spec.initial);
                return 1;
            }
            injected_total += res.faults_injected.total();
            // The offline pipeline must agree with the streaming checker --
            // they check the same prefix-closed property.
            if (res.stream.violation == checks.all_pass()) {
                std::fprintf(stderr,
                             "%s seed %llu: streaming checker and checker "
                             "pipeline DISAGREE\n",
                             comp.c_str(),
                             static_cast<unsigned long long>(spec.seed));
                write_gamma(std::cerr, res.events, spec.initial);
                return 1;
            }
            if (corrupts_values(cls)) {
                if (res.stream.violation) {
                    ++detections;
                } else {
                    ++silent_rounds;
                }
            } else if (res.stream.violation) {
                // Crash-class faults stay inside the paper's fault model:
                // any violation is a real bug.
                std::fprintf(stderr,
                             "%s seed %llu: %s broke atomicity "
                             "(UNEXPECTED)\n",
                             comp.c_str(),
                             static_cast<unsigned long long>(spec.seed),
                             fault_class_name(cls));
                write_gamma(std::cerr, res.events, spec.initial);
                return 1;
            }
        }
    }
    std::printf("fuzz --fault=%s: %llu runs, %llu faults injected, "
                "%llu detected violations, %llu silent\n",
                fault_class_name(cls), static_cast<unsigned long long>(runs),
                static_cast<unsigned long long>(injected_total),
                static_cast<unsigned long long>(detections),
                static_cast<unsigned long long>(silent_rounds));
    if (corrupts_values(cls) && detections == 0) {
        std::fprintf(stderr,
                     "every %s round went UNDETECTED -- the checker lost "
                     "its teeth\n",
                     fault_class_name(cls));
        return 1;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    std::uint64_t rounds = 50;
    std::uint64_t base_seed = 1;
    std::string fault_name{"none"};
    flag_parser parser("fuzz_protocols",
                       "randomized registry-wide torture through the harness");
    parser.add_positional("rounds", "fuzzing rounds", &rounds);
    parser.add_positional("base_seed", "base workload seed", &base_seed);
    parser.add_string("fault",
                      "torture faulty/ compositions under this substrate "
                      "fault class instead of the registry sweep",
                      &fault_name);
    if (!parser.parse(argc, argv)) return 64;
    if (parser.help_requested()) return 0;
    if (fault_name != "none") {
        const auto cls = parse_fault_class(fault_name);
        if (!cls || *cls == fault_class::none) {
            std::fprintf(stderr, "unknown fault class '%s'\n",
                         fault_name.c_str());
            return 64;
        }
        return fuzz_faulty(*cls, rounds, base_seed);
    }

    rng meta(base_seed);
    std::uint64_t runs = 0;
    std::uint64_t tournament_violations = 0;
    for (std::uint64_t round = 0; round < rounds; ++round) {
        for (const registry_entry& e : registry()) {
            const std::uint64_t seed = base_seed * 100000 + runs;
            const run_spec spec = draw_spec(e, meta, seed);
            if (!run_round(e, spec, &tournament_violations)) {
                std::fprintf(stderr,
                             "FUZZING FOUND A FAILURE at round %llu (%s)\n",
                             static_cast<unsigned long long>(round),
                             e.info.name.c_str());
                return 1;
            }
            ++runs;
        }
        if ((round + 1) % 10 == 0) {
            std::printf("fuzz: %llu/%llu rounds clean (%llu runs)\n",
                        static_cast<unsigned long long>(round + 1),
                        static_cast<unsigned long long>(rounds),
                        static_cast<unsigned long long>(runs));
            std::fflush(stdout);
        }
    }
    std::printf(
        "fuzz: all %llu rounds clean (%llu runs; tournament rejected in "
        "%llu)\n",
        static_cast<unsigned long long>(rounds),
        static_cast<unsigned long long>(runs),
        static_cast<unsigned long long>(tournament_violations));
    return 0;
}
