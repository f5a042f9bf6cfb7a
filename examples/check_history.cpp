// check_history: offline atomicity checker for recorded executions.
//
// Usage:
//   check_history record [seed]      # record a live execution, print gamma
//   check_history check  [file]      # check a gamma file (default: stdin)
//
// `record` runs a short concurrent execution of the two-writer register
// through the run harness (recording substrate, paced writers and a slow
// reader) and prints it in the serialized gamma format (pipe to a file to
// archive). `check` parses a gamma file and runs all applicable checkers:
// history well-formedness, the paper's constructive linearizer (with
// per-lemma diagnostics), and the polynomial register checker. Exit
// status: 0 atomic, 2 not atomic, 1 malformed input.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "harness/driver.hpp"
#include "histories/serialize.hpp"
#include "histories/stats.hpp"
#include "linearizability/bloom_linearizer.hpp"
#include "linearizability/fast_register.hpp"

using namespace bloom87;

namespace {

int do_record(std::uint64_t seed) {
    harness::run_spec spec;
    spec.register_name = "bloom/recording";
    spec.load.writers = 2;
    spec.load.readers = 1;
    spec.load.ops_per_writer = 40;
    spec.load.ops_per_reader = 60;
    spec.load.writer_read_num = 0;  // writers only write here
    spec.seed = seed;
    spec.collect = harness::collect_mode::per_thread;
    spec.pace.writer_pace_num = 1;
    spec.pace.writer_pace_den = 6;
    spec.pace.reader_pace_num = 1;
    spec.pace.reader_pace_den = 4;
    spec.pace.pause_yields = 128;
    const harness::run_result run = harness::run(spec);
    if (!run.ok) {
        std::fprintf(stderr, "run failed: %s\n", run.error.c_str());
        return 1;
    }
    write_gamma(std::cout, run.events, 0);
    return 0;
}

int do_check(std::istream& in) {
    const gamma_parse_result parsed_text = read_gamma(in);
    if (!parsed_text.ok()) {
        std::cerr << "parse error: " << *parsed_text.error << "\n";
        return 1;
    }
    std::printf("parsed %zu gamma events (initial value %lld)\n",
                parsed_text.gamma.size(),
                static_cast<long long>(parsed_text.initial));

    const parse_result hist =
        parse_history(parsed_text.gamma, parsed_text.initial);
    if (!hist.ok()) {
        std::cerr << "history malformed at position " << hist.error->position
                  << ": " << hist.error->message << "\n";
        return 1;
    }
    std::printf("well-formed: %zu simulated operations\n", hist.hist.ops.size());
    std::fputs(format_stats(compute_stats(hist.hist)).c_str(), stdout);

    bool any_real = false;
    for (const operation& op : hist.hist.ops) {
        any_real |= !op.real_accesses.empty();
    }

    int verdict = 0;
    if (any_real) {
        const bloom_result res = bloom_linearize(hist.hist);
        if (!res.ok()) {
            std::printf("constructive linearizer: gamma not protocol-shaped (%s);"
                        " falling back to the generic checker\n",
                        res.defect->c_str());
        } else if (res.atomic) {
            std::printf(
                "constructive linearizer: ATOMIC (%zu potent, %zu impotent "
                "writes; reads: %zu potent / %zu impotent / %zu initial)\n",
                res.potent_count, res.impotent_count, res.reads_of_potent,
                res.reads_of_impotent, res.reads_of_initial);
        } else {
            std::printf("constructive linearizer: NOT ATOMIC -- %s\n",
                        res.diagnosis.c_str());
            verdict = 2;
        }
    } else {
        std::printf("no real-register events: external-schedule checking only\n");
    }

    const fast_check_result fast =
        check_fast(hist.hist.ops, parsed_text.initial);
    if (!fast.ok()) {
        std::cerr << "fast checker defect: " << *fast.defect << "\n";
        return 1;
    }
    if (fast.linearizable) {
        std::printf("fast register checker : ATOMIC\n");
    } else {
        std::printf("fast register checker : NOT ATOMIC -- %s\n",
                    fast.diagnosis.c_str());
        verdict = 2;
    }
    return verdict;
}

}  // namespace

int main(int argc, char** argv) {
    const std::string mode = argc > 1 ? argv[1] : "check";
    if (mode == "record") {
        const std::uint64_t seed =
            argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1;
        return do_record(seed);
    }
    if (mode == "check") {
        if (argc > 2) {
            std::ifstream f(argv[2]);
            if (!f) {
                std::cerr << "cannot open " << argv[2] << "\n";
                return 1;
            }
            return do_check(f);
        }
        return do_check(std::cin);
    }
    std::cerr << "usage: " << argv[0] << " record [seed] | check [file]\n";
    return 64;
}
