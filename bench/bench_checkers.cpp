// [TAB-E] Checker cost: the paper's constructive proof as an algorithm.
//
// Section 7's proof is constructive -- it assigns every operation its
// linearization point directly from the recorded real-register accesses, in
// O(n log n). A general-purpose linearizability checker must SEARCH for an
// order (exponential worst case even with memoization; the register-
// specialized polynomial checker sits in between). This bench records real
// concurrent executions of increasing size through the harness driver
// (register "bloom/recording", gamma collection) and times the full checker
// pipeline on each.
//
//   bench_checkers [--json BENCH_checkers.json]
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness/checkers.hpp"
#include "harness/cli.hpp"
#include "harness/driver.hpp"
#include "harness/report.hpp"
#include "util/table.hpp"

using namespace bloom87;
using namespace bloom87::harness;

int main(int argc, char** argv) {
    common_flags flags;
    flags.register_name = "bloom/recording";
    flag_parser parser("bench_checkers",
                       "atomicity-checking cost vs history size");
    flags.add_to(parser);
    if (!parser.parse(argc, argv)) return 64;
    if (parser.help_requested()) return 0;
    if (flags.list) {
        print_register_list(std::cout);
        return 0;
    }

    print_banner(std::cout, "TAB-E",
                 "Atomicity-checking cost vs history size");

    std::unique_ptr<std::ofstream> json_os;
    std::unique_ptr<report_writer> rep;
    if (!flags.json_path.empty()) {
        json_os = std::make_unique<std::ofstream>(flags.json_path);
        if (!*json_os) {
            std::cerr << "cannot write " << flags.json_path << "\n";
            return 66;
        }
        rep = std::make_unique<report_writer>(*json_os, "checkers");
    }

    const std::vector<checker_kind> kinds = {
        checker_kind::bloom, checker_kind::fast, checker_kind::exhaustive};

    table t({"ops", "gamma events", "constructive (ms)", "fast register (ms)",
             "exhaustive (ms)", "all agree"});
    bool all_agree = true;

    struct size_cfg {
        std::size_t ops;
        std::size_t readers;
    };
    for (const size_cfg sz : std::vector<size_cfg>{
             {5, 2}, {25, 2}, {100, 3}, {500, 3}, {2000, 4}, {8000, 4}}) {
        run_spec spec;
        spec.register_name = flags.register_name;
        spec.load.readers = sz.readers;
        spec.load.ops_per_writer = sz.ops;
        spec.load.ops_per_reader = sz.ops;
        spec.seed = sz.ops * 31 + 7;
        spec.collect = collect_mode::per_thread;
        const run_result res = run(spec);
        if (!res.ok) {
            std::cerr << spec.register_name << ": " << res.error << "\n";
            return 1;
        }

        const pipeline_result checks =
            run_checkers(res.events, 0, kinds, spec.register_name);
        std::string cells[3] = {"-", "-", "-"};
        bool agree = checks.parsed;
        for (const check_verdict& v : checks.verdicts) {
            const std::size_t i = v.kind == checker_kind::bloom ? 0
                                  : v.kind == checker_kind::fast ? 1
                                                                 : 2;
            if (!v.ran) {
                cells[i] = "skipped (" + v.skip_reason + ")";
            } else {
                cells[i] = fixed(v.millis, 3);
                agree &= v.pass;
            }
        }
        all_agree &= agree;
        t.row({with_commas(checks.operations),
               with_commas(res.events.size()), cells[0], cells[1], cells[2],
               agree ? "yes (ATOMIC)" : "** DISAGREE **"});
        if (rep) rep->add_run(spec, res, &checks);
    }
    t.print(std::cout);

    std::cout << "\nExpected shape: the constructive linearizer (the paper's\n"
              << "proof, executed) and the polynomial register checker scale\n"
              << "near-linearly; exhaustive search is only feasible for tiny\n"
              << "histories. All verdicts agree: ATOMIC.\n";

    if (rep) {
        rep->add_table("checker_cost", t);
        rep->finish();
        std::cout << "wrote " << flags.json_path << "\n";
    }
    return all_agree ? 0 : 1;
}
