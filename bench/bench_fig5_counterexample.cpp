// [FIG5] Regenerates Figure 5 of the paper: the four-writer tournament
// counterexample (due to Leslie Lamport). Replays the exact schedule from
// the paper's table on the broken tournament register, prints the same
// rows, shows the linearizability verdicts, and contrasts with (a) Bloom's
// two-writer register under the same schedule shape and (b) an exhaustive
// model-checking search for the minimal violation.
//
//   bench_fig5_counterexample [--json BENCH_fig5.json]
#include <fstream>
#include <iostream>
#include <string>

#include "baselines/tournament.hpp"
#include "harness/cli.hpp"
#include "harness/report.hpp"
#include "core/two_writer.hpp"
#include "histories/event_log.hpp"
#include "histories/history.hpp"
#include "linearizability/exhaustive.hpp"
#include "linearizability/fast_register.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/processes.hpp"
#include "registers/packed_atomic.hpp"
#include "registers/recording.hpp"
#include "util/table.hpp"

namespace {

// The paper uses letters; we mirror them onto integers for the registers.
constexpr std::int32_t val_a = 1, val_x = 10, val_c = 20, val_d = 30;

std::string letter(std::int32_t v) {
    switch (v) {
        case val_a: return "'a'";
        case val_x: return "'x'";
        case val_c: return "'c'";
        case val_d: return "'d'";
        default: return "?";
    }
}

std::string cell(bloom87::tagged<std::int32_t> t) {
    return letter(t.value) + "," + (t.tag ? "1" : "0");
}

}  // namespace

int main(int argc, char** argv) {
    using namespace bloom87;

    harness::flag_parser parser("bench_fig5_counterexample",
                                "four-writer tournament counterexample");
    std::string json_path;
    parser.add_string("json", "write a bloom87-harness report here",
                      &json_path);
    if (!parser.parse(argc, argv)) return 64;
    if (parser.help_requested()) return 0;

    // The bounded-search verdicts, collected for the --json report.
    table verdicts({"system", "checker", "verdict"});

    print_banner(std::cout, "FIG5", "Four-writer tournament counterexample");

    event_log log(256);
    tournament_four_writer<std::int32_t> reg(val_a, &log);
    auto rd = reg.make_reader(4);
    auto wr00 = reg.make_writer(0);
    auto wr01 = reg.make_writer(1);
    auto wr11 = reg.make_writer(3);

    table t({"Processor", "Action", "Reg0", "Reg1", "Value"});
    auto row = [&](const std::string& proc, const std::string& act) {
        t.row({proc, act, cell(reg.real_contents(0)), cell(reg.real_contents(1)),
               letter(rd.read())});
    };

    row("initial", "-");
    wr00.begin_write(val_x);
    row("Wr00", "real reads");
    wr11.write(val_c);
    row("Wr11", "sim. writes");
    wr01.write(val_d);
    row("Wr01", "sim. writes");
    wr00.finish_write();
    row("Wr00", "real writes");
    t.print(std::cout);

    std::cout << "\nWhen Wr01 writes, the value 'c' becomes obsolete.\n"
              << "When Wr00 finishes its write, 'c' REAPPEARS.\n";

    // Checker verdicts on the recorded external history.
    parse_result parsed = parse_history(log.snapshot(), val_a);
    if (!parsed.ok()) {
        std::cout << "history malformed: " << parsed.error->message << "\n";
        return 1;
    }
    const auto fast = check_fast(parsed.hist.ops, val_a);
    const auto slow = check_exhaustive(parsed.hist.ops, val_a);
    std::cout << "\nfast register checker : "
              << (fast.linearizable ? "ATOMIC" : "NOT ATOMIC")
              << (fast.diagnosis.empty() ? "" : "  (" + fast.diagnosis + ")")
              << "\nexhaustive checker    : "
              << (slow.linearizable ? "ATOMIC" : "NOT ATOMIC") << "\n";
    verdicts.row({"tournament, replayed schedule", "fast",
                  fast.linearizable ? "ATOMIC" : "NOT ATOMIC"});
    verdicts.row({"tournament, replayed schedule", "exhaustive",
                  slow.linearizable ? "ATOMIC" : "NOT ATOMIC"});

    // Contrast: the same adversarial shape against Bloom's TWO-writer
    // register (one writer pausing mid-write) stays atomic.
    print_banner(std::cout, "FIG5b",
                 "Same schedule shape on Bloom's two-writer register");
    {
        event_log log2(256);
        two_writer_register<value_t, recording_register> breg(val_a, &log2);
        auto brd = breg.make_reader(2);
        // Writer 0 pauses between its real read and real write while writer 1
        // writes twice -- the closest two-writer analogue of Figure 5.
        breg.writer0().write_paced(val_x, [&] {
            breg.writer1().write(val_c);
            (void)brd.read();
            breg.writer1().write(val_d);
            (void)brd.read();
        });
        (void)brd.read();

        parse_result p2 = parse_history(log2.snapshot(), val_a);
        const auto v2 = check_fast(p2.hist.ops, val_a);
        std::cout << "two-writer register under the analogous schedule: "
                  << (v2.linearizable ? "ATOMIC (as proven in the paper)"
                                      : "NOT ATOMIC (bug!)")
                  << "\n";
        verdicts.row({"Bloom two-writer, analogous schedule", "fast",
                      v2.linearizable ? "ATOMIC" : "NOT ATOMIC"});
    }

    // Exhaustive confirmation: the explorer finds a violating schedule with
    // three tournament writers and one reader, and certifies there is NONE
    // for the two-writer protocol at the same bound.
    print_banner(std::cout, "FIG5c", "Bounded exhaustive search");
    {
        using namespace bloom87::mc;
        sim_state s;
        mc_register r;
        r.level = reg_level::atomic;
        r.domain = 16;
        r.committed = encode_tagged(1, false);
        s.registers = {r, r};
        s.procs.push_back(make_tournament_writer(0, {2}));
        s.procs.push_back(make_tournament_writer(1, {3}));
        s.procs.push_back(make_tournament_writer(3, {4}));
        s.procs.push_back(make_tournament_reader(4, 2));
        explore_config cfg;
        cfg.initial = 1;
        const explore_result res = explore(s, cfg);
        std::cout << "tournament, 3 writers x 1 write, 1 reader x 2 reads:\n"
                  << "  states=" << with_commas(res.states_explored)
                  << " histories=" << with_commas(res.distinct_histories)
                  << " -> " << (res.property_holds ? "ATOMIC" : "VIOLATION FOUND")
                  << "\n";
        if (res.first_violation) {
            std::cout << "  first violating history:\n";
            for (const std::string& line :
                 {std::string(format_operations(res.first_violation->hist))}) {
                std::cout << "    " << line;
            }
        }

        sim_state s2;
        s2.registers = {r, r};
        s2.procs.push_back(make_bloom_writer(0, {2, 3}));
        s2.procs.push_back(make_bloom_writer(1, {4, 5}));
        s2.procs.push_back(make_bloom_reader(2, 2));
        explore_config cfg2;
        cfg2.initial = 1;
        const explore_result res2 = explore(s2, cfg2);
        std::cout << "Bloom two-writer, 2 writers x 2 writes, 1 reader x 2 reads:\n"
                  << "  states=" << with_commas(res2.states_explored)
                  << " histories=" << with_commas(res2.distinct_histories)
                  << " -> " << (res2.property_holds ? "ATOMIC on every schedule"
                                                    : "VIOLATION (bug!)")
                  << "\n";
        verdicts.row({"tournament, bounded exhaustive search", "modelcheck",
                      res.property_holds ? "ATOMIC" : "VIOLATION FOUND"});
        verdicts.row({"Bloom two-writer, bounded exhaustive search",
                      "modelcheck",
                      res2.property_holds ? "ATOMIC" : "VIOLATION FOUND"});
    }

    if (!json_path.empty()) {
        std::ofstream os(json_path);
        if (!os) {
            std::cerr << "cannot write " << json_path << "\n";
            return 66;
        }
        harness::report_writer rep(os, "fig5_counterexample");
        rep.add_table("paper_schedule", t);
        rep.add_table("verdicts", verdicts);
        rep.finish();
        std::cout << "\nwrote " << json_path << "\n";
    }
    return 0;
}
