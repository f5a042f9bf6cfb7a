// [FIG1] Regenerates Figure 1 of the paper: the actions of a register
// automaton -- then demonstrates them live by running the I/O-automaton
// system and counting each action kind in the schedule.
//
//   bench_fig1_actions [--json BENCH_fig1.json]
#include <fstream>
#include <iostream>
#include <map>

#include "harness/cli.hpp"
#include "harness/report.hpp"
#include "ioa/executor.hpp"
#include "ioa/protocol_automata.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
    using namespace bloom87;
    using namespace bloom87::ioa;

    harness::flag_parser parser("bench_fig1_actions",
                                "actions of a register automaton, counted live");
    std::string json_path;
    parser.add_string("json", "write a bloom87-harness report here",
                      &json_path);
    if (!parser.parse(argc, argv)) return 64;
    if (parser.help_requested()) return 0;

    print_banner(std::cout, "FIG1", "Actions of a register automaton");

    table t({"Action", "Class", "Meaning"});
    t.row({"R_start", "input", "Command to read."});
    t.row({"R*(v)", "internal", "Event marking the instant a read of v occurs."});
    t.row({"R_finish(v)", "output",
           "Read acknowledgment; communicates the value v to the reader."});
    t.row({"W_start(v)", "input", "Command to write value v."});
    t.row({"W*(v)", "internal", "Event marking the instant a write of v occurs."});
    t.row({"W_finish", "output", "Acknowledgment of a write."});
    t.print(std::cout);

    // A live run of the Figure 2 system: count the actions by kind, split
    // into external ports vs real-register channels, and confirm the
    // bookkeeping identities (one star per matched request/ack pair).
    std::vector<env_port> ports;
    ports.push_back({"ext:wr0", std::vector<env_op>(8, env_op{true, 0})});
    ports.push_back({"ext:wr1", std::vector<env_op>(8, env_op{true, 0})});
    ports.push_back({"ext:rd1", std::vector<env_op>(12, env_op{false, 0})});
    ports.push_back({"ext:rd2", std::vector<env_op>(12, env_op{false, 0})});
    for (std::size_t i = 0; i < ports.size(); ++i) {
        for (std::size_t k = 0; k < ports[i].script.size(); ++k) {
            ports[i].script[k].value =
                static_cast<value_t>(100 * (i + 1) + k);
        }
    }
    simulated_register_system sys = make_simulated_register(0, 2, std::move(ports));
    const schedule sched = run_fair(*sys.system, /*seed=*/1987);

    std::map<std::string, std::map<act, std::size_t>> counts;
    for (const scheduled_action& sa : sched) {
        const bool ext = sa.act_taken.channel.starts_with("ext:");
        counts[ext ? "external port" : "register channel"][sa.act_taken.kind]++;
    }

    std::cout << "\nLive schedule of the simulated register "
              << "(8+8 writes, 12+12 reads):\n\n";
    table c({"Where", "R_start", "R*", "R_finish", "W_start", "W*", "W_finish"});
    for (const auto& [where, m] : counts) {
        auto g = [&](act a) {
            auto it = m.find(a);
            return std::to_string(it == m.end() ? 0 : it->second);
        };
        c.row({where, g(act::read_request), g(act::star_read), g(act::read_ack),
               g(act::write_request), g(act::star_write), g(act::write_ack)});
    }
    c.print(std::cout);

    std::cout << "\nIdentities: every request has exactly one star action and\n"
              << "one acknowledgment; a simulated read costs 3 real reads and\n"
              << "a simulated write costs 1 real read + 1 real write, so the\n"
              << "register channels carry 3*24+16 = 88 R_start and 16 W_start.\n";

    if (!json_path.empty()) {
        std::ofstream os(json_path);
        if (!os) {
            std::cerr << "cannot write " << json_path << "\n";
            return 66;
        }
        harness::report_writer rep(os, "fig1_actions");
        rep.add_table("action_kinds", t);
        rep.add_table("schedule_counts", c);
        rep.finish();
        std::cout << "\nwrote " << json_path << "\n";
    }
    return 0;
}
