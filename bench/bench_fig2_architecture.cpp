// [FIG2] Regenerates Figure 2 of the paper: the architecture of the
// simulated register -- n+4 automata (two real registers, two writers, n
// readers) and the channel matrix between them. The matrix is derived from
// the automata's actual signatures, not hard-coded, so it doubles as a
// structural test of the composition.
//
//   bench_fig2_architecture [--json BENCH_fig2.json]
#include <fstream>
#include <iostream>

#include "harness/cli.hpp"
#include "harness/report.hpp"
#include "ioa/protocol_automata.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
    using namespace bloom87;
    using namespace bloom87::ioa;

    harness::flag_parser parser("bench_fig2_architecture",
                                "architecture of the simulated register");
    std::string json_path;
    parser.add_string("json", "write a bloom87-harness report here",
                      &json_path);
    if (!parser.parse(argc, argv)) return 64;
    if (parser.help_requested()) return 0;

    constexpr int readers = 3;
    print_banner(std::cout, "FIG2",
                 "Architecture of the simulated register (n = 3 readers)");

    std::vector<env_port> ports;  // empty scripts; we only inspect structure
    ports.push_back({"ext:wr0", {}});
    ports.push_back({"ext:wr1", {}});
    for (int j = 1; j <= readers; ++j) {
        ports.push_back({"ext:rd" + std::to_string(j), {}});
    }
    simulated_register_system sys =
        make_simulated_register(0, readers, std::move(ports));

    std::cout << "Automata (" << sys.system->parts().size()
              << " incl. environment; the paper counts n+4 = " << readers + 4
              << "):\n";
    for (const automaton* a : sys.system->parts()) {
        std::cout << "  " << a->name() << "\n";
    }

    // Channel matrix: for each processor automaton, which register it can
    // read and which it can write -- probed through the signatures.
    std::cout << "\nChannel matrix (derived from automaton signatures):\n\n";
    table t({"Processor", "reads Reg0", "reads Reg1", "writes Reg0",
             "writes Reg1", "external port"});
    auto probe = [&](const std::string& who, const std::string& ext) {
        auto can = [&](const automaton* reg, act kind, const std::string& chan) {
            return reg->in_input(action{kind, chan, 0});
        };
        const automaton* reg0 = sys.reg0;
        const automaton* reg1 = sys.reg1;
        t.row({who,
               can(reg0, act::read_request, who + "->reg0") ? "yes" : "-",
               can(reg1, act::read_request, who + "->reg1") ? "yes" : "-",
               can(reg0, act::write_request, who + "->reg0") ? "yes" : "-",
               can(reg1, act::write_request, who + "->reg1") ? "yes" : "-",
               ext});
    };
    probe("wr0", "ext:wr0");
    probe("wr1", "ext:wr1");
    for (int j = 1; j <= readers; ++j) {
        probe("rd" + std::to_string(j), "ext:rd" + std::to_string(j));
    }
    t.print(std::cout);

    std::cout << "\nAs in the paper: Wr_i writes Reg_i and reads (but cannot\n"
              << "write) Reg_{1-i}; every reader reads both real registers;\n"
              << "each real register is 1-writer, (n+1)-reader.\n";

    if (!json_path.empty()) {
        std::ofstream os(json_path);
        if (!os) {
            std::cerr << "cannot write " << json_path << "\n";
            return 66;
        }
        harness::report_writer rep(os, "fig2_architecture");
        rep.add_table("channel_matrix", t);
        rep.finish();
        std::cout << "\nwrote " << json_path << "\n";
    }
    return 0;
}
