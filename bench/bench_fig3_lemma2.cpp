// [FIG3] Regenerates the content of Figure 3 of the paper: the timing
// structure behind Lemma 2 ("the prefinisher of an impotent write is
// potent"). Two parts:
//
//  1. A deterministic replay of the impotent-write interleaving, printing
//     the tag-bit timeline in the style of the paper's figure.
//  2. Randomized validation through the run harness: thousands of paced
//     concurrent executions on bloom/recording; every write is classified
//     potent/impotent, every impotent write's prefinisher is located
//     (Lemma 1) and checked potent (Lemma 2). The constructive linearizer
//     aborts with the lemma's name if either ever fails, so the run
//     doubles as a statistical test of the lemmas.
//
//   bench_fig3_lemma2 [--json BENCH_fig3.json]
#include <fstream>
#include <iostream>
#include <string>

#include "harness/checkers.hpp"
#include "harness/cli.hpp"
#include "harness/driver.hpp"
#include "harness/report.hpp"
#include "histories/event_log.hpp"
#include "histories/workload.hpp"
#include "registers/recording.hpp"
#include "util/table.hpp"

using namespace bloom87;
namespace harness = bloom87::harness;

namespace {

table deterministic_replay() {
    event_log log(64);
    recording_register reg0(tagged<value_t>{0, false}, &log, 0);
    recording_register reg1(tagged<value_t>{0, false}, &log, 1);

    table t({"Time", "Event", "Reg0 tag", "Reg1 tag", "note"});
    bool t0 = false, t1 = false;
    auto row = [&](const std::string& when, const std::string& what,
                   const std::string& note) {
        t.row({when, what, t0 ? "1" : "0", t1 ? "1" : "0", note});
    };

    row("-", "initial", "both tags 0, sum 0");

    // W0 by Wr0: real read at T0r, then it stalls.
    const bool w0_saw = reg1.read({0, 0}).tag;  // T0r
    row("T0r", "Wr0 reads Reg1", "W0 sees tag " + std::string(w0_saw ? "1" : "0"));

    // W1 by Wr1: full write within W0's window.
    const bool w1_saw = reg0.read({1, 0}).tag;  // T1r
    row("T1r", "Wr1 reads Reg0", "W1 sees tag " + std::string(w1_saw ? "1" : "0"));
    const bool w1_tag = writer_tag_choice(1, w1_saw);
    reg1.write(tagged<value_t>{200, w1_tag}, {1, 0});  // T1w
    t1 = w1_tag;
    row("T1w", "Wr1 writes Reg1", "sum now 1: W1 is POTENT");

    // W0 resumes with stale information.
    const bool w0_tag = writer_tag_choice(0, w0_saw);
    reg0.write(tagged<value_t>{100, w0_tag}, {0, 0});  // T0w
    t0 = w0_tag;
    row("T0w", "Wr0 writes Reg0",
        "sum still 1 != 0: W0 is IMPOTENT, prefinished by W1");
    t.print(std::cout);

    std::cout
        << "\nLemma 2's proof shows the five times of a hypothetical\n"
        << "impotent prefinisher would have to satisfy T1r < T1w' < T0r <\n"
        << "T1w < T0w -- forcing an earlier impotent write without a potent\n"
        << "prefinisher, a contradiction. Above, W1 read Reg0 BEFORE W0's\n"
        << "write and wrote within W0's window, so W1 is potent and\n"
        << "prefinishes W0.\n";
    return t;
}

// Paced writer-only harness runs on the recording substrate; the pipeline's
// Bloom checker classifies every write and revalidates Lemmas 1/2 on each
// impotent one.
[[nodiscard]] bool randomized_validation(table* out) {
    std::size_t potent = 0, impotent = 0, histories = 0;
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
        harness::run_spec spec;
        spec.register_name = "bloom/recording";
        spec.load.writers = 2;
        spec.load.readers = 0;
        spec.load.ops_per_writer = 2000;
        spec.load.ops_per_reader = 0;
        spec.load.writer_read_num = 0;  // writes only, as in the figure
        spec.seed = seed + 1;
        spec.collect = harness::collect_mode::gamma;
        spec.pace.writer_pace_num = 1;
        spec.pace.writer_pace_den = 10;
        spec.pace.pause_yields = 256;
        const harness::run_result res = harness::run(spec);
        if (!res.ok) {
            std::cout << "RUN FAILED: " << res.error << "\n";
            return false;
        }
        const harness::pipeline_result checks = harness::run_checkers(
            res.events, spec.initial, {harness::checker_kind::bloom},
            spec.register_name);
        if (!checks.parsed) {
            std::cout << "RECORDING DEFECT: " << checks.parse_error << "\n";
            return false;
        }
        const harness::check_verdict& v = checks.verdicts.front();
        if (!v.ran || !v.pass) {
            std::cout << "LEMMA VIOLATION: "
                      << (v.ran ? v.diagnosis : v.skip_reason) << "\n";
            return false;
        }
        potent += v.potent_writes;
        impotent += v.impotent_writes;
        ++histories;
    }

    table t({"histories", "writes", "potent", "impotent", "impotent %",
             "Lemma 1", "Lemma 2"});
    const std::size_t writes = potent + impotent;
    t.row({std::to_string(histories), with_commas(writes), with_commas(potent),
           with_commas(impotent),
           fixed(100.0 * static_cast<double>(impotent) /
                     static_cast<double>(writes),
                 3),
           "every impotent write has a unique prefinisher: HOLDS",
           "every prefinisher is potent: HOLDS"});
    t.print(std::cout);
    *out = t;
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    harness::flag_parser parser(
        "bench_fig3_lemma2",
        "Lemma 2 timing: impotent writes and their prefinishers");
    std::string json_path;
    parser.add_string("json", "write a bloom87-harness report here",
                      &json_path);
    if (!parser.parse(argc, argv)) return 64;
    if (parser.help_requested()) return 0;

    print_banner(std::cout, "FIG3",
                 "Lemma 2 timing: impotent writes and their prefinishers");
    std::cout << "--- deterministic replay of the impotence interleaving ---\n\n";
    const table timeline = deterministic_replay();
    std::cout << "\n--- randomized validation over paced harness runs ---\n\n";
    table validation({"histories"});
    if (!randomized_validation(&validation)) return 1;

    if (!json_path.empty()) {
        std::ofstream os(json_path);
        if (!os) {
            std::cerr << "cannot write " << json_path << "\n";
            return 66;
        }
        harness::report_writer rep(os, "fig3_lemma2");
        rep.add_table("impotence_timeline", timeline);
        rep.add_table("lemma_validation", validation);
        rep.finish();
        std::cout << "\nwrote " << json_path << "\n";
    }
    return 0;
}
