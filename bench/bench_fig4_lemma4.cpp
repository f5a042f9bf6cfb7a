// [FIG4] Regenerates the content of Figure 4 of the paper: the timing of a
// read of an impotent write (Lemma 4: the *-action assigned to the impotent
// write falls INSIDE the read's interval, so Step 3's placement is legal).
//
//  1. A deterministic replay of the paper's "very slow reader" (Section
//     7.2): the reader samples stale tags, sleeps through two writes, and
//     returns the impotent write's value; the report prints where each
//     *-action lands relative to the read's interval.
//  2. Randomized validation through the run harness: paced concurrent
//     executions with slow readers on bloom/recording; the pipeline's Bloom
//     checker counts reads by class and verifies Lemma 4 containment for
//     every read of an impotent write (aborting with a diagnosis naming the
//     lemma if it ever fails).
//
//   bench_fig4_lemma4 [--json BENCH_fig4.json]
#include <fstream>
#include <iostream>
#include <string>

#include "core/protocol.hpp"
#include "harness/checkers.hpp"
#include "harness/cli.hpp"
#include "harness/driver.hpp"
#include "harness/report.hpp"
#include "histories/thread_log.hpp"
#include "histories/workload.hpp"
#include "linearizability/bloom_linearizer.hpp"
#include "registers/recording.hpp"
#include "util/table.hpp"

using namespace bloom87;
namespace harness = bloom87::harness;

namespace {

table deterministic_replay() {
    run_log log(3);
    recording_register reg0(tagged<value_t>{0, false}, &log, 0);
    recording_register reg1(tagged<value_t>{0, false}, &log, 1);

    auto sim_event = [&](event_kind k, processor_id proc, op_index op,
                         value_t v = 0) {
        event e;
        e.kind = k;
        e.processor = proc;
        e.op = op;
        e.value = v;
        log.record(proc, e);
    };

    // Reader (proc 2) starts, samples both tags (0,0), then stalls.
    sim_event(event_kind::sim_invoke_read, 2, 0);
    const bool rt0 = reg0.read({2, 0}).tag;  // T0
    const bool rt1 = reg1.read({2, 0}).tag;  // T1

    // W0 by Wr0 starts, reads Reg1, stalls; W1 by Wr1 completes; W0 writes
    // (impotent, prefinished by W1).
    sim_event(event_kind::sim_invoke_write, 0, 0, 100);
    const bool w0_saw = reg1.read({0, 0}).tag;
    sim_event(event_kind::sim_invoke_write, 1, 0, 200);
    const bool w1_saw = reg0.read({1, 0}).tag;
    reg1.write(tagged<value_t>{200, writer_tag_choice(1, w1_saw)}, {1, 0});
    sim_event(event_kind::sim_respond_write, 1, 0);
    reg0.write(tagged<value_t>{100, writer_tag_choice(0, w0_saw)}, {0, 0});
    sim_event(event_kind::sim_respond_write, 0, 0);

    // The reader wakes: its stale tags pick Reg0 and it returns the
    // impotent write's value.
    const value_t got =
        (reader_pick(rt0, rt1) == 0 ? reg0 : reg1).read({2, 0}).value;  // T2
    sim_event(event_kind::sim_respond_read, 2, 0, got);

    parse_result parsed = parse_history(log.merge(), 0);
    const bloom_result res = bloom_linearize(parsed.hist);

    std::cout << "slow reader returned: " << got << " (the IMPOTENT write)\n\n";
    table t({"op", "class / potency", "*-action anchor", "interval [inv,resp)"});
    for (const auto& sa : res.linearization) {
        const operation* op = parsed.hist.find(sa.id);
        std::string who = (sa.id.processor <= 1)
                              ? "Wr" + std::to_string(sa.id.processor)
                              : "Rd" + std::to_string(sa.id.processor - 1);
        std::string cls;
        if (op->kind == op_kind::write) {
            for (const auto& wa : res.writes) {
                if (wa.id == sa.id) cls = wa.potent ? "potent write" : "impotent write";
            }
        } else {
            for (const auto& ra : res.reads) {
                if (ra.id == sa.id) {
                    cls = ra.cls == read_class::of_impotent ? "read of impotent"
                          : ra.cls == read_class::of_potent ? "read of potent"
                                                            : "read of initial";
                }
            }
        }
        // Appended, not `"[" + std::to_string(...)`: GCC 12 -O3 misreports
        // that prepend as an overlapping memcpy (-Werror=restrict).
        std::string interval = "[";
        interval += std::to_string(op->invoked) + ", " +
                    std::to_string(op->responded) + ")";
        t.row({who, cls, "after gamma[" + std::to_string(sa.anchor) + "]",
               interval});
    }
    t.print(std::cout);
    std::cout << "\nverdict: " << (res.atomic ? "ATOMIC" : res.diagnosis)
              << " -- every *-action lies inside its operation's interval\n"
              << "(the for-contradiction ordering Ts0 < Ts1 < T0 of Figure 4\n"
              << "is impossible, which is exactly Lemma 4).\n";
    return t;
}

// Paced harness runs with slow readers (the paper's Section 7.2 reader,
// injected by the driver's read_paced pacing); the Bloom checker classifies
// every read and verifies containment per read of an impotent write.
[[nodiscard]] bool randomized_validation(table* out) {
    std::size_t of_potent = 0, of_impotent = 0, of_initial = 0, histories = 0;
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        harness::run_spec spec;
        spec.register_name = "bloom/recording";
        spec.load.writers = 2;
        spec.load.readers = 2;
        spec.load.ops_per_writer = 1200;
        spec.load.ops_per_reader = 1500;
        spec.load.writer_read_num = 0;  // writers only write, as in the figure
        spec.seed = seed + 100;
        spec.collect = harness::collect_mode::per_thread;
        spec.pace.writer_pace_num = 1;
        spec.pace.writer_pace_den = 10;
        spec.pace.reader_pace_num = 1;
        spec.pace.reader_pace_den = 3;  // the very slow reader
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
            std::cout << "LEMMA 4 VIOLATION: "
                      << (v.ran ? v.diagnosis : v.skip_reason) << "\n";
            return false;
        }
        of_potent += v.reads_of_potent;
        of_impotent += v.reads_of_impotent;
        of_initial += v.reads_of_initial;
        ++histories;
    }

    table t({"histories", "reads of potent", "reads of impotent",
             "reads of initial", "Lemma 4 containment"});
    t.row({std::to_string(histories), with_commas(of_potent),
           with_commas(of_impotent), with_commas(of_initial),
           "HOLDS for every read (verified per read by the linearizer)"});
    t.print(std::cout);
    *out = t;
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    harness::flag_parser parser(
        "bench_fig4_lemma4",
        "Lemma 4 timing: reads of impotent writes stay contained");
    std::string json_path;
    parser.add_string("json", "write a bloom87-harness report here",
                      &json_path);
    if (!parser.parse(argc, argv)) return 64;
    if (parser.help_requested()) return 0;

    print_banner(std::cout, "FIG4",
                 "Lemma 4 timing: reads of impotent writes stay contained");
    std::cout << "--- deterministic replay: the very slow reader ---\n\n";
    const table replay = deterministic_replay();
    std::cout << "\n--- randomized validation through the harness ---\n\n";
    table validation({"histories"});
    if (!randomized_validation(&validation)) return 1;

    if (!json_path.empty()) {
        std::ofstream os(json_path);
        if (!os) {
            std::cerr << "cannot write " << json_path << "\n";
            return 66;
        }
        harness::report_writer rep(os, "fig4_lemma4");
        rep.add_table("slow_reader_linearization", replay);
        rep.add_table("read_class_validation", validation);
        rep.finish();
        std::cout << "\nwrote " << json_path << "\n";
    }
    return 0;
}
