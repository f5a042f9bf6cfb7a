// [TAB-F] The fault-tolerance matrix: {composition} x {fault class} x {rate}.
//
// Drives every faulty/ composition through the harness under each substrate
// fault class of registers/faulty.hpp, plus the two protocol-level
// adversaries the harness already knew (a writer crashing mid-protocol, a
// stalled/paced writer), with the streaming checker reading the recorded
// gamma. One verdict per cell:
//
//   tolerated  every checker passed and the stream stayed silent. Expected
//              for crash/stall classes: Bloom's construction is proven
//              wait-free (paper, Section 4) and its Section 7 proof treats
//              pending operations first-class, so crashes and stalls stay
//              inside the fault model.
//   detected   the streaming checker flagged an atomicity violation; the
//              latency column counts the completed operations between the
//              first injection and the minimal violating prefix. Expected
//              for the value-corrupting classes (stale_read, lost_write,
//              torn_value, delayed_visibility): those break the substrate-
//              atomicity assumption the proof rests on.
//   missed     faults were injected but nothing noticed, across every
//              attempted seed. A corrupting class slipping through is a
//              bench failure (exit 1).
//   broken     a crash/stall cell failed checking: a real protocol bug.
//
//   bench_fault_matrix [--ops N] [--rates a,b] [--json BENCH_faults.json]
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "harness/checkers.hpp"
#include "harness/cli.hpp"
#include "harness/driver.hpp"
#include "harness/report.hpp"
#include "registers/faulty.hpp"
#include "util/table.hpp"

using namespace bloom87;
namespace harness = bloom87::harness;

namespace {

/// One row of the sweep: either a substrate fault class or a protocol-level
/// adversary expressed through the driver's pacing knobs. The expectation
/// is per-row, NOT derivable from the class alone: the same fault class
/// means different things on different substrates (lost_write corrupts a
/// shared-memory register but is just message loss on the bus, which ABD's
/// retransmission + quorum machinery must absorb silently).
struct scenario {
    std::string label;
    fault_class cls{fault_class::none};
    bool writer_crash{false};  ///< pacing: write_crashed at 1/den of writes
    bool writer_stall{false};  ///< pacing: paced (very slow) writes at 1/den
    bool expect_detect{false};
    /// Crash-recovery: crashed servers rejoin after this many further bus
    /// deliveries (0 = crash-stop forever, PR-8 behavior).
    std::uint64_t recover_after{0};
    /// Non-empty = a COMPOSED multi-class plan (overrides cls); every entry
    /// rolls independently per access, first hit wins (faulty.hpp).
    std::vector<fault_entry> composed{};
    /// Either outcome acceptable: the composition ABSORBS most injections
    /// of this class by construction (twobit's value-conflict re-query
    /// outvotes a single forged reply), but an unlucky quorum can still
    /// surface one, which the pipeline must then catch. `tolerated` and
    /// `detected` both pass; only an UNCAUGHT violation fails.
    bool may_detect{false};

    [[nodiscard]] bool expects_detection() const noexcept {
        return expect_detect;
    }
    [[nodiscard]] bool rated() const noexcept {
        return cls != fault_class::none || writer_crash || writer_stall;
    }
};

struct cell_outcome {
    harness::run_spec spec;
    harness::run_result result;
    harness::pipeline_result checks;
    std::string verdict;
    std::uint64_t seeds_tried{1};
    bool acceptable{false};
};

cell_outcome run_cell(const std::string& reg, const scenario& sc,
                      std::uint64_t rate_den, std::size_t ops,
                      std::uint64_t base_seed, std::uint64_t attempts) {
    cell_outcome out;
    const std::vector<harness::checker_kind> kinds = {
        harness::checker_kind::fast, harness::checker_kind::monitor};
    for (std::uint64_t attempt = 0; attempt < attempts; ++attempt) {
        harness::run_spec spec;
        spec.register_name = reg;
        // Two writers where the register supports them (the paper's
        // two-writer setting); SWMR compositions get their one.
        const harness::registry_entry* entry = harness::find_register(reg);
        spec.load.writers =
            entry != nullptr && entry->info.max_writers >= 2 ? 2 : 1;
        spec.load.readers = 2;
        spec.load.ops_per_writer = ops;
        spec.load.ops_per_reader = ops;
        spec.seed = base_seed + attempt;
        spec.collect = harness::collect_mode::per_thread;
        // Stalls only exist under real concurrency; everything else runs on
        // the deterministic seeded scheduler so a cell reproduces exactly.
        spec.schedule = sc.writer_stall ? harness::schedule_mode::threads
                                        : harness::schedule_mode::seeded;
        if (sc.writer_crash) {
            spec.pace.crash_num = 1;
            spec.pace.crash_den = rate_den;
        }
        if (sc.writer_stall) {
            spec.pace.writer_pace_num = 1;
            spec.pace.writer_pace_den = rate_den;
            spec.pace.pause_yields = 128;
        }
        if (!sc.composed.empty()) {
            spec.fault.composed = sc.composed;
            spec.fault.seed = base_seed + attempt;
        } else if (sc.cls != fault_class::none) {
            spec.fault.cls = sc.cls;
            spec.fault.rate_num = 1;
            spec.fault.rate_den = rate_den;
            spec.fault.seed = base_seed + attempt;
        }
        spec.fault.recover_after = sc.recover_after;
        spec.streaming_monitor = true;

        out.spec = spec;
        out.seeds_tried = attempt + 1;
        out.result = harness::run(spec);
        if (!out.result.ok) {
            out.verdict = "error: " + out.result.error;
            return out;
        }
        out.checks = harness::run_checkers(out.result.events, spec.initial,
                                           kinds, spec.register_name);
        const bool clean =
            out.checks.all_pass() && !out.result.stream.violation;
        if (sc.may_detect) {
            // Absorb-or-catch: one schedule decides. A violation the stream
            // (or the post-hoc checkers) surfaced is `detected`; a
            // clean run means the protocol voted the forgery out.
            out.verdict = clean ? "tolerated" : "detected";
            out.acceptable = true;
            return out;
        }
        if (!sc.expects_detection()) {
            // Crash/stall classes must be absorbed on the FIRST schedule:
            // any violation here is a protocol bug, not bad luck.
            out.verdict = clean ? "tolerated" : "broken";
            out.acceptable = clean;
            return out;
        }
        if (out.result.stream.violation) {
            out.verdict = "detected";
            out.acceptable = true;
            return out;
        }
        // Injected but unnoticed (or the rate never fired): try another
        // seed -- corruption needs a reader looking at the right moment.
    }
    out.verdict = "missed";
    return out;
}

[[nodiscard]] std::string rate_label(const scenario& sc,
                                     std::uint64_t rate_den) {
    if (!sc.composed.empty()) {
        std::string out;
        for (const fault_entry& fe : sc.composed) {
            if (!out.empty()) out += "+";
            out += "1/" + std::to_string(fe.rate_den);
        }
        return out;
    }
    if (!sc.rated()) return "-";
    return "1/" + std::to_string(rate_den);
}

/// One cell of the detection-latency scaling sweep: a seeded faulty/seqlock
/// run watched mid-stream by the streaming checker, retried across seeds
/// until the injected corruption is actually observed. Reports how many
/// completed operations the corruption hid behind (latency_ops) as a
/// function of fault rate and checker stride.
struct scaling_cell {
    harness::run_spec spec;
    harness::run_result result;
    std::uint64_t seeds_tried{1};
    bool detected{false};
};

scaling_cell run_scaling_cell(std::uint64_t rate_den, unsigned stride,
                              std::size_t ops, std::uint64_t base_seed,
                              std::uint64_t attempts) {
    scaling_cell out;
    for (std::uint64_t attempt = 0; attempt < attempts; ++attempt) {
        harness::run_spec spec;
        spec.register_name = "faulty/seqlock";
        spec.load.writers = 2;
        spec.load.readers = 2;
        spec.load.ops_per_writer = ops;
        spec.load.ops_per_reader = ops;
        spec.seed = base_seed + attempt;
        spec.collect = harness::collect_mode::per_thread;
        spec.schedule = harness::schedule_mode::seeded;
        spec.fault.cls = fault_class::stale_read;
        spec.fault.rate_num = 1;
        spec.fault.rate_den = rate_den;
        spec.fault.seed = base_seed + attempt;
        spec.streaming_monitor = true;
        spec.stream_window = 4 * stride;
        spec.stream_stride = stride;

        out.spec = spec;
        out.seeds_tried = attempt + 1;
        out.result = harness::run(spec);
        if (!out.result.ok) return out;
        if (out.result.stream.violation) {
            out.detected = true;
            return out;
        }
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    harness::common_flags flags;
    flags.ops = 160;
    std::uint64_t attempts = 6;
    harness::flag_parser parser(
        "bench_fault_matrix",
        "fault-tolerance matrix: composition x fault class x rate");
    flags.add_to(parser);
    parser.add_uint64("attempts",
                      "seeds to try per corrupting cell before calling it "
                      "missed",
                      &attempts);
    if (!parser.parse(argc, argv)) return 64;
    if (parser.help_requested()) return 0;
    if (flags.list) {
        harness::print_register_list(std::cout);
        return 0;
    }

    print_banner(std::cout, "TAB-F",
                 "Fault tolerance of the two-writer compositions");

    // Shared-memory substrates: a corrupting class (stale/lost/torn/delayed)
    // breaks the substrate-atomicity assumption and must be detected.
    const std::vector<std::string> compositions = {
        "faulty/seqlock", "faulty/fourslot", "faulty/recording"};
    const std::vector<scenario> scenarios = {
        {"clean", fault_class::none, false, false, false},
        {"writer_crash", fault_class::none, true, false, false},
        {"writer_stall", fault_class::none, false, true, false},
        {"port_crash", fault_class::port_crash, false, false, false},
        {"stale_read", fault_class::stale_read, false, false, true},
        {"lost_write", fault_class::lost_write, false, false, true},
        {"torn_value", fault_class::torn_value, false, false, true},
        {"delayed_visibility", fault_class::delayed_visibility, false, false,
         true},
    };
    // Message-passing composition: the same classes map to bus faults
    // (src/net/bus.hpp). Loss, delay, and f server crashes are exactly what
    // ABD is DESIGNED to survive -- those rows must stay tolerated; only
    // the classes that forge server state (stale quorum replies) or values
    // on the wire (torn payloads) break atomicity detectably.
    const std::vector<std::string> net_compositions = {"net/abd-mw"};
    const std::vector<scenario> net_scenarios = {
        {"clean", fault_class::none, false, false, false},
        {"server_crash", fault_class::port_crash, false, false, false},
        {"message_loss", fault_class::lost_write, false, false, false},
        {"message_delay", fault_class::delayed_visibility, false, false,
         false},
        {"stale_read", fault_class::stale_read, false, false, true},
        {"torn_value", fault_class::torn_value, false, false, true},
    };
    // Bounded-control composition (net/twobit): its own per-MESSAGE-CLASS
    // rows, one per bus fault keyed to the message kinds it touches.
    // Loss (any kind), delay, and crashing servers are the design
    // envelope -- consecutive adoption is idempotent under retransmission
    // and duplication -- so those rows stay tolerated. stale_read forges
    // only read_req replies (prev value + prev two-bit code) and torn_value
    // corrupts only value-carrying kinds (read_ack / write_req payloads).
    // Unlike ABD, the two-bit read path CROSS-CHECKS values per code (one
    // code fronting two values forces a re-query), so a single forged reply
    // is usually outvoted rather than believed -- those rows are
    // absorb-or-catch (`may_detect`): tolerated and detected both pass.
    const std::vector<std::string> twobit_compositions = {"net/twobit"};
    const std::vector<scenario> twobit_scenarios = {
        {"clean", fault_class::none, false, false, false},
        {"server_crash", fault_class::port_crash, false, false, false},
        {"message_loss", fault_class::lost_write, false, false, false},
        {"message_delay", fault_class::delayed_visibility, false, false,
         false},
        {"stale_read", fault_class::stale_read, false, false, false, 0, {},
         true},
        {"torn_value", fault_class::torn_value, false, false, false, 0, {},
         true},
    };
    // Self-healing: the repair wrapper re-reads/votes/rewrites around the
    // SAME corrupting classes that read `detected` on faulty/seqlock above.
    // Those cells must flip to `tolerated` -- atomicity restored at a
    // measured access-count cost (the v6 report's recovery.repair block).
    // delayed_visibility stays out: a delayed cell looks self-consistent to
    // majority voting until it surfaces, so repair cannot promise it.
    const std::vector<std::string> repair_compositions = {"repair/seqlock"};
    const std::vector<scenario> repair_scenarios = {
        {"clean", fault_class::none, false, false, false},
        {"stale_read", fault_class::stale_read, false, false, false},
        {"lost_write", fault_class::lost_write, false, false, false},
        {"torn_value", fault_class::torn_value, false, false, false},
    };
    // Crash-RECOVERY rows, one per net register: servers crash-stop at the
    // plan's rate, rejoin `recover_after` deliveries later (incarnation
    // bump + state-transfer catch-up), and the run must still check clean.
    // The composed row drives the full multi-class plan -- loss + crash +
    // delay, each rolling independently -- through the same machinery.
    const auto composed_plan = [] {
        return std::vector<fault_entry>{
            {fault_class::lost_write, 1, 64},
            {fault_class::port_crash, 1, 64},
            {fault_class::delayed_visibility, 1, 64}};
    };
    const std::vector<std::string> recovery_compositions = {
        "net/abd-swmr", "net/abd-mw", "net/twobit"};
    const std::vector<scenario> recovery_scenarios = {
        {"crash_recover", fault_class::port_crash, false, false, false, 40},
        {"composed", fault_class::none, false, false, false, 40,
         composed_plan()},
    };
    const std::vector<std::uint64_t> rate_dens = {64, 16};

    table t({"composition", "fault", "rate", "injected", "verdict",
             "latency (ops)", "seeds"});
    std::vector<cell_outcome> cells;
    bool all_acceptable = true;

    const auto sweep = [&](const std::vector<std::string>& regs,
                           const std::vector<scenario>& scs,
                           const std::vector<std::uint64_t>& sweep_dens) {
        for (const std::string& reg : regs) {
            for (const scenario& sc : scs) {
                // Composed plans carry their rates in the entries; unrated
                // rows have nothing to sweep. Both run once.
                const std::vector<std::uint64_t> dens =
                    sc.rated() && sc.composed.empty()
                        ? sweep_dens
                        : std::vector<std::uint64_t>{64};
                for (std::uint64_t den : dens) {
                    cell_outcome cell = run_cell(reg, sc, den, flags.ops,
                                                 flags.seed, attempts);
                    const auto& so = cell.result.stream;
                    const std::uint64_t injected =
                        cell.result.faults_injected.total() +
                        cell.result.crashes_injected;
                    t.row({reg, sc.label, rate_label(sc, den),
                           std::to_string(injected), cell.verdict,
                           so.violation && cell.result.faults_injected
                                                   .first_injection != no_event
                               ? std::to_string(so.prefix_latency_ops)
                               : "-",
                           std::to_string(cell.seeds_tried)});
                    all_acceptable = all_acceptable && cell.acceptable;
                    cells.push_back(std::move(cell));
                    harness::trim_heap();
                }
            }
        }
    };
    sweep(compositions, scenarios, rate_dens);
    sweep(net_compositions, net_scenarios, rate_dens);
    sweep(twobit_compositions, twobit_scenarios, rate_dens);
    // Repair holds at 1/64; 1/16 overwhelms its bounded vote/rewrite budget
    // (3 rounds), so the sweep stays at the rate the wrapper is sized for.
    sweep(repair_compositions, repair_scenarios, {64});
    sweep(recovery_compositions, recovery_scenarios, {64});

    t.print(std::cout);
    std::cout << "\nReading the matrix: crash/stall rows stay `tolerated`\n"
              << "(the paper's fault model, Sections 4 and 7); every value-\n"
              << "corrupting row must read `detected`, with the latency\n"
              << "column showing how many operations the corruption hid\n"
              << "behind before the minimal violating prefix. On the\n"
              << "net/ rows the fault model flips: message loss, delay,\n"
              << "and f server crashes are ABD's design envelope and must\n"
              << "stay `tolerated`; only forged server state (stale_read)\n"
              << "and corrupted payloads (torn_value) are detectable.\n"
              << "The net/twobit rows run the same per-message-class sweep\n"
              << "against the bounded-control construction: its read path\n"
              << "cross-checks values per two-bit code, so a single forged\n"
              << "reply is usually outvoted (`tolerated`) and only an\n"
              << "unlucky quorum surfaces one for the pipeline to catch\n"
              << "(`detected`) -- both verdicts pass on those rows.\n"
              << "The repair/ rows re-run faulty/seqlock's detected classes\n"
              << "through the self-healing wrapper -- same faults, now\n"
              << "`tolerated`, at the access-count overhead recorded in\n"
              << "each run's recovery.repair block. The crash_recover and\n"
              << "composed rows crash servers that REJOIN (incarnation\n"
              << "bump + state-transfer catch-up) mid-run, under single-\n"
              << "and multi-class plans.\n\n";

    // Detection-latency scaling: the streaming checker's first-violation
    // latency against fault rate and checking stride. Rarer faults take
    // longer to land in front of a reader; a coarser stride defers the
    // check that would notice. Both effects should be visible in the grid.
    const std::vector<std::uint64_t> scale_rates = {16, 64, 256};
    const std::vector<unsigned> scale_strides = {16, 64, 256};
    table scaling({"rate", "stride", "injected", "latency (ops)", "seeds"});
    std::vector<scaling_cell> scaling_cells;
    for (const std::uint64_t den : scale_rates) {
        for (const unsigned stride : scale_strides) {
            scaling_cell cell = run_scaling_cell(den, stride, flags.ops,
                                                 flags.seed, attempts);
            if (!cell.result.ok) {
                std::cerr << "scaling cell failed: " << cell.result.error
                          << "\n";
                return 1;
            }
            scaling.row({"1/" + std::to_string(den), std::to_string(stride),
                         std::to_string(cell.result.faults_injected.total()),
                         cell.detected
                             ? std::to_string(cell.result.stream.latency_ops)
                             : "missed",
                         std::to_string(cell.seeds_tried)});
            all_acceptable = all_acceptable && cell.detected;
            scaling_cells.push_back(std::move(cell));
            harness::trim_heap();
        }
    }
    std::cout << "Detection-latency scaling (streaming checker, "
              << "faulty/seqlock stale_read):\n";
    scaling.print(std::cout);

    if (!all_acceptable) {
        std::cout << "\nUNEXPECTED verdicts present -- see the matrix.\n";
    }

    if (!flags.json_path.empty()) {
        std::ofstream os(flags.json_path);
        if (!os) {
            std::cerr << "cannot write " << flags.json_path << "\n";
            return 66;
        }
        harness::report_writer rep(os, "fault_matrix");
        for (const cell_outcome& cell : cells) {
            rep.add_run(cell.spec, cell.result, &cell.checks,
                        [&cell](json_writer& w) {
                            w.field("verdict", cell.verdict);
                            w.field("seeds_tried", cell.seeds_tried);
                        });
        }
        for (const scaling_cell& cell : scaling_cells) {
            rep.add_run(cell.spec, cell.result, nullptr,
                        [&cell](json_writer& w) {
                            w.field("verdict",
                                    cell.detected ? "detected" : "missed");
                            w.field("seeds_tried", cell.seeds_tried);
                        });
        }
        rep.add_table("fault_matrix", t);
        rep.add_table("detection_latency_scaling", scaling);
        rep.finish();
        std::cout << "wrote " << flags.json_path << "\n";
    }
    return all_acceptable ? 0 : 1;
}
