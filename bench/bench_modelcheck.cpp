// [TAB-D] Bounded model checking summary.
//
// States explored, distinct external histories, and the atomicity verdict
// for each protocol configuration the repository verifies exhaustively:
// Bloom's two-writer register (PASS at every bound), the deliberately
// broken tag-rule mutant (FAIL), the four-writer tournament (FAIL, with a
// violating trace printed), and the substrate constructions at their exact
// consistency levels.
//
// Every configuration runs once under the default partial-order + symmetry
// reduction. Unless a row is marked reduction-only (the raw interleaving
// space is priced out -- that affordability is the row's point), a second
// run with the reduction off (the full engine, one sequential DFS)
// cross-checks the contract: property_holds, violations, and
// distinct_histories must be IDENTICAL with and without it. Both engines
// run on one thread, so every count, the full engine's states at a FAIL
// row's first violation included, repeats run to run. Usage:
//
//   bench_modelcheck [--json BENCH_modelcheck.json]
//
// --json writes a machine-readable record (the verification matrix with
// wall ms per engine, plus reduction + memory accounting) so the perf
// trajectory is tracked across PRs.
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/report.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/processes.hpp"
#include "util/table.hpp"

using namespace bloom87;
using namespace bloom87::mc;

namespace {

mc_register make_reg(reg_level level, mc_value domain, mc_value committed) {
    mc_register r;
    r.level = level;
    r.domain = domain;
    r.committed = committed;
    return r;
}

struct bench_config {
    std::string name;
    std::string prop_name;
    property prop{property::atomic};
    value_t initial{0};
    bool expect_pass{true};
    bool print_first_violation{false};
    /// Skip the full-engine (por = false) cross-check: the raw interleaving
    /// space overruns any reasonable budget. These rows exist BECAUSE the
    /// reduction makes them affordable; the reduction contract is checked
    /// on every other row (and by the test suite on small twins of these).
    bool reduction_only{false};
    std::function<sim_state()> make;
};

struct timed_result {
    explore_result res;
    double ms{0};
};

timed_result run(const bench_config& c, bool por) {
    // Return the previous configuration's freed heap to the kernel before
    // starting the clock: glibc otherwise charges a one-off consolidation
    // pass (hundreds of ms after a multi-million-state run) to whichever
    // explore() happens to allocate next.
    harness::trim_heap();
    const sim_state s = c.make();
    explore_config cfg;
    cfg.prop = c.prop;
    cfg.initial = c.initial;
    cfg.por = por;
    const auto t0 = std::chrono::steady_clock::now();
    explore_result res = explore(s, cfg);
    const auto t1 = std::chrono::steady_clock::now();
    return {std::move(res),
            std::chrono::duration<double, std::milli>(t1 - t0).count()};
}

/// The reduction contract: reduced and full exploration agree on every
/// aggregate verdict. states/memo_hits/leaves are NOT compared -- the two
/// engines count different objects (quotient arrivals and label paths vs
/// raw states and schedules).
bool reduction_verdicts_match(const explore_result& red,
                              const explore_result& full) {
    if (red.property_holds != full.property_holds) return false;
    const bool stopped_early =
        !red.property_holds || red.truncated || full.truncated;
    if (stopped_early) return true;
    return red.violations == full.violations &&
           red.distinct_histories == full.distinct_histories;
}

std::vector<bench_config> make_configs() {
    std::vector<bench_config> configs;

    configs.push_back({"Bloom 2x2 writes, 1 reader", "atomic", property::atomic,
                       0, true, false, false, [] {
                           sim_state s;
                           s.registers = {make_reg(reg_level::atomic, 12, 0),
                                          make_reg(reg_level::atomic, 12, 0)};
                           s.procs.push_back(make_bloom_writer(0, {1, 2}));
                           s.procs.push_back(make_bloom_writer(1, {3, 4}));
                           s.procs.push_back(make_bloom_reader(2, 1));
                           return s;
                       }});
    configs.push_back({"Bloom 1x1 writes, 2 readers", "atomic", property::atomic,
                       0, true, false, false, [] {
                           sim_state s;
                           s.registers = {make_reg(reg_level::atomic, 6, 0),
                                          make_reg(reg_level::atomic, 6, 0)};
                           s.procs.push_back(make_bloom_writer(0, {1}));
                           s.procs.push_back(make_bloom_writer(1, {2}));
                           s.procs.push_back(make_bloom_reader(2, 2));
                           s.procs.push_back(make_bloom_reader(3, 1));
                           return s;
                       }});
    configs.push_back({"Bloom MUTANT (wrong tag rule)", "atomic",
                       property::atomic, 0, false, false, false, [] {
                           sim_state s;
                           s.registers = {make_reg(reg_level::atomic, 12, 0),
                                          make_reg(reg_level::atomic, 12, 0)};
                           s.procs.push_back(make_bloom_writer(0, {1, 2}));
                           s.procs.push_back(
                               make_bloom_writer_wrong_tag(1, {3, 4}));
                           s.procs.push_back(make_bloom_reader(2, 2));
                           return s;
                       }});
    configs.push_back({"Bloom, reader samples tags reversed (fn. 5)", "atomic",
                       property::atomic, 0, true, false, false, [] {
                           sim_state s;
                           s.registers = {make_reg(reg_level::atomic, 12, 0),
                                          make_reg(reg_level::atomic, 12, 0)};
                           s.procs.push_back(make_bloom_writer(0, {1, 2}));
                           s.procs.push_back(make_bloom_writer(1, {3, 4}));
                           s.procs.push_back(make_bloom_reader_reversed(2, 2));
                           return s;
                       }});
    configs.push_back({"Bloom ABLATION (third read skipped)", "atomic",
                       property::atomic, 0, false, false, false, [] {
                           sim_state s;
                           s.registers = {make_reg(reg_level::atomic, 12, 0),
                                          make_reg(reg_level::atomic, 12, 0)};
                           s.procs.push_back(make_bloom_writer(0, {1, 2}));
                           s.procs.push_back(make_bloom_writer(1, {3, 4}));
                           s.procs.push_back(make_bloom_reader_no_reread(2, 2));
                           return s;
                       }});
    // Previously priced out: the raw 3x3-write interleaving space blows
    // through the 20M-state valve. The trace quotient is ~39k arrivals.
    configs.push_back({"Bloom 3x3 writes, 1 reader (reduction only)", "atomic",
                       property::atomic, 0, true, false, true, [] {
                           sim_state s;
                           s.registers = {make_reg(reg_level::atomic, 14, 0),
                                          make_reg(reg_level::atomic, 14, 0)};
                           s.procs.push_back(make_bloom_writer(0, {1, 2, 3}));
                           s.procs.push_back(make_bloom_writer(1, {4, 5, 6}));
                           s.procs.push_back(make_bloom_reader(2, 1));
                           return s;
                       }});
    configs.push_back({"Tournament 4-writer (Fig. 5)", "atomic",
                       property::atomic, 1, false, true, false, [] {
                           sim_state s;
                           s.registers = {
                               make_reg(reg_level::atomic, 10,
                                        encode_tagged(1, false)),
                               make_reg(reg_level::atomic, 10,
                                        encode_tagged(1, false))};
                           s.procs.push_back(make_tournament_writer(0, {2}));
                           s.procs.push_back(make_tournament_writer(1, {3}));
                           s.procs.push_back(make_tournament_writer(3, {4}));
                           s.procs.push_back(make_tournament_reader(4, 2));
                           return s;
                       }});
    configs.push_back({"Simpson 4-slot, safe data + atomic ctrl", "atomic",
                       property::atomic, 0, true, false, false, [] {
                           sim_state s;
                           for (int i = 0; i < 4; ++i) {
                               s.registers.push_back(
                                   make_reg(reg_level::safe, 3, 0));
                           }
                           for (int i = 0; i < 4; ++i) {
                               s.registers.push_back(
                                   make_reg(reg_level::atomic, 2, 0));
                           }
                           s.procs.push_back(make_fourslot_writer(0, {1, 2}));
                           s.procs.push_back(make_fourslot_reader(0, 1, 2));
                           return s;
                       }});
    configs.push_back({"Simpson 4-slot, regular ctrl bits", "atomic",
                       property::atomic, 0, false, false, false, [] {
                           sim_state s;
                           for (int i = 0; i < 4; ++i) {
                               s.registers.push_back(
                                   make_reg(reg_level::safe, 3, 0));
                           }
                           for (int i = 0; i < 4; ++i) {
                               s.registers.push_back(
                                   make_reg(reg_level::regular, 2, 0));
                           }
                           s.procs.push_back(make_fourslot_writer(0, {1, 2}));
                           s.procs.push_back(make_fourslot_reader(0, 1, 2));
                           return s;
                       }});
    configs.push_back({"SWMR-from-SWSR, 2 readers", "atomic", property::atomic,
                       0, true, false, false, [] {
                           sim_state s;
                           for (int i = 0; i < 2 + 4; ++i) {
                               s.registers.push_back(
                                   make_reg(reg_level::atomic, 3, 0));
                           }
                           s.procs.push_back(make_mr_writer(0, 2, {1, 2}));
                           s.procs.push_back(make_mr_reader(0, 2, 0, 2, 2, {1, 2}));
                           s.procs.push_back(make_mr_reader(0, 2, 1, 3, 1, {1, 2}));
                           return s;
                       }});
    configs.push_back({"SWMR-from-SWSR, report round SKIPPED", "atomic",
                       property::atomic, 0, false, false, false, [] {
                           sim_state s;
                           for (int i = 0; i < 2 + 4; ++i) {
                               s.registers.push_back(
                                   make_reg(reg_level::atomic, 3, 0));
                           }
                           s.procs.push_back(make_mr_writer(0, 2, {1, 2}));
                           s.procs.push_back(
                               make_mr_reader_no_report(0, 2, 0, 2, 2, {1, 2}));
                           s.procs.push_back(
                               make_mr_reader_no_report(0, 2, 1, 3, 2, {1, 2}));
                           return s;
                       }});
    configs.push_back({"Lamport unary (3 regular bits)", "regular",
                       property::regular_swmr, 0, true, false, false, [] {
                           sim_state s;
                           for (int i = 0; i < 3; ++i) {
                               s.registers.push_back(make_reg(
                                   reg_level::regular, 2, i == 0 ? 1 : 0));
                           }
                           s.procs.push_back(make_unary_writer(0, 3, {2, 1}));
                           s.procs.push_back(make_unary_reader(0, 3, 1, 2));
                           return s;
                       }});
    configs.push_back({"Lamport unary (3 regular bits)", "atomic",
                       property::atomic, 0, false, false, false, [] {
                           sim_state s;
                           for (int i = 0; i < 3; ++i) {
                               s.registers.push_back(make_reg(
                                   reg_level::regular, 2, i == 0 ? 1 : 0));
                           }
                           s.procs.push_back(make_unary_writer(0, 3, {2, 1}));
                           s.procs.push_back(make_unary_reader(0, 3, 1, 2));
                           return s;
                       }});
    configs.push_back({"safe bit, naive writer", "regular",
                       property::regular_swmr, 0, false, false, false, [] {
                           sim_state s;
                           s.registers.push_back(make_reg(reg_level::safe, 2, 0));
                           s.procs.push_back(make_bit_writer(0, {1, 1}, false));
                           s.procs.push_back(make_bit_reader(0, 1, 1));
                           return s;
                       }});
    configs.push_back({"safe bit, write-only-changes writer", "regular",
                       property::regular_swmr, 0, true, false, false, [] {
                           sim_state s;
                           s.registers.push_back(make_reg(reg_level::safe, 2, 0));
                           s.procs.push_back(
                               make_bit_writer(0, {1, 1, 0, 1}, true));
                           s.procs.push_back(make_bit_reader(0, 1, 2));
                           return s;
                       }});
    // Previously priced out: two faults per process square the fault-
    // placement branching. Affordable under the reduction; a stale read
    // still breaks atomicity, so this row pins the FAIL verdict.
    configs.push_back({"Bloom FAULTY substrate (stale_read, <=2/proc)",
                       "atomic", property::atomic, 0, false, false, false, [] {
                           sim_state s;
                           for (int i = 0; i < 2; ++i) {
                               mc_register r =
                                   make_reg(reg_level::atomic, 6, 0);
                               r.track_previous = true;
                               s.registers.push_back(r);
                           }
                           s.procs.push_back(make_faulty_bloom_writer(
                               0, {1}, fault_class::stale_read, 2));
                           s.procs.push_back(make_faulty_bloom_writer(
                               1, {2}, fault_class::stale_read, 2));
                           s.procs.push_back(make_faulty_bloom_reader(
                               2, 1, fault_class::stale_read, 2));
                           return s;
                       }});
    return configs;
}

std::string yesno(bool b) { return b ? "true" : "false"; }

}  // namespace

int main(int argc, char** argv) {
    std::string json_path;
    harness::flag_parser parser("bench_modelcheck",
                                "bounded exhaustive verification, both engines");
    parser.add_string("json", "write a bloom87-harness report here",
                      &json_path);
    if (!parser.parse(argc, argv)) return 64;
    if (parser.help_requested()) return 0;

    print_banner(std::cout, "TAB-D", "Bounded exhaustive verification");
    std::cout << "reduction: partial-order + symmetry (default); each row is "
                 "cross-checked\nagainst full exploration unless marked "
                 "reduction-only\n\n";

    const std::vector<bench_config> configs = make_configs();

    table t({"configuration", "property", "states", "core", "histories",
             "verdict", "ms", "full ms", "reduction"});

    struct row {
        const bench_config* cfg;
        timed_result red;
        std::optional<timed_result> full;  // por = false cross-check
        bool red_match;  // red vs full: reduction contract (true if skipped)
    };
    std::vector<row> rows;
    bool all_match = true;
    for (const bench_config& c : configs) {
        timed_result red = run(c, true);
        std::optional<timed_result> full;
        if (!c.reduction_only) full = run(c, false);
        const bool red_match =
            !full || reduction_verdicts_match(red.res, full->res);
        all_match &= red_match;
        const bool pass = red.res.property_holds;
        // A truncated run with no violation certifies nothing.
        const bool truncated_pass = pass && red.res.truncated;
        const reduction_stats& rs = red.res.reduction;
        std::string check =
            full ? (red_match ? "vs full: ok" : "** MISMATCH **")
                 : "quotient only";
        if (rs.engaged && rs.symmetry) {
            check += ", |G|=" + std::to_string(rs.symmetry_group);
        }
        t.row({c.name, c.prop_name, with_commas(red.res.states_explored),
               rs.engaged ? with_commas(rs.core_states) : "-",
               with_commas(red.res.distinct_histories),
               std::string(truncated_pass ? "TRUNCATED"
                           : pass       ? "PASS"
                                        : "FAIL") +
                   (!truncated_pass && pass == c.expect_pass
                        ? " (expected)"
                        : "  ** UNEXPECTED **"),
               fixed(red.ms, 1), full ? fixed(full->ms, 1) : "-", check});
        if (c.print_first_violation && red.res.first_violation) {
            std::cout << "  " << c.name << " -- a violating history"
                      << (red.res.first_violation_reduced
                              ? " (reconstructed from the reduced space)"
                              : "")
                      << ":\n"
                      << format_operations(red.res.first_violation->hist);
        }
        rows.push_back({&c, std::move(red), std::move(full), red_match});
    }
    t.print(std::cout);
    if (!all_match) {
        std::cout << "\n** at least one configuration DISAGREES with full "
                     "exploration **\n";
    }

    if (!json_path.empty()) {
        // Reduction + memory accounting per row, plus the full-engine
        // cross-check (raw states and wall ms give the reduction factor).
        table reduction({"name", "por_engaged", "symmetry", "symmetry_group",
                         "core_states", "core_edges", "sleep_pruned",
                         "dfa_states", "enumerated_paths", "judge_states",
                         "product_pairs", "first_violation_reduced",
                         "memo_entries", "memo_bytes", "bytes_per_state",
                         "graph_bytes", "full_states", "full_wall_ms",
                         "reduction_verdicts_match"});
        for (const row& r : rows) {
            const explore_result& res = r.red.res;
            reduction.row(
                {r.cfg->name, yesno(res.reduction.engaged),
                 yesno(res.reduction.symmetry),
                 std::to_string(res.reduction.symmetry_group),
                 std::to_string(res.reduction.core_states),
                 std::to_string(res.reduction.core_edges),
                 std::to_string(res.reduction.sleep_pruned),
                 std::to_string(res.reduction.dfa_states),
                 std::to_string(res.reduction.enumerated_paths),
                 std::to_string(res.reduction.judge_states),
                 std::to_string(res.reduction.product_pairs),
                 yesno(res.first_violation_reduced),
                 std::to_string(res.memory.memo_entries),
                 std::to_string(res.memory.memo_bytes),
                 std::to_string(res.memory.bytes_per_state),
                 std::to_string(res.memory.graph_bytes),
                 r.full ? std::to_string(r.full->res.states_explored)
                        : "skipped",
                 r.full ? fixed(r.full->ms, 3) : "skipped",
                 r.full ? yesno(r.red_match) : "skipped"});
        }
        std::ofstream os(json_path);
        if (!os) {
            std::cerr << "cannot write " << json_path << "\n";
            return 66;
        }
        harness::report_writer rep(os, "modelcheck");
        rep.add_table("verification_matrix", t);
        rep.add_table("reduction", reduction);
        rep.finish();
        std::cout << "\nwrote " << json_path << "\n";
    }
    return all_match ? 0 : 1;
}
