// model_explorer: command-line front end to the bounded model checker.
//
// Explore every schedule of a register protocol at a chosen bound and print
// the verdict -- or the first violating history. Usage:
//
//   model_explorer [flags] bloom      [writes_per_writer] [readers] [reads_each]
//   model_explorer [flags] tournament [reads]
//   model_explorer [flags] fourslot   safe|regular|atomic [writes] [reads]
//   model_explorer [flags] unary      [k] [reads]
//   model_explorer [flags] faulty     <fault_class> [writes] [reads] [max_faults]
//   model_explorer [flags] race       packed|plain|seqlock|seqlock-weak|fourslot|
//                                     fourslot-textbook|fourslot-safe|fourslot-regular [args]
//   model_explorer [flags] abd        swmr|mw [writers] [writes_each] [readers] [reads_each] [servers] [crashes]
//
// Flags (anywhere; the rest stays positional):
//   --threads N     worker count of the full engine (--no-por, race mode, or
//                   a configuration the reduction cannot take; default:
//                   hardware_concurrency; 1 = the deterministic sequential
//                   order). The default reduced engine is sequential and
//                   ignores it.
//   --max-states N  budget before TRUNCATED (default 20000000): explored
//                   states; the reduced engine adds its label-DAG states,
//                   memoized (DAG state, judge state) pairs and histories
//                   rebuilt for the per-history checker
//   --no-por        full interleaving exploration instead of the default
//                   partial-order-reduced (trace-quotient) engine
//   --no-symmetry   keep POR but disable reader-symmetry canonicalization
//   --detector D    race mode only: hb, lockset, or both (default both --
//                   each detector gets its own independent exploration, and
//                   the hybrid agreement verdict plus any divergence witness
//                   are printed after the two reports)
//
// The verdict -- and so the exit code -- is the same with and without the
// reduction flags. Only the work counters differ. Exit codes:
//   0  = property holds on every schedule
//   2  = violation found (history printed), truncated or not
//   3  = no violation within the budget, but truncated: nothing certified
//   64 = usage error (unknown mode or flag, malformed number)
// Examples:
//   ./model_explorer bloom 2 1 1        # Bloom, 2 writes each, 1 reader
//   ./model_explorer fourslot regular   # shows why regular bits fail
//   ./model_explorer bloom 2 2 1        # 2 readers: 2,209,020 histories
//   ./model_explorer --no-por --threads 4 bloom 2 1 2  # raw space, 4 workers
//   ./model_explorer faulty stale_read  # concrete violating schedule
//   ./model_explorer faulty port_crash  # exhaustive pass: crashes tolerated
//   ./model_explorer race packed 1 1 1  # certify race-free within the bound
//   ./model_explorer race plain 1 1 1   # minimal racy schedule (exit 2)
//   ./model_explorer abd swmr           # ABD replication: atomic under f=1 crash
//   ./model_explorer abd mw 2 1 2 1     # two-writer ABD, 2 readers, f=1
#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/net_processes.hpp"
#include "modelcheck/processes.hpp"
#include "util/parse.hpp"

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

int report(const explore_result& res) {
    std::printf("states explored    : %llu\n",
                static_cast<unsigned long long>(res.states_explored));
    std::printf("memoization hits   : %llu\n",
                static_cast<unsigned long long>(res.memo_hits));
    std::printf("complete schedules : %llu\n",
                static_cast<unsigned long long>(res.leaves));
    std::printf("distinct histories : %llu\n",
                static_cast<unsigned long long>(res.distinct_histories));
    if (res.reduction.engaged) {
        std::printf("reduction          : POR%s, %llu core states, %llu edges, "
                    "%llu sleep-pruned, %llu symmetry folds (|G| = %llu), "
                    "%llu DAG states, %llu judge states, %llu product pairs\n",
                    res.reduction.symmetry ? " + symmetry" : "",
                    static_cast<unsigned long long>(res.reduction.core_states),
                    static_cast<unsigned long long>(res.reduction.core_edges),
                    static_cast<unsigned long long>(res.reduction.sleep_pruned),
                    static_cast<unsigned long long>(res.reduction.symmetry_folds),
                    static_cast<unsigned long long>(res.reduction.symmetry_group),
                    static_cast<unsigned long long>(res.reduction.dfa_states),
                    static_cast<unsigned long long>(res.reduction.judge_states),
                    static_cast<unsigned long long>(res.reduction.product_pairs));
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);  // ru_maxrss is KiB
    std::printf("memo memory        : %llu entries, ~%llu KiB (+%llu KiB graph), "
                "peak RSS %llu MiB\n",
                static_cast<unsigned long long>(res.memory.memo_entries),
                static_cast<unsigned long long>(res.memory.memo_bytes / 1024),
                static_cast<unsigned long long>(res.memory.graph_bytes / 1024),
                static_cast<unsigned long long>(ru.ru_maxrss / 1024));
    if (!res.reduction.symmetry_warning.empty()) {
        std::printf("WARNING            : %s\n",
                    res.reduction.symmetry_warning.c_str());
    }
    if (res.truncated) std::printf("TRUNCATED at the state budget!\n");
    if (res.divergences > 0) {
        std::printf("lockset divergences: %llu state(s) with an empty raw "
                    "candidate set on a guarded site (documented false "
                    "positive, not a failure)\n",
                    static_cast<unsigned long long>(res.divergences));
    }
    int rc = 0;
    if (res.property_holds && res.truncated) {
        std::printf("verdict            : NO VIOLATION WITHIN BUDGET (truncated)\n");
        rc = 3;
    } else if (res.property_holds) {
        std::printf("verdict            : PROPERTY HOLDS on every schedule\n");
    } else {
        std::printf("verdict            : VIOLATION FOUND\n");
        if (res.first_violation) {
            std::printf("diagnosis          : %s\n",
                        res.first_violation->diagnosis.c_str());
            std::printf("trace provenance   : %s\n",
                        res.first_violation_reduced
                            ? "reconstructed from the reduced (trace-quotient) space"
                            : "raw explored schedule");
            std::printf("history:\n%s",
                        format_operations(res.first_violation->hist).c_str());
        }
        rc = 2;
    }
    if (res.first_divergence) {
        std::printf("divergence witness : %s\n",
                    res.first_divergence->diagnosis.c_str());
        std::printf("minimal witness history:\n%s",
                    format_operations(res.first_divergence->hist).c_str());
    }
    return rc;
}

/// Parses `token` as a T, or exits 64 naming it.
template <typename T>
T number_or_exit(const char* what, const char* token) {
    T v{};
    if (!parse_number(token, &v)) {
        std::fprintf(stderr, "%s: '%s' is not a valid number\n", what, token);
        std::exit(64);
    }
    return v;
}

/// Positional argument `index` (a non-negative count), or `fallback`.
int arg_or(int argc, char** argv, int index, int fallback) {
    if (argc <= index) return fallback;
    const int v = number_or_exit<int>("argument", argv[index]);
    if (v < 0) {
        std::fprintf(stderr, "argument: '%s' must not be negative\n",
                     argv[index]);
        std::exit(64);
    }
    return v;
}

}  // namespace

int main(int argc, char** argv) {
    explore_config cfg;
    std::string detector = "both";
    // Peel off --threads N (anywhere); the rest stays positional.
    std::vector<char*> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string arg(argv[i]);
        if (arg == "--threads" && i + 1 < argc) {
            cfg.threads = number_or_exit<unsigned>("--threads", argv[++i]);
        } else if (arg == "--max-states" && i + 1 < argc) {
            cfg.max_states =
                number_or_exit<std::uint64_t>("--max-states", argv[++i]);
        } else if (arg == "--no-por") {
            cfg.por = false;
        } else if (arg == "--no-symmetry") {
            cfg.symmetry = false;
        } else if (arg == "--detector" && i + 1 < argc) {
            detector = argv[++i];
            if (detector != "hb" && detector != "lockset" &&
                detector != "both") {
                std::fprintf(stderr,
                             "unknown --detector '%s' (want hb, lockset, or "
                             "both)\n",
                             detector.c_str());
                return 64;
            }
        } else {
            args.push_back(argv[i]);
        }
    }
    argc = static_cast<int>(args.size());
    argv = args.data();
    const std::string mode = argc > 1 ? argv[1] : "bloom";

    if (mode == "bloom") {
        const int writes = arg_or(argc, argv, 2, 2);
        const int readers = arg_or(argc, argv, 3, 1);
        const int reads = arg_or(argc, argv, 4, 1);
        std::printf("Bloom two-writer register: %d writes/writer, %d reader(s) x %d read(s)\n\n",
                    writes, readers, reads);
        sim_state s;
        const auto domain = static_cast<mc_value>((2 * writes + 1) * 2);
        s.registers = {make_reg(reg_level::atomic, domain, 0),
                       make_reg(reg_level::atomic, domain, 0)};
        std::vector<mc_value> s0, s1;
        for (int i = 1; i <= writes; ++i) s0.push_back(static_cast<mc_value>(i));
        for (int i = 1; i <= writes; ++i) {
            s1.push_back(static_cast<mc_value>(writes + i));
        }
        s.procs.push_back(make_bloom_writer(0, s0));
        s.procs.push_back(make_bloom_writer(1, s1));
        for (int r = 0; r < readers; ++r) {
            s.procs.push_back(
                make_bloom_reader(static_cast<processor_id>(2 + r), reads));
        }
        return report(explore(s, cfg));
    }

    if (mode == "faulty") {
        // Bloom's protocol over a FAULTY substrate (registers/faulty.hpp
        // semantics, modeled): value-corrupting classes are expected to
        // exhibit a violating schedule (exit 2, history printed);
        // port_crash is expected to pass exhaustively (exit 0).
        const std::string cls_name = argc > 2 ? argv[2] : "stale_read";
        const auto cls = parse_fault_class(cls_name);
        if (!cls || *cls == fault_class::none) {
            std::fprintf(stderr,
                         "unknown fault class '%s' (want stale_read, "
                         "lost_write, torn_value, delayed_visibility, or "
                         "port_crash)\n",
                         cls_name.c_str());
            return 64;
        }
        const int writes = arg_or(argc, argv, 3, 1);
        const int reads = arg_or(argc, argv, 4, 1);
        const int max_faults = arg_or(argc, argv, 5, 1);
        std::printf("Bloom two-writer over a FAULTY substrate: class %s, "
                    "%d write(s)/writer, 1 reader x %d read(s), <= %d "
                    "fault(s)/process\n",
                    fault_class_name(*cls), writes, reads, max_faults);
        std::printf("expected: %s\n\n",
                    corrupts_values(*cls)
                        ? "VIOLATION FOUND (value corruption breaks atomicity)"
                        : "PROPERTY HOLDS (crashes leave the register atomic)");
        sim_state s;
        const auto domain = static_cast<mc_value>((2 * writes + 1) * 2);
        for (int i = 0; i < 2; ++i) {
            mc_register r = make_reg(reg_level::atomic, domain, 0);
            r.track_previous = true;  // stale reads serve from r.previous
            s.registers.push_back(r);
        }
        std::vector<mc_value> s0, s1;
        for (int i = 1; i <= writes; ++i) s0.push_back(static_cast<mc_value>(i));
        for (int i = 1; i <= writes; ++i) {
            s1.push_back(static_cast<mc_value>(writes + i));
        }
        s.procs.push_back(make_faulty_bloom_writer(0, s0, *cls, max_faults));
        s.procs.push_back(make_faulty_bloom_writer(1, s1, *cls, max_faults));
        s.procs.push_back(make_faulty_bloom_reader(2, reads, *cls, max_faults));
        return report(explore(s, cfg));
    }

    if (mode == "tournament") {
        const int reads = arg_or(argc, argv, 2, 2);
        std::printf("Four-writer tournament (Section 8): 3 writers x 1 write, "
                    "1 reader x %d reads\n\n", reads);
        sim_state s;
        s.registers = {make_reg(reg_level::atomic, 10, encode_tagged(1, false)),
                       make_reg(reg_level::atomic, 10, encode_tagged(1, false))};
        s.procs.push_back(make_tournament_writer(0, {2}));
        s.procs.push_back(make_tournament_writer(1, {3}));
        s.procs.push_back(make_tournament_writer(3, {4}));
        s.procs.push_back(make_tournament_reader(4, reads));
        cfg.initial = 1;
        return report(explore(s, cfg));
    }

    if (mode == "fourslot") {
        const std::string level_name = argc > 2 ? argv[2] : "atomic";
        const reg_level control = level_name == "safe"      ? reg_level::safe
                                  : level_name == "regular" ? reg_level::regular
                                                            : reg_level::atomic;
        const int writes = arg_or(argc, argv, 3, 2);
        const int reads = arg_or(argc, argv, 4, 2);
        std::printf("Simpson four-slot: safe data slots, %s control bits, "
                    "%d writes, %d reads\n\n", level_name.c_str(), writes, reads);
        sim_state s;
        for (int i = 0; i < 4; ++i) {
            s.registers.push_back(
                make_reg(reg_level::safe, static_cast<mc_value>(writes + 1), 0));
        }
        for (int i = 0; i < 4; ++i) {
            s.registers.push_back(make_reg(control, 2, 0));
        }
        std::vector<mc_value> script;
        for (int i = 1; i <= writes; ++i) script.push_back(static_cast<mc_value>(i));
        s.procs.push_back(make_fourslot_writer(0, script));
        s.procs.push_back(make_fourslot_reader(0, 1, reads));
        return report(explore(s, cfg));
    }

    if (mode == "unary") {
        const int k = arg_or(argc, argv, 2, 3);
        const int reads = arg_or(argc, argv, 3, 2);
        std::printf("Lamport unary register: %d regular bits, writes {%d, 1}, "
                    "%d reads -- checking REGULARITY then ATOMICITY\n\n",
                    k, k - 1, reads);
        sim_state s;
        for (int i = 0; i < k; ++i) {
            s.registers.push_back(
                make_reg(reg_level::regular, 2, i == 0 ? 1 : 0));
        }
        s.procs.push_back(make_unary_writer(
            0, k, {static_cast<mc_value>(k - 1), 1}));
        s.procs.push_back(make_unary_reader(0, k, 1, reads));
        cfg.prop = property::regular_swmr;
        std::printf("--- regularity ---\n");
        const int rc1 = report(explore(s, cfg));
        cfg.prop = property::atomic;
        std::printf("\n--- atomicity ---\n");
        report(explore(s, cfg));  // expected to fail; informative only
        return rc1;
    }

    if (mode == "race") {
        // Happens-before race certification (docs/ANALYSIS.md): the detector
        // rides inside the explorer, so EVERY schedule within the bound is
        // certified race-free (exit 0) or the first racy schedule is printed
        // (exit 2). Sync classes follow each substrate's declared contract
        // (src/analysis/contracts.cpp).
        const std::string sub = argc > 2 ? argv[2] : "packed";
        sim_state s;
        if (sub == "packed" || sub == "plain") {
            const int writes = arg_or(argc, argv, 3, 1);
            const int readers = arg_or(argc, argv, 4, 1);
            const int reads = arg_or(argc, argv, 5, 1);
            const auto cls = sub == "packed" ? analysis::sync_class::sync
                                             : analysis::sync_class::plain;
            std::printf("Race check: Bloom two-writer over %s base registers, "
                        "%d write(s)/writer, %d reader(s) x %d read(s)\n",
                        sub == "packed" ? "seq_cst (packed-word)" : "PLAIN",
                        writes, readers, reads);
            std::printf("expected: %s\n\n",
                        sub == "packed"
                            ? "PROPERTY HOLDS (every access synchronized)"
                            : "VIOLATION FOUND (unsynchronized accesses race)");
            const auto domain = static_cast<mc_value>((2 * writes + 1) * 2);
            for (int i = 0; i < 2; ++i) {
                mc_register r = make_reg(reg_level::atomic, domain, 0);
                r.sync = cls;
                s.registers.push_back(r);
            }
            std::vector<mc_value> s0, s1;
            for (int i = 1; i <= writes; ++i) {
                s0.push_back(static_cast<mc_value>(i));
                s1.push_back(static_cast<mc_value>(writes + i));
            }
            s.procs.push_back(make_bloom_writer(0, s0));
            s.procs.push_back(make_bloom_writer(1, s1));
            for (int r = 0; r < readers; ++r) {
                s.procs.push_back(
                    make_bloom_reader(static_cast<processor_id>(2 + r), reads));
            }
        } else if (sub == "seqlock" || sub == "seqlock-weak") {
            const int writes = arg_or(argc, argv, 3, 1);
            const int reads = arg_or(argc, argv, 4, 1);
            const bool weak = sub == "seqlock-weak";
            std::printf("Race check: seqlock SWMR register, %s payload, "
                        "%d write(s), 1 reader x %d read(s)\n",
                        weak ? "PLAIN (torn-window experiment)"
                             : "relaxed-atomic (as shipped)",
                        writes, reads);
            std::printf("expected: %s\n\n",
                        weak ? "VIOLATION FOUND (reader's speculative payload "
                               "read races the writer)"
                             : "PROPERTY HOLDS (payload words are atomic)");
            mc_register seq = make_reg(
                reg_level::atomic, static_cast<mc_value>(2 * writes + 1), 0);
            seq.sync = analysis::sync_class::sync;
            mc_register payload = make_reg(
                reg_level::atomic, static_cast<mc_value>(writes + 1), 0);
            payload.sync = weak ? analysis::sync_class::plain
                                : analysis::sync_class::relaxed;
            s.registers = {seq, payload};
            std::vector<mc_value> script;
            for (int i = 1; i <= writes; ++i) {
                script.push_back(static_cast<mc_value>(i));
            }
            s.procs.push_back(make_seqlock_writer(0, script));
            s.procs.push_back(make_seqlock_reader(0, 1, reads));
        } else if (sub == "fourslot" || sub == "fourslot-textbook" ||
                   sub == "fourslot-safe" || sub == "fourslot-regular") {
            // Four variants of the Simpson four-slot race model:
            //  * fourslot          -- seq_cst control bits (as shipped); the
            //    data slots declare the full handshake {slot_, latest_,
            //    reading_} as their guard set (bits 4-7);
            //  * fourslot-textbook -- the slot-index words are declared
            //    RELAXED (the textbook analysis treats the index as mere
            //    data, not synchronization). At writes >= 2 the reader can
            //    pick up a freshly written slot index without an acquire
            //    edge and read the slot the writer just filled: a REAL race
            //    that happens-before catches, while the lockset discipline
            //    view stays satisfied (the guards are still "held") -- the
            //    canonical hb_only divergence, with HB's minimal racy
            //    schedule as the witness;
            //  * fourslot-safe / fourslot-regular -- the control bits drop
            //    to safe/regular split-phase registers, so the race feeds
            //    run off the begin/end steps; the property layer relaxes to
            //    safe-SWMR. Safe bits flicker (a same-value overwrite can
            //    read as the other value) and race immediately; regular
            //    bits survive the minimal bound (1 write) but break at
            //    writes >= 2 -- in both cases hb_only: the lockset
            //    discipline certifies, blind to the weakened bits.
            const bool textbook = sub == "fourslot-textbook";
            const reg_level control_level =
                sub == "fourslot-safe"      ? reg_level::safe
                : sub == "fourslot-regular" ? reg_level::regular
                                            : reg_level::atomic;
            // Defaults land each variant on its characteristic verdict.
            const int writes = arg_or(
                argc, argv, 3,
                textbook || control_level == reg_level::regular ? 2 : 1);
            const int reads = arg_or(argc, argv, 4, 1);
            const bool expect_race =
                (textbook && writes >= 2) ||
                control_level == reg_level::safe ||
                (control_level == reg_level::regular && writes >= 2);
            std::printf("Race check: Simpson four-slot, PLAIN data slots, %s "
                        "control bits%s, %d write(s), %d read(s)\n",
                        textbook ? "seq_cst latest_/reading_ + RELAXED slot-index"
                        : control_level == reg_level::safe      ? "SAFE split-phase"
                        : control_level == reg_level::regular   ? "REGULAR split-phase"
                                                                : "seq_cst",
                        textbook ? " (textbook-analysis experiment)" : "",
                        writes, reads);
            std::printf("expected: %s\n\n",
                        expect_race
                            ? "VIOLATION under happens-before, PROPERTY HOLDS "
                              "under lockset (hb_only divergence: the "
                              "discipline view is blind to the weakened "
                              "handshake)"
                            : "PROPERTY HOLDS (the control-bit handshake "
                              "orders every slot access)");
            // Data slots 0-3: plain words guarded by the handshake bits.
            // With the index reads recognized as acquisitions the guard set
            // is the full handshake (0xF0); the textbook variant declares
            // only latest_ (bit 6) + reading_ (bit 7).
            const std::uint64_t guard_mask = textbook ? 0xC0 : 0xF0;
            for (int i = 0; i < 4; ++i) {
                mc_register r = make_reg(reg_level::atomic,
                                         static_cast<mc_value>(writes + 1), 0);
                r.sync = analysis::sync_class::plain;
                r.guards = guard_mask;
                s.registers.push_back(r);
            }
            for (int i = 0; i < 4; ++i) {
                mc_register r = make_reg(control_level, 2, 0);
                // Registers 4-5 are the slot-index words.
                r.sync = (textbook && i < 2) ? analysis::sync_class::relaxed
                                             : analysis::sync_class::sync;
                s.registers.push_back(r);
            }
            if (control_level != reg_level::atomic) {
                cfg.prop = property::safe_swmr;
            }
            std::vector<mc_value> script;
            for (int i = 1; i <= writes; ++i) {
                script.push_back(static_cast<mc_value>(i));
            }
            s.procs.push_back(make_fourslot_writer(0, script));
            s.procs.push_back(make_fourslot_reader(0, 1, reads));
        } else {
            std::fprintf(stderr,
                         "unknown race substrate '%s' (want packed, plain, "
                         "seqlock, seqlock-weak, fourslot, fourslot-textbook, "
                         "fourslot-safe, or fourslot-regular)\n",
                         sub.c_str());
            return 64;
        }
        // The hybrid agreement layer: each requested detector gets its OWN
        // exploration (the two analyses must not share pruning -- a race
        // prune under one detector could hide the other's first witness),
        // and the combined exit code passes only when every requested
        // detector certifies.
        const bool run_hb = detector != "lockset";
        const bool run_lockset = detector != "hb";
        int rc_hb = 0;
        int rc_lockset = 0;
        bool lockset_diverged = false;
        if (run_hb) {
            if (run_lockset) std::printf("--- happens-before detector ---\n");
            sim_state hb_state(s);
            hb_state.enable_race_detection();
            rc_hb = report(explore(hb_state, cfg));
        }
        if (run_lockset) {
            if (run_hb) std::printf("\n--- lockset detector ---\n");
            s.enable_lockset_detection();
            const explore_result res = explore(s, cfg);
            lockset_diverged = res.divergences > 0;
            rc_lockset = report(res);
        }
        if (run_hb && run_lockset) {
            const bool hb_flag = rc_hb == 2;
            const bool lockset_flag = rc_lockset == 2;
            const char* agreement =
                hb_flag && lockset_flag         ? "both_flag"
                : hb_flag                       ? "hb_only"
                : lockset_flag                  ? "lockset_only"
                : rc_hb == 0 && rc_lockset == 0 ? "both_certify"
                                                : "inconclusive (truncated)";
            std::printf("\nhybrid agreement   : %s%s\n", agreement,
                        lockset_diverged
                            ? " (with a documented lockset divergence)"
                            : "");
        }
        if (rc_hb == 2 || rc_lockset == 2) return 2;
        return rc_hb == 3 || rc_lockset == 3 ? 3 : 0;
    }

    if (mode == "abd") {
        // ABD quorum replication (src/net/abd.*, modeled): each phase
        // contacts a nondeterministic quorum of `servers - crashes`
        // replicas, so a clean pass certifies atomicity under `crashes`
        // server crash-stops (and arbitrary per-phase omission patterns).
        const std::string sub = argc > 2 ? argv[2] : "swmr";
        if (sub != "swmr" && sub != "mw") {
            std::fprintf(stderr, "unknown abd variant '%s' (want swmr or mw)\n",
                         sub.c_str());
            return 64;
        }
        abd_model_config mcfg;
        mcfg.multi_writer = sub == "mw";
        mcfg.writers = mcfg.multi_writer ? arg_or(argc, argv, 3, 2) : 1;
        mcfg.writes_each = arg_or(argc, argv, 4, 1);
        mcfg.readers = arg_or(argc, argv, 5, 2);
        mcfg.reads_each = arg_or(argc, argv, 6, 1);
        mcfg.servers = arg_or(argc, argv, 7, 3);
        const int crashes = arg_or(argc, argv, 8, 1);
        mcfg.quorum = mcfg.servers - crashes;
        if (2 * mcfg.quorum <= mcfg.servers || mcfg.quorum < 1) {
            std::fprintf(stderr,
                         "f = %d crashes among %d servers leaves no "
                         "intersecting quorums (need 2*(n-f) > n)\n",
                         crashes, mcfg.servers);
            return 64;
        }
        std::printf("ABD %s replication: %d writer(s) x %d write(s), "
                    "%d reader(s) x %d read(s), %d servers, quorum %d "
                    "(tolerates f = %d crashes)\n\n",
                    mcfg.multi_writer ? "two-writer" : "single-writer",
                    mcfg.writers, mcfg.writes_each, mcfg.readers,
                    mcfg.reads_each, mcfg.servers, mcfg.quorum, crashes);
        return report(explore(make_abd_state(mcfg), cfg));
    }

    std::fprintf(stderr,
                 "usage: %s bloom|faulty|tournament|fourslot|unary|race|abd [args...]\n",
                 argv[0]);
    return 64;
}
