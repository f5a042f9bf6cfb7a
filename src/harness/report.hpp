// bloom87: the one JSON report schema ("bloom87-harness-vN"; the current
// N lives in report.cpp, the history of each bump below).
//
// Every bench/example binary emits the same machine-readable shape so
// cross-PR tracking tooling parses one format:
//
//   {
//     "schema": "bloom87-harness-v8",
//     "bench": "<binary name>",
//     "environment": { "hardware_concurrency": N, "compiler": "...",
//                      "build": "<CMake build type>" },
//     "runs": [ {
//        "register": "...",
//        "config":   { writers, readers, ops, seed, duration_ms,
//                      schedule, collect, stream_window, stream_stride,
//                      clients, client_pace_ns, net_servers },
//        "totals":   { reads, writes, ops_per_sec, measured_s,
//                      crashes_injected, ops_dropped, events,
//                      latency: { p50_us, p99_us, p999_us, max_us,
//                                 samples } },
//        "threads":  [ { processor, role, reads, writes, ops_per_sec,
//                        p50_us, p99_us, p999_us, max_us, samples } ],
//        "checkers": [ { checker, ran, pass, skip_reason, diagnosis,
//                        millis, operations, impotent_writes } ],
//        "faults":   { class, rate_num, rate_den, fault_seed, at,
//                      composed: [ { class, rate_num, rate_den } ],
//                      recover_after, crash_budget,
//                      stale_reads, lost_writes, torn_values,
//                      delayed_writes, port_crashes, injected,
//                      injection_pos },
//        "analysis": { checker: "race", ran, skip_reason | pass, races,
//                      accesses_checked, contract, diagnosis, millis,
//                      agreement, lockset: { pass, warnings, divergences,
//                      diagnosis, divergence } },
//        "stream":   { events, ops_completed, ops_retired, checkpoints,
//                      retained_peak, producer_stalls, violation,
//                      detection_pos, latency_ops, detection_prefix,
//                      prefix_latency_ops, culprit_processor, culprit_op,
//                      diagnosis },
//        "net":      { servers, quorum, messages_sent, messages_delivered,
//                      messages_lost, messages_duplicated,
//                      messages_delayed, retransmissions, server_crashes,
//                      ops, rounds, rounds_per_op, fast_path_ops,
//                      fast_path_rate },
//        "recovery": { recoveries, catchup_rounds, stale_inc_drops,
//                      unavailable_ops, repair: { verify_reads, rereads,
//                      rewrites, repaired, overhead_accesses_per_op } },
//        ...bench-specific extras... } ],
//     "tables": [ { "name": "...", "header": [...], "rows": [[...]] } ]
//   }
//
// `runs` carries harness-driven runs; `tables` carries any ASCII table a
// bench also prints (so table-shaped benches get --json for free). Either
// section may be empty.
//
// v1 -> v2: runs gained the optional `faults` block (substrate fault
// injection counters plus the online verifier's detection record); it is
// present only on runs with an active fault spec or a monitored run.
// Everything else is unchanged, so v1 consumers need only accept the new
// schema string and ignore the extra key.
//
// v2 -> v3: runs gained the optional `analysis` block, present exactly when
// the race checker was REQUESTED (--check race): when it ran it carries the
// happens-before detector's verdict and statistics; when it was skipped it
// carries ran:false plus the explicit skip_reason (skipped work always says
// why). The race checker also appears in `checkers` like any other kind.
//
// v3 -> v4: `totals` gained the optional merged `latency` percentile block
// (histogram-derived p50/p99/p999 plus the exact max), `threads` entries
// gained p999_us, `config` names the streaming-checker and open-loop-client
// knobs when set, and runs gained the optional `stream` block carrying the
// bounded-memory streaming checker's outcome (present exactly when
// run_spec::streaming_monitor was on). Existing v3 consumers need only
// accept the new schema string and ignore the extra keys.
//
// v4 -> v5: runs gained the optional `net` block (message-layer counters of
// a net/ composition: traffic, quorum rounds per op, fast-path hit rate),
// `totals` gained ops_dropped (operations shed by the drop ring policy;
// always present, zero under block), and `config` names ring_policy on
// per_thread runs and net_servers on net/ runs. Existing v4 consumers need
// only accept the new schema string and ignore the extra keys.
//
// v5 -> v6: runs gained the optional `recovery` block (crash-recovery
// lifecycle counters of a net/ composition -- completed rejoins, state-
// transfer catch-up rounds, deliveries dropped at a dead incarnation,
// operations surfaced as `unavailable` -- plus, on repair/ compositions,
// the self-healing overhead sub-block: extra verify/vote/rewrite accesses
// and the derived per-op access cost). The `faults` block names composed
// multi-class plans (`composed` array, first hit wins) and the
// recover_after / crash_budget knobs when set, and `totals.ops_dropped`
// now also counts unavailable net ops (dropped but accounted). Existing
// v5 consumers need only accept the new schema string and ignore the
// extra keys.
//
// v6 -> v7: the race checker is HYBRID. The `analysis` block (and the race
// entry in `checkers`) gained `agreement` -- which detectors flagged:
// both_certify | both_flag | hb_only | lockset_only -- and `analysis`
// gained the nested `lockset` block carrying the Eraser-style second
// opinion's own verdict: pass, warnings (lockset violations), divergences
// (documented guarded-site false positives, never failures), plus its
// first diagnosis / divergence witness. `pass` at the top level now means
// BOTH detectors certified. net/ gamma runs additionally log per-replica
// real accesses at reg 2+server, so `--check race` covers net/*
// compositions. Existing v6 consumers need only accept the new schema
// string and ignore the extra keys.
//
// v7 -> v8: one online checker. The online verifier is gone, and with it
// `faults.online`; the `faults` block now appears only on runs with an
// active fault spec or injected faults. Its detection record moved into
// `stream`: on a violation over a retained history, `detection_prefix`
// (events in the minimal violating prefix), `prefix_latency_ops`
// (completed ops between the first injection and that prefix's end -- v7's
// faults.online.latency_ops) and `culprit_processor` / `culprit_op` (the
// op closing it). `stream.latency_ops` keeps its meaning (ops up to where
// the streaming checker flagged). `environment.build` records the real
// CMake build type instead of release/debug from NDEBUG. Later, still v8:
// `totals` lost its log-overflow flag (the one recorder grows with the run,
// so nothing overflows) and `config.collect` names none or per_thread only;
// no consumer read either, so the version did not move. Likewise
// `config.ring_policy` is gone with the drop policy: a timed run's rings
// always block, and `totals.ops_dropped` counts unavailable net/ ops only.
#pragma once

#include <functional>
#include <ostream>
#include <string>

#include "harness/checkers.hpp"
#include "harness/driver.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace bloom87 {
class table;
}

namespace bloom87::harness {

/// Streaming report emitter. Usage:
///   report_writer rep(os, "throughput");
///   rep.add_run(spec, result, checks);       // any number of times
///   rep.add_table("scaling", t);             // after the last add_run
///   rep.finish();
class report_writer {
public:
    report_writer(std::ostream& os, const std::string& bench);
    ~report_writer();

    report_writer(const report_writer&) = delete;
    report_writer& operator=(const report_writer&) = delete;

    /// Emits one run. `extra` (optional) appends bench-specific fields to
    /// the run object through the raw json_writer.
    void add_run(const run_spec& spec, const run_result& result,
                 const pipeline_result* checks = nullptr,
                 const std::function<void(json_writer&)>& extra = nullptr);

    /// Emits one ASCII table structurally. All add_run calls must precede
    /// the first add_table.
    void add_table(const std::string& name, const table& t);

    /// Closes the document (also run by the destructor).
    void finish();

private:
    std::ostream& os_;
    json_writer w_;
    enum class section : std::uint8_t { runs, tables, done } section_{
        section::runs};
};

/// Writes a one-document report for a single run to `path`; the workhorse
/// behind every binary's --json flag. Returns false (with a message on
/// stderr) when the file cannot be written.
[[nodiscard]] bool write_report_file(const std::string& path,
                                     const std::string& bench,
                                     const run_spec& spec,
                                     const run_result& result,
                                     const pipeline_result* checks = nullptr);

}  // namespace bloom87::harness
