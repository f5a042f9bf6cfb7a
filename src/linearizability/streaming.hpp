// bloom87: bounded-memory STREAMING linearizability checking.
//
// The post-hoc checkers hold the whole recorded history: O(n) memory, which
// caps how long a run they can watch. This checker -- the harness's only
// online monitor -- consumes the gamma event stream once, keeps only a
// sliding window of operations, and still renders a verdict equivalent to
// running check_fast over the entire history.
//
// How the window stays sound AND complete:
//
//  * Operations are judged and retired only across a QUIESCENT CUT: a
//    stream position c with every retained operation responded before c
//    or invoked at/after c (no operation spans c). Real time then already
//    orders every op before c ahead of every op after it, so any
//    linearization of the full history is a linearization of the prefix
//    followed by one of the suffix -- nothing about the prefix other than
//    its final value can constrain the future.
//  * That final value is not always unique: concurrent writes can
//    linearize in either order. The checker therefore carries a CANDIDATE
//    SET V of possible current values, and judges a batch of ops from each
//    v in V with the zone test (zones.hpp). A CLUSTER is a write plus the
//    reads of its value, v being a virtual write at -infinity; its ZONE
//    runs from its earliest response f to its latest invocation s, FORWARD
//    when f < s and BACKWARD otherwise. The batch is atomic from v iff two
//    local conditions hold -- no read responds before its write is
//    invoked, and no read of v follows a completed write (v's zone puts
//    this one under the next two rules) -- no two forward zones overlap,
//    and no backward zone lies inside a forward zone.
//  * V' RULE. After a batch, V' holds the values some linearization of it
//    from some v in V ends with: u iff its cluster's f is at or after
//    every other cluster's s (a read of u appended after the batch keeps
//    the zones apart), and v itself only when the batch writes nothing;
//    in batch order of the writes (V's order without writes). The ops
//    after the cut are then accepted iff they pass from some v in V. |V|
//    is bounded by the writes concurrent at the cut, in practice
//    <= writers+1.
//  * A read of a value that is neither live nor in V surfaces through
//    normalize as "read returned a value no write produced" -- which in
//    this setting is precisely a stale read of a judged, overwritten value
//    (or a corrupted one), and is reported as the violation. Sound: u not
//    in V means no linearization of the prefix ends with u, and every
//    interleaving puts the whole prefix before the reader.
//  * Pending operations never block a cut. An operation still open
//    `pending_grace` events after its invocation is declared crashed:
//    pending reads are dropped (they constrain nothing), pending writes
//    are carried and presented to every later check (normalize keeps a
//    pending write exactly when some read observed it), so "did that
//    crashed write land?" stays undecided until a reader decides it --
//    at which point the write is materialized into the judged batch.
//    So an UNOBSERVED pending write, the one case the V' rule does not
//    cover (a read appended after it could observe it), never reaches a
//    judged batch: completed ops and the writes their reads decided do.
//    A processor that invokes again while its previous operation is still
//    open crashed mid-operation and recovered (parse_history's reading):
//    the open operation is declared crashed on the spot, the same way.
//    Carried pendings are bounded by the crashed writes no read has decided
//    yet. If a declared-crashed operation responds after all (the grace
//    was set shorter than a real stall), the checker reports it as a
//    configuration violation rather than silently mis-judging. Only a
//    grace-expired operation can still respond, and only until its
//    processor invokes again, so the checker remembers at most one such id
//    per processor; a later response is a malformed stream.
//  * A checkpoint (every `stride` events) keeps TWO CUTS. The JUDGED cut
//    moves to the last quiescent cut at or before the frontier and the
//    earliest open invocation; the ops it passes are judged from V, once,
//    and V becomes V'. The RETIREMENT cut, the last quiescent cut `window`
//    events behind the frontier, only frees memory: it never passes the
//    judged cut, so every retired op is already judged. Then the
//    checkpoint judges the ops after the judged cut (with the open and
//    carried ops) from V. This is exact wherever the judged cut sits:
//    across a quiescent cut, "linearizable from some v in V" holds exactly
//    when V' is non-empty and the ops after the cut are linearizable from
//    some u in V'. So every verdict and detection position is the one a
//    check of everything since the retirement cut would give, while each
//    completed op is judged about once.
//  * check_fast only EXPLAINS: when no candidate passes the zones,
//    fast_checker runs over the same ops from each candidate in the same
//    order, and its first diagnosis is the report -- the one a checker
//    judging with check_fast alone gives. A pass there is a checker
//    defect (reported as an internal error).
//
// Memory: O(window + ports + |V|) operations, independent of run length.
// Work: one zone judgment of each judged batch per candidate and one of
// the short tail after the judged cut every `stride` events -- the checker
// chases writers at load instead of buffering the run. One zone_judge and
// one fast_checker keep their work arrays across calls. On the benchmark
// ledger's recorded history at window = stride = 4096 that is 55-67 ns
// per ingested event, median 65 (`linearizability.ingest_ns_per_event` in
// `bash benchmark/run.sh --workload verified --seconds 5 --trace 1`, 6
// runs; 4-core x86-64, GCC 12.2, RelWithDebInfo), with each completed op
// judged about 1.05 times (`stats().ops_checked`: 126,241 for 119,999
// completed ops in streaming_test's StreamingStatsAtVerifiedSettings).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "histories/events.hpp"
#include "histories/history.hpp"
#include "linearizability/fast_register.hpp"
#include "linearizability/zones.hpp"

namespace bloom87 {

struct streaming_config {
    /// How long a judged operation stays in memory: completed operations
    /// retire only once they are this many events behind the frontier.
    /// Also sets the default pending_grace. It does not change what is
    /// checked: ops are judged at the frontier whatever the window.
    std::size_t window{4096};
    /// Events ingested between incremental checks.
    std::size_t stride{256};
    /// An operation still open this many events after its invocation is
    /// declared crashed and stops blocking either cut. 0 = auto
    /// (16 * window + 1024).
    std::size_t pending_grace{0};
};

struct streaming_stats {
    std::uint64_t events{0};          ///< gamma events ingested
    std::uint64_t ops_completed{0};
    std::uint64_t ops_retired{0};
    std::uint64_t checkpoints{0};     ///< incremental checks run
    std::uint64_t retire_batches{0};
    std::size_t retained_ops{0};      ///< live window right now
    std::size_t peak_retained_ops{0};
    std::size_t candidate_values{0};  ///< |V| right now
    std::size_t pending_carried{0};   ///< declared-crashed writes carried
    /// Ops handed to the zone judge, summed over calls: each judged batch
    /// once per candidate, and each check's ops after the judged cut with
    /// the open and carried ones.
    std::uint64_t ops_checked{0};
};

class streaming_checker {
public:
    explicit streaming_checker(value_t initial, streaming_config cfg = {});

    streaming_checker(const streaming_checker&) = delete;
    streaming_checker& operator=(const streaming_checker&) = delete;

    /// Feeds the next gamma event. Real-register accesses are skipped --
    /// linearizability is defined over the external schedule only. A found
    /// violation is sticky; further events are ignored.
    void ingest(const event& e);

    /// Final check after the stream ends; returns violation_found().
    bool finish();

    [[nodiscard]] bool violation_found() const noexcept { return violation_; }
    [[nodiscard]] const std::string& diagnosis() const noexcept {
        return diagnosis_;
    }
    /// Stream position (events ingested) when the violation was flagged.
    [[nodiscard]] std::uint64_t detection_pos() const noexcept {
        return detection_pos_;
    }
    [[nodiscard]] const streaming_stats& stats() const noexcept {
        return stats_;
    }

private:
    void flag(std::string why);
    void on_invocation(const event& e);
    void on_response(const event& e);
    /// Moves open_[i] to the crashed set: a write is carried in pending_
    /// (a later read may decide it took effect), a read is dropped.
    void declare_crashed(std::size_t i);
    /// Zone-judges `ops` from each candidate, starting at the last one that
    /// passed, which a pass moves to.
    bool judge_from_some_candidate(std::span<const operation> ops);
    /// check_fast of `ops` from each candidate in the same order, run only
    /// once no candidate passed the zones: true on a pass (a checker
    /// defect), else *first_failure holds the first diagnosis.
    bool explain(std::span<const operation> ops, std::string* first_failure);
    /// Judges the ops after the judged cut + open + carried-pending ops
    /// from some candidate; flags on total failure.
    void run_check();
    /// Declares overdue open ops crashed, judges up to the frontier,
    /// retires what is `window` old, then runs the check.
    void checkpoint();
    /// The largest k such that the cut after retained_[k - 1] is quiescent
    /// and lies before `upper`; 0 if there is none.
    [[nodiscard]] std::size_t last_quiescent_cut(event_pos upper) const;
    /// Judges retained_[judged_, k) -- with the carried pending writes its
    /// reads decide -- from each candidate, and replaces V with the values
    /// it can end with; flags when there are none.
    void judge_through(std::size_t k);

    streaming_config cfg_;
    value_t initial_;

    struct open_op {
        operation op;
    };
    std::vector<open_op> open_;           ///< <= one per processor
    std::vector<operation> retained_;     ///< completed, ascending responded
    std::size_t judged_{0};               ///< V covers retained_[0, judged_)
    std::vector<operation> pending_;      ///< declared-crashed writes carried
    std::vector<op_id> overdue_;          ///< grace-expired, <= one per proc
    std::vector<value_t> candidates_;     ///< V: possible current values
    std::size_t last_pass_{0};            ///< index into candidates_: hint

    std::uint64_t since_check_{0};
    /// Reused per check: the ops after the judged cut, or a judged batch
    /// with the carried pending writes its reads decide.
    std::vector<operation> check_ops_;
    std::vector<value_t> next_candidates_;  ///< V' while it is built
    zone_judge zones_;                    ///< judges every batch and check
    fast_checker fast_;                   ///< explains a failed judgment

    bool violation_{false};
    std::string diagnosis_;
    std::uint64_t detection_pos_{0};
    streaming_stats stats_{};
};

}  // namespace bloom87
