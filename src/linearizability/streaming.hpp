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
//    SET V of possible current values. Judging a batch of ops recomputes V
//    by appending a virtual read of each candidate u to the batch and
//    asking check_fast whether some linearization ends with value u
//    (starting from some previous candidate). The ops after the cut are
//    then accepted iff they check out against at least one v in V. |V| is
//    bounded by the writes concurrent at the cut, in practice <= writers+1.
//  * A read of a value that is neither live nor in V surfaces through
//    check_fast/normalize as "read returned a value no write produced" --
//    which in this setting is precisely a stale read of a judged,
//    overwritten value (or a corrupted one), and is reported as the
//    violation. Sound: u not in V means no linearization of the prefix
//    ends with u, and every interleaving puts the whole prefix before the
//    reader.
//  * Pending operations never block a cut. An operation still open
//    `pending_grace` events after its invocation is declared crashed:
//    pending reads are dropped (they constrain nothing), pending writes
//    are carried and presented to every later check (normalize keeps a
//    pending write exactly when some read observed it), so "did that
//    crashed write land?" stays undecided until a reader decides it --
//    at which point the write is materialized into the judged batch.
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
//    earliest open invocation; the ops it passes are probed from V, once,
//    and V becomes the survivors. The RETIREMENT cut, the last quiescent
//    cut `window` events behind the frontier, only frees memory: it never
//    passes the judged cut, so every retired op is already judged. Then
//    the checkpoint checks the ops after the judged cut (with the open and
//    carried ops) from V. This is exact wherever the judged cut sits:
//    across a quiescent cut, "linearizable from some v in V" holds exactly
//    when the probes leave a non-empty V' and the ops after the cut are
//    linearizable from some u in V'. So every verdict and detection
//    position is the one a check of everything since the retirement cut
//    would give, while each completed op reaches check_fast about once. An
//    empty V' is a violation, diagnosed by check_fast over the judged
//    batch; a batch that passes while no probe passes is a checker defect
//    (reported as an internal error).
//
// Memory: O(window + ports + |V|) operations, independent of run length.
// Work: one probe of each judged batch and one check of the short tail
// after the judged cut every `stride` events -- the checker chases writers
// at load instead of buffering the run. Every probe and check runs on one
// fast_checker, whose work arrays are reused across them. On the benchmark
// ledger's recorded history at window = stride = 4096 that is 114-179 ns
// per ingested event, median 144 (`linearizability.ingest_ns_per_event` in
// `bash benchmark/run.sh --workload verified --seconds 5 --trace 1`, 6
// runs; 4-core x86-64, GCC 12.2, RelWithDebInfo), with each completed op
// handed to check_fast about 1.1 times (`stats().ops_checked`: 136,554 for
// 119,999 completed ops in streaming_test's
// StreamingStatsAtVerifiedSettings).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "histories/events.hpp"
#include "histories/history.hpp"
#include "linearizability/fast_register.hpp"

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
    /// Ops handed to check_fast, summed over calls: each probe's batch
    /// with its virtual read, and each check's ops after the judged cut
    /// with the open and carried ones.
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
    /// check_fast of `ops` from each candidate, starting at the last one
    /// that passed. On no pass, *first_failure holds the first diagnosis.
    bool passes_from_some_candidate(const std::vector<operation>& ops,
                                    std::string* first_failure);
    /// One check_fast pass over the ops after the judged cut + open +
    /// carried-pending ops against every candidate initial value; flags on
    /// total failure.
    void run_check();
    /// Declares overdue open ops crashed, judges up to the frontier,
    /// retires what is `window` old, then runs the check.
    void checkpoint();
    /// The largest k such that the cut after retained_[k - 1] is quiescent
    /// and lies before `upper`; 0 if there is none.
    [[nodiscard]] std::size_t last_quiescent_cut(event_pos upper) const;
    /// Probes retained_[judged_, k) -- with the carried pending writes its
    /// reads decide -- and replaces V with the survivors; flags when none
    /// survives.
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
    /// Reused per check: the ops handed to check_fast (the ops after the
    /// judged cut, or the judged batch plus its virtual read).
    std::vector<operation> check_ops_;
    /// Runs every probe and check, reusing its work arrays across them.
    fast_checker fast_;

    bool violation_{false};
    std::string diagnosis_;
    std::uint64_t detection_pos_{0};
    streaming_stats stats_{};
};

}  // namespace bloom87
