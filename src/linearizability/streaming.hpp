// bloom87: bounded-memory STREAMING linearizability checking.
//
// The post-hoc checkers hold the whole recorded history: O(n) memory, which
// caps how long a run they can watch. This checker -- the harness's only
// online monitor -- consumes the gamma event stream once, keeps only a
// sliding window of operations, and still renders a verdict equivalent to
// running check_fast over the entire history.
//
// How retirement stays sound AND complete:
//
//  * Operations retire only across a QUIESCENT CUT: a stream position c
//    with every retained operation responded before c or invoked at/after
//    c (no operation spans c). Real time then already orders every retired
//    op before every retained one, so any linearization of the full
//    history is a linearization of the retired prefix followed by one of
//    the live suffix -- nothing about the prefix other than its final
//    value can constrain the future.
//  * That final value is not always unique: concurrent retired writes can
//    linearize in either order. The checker therefore carries a CANDIDATE
//    SET V of possible current values. At each retirement it recomputes V
//    by appending a virtual read of each candidate u to the retiring batch
//    and asking check_fast whether some linearization ends with value u
//    (starting from some previous candidate). The live suffix is then
//    accepted iff it checks out against at least one v in V. |V| is
//    bounded by the writes concurrent at the cut, in practice <= writers+1.
//  * A read of a value that is neither live nor in V surfaces through
//    check_fast/normalize as "read returned a value no write produced" --
//    which in this setting is precisely a stale read of a retired,
//    overwritten value. Sound: u not in V means no linearization of the
//    prefix ends with u, and every interleaving puts the whole prefix
//    before the reader.
//  * Pending operations never block the cut. An operation still open
//    `pending_grace` events after its invocation is declared crashed:
//    pending reads are dropped (they constrain nothing), pending writes
//    are carried and presented to every later check (normalize keeps a
//    pending write exactly when some read observed it), so "did that
//    crashed write land?" stays undecided until a reader decides it --
//    at which point the write is materialized into the retiring batch.
//    A processor that invokes again while its previous operation is still
//    open crashed mid-operation and recovered (parse_history's reading):
//    the open operation is declared crashed on the spot, the same way.
//    Carried pendings are bounded by the crashed writes no read has decided
//    yet. If a declared-
//    crashed operation responds after all (the grace was set shorter than
//    a real stall), the checker reports it as a configuration violation
//    rather than silently mis-judging.
//
// Memory: O(window + ports + |V|) operations, independent of run length.
// Work: one O(retained) incremental check every `stride` events -- the
// checker chases writers at load instead of buffering the run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "histories/events.hpp"
#include "histories/history.hpp"

namespace bloom87 {

struct streaming_config {
    /// Completed operations are kept at least this many events behind the
    /// frontier before becoming eligible to retire (diagnosis context).
    std::size_t window{4096};
    /// Events ingested between incremental checks.
    std::size_t stride{256};
    /// An operation still open this many events after its invocation is
    /// declared crashed and stops blocking retirement. 0 = auto
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

    /// Forces an incremental check of everything retained right now.
    /// Returns violation_found().
    bool check_now();

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
    /// One check_fast pass over retained + open + carried-pending ops
    /// against every candidate initial value; flags on total failure.
    void run_check();
    /// Declares overdue open ops crashed, finds the best quiescent cut,
    /// retires the decided prefix, and recomputes the candidate set.
    void maybe_retire();
    void retire_prefix(std::size_t k);

    streaming_config cfg_;
    value_t initial_;

    struct open_op {
        operation op;
    };
    std::vector<open_op> open_;           ///< <= one per processor
    std::vector<operation> retained_;     ///< completed, ascending responded
    std::vector<operation> pending_;      ///< declared-crashed writes carried
    std::vector<op_id> crashed_ids_;      ///< declared-crashed, for late resps
    std::vector<value_t> candidates_;     ///< V: possible current values
    std::size_t last_pass_{0};            ///< index into candidates_: hint

    std::uint64_t since_check_{0};
    op_index vread_seq_{0};               ///< virtual-read op counter

    bool violation_{false};
    std::string diagnosis_;
    std::uint64_t detection_pos_{0};
    streaming_stats stats_{};
};

}  // namespace bloom87
