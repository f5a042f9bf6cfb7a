// bloom87: polynomial-time linearizability checker for register histories
// with unique write values.
//
// With unique writes, every read names its dictating write, and atomicity
// reduces to the acyclicity of a constraint graph over writes (Gibbons &
// Korach, "Testing Shared Memories": the read-mapping-known case is
// polynomial). Constraints, writing `<rt` for real-time precedence and W(r)
// for the write r read from (or the virtual initial write):
//
//   (a) w1 <rt w2                 =>  w1 before w2
//   (b) w' <rt r                  =>  w' before-or-equal W(r)
//   (c) r <rt w''                 =>  W(r) before w''
//   (d) r1 <rt r2                 =>  W(r1) before-or-equal W(r2)
//
// plus two local conditions: a read may not read from the future, and a
// read of the initial value may not follow a completed write. Because each
// processor is sequential, only the last predecessor per processor needs an
// explicit edge; per-processor chains supply the rest transitively.
//
// The checker is sound AND complete: when the graph is acyclic it builds an
// explicit witness linearization and re-verifies it against the register
// property and real-time order, so a defect in the theory above would
// surface as a loud internal error, not a wrong verdict. Completeness is
// additionally cross-validated against the exhaustive checker in tests.
//
// Complexity: normalization is one hash table keyed by value (expected
// O(N), however the values spread). The 2N operation endpoints are ordered
// by stream position by direct addressing when the positions are dense (a
// window of recent events always is) and by a stable radix sort otherwise.
// A forward sweep over the endpoints keeps, per processor, the last
// completed write and read -- edges (a), (b), (d) -- and a backward sweep
// the next invoked write -- edge (c): O(N * P) edges for N operations and P
// processors, with no per-operation search. Adjacency is compressed (CSR);
// the topological sort and the witness re-verification are linear in graph
// size, plus a heap over ready nodes.
//
// `fast_checker` is the reusable form: it owns every work array, so a
// caller that checks often (the streaming checker, the monitor's prefix
// search) allocates only when a history outgrows every earlier one. It
// builds and re-verifies the witness on every passing check but copies
// nothing out; witness() exposes it. check_fast() is the one-shot wrapper
// that copies the witness into its result.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "histories/history.hpp"
#include "linearizability/normalize.hpp"

namespace bloom87 {

struct fast_check_result {
    bool linearizable{false};
    /// Witness linearization (copies, in linearization order) when
    /// linearizable; check_fast() fills it, fast_checker::check() does not.
    std::vector<operation> witness;
    /// For failures: a short explanation of the violated condition.
    std::string diagnosis;
    std::optional<std::string> defect;  ///< malformed input / internal error

    [[nodiscard]] bool ok() const noexcept { return !defect.has_value(); }

    /// Why a failed check failed: the violated condition, or the history's
    /// defect (a read of a value no write produced is a violation, not a
    /// checker bug). Only an internal error reads "checker defect: ...".
    [[nodiscard]] std::string failure() const;
};

/// The fast checker with its work arrays kept across calls. Not thread-safe:
/// one owner checks at a time.
class fast_checker {
public:
    /// Checks atomicity of `raw`: check_fast's verdict, diagnosis and
    /// defect, with the result's witness left empty.
    [[nodiscard]] fast_check_result check(const std::vector<operation>& raw,
                                          value_t initial);

    /// The witness linearization of the last check() when it passed
    /// (pointers into that call's `raw`); empty after a failed check.
    [[nodiscard]] const std::vector<const operation*>& witness() const noexcept {
        return seq_;
    }

private:
    /// Compressed adjacency: the targets of node n are
    /// `target[offset[n] .. offset[n + 1])`.
    struct csr {
        std::vector<std::uint32_t> offset;
        std::vector<std::uint32_t> target;
    };
    using pair_list = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

    /// Groups (from, to) pairs by `from` over nodes [0, nodes), keeping
    /// their order within each group.
    void group_by_source(const pair_list& pairs, std::size_t nodes, csr& g);
    /// Fills order_ with every op's endpoint tags in stream order.
    void order_endpoints();

    /// Per kept op: its endpoints, its own (write) or dictating (read)
    /// node, and its processor's dense slot.
    struct op_rec {
        event_pos invoked;
        event_pos responded;
        std::uint32_t node;
        std::uint32_t slot;
        bool write;
    };
    /// One operation endpoint: its stream position, and the op's position
    /// in the normalized history, with the response bit set on a response.
    struct endpoint {
        event_pos pos;
        std::uint32_t tag;
    };
    /// A processor's last (or next) write or read, as a node, and the node
    /// it last sent an edge to.
    struct proc_slot {
        std::uint32_t node;
        std::uint32_t sent_to;
    };

    normalizer norm_;
    std::vector<op_rec> rec_;
    std::vector<std::uint32_t> write_of_node_;  ///< node -> op; [0] unused
    std::vector<processor_id> procs_;           ///< slot -> processor
    std::vector<std::uint32_t> by_pos_;    ///< endpoint tag per position
    std::vector<endpoint> ends_;           ///< the radix sort's input
    std::vector<endpoint> spare_;
    std::vector<std::uint32_t> order_;     ///< endpoint tags, stream order
    std::vector<proc_slot> last_write_;
    std::vector<proc_slot> last_read_;
    std::vector<proc_slot> next_write_;
    std::vector<std::uint32_t> reads_by_inv_;
    pair_list edges_;
    pair_list read_pairs_;
    csr graph_;
    csr reads_of_;
    std::vector<std::uint32_t> cursor_;
    std::vector<std::uint32_t> indegree_;
    std::vector<std::uint32_t> ready_;  ///< min-heap of ready nodes
    std::vector<std::uint32_t> topo_;
    std::vector<const operation*> seq_;
};

/// Checks atomicity of a register history in polynomial time.
/// Requires unique write values (enforced); accepts pending operations.
[[nodiscard]] fast_check_result check_fast(const std::vector<operation>& raw,
                                           value_t initial);

}  // namespace bloom87
