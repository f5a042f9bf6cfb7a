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
// Complexity: two sorts -- normalization's (value, index) pairs, and the
// 2N operation endpoints by stream position. Both are radix sorts, one
// linear pass per 11 bits of the keys' spread (two for the endpoints of a
// window of recent events). A forward sweep over the endpoints keeps, per
// processor, the last completed write and read -- edges (a), (b), (d) --
// and a backward sweep the next invoked write -- edge (c): O(N * P) edges
// for N operations and P processors, with no per-operation search.
// Adjacency is compressed (CSR); the topological sort and the witness
// re-verification are linear in graph size, plus a heap over ready nodes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "histories/history.hpp"

namespace bloom87 {

struct fast_check_result {
    bool linearizable{false};
    /// Witness linearization (copies, in linearization order) when
    /// linearizable.
    std::vector<operation> witness;
    /// For failures: a short explanation of the violated condition.
    std::string diagnosis;
    std::optional<std::string> defect;  ///< malformed input / internal error

    [[nodiscard]] bool ok() const noexcept { return !defect.has_value(); }
};

/// Checks atomicity of a register history in polynomial time.
/// Requires unique write values (enforced); accepts pending operations.
[[nodiscard]] fast_check_result check_fast(const std::vector<operation>& raw,
                                           value_t initial);

}  // namespace bloom87
