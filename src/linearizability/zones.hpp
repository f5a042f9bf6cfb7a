// bloom87: the zone test of Gibbons & Korach ("Testing Shared Memories",
// SIAM J. Comput. 1997): atomicity of a register history with unique write
// values, with no graph and no witness.
//
// A CLUSTER is a write plus the reads of its value; the initial value is a
// virtual write at -infinity. Its ZONE runs from f, the earliest response
// among its members, to s, the latest invocation: FORWARD when f < s,
// BACKWARD otherwise. With `<` strict (two endpoints at one position are
// concurrent), the history is atomic iff
//
//   (1) no read responds before its write is invoked;
//   (2) no two forward zones overlap: not (f1 < s2 and f2 < s1);
//   (3) no backward zone lies inside a forward one: not (f < sb and fb < s).
//
// Against the initial zone (-infinity, s0), (2) and (3) say that no read of
// the initial value is invoked after a member of another cluster responds.
// Some linearization ends with value u iff u's cluster's f is at or after
// every other cluster's s (a read of u appended after everything joins u's
// cluster, and then (2) and (3) say exactly this), and with the initial
// value iff no write is kept. check_fast's `normalizer` drops pending ops
// and finds defects, so both are handled as there (a defect fails the
// judge). Cost: one normalization, a pass over the ops, two over the
// writes and a sort of the forward zones, in arrays kept across calls.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "histories/history.hpp"
#include "linearizability/normalize.hpp"

namespace bloom87 {

/// Reusable; not thread-safe: one owner judges at a time.
class zone_judge {
public:
    /// True iff `raw` is atomic from `initial` (check_fast's verdict); false
    /// also when normalization finds a defect.
    [[nodiscard]] bool judge(std::span<const operation> raw, value_t initial);

    /// After a passing judge(): the values some linearization of that history
    /// can end with, in the raw order of their writes (just the initial value
    /// when no write is kept). Unspecified after a failed judge().
    [[nodiscard]] const std::vector<value_t>& last_values() const noexcept {
        return last_;
    }

private:
    struct zone {
        event_pos f;
        event_pos s;
    };

    normalizer norm_;
    std::vector<std::uint32_t> writes_;  ///< kept positions of the writes
    std::vector<event_pos> first_resp_;  ///< per write, by kept position: f
    std::vector<event_pos> last_inv_;    ///< per write, by kept position: s
    std::vector<zone> forward_;
    std::vector<value_t> last_;
};

}  // namespace bloom87
