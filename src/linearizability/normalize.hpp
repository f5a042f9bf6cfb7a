// bloom87: history normalization shared by both generic checkers.
//
// Converts a raw operation list (possibly containing pending/crashed
// operations) into the form the checkers consume:
//
//  * pending READS are dropped -- they returned nothing, so any
//    linearization of the rest extends to them trivially;
//  * pending WRITES whose value was returned by some read are kept with an
//    infinite response time (they must have taken effect);
//  * pending writes nobody read are dropped -- sound for registers: an
//    unobserved write with an open interval can always be appended to the
//    linearization after every operation that overlaps it.
//
// Also validates the unique-writes discipline the fast checker relies on.
// One sort of (value, index) pairs over the writes and complete reads does
// all of it: each run of equal values says whether the value was written
// twice or is the initial value, whether some read returned it, and whether
// a read returned a value no write produced.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "histories/history.hpp"

namespace bloom87 {

struct normalized_history {
    std::vector<operation> ops;     ///< complete ops only (resp may be "infinity")
    value_t initial{0};
    std::optional<std::string> defect;  ///< set if the raw history is malformed

    [[nodiscard]] bool ok() const noexcept { return !defect.has_value(); }
};

/// See file comment. `require_unique_writes` additionally rejects histories
/// where two writes carry the same value (the fast checker's precondition).
/// With two or more defects, the one a scan in raw order meets first is
/// reported.
[[nodiscard]] normalized_history normalize_history(
    const std::vector<operation>& raw, value_t initial,
    bool require_unique_writes = true);

/// normalize_history without the copies: the surviving raw indices, and
/// for each survivor the write it carries the value of.
struct normalized_index {
    static constexpr std::size_t no_source =
        std::numeric_limits<std::size_t>::max();

    std::vector<std::size_t> kept;  ///< raw indices of the survivors, raw order
    /// Per survivor (unique writes only): for a write, its own position in
    /// `kept`; for a read, the position in `kept` of the one write of its
    /// value, or `no_source` when it returned the initial value.
    std::vector<std::size_t> source;
    std::optional<std::string> defect;

    [[nodiscard]] bool ok() const noexcept { return !defect.has_value(); }
};

[[nodiscard]] normalized_index normalize_indices(
    const std::vector<operation>& raw, value_t initial,
    bool require_unique_writes);

}  // namespace bloom87
