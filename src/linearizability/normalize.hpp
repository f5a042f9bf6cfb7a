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
// One open-addressing table keyed by value does all of it: a scan of the
// writes in raw order meets a value's first write (which claims its slot),
// a second write of it, or a write of the initial value; the complete reads
// then find their value's first write, mark it observed, or name a value no
// write produced. Expected O(N) with no sort, however the values spread.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
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

/// normalize_history without the copies, reusable: its table and outputs
/// live as long as the object, so a caller that normalizes often allocates
/// only when a history outgrows every earlier one.
class normalizer {
public:
    static constexpr std::uint32_t no_source = UINT32_MAX;

    /// Normalizes `raw`: nullptr, or the defect (a static message) that
    /// normalize_history would report.
    [[nodiscard]] const char* run(std::span<const operation> raw,
                                  value_t initial, bool require_unique_writes);

    /// Raw indices of the survivors, in raw order.
    [[nodiscard]] const std::vector<std::uint32_t>& kept() const noexcept {
        return kept_;
    }
    /// Per survivor (unique writes only): for a write, its own position in
    /// kept(); for a read, the position in kept() of the one write of its
    /// value, or no_source when it returned the initial value.
    [[nodiscard]] const std::vector<std::uint32_t>& source() const noexcept {
        return source_;
    }

private:
    /// One distinct value of the run's writes and complete reads.
    struct slot {
        value_t value;
        std::uint32_t write;  ///< raw index of its first write, or no_source
        std::uint32_t state;  ///< used_bit | read_bit
    };

    std::vector<slot> table_;
    /// Per raw op: its value's slot (writes and complete reads; no_source
    /// for a pending read), then, once scanned, a read's write (raw index)
    /// and a kept write's position in kept_.
    std::vector<std::uint32_t> link_;
    std::vector<std::uint8_t> shape_;  ///< per raw op: is write, is complete
    std::vector<std::uint32_t> kept_;
    std::vector<std::uint32_t> source_;
};

}  // namespace bloom87
