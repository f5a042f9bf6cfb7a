// bloom87: the message-layer counters of a net/ composition.
//
// Their own header, free of the bus, so the harness's net_stats
// (harness/registry.hpp) can carry them without pulling in net/ code.
#pragma once

#include <cstdint>

namespace bloom87::net {

/// Everything the report's `net` and `recovery` blocks are built from. The
/// bus owns the message-level rows; the protocol layer (abd/twobit) fills
/// the op-level ones through `counters()`.
struct net_counters {
    std::uint64_t sent{0};
    std::uint64_t delivered{0};
    std::uint64_t lost{0};        ///< dropped (knob or lost_write fault)
    std::uint64_t duplicated{0};
    std::uint64_t delayed{0};
    std::uint64_t retransmissions{0};  ///< phase re-broadcasts after silence
    std::uint64_t server_crashes{0};
    std::uint64_t ops{0};            ///< completed simulated operations
    std::uint64_t rounds{0};         ///< quorum round trips across all ops
    std::uint64_t fast_path_ops{0};  ///< ops that skipped a round
    // Crash-recovery rows (zero on crash-stop runs).
    std::uint64_t recoveries{0};       ///< completed crash->rejoin cycles
    std::uint64_t catchup_rounds{0};   ///< state-transfer query rounds run
    std::uint64_t stale_inc_drops{0};  ///< deliveries to a dead incarnation
    std::uint64_t unavailable_ops{0};  ///< ops that exhausted their attempts
};

}  // namespace bloom87::net
