// bloom87: the message vocabulary of the in-process network substrate.
//
// The repository's registers so far all live on a SHARED-MEMORY substrate:
// "where accesses happen" is a real register touched by a load or store.
// src/net/ makes that seam pluggable: a register composition may instead
// live on a set of SERVER nodes reachable only through messages, with
// clients running quorum protocols (ABD-style reads and writes, and the
// Mostefaoui-Raynal bounded-control construction). This header defines the
// wire vocabulary those protocols exchange; bus.hpp defines how (and in
// what order) messages move.
//
// Node addressing convention, fixed across the whole net layer: client
// nodes occupy ids [0, clients) -- client i IS processor i of the simulated
// register, writers first -- and server nodes occupy [clients, clients +
// servers). Servers have no processor identity: they never appear in the
// external history, which is exactly why the existing checker pipeline runs
// on net compositions unchanged.
#pragma once

#include <cstdint>

#include "histories/events.hpp"

namespace bloom87::net {

/// Index into the bus's node table (see the addressing convention above).
using node_id = std::uint32_t;

/// Everything the net protocols say to each other.
enum class msg_kind : std::uint8_t {
    read_req,   ///< ABD phase 1: "send me your (timestamp, value)"
    read_ack,   ///< its reply, carrying the server's current pair
    write_req,  ///< ABD phase 2: "adopt this (timestamp, value) if newer"
    write_ack,  ///< its reply (adoption or no-op, either way: received)
};

[[nodiscard]] constexpr const char* msg_kind_name(msg_kind k) noexcept {
    switch (k) {
        case msg_kind::read_req: return "read_req";
        case msg_kind::read_ack: return "read_ack";
        case msg_kind::write_req: return "write_req";
        case msg_kind::write_ack: return "write_ack";
    }
    return "?";
}

/// The kind a server answers a request of kind `k` with.
[[nodiscard]] constexpr msg_kind ack_of(msg_kind k) noexcept {
    return k == msg_kind::read_req ? msg_kind::read_ack : msg_kind::write_ack;
}

/// True for kinds that carry a register value (the torn-value fault only
/// applies to these; pure acknowledgments have no payload to corrupt).
[[nodiscard]] constexpr bool carries_value(msg_kind k) noexcept {
    return k == msg_kind::read_ack || k == msg_kind::write_req;
}

/// ABD logical timestamp: (sequence, writer id), compared lexicographically.
/// The writer id tiebreak is what makes the two-writer MWMR variant's
/// concurrent phase-2 installs converge on one total write order.
struct stamp {
    std::uint64_t seq{0};
    std::uint32_t writer{0};

    friend constexpr bool operator==(stamp, stamp) noexcept = default;
    friend constexpr auto operator<=>(stamp, stamp) noexcept = default;
};

/// One message in flight. ABD uses `rid` + `ts` + `value`; the twobit
/// construction uses `bits` + `value` (its whole point is that no unbounded
/// control field -- no `ts` -- ever crosses the wire; see twobit.hpp).
/// Fields run widest first, so the bus moves 56 bytes per message.
struct message {
    /// Request id matching acks to the client phase that asked. Bounded in
    /// spirit (a client has one phase outstanding; acks for any other rid
    /// are discarded), 64-bit in practice for cheap uniqueness.
    std::uint64_t rid{0};
    stamp ts{};
    value_t value{0};
    node_id src{0};
    node_id dst{0};
    /// Crash-recovery (bus.hpp): the sender's incarnation number at send
    /// time. An ack counts for the incarnation that sent it: a server that
    /// crashed and rejoined empty since then no longer holds what it
    /// acknowledged.
    std::uint32_t src_inc{0};
    /// Crash-recovery (bus.hpp): the destination's incarnation number at
    /// send time. A recovered node has a higher incarnation, so deliveries
    /// stamped with the previous one are dropped at the bus -- a message
    /// addressed to a process that no longer exists.
    std::uint32_t dst_inc{0};
    msg_kind kind{msg_kind::read_req};
    /// twobit: the two control bits actually on the wire (version mod 4).
    std::uint8_t bits{0};
    /// Fault layer (bus.hpp): a read_req marked stale makes the server
    /// answer from its PREVIOUS committed pair -- the network twin of
    /// faulty_register's stale_read.
    bool stale{false};
};
static_assert(sizeof(message) == 56, "message grew: reorder its fields");

}  // namespace bloom87::net
