// bloom87: server-node state machines.
//
// A server node is pure protocol state plus a serve() function from request
// to reply -- no threads, no timers, no knowledge of the bus. The systems in
// abd.hpp / twobit.hpp own a vector of these, call serve() from their
// bus_owner::deliver, and send the replies back through the bus. Keeping
// the node logic bus-free is what lets the model checker re-state it as
// sim_state steps (modelcheck/net_processes.cpp) without duplicating
// semantics.
#pragma once

#include "net/messages.hpp"

namespace bloom87::net {

/// One ABD replica: the highest (timestamp, value) pair adopted so far,
/// plus the previously committed pair so a stale-marked read_req can be
/// served dishonestly (bus.hpp's stale_read fault).
struct abd_server {
    stamp ts{};
    value_t value{0};
    stamp prev_ts{};
    value_t prev_value{0};

    /// Serves one request addressed to this node (`self`); returns the
    /// reply. write_req adopts iff strictly newer (idempotent under
    /// duplication and retransmission).
    [[nodiscard]] message serve(node_id self, const message& m) {
        message r;
        r.src = self;
        r.dst = m.src;
        r.rid = m.rid;
        if (m.kind == msg_kind::read_req) {
            r.kind = msg_kind::read_ack;
            if (m.stale) {
                r.ts = prev_ts;
                r.value = prev_value;
            } else {
                r.ts = ts;
                r.value = value;
            }
            return r;
        }
        // write_req: adopt-if-newer, then acknowledge receipt either way.
        if (m.ts > ts) {
            prev_ts = ts;
            prev_value = value;
            ts = m.ts;
            value = m.value;
        }
        r.kind = msg_kind::write_ack;
        r.ts = m.ts;
        return r;
    }
};

/// One replica of the Mostefaoui-Raynal-style bounded-control register
/// (twobit.hpp). Local state holds the FULL version counter -- unbounded
/// LOCAL state is allowed; the point is that only `version & 3` (two bits)
/// ever crosses the wire. Versions advance strictly one at a time: a
/// request coding (version+1) mod 4 is the consecutive next and is adopted;
/// coding version mod 4 is a duplicate of what we hold; anything else is a
/// gap or an old straggler and leaves state untouched. Replies carry OUR
/// code after processing, which is how clients learn whether this replica
/// provably holds their version (same code, or consecutive-next = newer).
struct twobit_server {
    std::uint64_t version{0};
    value_t value{0};
    value_t prev_value{0};

    [[nodiscard]] std::uint8_t code() const noexcept {
        return static_cast<std::uint8_t>(version & 3U);
    }

    /// Serves one request; `adopted` (non-null) reports whether a new
    /// version was installed.
    [[nodiscard]] message serve(node_id self, const message& m,
                                bool* adopted) {
        if (adopted != nullptr) *adopted = false;
        message r;
        r.src = self;
        r.dst = m.src;
        r.rid = m.rid;
        if (m.kind == msg_kind::read_req) {
            r.kind = msg_kind::read_ack;
            if (m.stale) {
                r.value = prev_value;
                r.bits = static_cast<std::uint8_t>((version - 1) & 3U);
            } else {
                r.value = value;
                r.bits = code();
            }
            return r;
        }
        // write_req (from the writer) or echo (peer gossip) or a reader
        // write-back: all use the same consecutive-adoption rule.
        if (m.bits == ((version + 1) & 3U)) {
            prev_value = value;
            ++version;
            value = m.value;
            if (adopted != nullptr) *adopted = true;
        }
        r.kind = msg_kind::write_ack;
        r.bits = code();
        return r;
    }
};

}  // namespace bloom87::net
