// bloom87: server-node state machines.
//
// A server node is pure protocol state plus a serve() function from request
// to reply -- no threads, no timers, no knowledge of the bus -- and an
// adopt() that installs a recovery catch-up's winner. server_group
// (servers.hpp) owns a vector of these, calls serve() from its
// bus_owner::deliver, and sends the replies back through the bus. Both
// serve()s take the same arguments: `from_peer` marks a recovering peer's
// state-transfer query, and `adopted` reports whether the request installed
// a new value. Keeping the node logic bus-free is what lets the model
// checker re-state it as sim_state steps (modelcheck/net_processes.cpp)
// without duplicating semantics.
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
    /// duplication and retransmission). A peer's query is answered like a
    /// client's: the stamp is the state to transfer.
    [[nodiscard]] message serve(node_id self, const message& m,
                                bool /*from_peer*/, bool& adopted) {
        adopted = false;
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
            adopted = true;
        }
        r.kind = msg_kind::write_ack;
        r.ts = m.ts;
        return r;
    }

    /// Recovery: installs a catch-up's winner if it is newer, as the
    /// previous pair too (a reborn replica has no older one to serve).
    void adopt(stamp t, value_t v) {
        if (!(ts < t)) return;
        ts = prev_ts = t;
        value = prev_value = v;
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

    /// Serves one request. A peer's query is answered with the FULL version
    /// counter in ts.seq -- the documented recovery deviation (twobit.hpp):
    /// two bits cannot bootstrap a reborn replica, and the bounded-control
    /// claim is about the steady-state client protocol, not out-of-band
    /// state transfer.
    [[nodiscard]] message serve(node_id self, const message& m,
                                bool from_peer, bool& adopted) {
        adopted = false;
        message r;
        r.src = self;
        r.dst = m.src;
        r.rid = m.rid;
        if (m.kind == msg_kind::read_req && from_peer) {
            r.kind = msg_kind::read_ack;
            r.ts = {version, 0};
            r.value = value;
            r.bits = code();
            return r;
        }
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
        // write_req, from the writer or a reader's write-back: both use the
        // same consecutive-adoption rule.
        if (m.bits == ((version + 1) & 3U)) {
            prev_value = value;
            ++version;
            value = m.value;
            adopted = true;
        }
        r.kind = msg_kind::write_ack;
        r.bits = code();
        return r;
    }

    /// Recovery: installs a catch-up's winner if it is newer. A peer's
    /// catch-up reply carries its full version as the stamp's seq.
    void adopt(stamp t, value_t v) {
        if (version >= t.seq) return;
        version = t.seq;
        value = prev_value = v;
    }
};

}  // namespace bloom87::net
