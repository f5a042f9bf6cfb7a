#include "net/twobit.hpp"

#include "util/check.hpp"

namespace bloom87::net {

twobit_system::twobit_system(const net_config& cfg, fault_plan* plan)
    : server_group(
          [&cfg] {
              net_config c = cfg;
              c.bus.fifo = true;  // the construction counts on channel order
              return c;
          }(),
          plan),
      replies_(cfg.servers) {
    check(cfg_.writers == 1, "twobit_system: exactly one writer");
}

bool twobit_system::query(std::size_t client) {
    return round_trip(
        client, msg_kind::read_req,
        [this](std::size_t s) { bus_.send(request(s)); },
        [this](std::size_t s, const message& ack) {
            replies_[s] = {ack.value, static_cast<std::uint8_t>(ack.bits & 3U)};
            return true;
        },
        [this] { return quorum_acked(); }, quorum_give_up);
}

bool twobit_system::install(std::size_t client, value_t v,
                            std::uint8_t code) {
    // The WRITER must install on every live replica, not just a quorum.
    // Only two bits cross the wire, so a replica that falls >= 3 versions
    // behind aliases mod 4 with the frontier: a reader quorum containing it
    // sees two "consecutive" codes ordered backwards, returns the laggard's
    // overwritten value as the newest, and its write-back re-installs that
    // value as a fresh version at the frontier. Waiting for all live
    // replicas bounds the lag to one version, which is exactly what makes
    // two consecutive codes resolvable. Crash-stop servers are exempted as
    // the bus reports them, and nothing is sent to them: the
    // bounded-control composition assumes a perfect failure detector (a
    // documented deviation, docs/NET.md -- ABD's unbounded timestamps need
    // no such assumption). The writer's install can never time out (no
    // replica can be AHEAD of the version it is announcing), so only the
    // abort flag ends it; a reader's write-back abandons once the quorum
    // has moved on.
    const bool writer = client == 0;
    return round_trip(
        client, msg_kind::write_req,
        [&](std::size_t s) {
            if (bus_.node_crashed(server_node(s))) return;
            message m = request(s);
            m.value = v;
            m.bits = code;
            bus_.send(m);
        },
        [code](std::size_t, const message& ack) {
            // Success = the replica provably holds our version: it codes
            // it exactly, or its consecutive successor (strictly newer). A
            // laggard's fail-ack is not progress; it answers a later
            // retransmission once it has caught up.
            return ack.bits == code || ack.bits == ((code + 1U) & 3U);
        },
        [&] {
            if (!writer) return quorum_acked();
            for (std::size_t s = 0; s < cfg_.servers; ++s) {
                if (!phase_.acked[s] && !bus_.node_crashed(server_node(s))) {
                    return false;
                }
            }
            return true;
        },
        writer ? never : writeback_give_up);
}

std::optional<value_t> twobit_system::read(std::size_t client,
                                           const pause_hook* pause) {
    // The adversarial pause comes FIRST, and the query plus its conditional
    // write-back then run under ONE lock hold. Releasing the lock between
    // the two phases (the pause used to sit there) is unsound with bounded
    // control: a writer that advances 3 versions (mod 4) during the gap
    // makes the reader's now-stale candidate alias as every replica's
    // consecutive-next code, and the write-back re-installs an overwritten
    // value as a fresh version. ABD tolerates the same gap because its
    // unbounded timestamps order a stale write-back as old; two-bit codes
    // cannot, so freshness must come from atomicity instead.
    if (pause != nullptr) (*pause)();
    net_lock::scoped guard(lock_);
    unsigned tries = 0;
    for (;;) {
        // Graceful degradation: quorum_give_up full re-queries (each itself
        // retry-bounded), then report unavailable instead of spinning.
        if (tries++ >= quorum_give_up || !query(client)) {
            ++bus_.counters().unavailable_ops;
            return std::nullopt;
        }
        // Order the quorum's codes. Legal pictures: one code (one version),
        // or two consecutive codes (the in-flight frontier and its
        // predecessor). Anything else -- a gap, three codes, or one code
        // fronting different values (mod-4 aliasing, >= 4 writes behind) --
        // is unresolvable with two bits; re-query (the writer's all-live
        // installs keep laggards from lasting).
        bool seen[4] = {false, false, false, false};
        value_t val[4] = {0, 0, 0, 0};
        bool conflict = false;
        std::size_t replies = 0;
        int ncodes = 0;
        for (std::size_t s = 0; s < cfg_.servers; ++s) {
            if (!phase_.acked[s]) continue;
            const reply& r = replies_[s];
            ++replies;
            if (!seen[r.bits]) {
                seen[r.bits] = true;
                val[r.bits] = r.value;
                ++ncodes;
            } else if (val[r.bits] != r.value) {
                conflict = true;
            }
        }
        if (conflict || ncodes == 0 || ncodes > 2) continue;
        int cand = -1;
        if (ncodes == 1) {
            for (int c = 0; c < 4; ++c) {
                if (seen[c]) cand = c;
            }
        } else {
            int a = -1;
            int b = -1;
            for (int c = 0; c < 4; ++c) {
                if (!seen[c]) continue;
                (a < 0 ? a : b) = c;
            }
            if (b == ((a + 1) & 3)) {
                cand = b;
            } else if (a == ((b + 1) & 3)) {
                cand = a;
            } else {
                continue;  // codes two apart: a gap, not orderable
            }
        }
        // Fast path: the whole quorum already agrees on one (version,
        // value) -- any strictly newer completed operation would have
        // intersected this quorum and shown a different code or value, so
        // the write-back is redundant (same argument as ABD's, docs/NET.md).
        const bool fast = ncodes == 1 && replies >= quorum();
        const value_t result = val[cand];
        if (!fast &&
            !install(client, result, static_cast<std::uint8_t>(cand))) {
            continue;  // quorum moved >= 2 versions past us: start over
        }
        ++bus_.counters().ops;
        if (fast) ++bus_.counters().fast_path_ops;
        return result;
    }
}

bool twobit_system::write(std::size_t client, value_t v,
                          const pause_hook* pause) {
    check(client == 0, "twobit_system: client 0 is the only writer");
    ++writer_version_;
    if (pause != nullptr) (*pause)();
    net_lock::scoped guard(lock_);
    if (!install(client, v, static_cast<std::uint8_t>(writer_version_ & 3U))) {
        // Only the abort flag can fail the writer's install (it waits on
        // LIVE replicas only): the run is being torn down, so leaving
        // writer_version_ advanced past the replicas is harmless.
        ++bus_.counters().unavailable_ops;
        return false;
    }
    ++bus_.counters().ops;
    return true;
}

}  // namespace bloom87::net
