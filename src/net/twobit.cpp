#include "net/twobit.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace bloom87::net {

twobit_system::twobit_system(const twobit_config& cfg, fault_plan* plan)
    : cfg_(cfg),
      bus_(*this, (cfg.clients + cfg.servers),
           [&cfg] {
               bus_config b = cfg.bus;
               b.fifo = true;  // the construction counts on channel order
               return b;
           }(),
           static_cast<node_id>(cfg.clients), (cfg.servers - 1) / 2, plan),
      replicas_(cfg.servers),
      next_rid_(cfg.clients, 0),
      recovering_(cfg.servers, false) {
    check(cfg_.servers >= 1 && cfg_.clients >= 1,
          "twobit_system: needs a server and a client");
    cfg_.bus.fifo = true;
    for (twobit_server& r : replicas_) {
        r.value = cfg_.initial;
        r.prev_value = cfg_.initial;
    }
    phase_.acked.resize(cfg_.servers);
    phase_.inc.resize(cfg_.servers);
    phase_.replies.resize(cfg_.servers);
}

void twobit_system::deliver(const message& m) {
    if (m.dst < cfg_.clients) {
        credit(m);
    } else {
        serve_at(m.dst - cfg_.clients, m);
    }
}

void twobit_system::rejoin(node_id node) {
    recover_server_locked(static_cast<std::size_t>(node) - cfg_.clients);
}

void twobit_system::serve_at(std::size_t s, const message& m) {
    if (recovering_[s]) {
        // Not open for business: during catch-up the replica only listens
        // for its own state-transfer acks; client protocol messages are
        // dropped (client retransmission covers them).
        if (m.kind == msg_kind::read_ack && m.rid == catchup_rid_) {
            catchup_box_.push_back(m);
        }
        return;
    }
    if (m.kind == msg_kind::read_req &&
        m.src >= static_cast<node_id>(cfg_.clients)) {
        // A recovering PEER's state-transfer query. The reply carries the
        // FULL version counter in ts.seq -- the documented recovery
        // deviation (twobit.hpp): two bits cannot bootstrap a reborn
        // replica, and the bounded-control claim is about the steady-state
        // client protocol, not out-of-band state transfer.
        message r;
        r.src = server_node(s);
        r.dst = m.src;
        r.kind = msg_kind::read_ack;
        r.rid = m.rid;
        r.ts = {replicas_[s].version, 0};
        r.value = replicas_[s].value;
        r.bits = replicas_[s].code();
        bus_.send(r);
        return;
    }
    // No peer gossip. An earlier revision had adopting servers echo the new
    // version to their peers, but cross-channel echoes are UNSOUND with
    // two-bit codes: FIFO order is per (src,dst) channel only, so a replica
    // that advanced to version k through the writer's direct channel can
    // still hold an undelivered peer echo for version k-3 -- whose code is
    // (k+1) mod 4, the consecutive-next, and the overwritten value would be
    // adopted as a fresh version. The writer's install-on-every-live-replica
    // rule (install_phase) already keeps laggards from existing, which makes
    // gossip redundant as well as dangerous; echoes are simply not sent.
    bool adopted = false;
    const message r = replicas_[s].serve(server_node(s), m, &adopted);
    if (m.kind != msg_kind::echo) bus_.send(r);
    observe(m, s, adopted);
}

void twobit_system::observe(const message& m, std::size_t server,
                            bool installed) {
    if (cfg_.observer == nullptr || !*cfg_.observer) return;
    if (m.src >= static_cast<node_id>(cfg_.clients)) return;
    if (phase_.client >= cfg_.clients) return;
    (*cfg_.observer)(phase_.client, server, installed,
                     replicas_[server].value);
}

void twobit_system::begin_phase(std::size_t client, msg_kind want,
                                std::uint8_t code) {
    ++bus_.counters().rounds;
    open_phase& ph = phase_;
    ph.client = client;
    ph.rid = ++next_rid_[client];
    ph.want = want;
    ph.code = code;
    std::fill(ph.acked.begin(), ph.acked.end(), false);
    ph.count = 0;
}

void twobit_system::credit(const message& m) {
    open_phase& ph = phase_;
    // Anything but an ack for the open phase is a straggler.
    if (m.dst != ph.client || m.rid != ph.rid || m.kind != ph.want) return;
    const std::size_t s = m.src - cfg_.clients;
    if (ph.acked[s]) return;
    if (ph.want == msg_kind::write_ack) {
        // Success = the replica provably holds our version: it codes it
        // exactly, or its consecutive successor (strictly newer). A
        // laggard's fail-ack is not progress; it answers a later
        // retransmission once it has caught up.
        if (m.bits != ph.code && m.bits != ((ph.code + 1U) & 3U)) return;
    } else {
        ph.replies[s] = {m.value, static_cast<std::uint8_t>(m.bits & 3U)};
    }
    ph.acked[s] = true;
    ph.inc[s] = m.src_inc;  // the incarnation that sent it
    ++ph.count;
    ph.got = true;
}

void twobit_system::void_stale_acks() {
    // An ack from a replica that has crashed and re-incarnated since it
    // SENT the ack is VOID, for the reasons abd.cpp's run_phase gives. A
    // query: the read fast path treats a code-unanimous quorum as "one
    // version everywhere", and unanimity across an incarnation change can
    // pair an ERASED frontier copy with a freshly re-installed one while
    // the reborn replica sits a version behind -- a later reader's quorum
    // through it would return the overwritten value (new/old inversion).
    // An install: the adopted version was erased, and the catch-up
    // reinstalls the max of the LIVE peers, which may be one version behind
    // this install. Without the scan the writer believes the recovered
    // replica holds version k while it sits at k-1, and the NEXT write
    // (k+1) becomes an unfillable consecutive-adoption gap: livelock.
    // Either way the retransmission re-asks the recovered replica.
    open_phase& ph = phase_;
    for (std::size_t s = 0; s < cfg_.servers; ++s) {
        if (ph.acked[s] && bus_.incarnation(server_node(s)) != ph.inc[s]) {
            ph.acked[s] = false;
            --ph.count;
        }
    }
}

bool twobit_system::query_phase(std::size_t client) {
    // Caller holds the lock (read() keeps it across query + write-back).
    begin_phase(client, msg_kind::read_ack, 0);
    const std::size_t n = cfg_.servers;
    const std::size_t q = quorum();
    const auto broadcast = [&] {
        for (std::size_t s = 0; s < n; ++s) {
            if (phase_.acked[s]) continue;
            message m;
            m.src = static_cast<node_id>(client);
            m.dst = server_node(s);
            m.kind = msg_kind::read_req;
            m.rid = phase_.rid;
            bus_.send(m);
        }
    };
    broadcast();

    // Exponential backoff, same rationale as abd.cpp's run_phase: a fixed
    // pump-counted threshold refills the flight set faster than pumping
    // drains it once traffic piles up.
    unsigned idle = 0;
    unsigned patience = cfg_.retransmit_after;
    unsigned attempts = 0;
    while (phase_.count < q) {
        if (abort_requested()) return false;
        phase_.got = false;
        bus_.pump_one();  // deliver() credits this phase's replies
        void_stale_acks();
        if (phase_.got) {
            idle = 0;
        } else if (++idle >= patience) {
            if (cfg_.max_attempts != 0 && ++attempts >= cfg_.max_attempts) {
                return false;  // quorum unavailable within the retry budget
            }
            ++bus_.counters().retransmissions;
            broadcast();
            idle = 0;
            patience += patience;
        }
    }
    return true;
}

bool twobit_system::install_phase(std::size_t client, value_t v,
                                  std::uint8_t code) {
    // Caller holds the lock.
    begin_phase(client, msg_kind::write_ack, code);
    const std::size_t n = cfg_.servers;
    const std::size_t q = quorum();
    // Client 0 is the writer: its install can never time out (no replica
    // can be AHEAD of the version it is announcing), so it gets unlimited
    // patience; reader write-backs abandon once the quorum has moved on.
    const bool limited = client != 0;

    const auto broadcast = [&] {
        for (std::size_t s = 0; s < n; ++s) {
            if (phase_.acked[s] || bus_.node_crashed(server_node(s))) continue;
            message m;
            m.src = static_cast<node_id>(client);
            m.dst = server_node(s);
            m.kind = msg_kind::write_req;
            m.rid = phase_.rid;
            m.value = v;
            m.bits = code;
            bus_.send(m);
        }
    };
    broadcast();

    // The WRITER must install on every live replica, not just a quorum.
    // Only two bits cross the wire, so a replica that falls >= 3 versions
    // behind aliases mod 4 with the frontier: a reader quorum containing it
    // sees two "consecutive" codes ordered backwards, returns the laggard's
    // overwritten value as the newest, and its write-back re-installs that
    // value as a fresh version at the frontier. Waiting for all live
    // replicas bounds the lag to one version, which is exactly what makes
    // two consecutive codes resolvable. Crash-stop servers are exempted as
    // the bus reports them: the bounded-control composition assumes a
    // perfect failure detector (a documented deviation, docs/NET.md --
    // ABD's unbounded timestamps need no such assumption).
    const auto satisfied = [&]() -> bool {
        if (limited) return phase_.count >= q;
        for (std::size_t s = 0; s < n; ++s) {
            if (!phase_.acked[s] && !bus_.node_crashed(server_node(s))) {
                return false;
            }
        }
        return true;
    };

    unsigned idle = 0;
    unsigned rounds_sent = 1;
    unsigned patience = cfg_.retransmit_after;  // doubles per rebroadcast
    while (!satisfied()) {
        if (abort_requested()) return false;
        phase_.got = false;
        bus_.pump_one();  // deliver() credits this phase's holds
        void_stale_acks();
        if (phase_.got) {
            idle = 0;
        } else if (++idle >= patience) {
            if (limited && rounds_sent >= cfg_.writeback_patience) {
                return false;
            }
            ++bus_.counters().retransmissions;
            ++rounds_sent;
            broadcast();
            idle = 0;
            patience += patience;
        }
    }
    return true;
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
        // Graceful degradation: a bounded number of full re-queries (each
        // itself retry-bounded), then report unavailable instead of spinning.
        if (cfg_.max_attempts != 0 && tries++ >= cfg_.max_attempts) {
            note_unavailable_locked();
            return std::nullopt;
        }
        if (!query_phase(client)) {
            note_unavailable_locked();
            return std::nullopt;
        }
        // Order the quorum's codes. Legal pictures: one code (one version),
        // or two consecutive codes (the in-flight frontier and its
        // predecessor). Anything else -- a gap, three codes, or one code
        // fronting different values (mod-4 aliasing, >= 4 writes behind) --
        // is unresolvable with two bits; re-query and let gossip catch the
        // laggards up.
        bool seen[4] = {false, false, false, false};
        value_t val[4] = {0, 0, 0, 0};
        bool conflict = false;
        std::size_t replies = 0;
        int ncodes = 0;
        for (std::size_t s = 0; s < cfg_.servers; ++s) {
            if (!phase_.acked[s]) continue;
            const reply& r = phase_.replies[s];
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
        if (!fast && !install_phase(client, result,
                                    static_cast<std::uint8_t>(cand))) {
            continue;  // quorum moved >= 2 versions past us: start over
        }
        ++bus_.counters().ops;
        if (fast) ++bus_.counters().fast_path_ops;
        return result;
    }
}

bool twobit_system::write(value_t v, const pause_hook* pause) {
    ++writer_version_;
    if (pause != nullptr) (*pause)();
    net_lock::scoped guard(lock_);
    if (!install_phase(0, v,
                       static_cast<std::uint8_t>(writer_version_ & 3U))) {
        // Only the abort flag can fail the writer's install (it waits on
        // LIVE replicas only): the run is being torn down, so leaving
        // writer_version_ advanced past the replicas is harmless.
        note_unavailable_locked();
        return false;
    }
    ++bus_.counters().ops;
    return true;
}

net_counters twobit_system::counters() {
    net_lock::scoped guard(lock_);
    return bus_.counters();
}

void twobit_system::crash_server(std::size_t s) {
    net_lock::scoped guard(lock_);
    bus_.crash(server_node(s));
}

void twobit_system::note_unavailable_locked() {
    ++bus_.counters().unavailable_ops;
}

void twobit_system::recover_server(std::size_t s) {
    net_lock::scoped guard(lock_);
    recover_server_locked(s);
}

std::uint32_t twobit_system::server_incarnation(std::size_t s) {
    net_lock::scoped guard(lock_);
    return bus_.incarnation(server_node(s));
}

void twobit_system::recover_server_locked(std::size_t s) {
    const node_id self = server_node(s);
    if (!bus_.node_crashed(self)) return;

    // Rejoin with EMPTY state under a fresh incarnation, then state-transfer
    // from EVERY live peer (same shape as abd.cpp's catch-up, and the same
    // ">= 1 live holder" budget argument). The replies carry full versions
    // in ts.seq (serve_at's deviation comment); taking their max leaves the
    // reborn replica at most ONE version behind the writer's frontier --
    // the writer installs on every live replica, so all live peers sit at
    // the frontier or its predecessor -- which restores the lag bound the
    // two-bit ordering argument needs.
    replicas_[s] = twobit_server{};
    replicas_[s].value = cfg_.initial;
    replicas_[s].prev_value = cfg_.initial;
    bus_.recover(self);
    recovering_[s] = true;
    ++bus_.counters().catchup_rounds;

    const std::uint64_t rid = ++catchup_rid_;
    catchup_box_.clear();
    const auto live_peer = [&](std::size_t t) {
        const node_id node = server_node(t);
        return t != s && !bus_.node_crashed(node) &&
               !bus_.node_recovering(node);
    };
    const auto broadcast = [&](const std::vector<bool>& acked) {
        for (std::size_t t = 0; t < cfg_.servers; ++t) {
            if (!live_peer(t) || acked[t]) continue;
            message m;
            m.src = self;
            m.dst = server_node(t);
            m.kind = msg_kind::read_req;
            m.rid = rid;
            bus_.send(m);
        }
    };
    std::vector<bool> acked(cfg_.servers, false);
    broadcast(acked);

    std::uint64_t best_version = 0;
    value_t best_value = cfg_.initial;
    unsigned idle = 0;
    unsigned patience = cfg_.retransmit_after;
    for (;;) {
        if (abort_requested() || bus_.node_crashed(self)) {
            // Torn down or re-crashed mid-catch-up: never half-open.
            recovering_[s] = false;
            bus_.abort_recovery(self);
            return;
        }
        bool done = true;
        for (std::size_t t = 0; t < cfg_.servers; ++t) {
            if (live_peer(t) && !acked[t]) done = false;
        }
        if (done) break;
        bus_.pump_one();
        bool got = false;
        for (const message& m : catchup_box_) {
            const std::size_t t = m.src - cfg_.clients;
            if (acked[t]) continue;
            acked[t] = true;
            got = true;
            if (best_version < m.ts.seq) {
                best_version = m.ts.seq;
                best_value = m.value;
            }
        }
        catchup_box_.clear();
        if (got) {
            idle = 0;
            continue;
        }
        if (++idle >= patience) {
            ++bus_.counters().retransmissions;
            broadcast(acked);
            idle = 0;
            patience += patience;
        }
    }

    if (replicas_[s].version < best_version) {
        replicas_[s].version = best_version;
        replicas_[s].value = best_value;
        replicas_[s].prev_value = best_value;
    }
    recovering_[s] = false;
    bus_.recovery_complete(self);
}

}  // namespace bloom87::net
