#include "net/abd.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace bloom87::net {

abd_system::abd_system(const abd_config& cfg, fault_plan* plan)
    : cfg_(cfg),
      bus_(*this, cfg.clients + cfg.servers, cfg.bus,
           static_cast<node_id>(cfg.clients), (cfg.servers - 1) / 2, plan),
      replicas_(cfg.servers),
      next_rid_(cfg.clients, 0),
      writer_seq_(cfg.clients, 0),
      recovering_(cfg.servers, false),
      jitter_(cfg.bus.seed ^ 0x6a69747465726564ULL) {
    check(cfg_.servers >= 1, "abd_system: no servers");
    check(cfg_.writers <= cfg_.clients,
          "abd_system: more writers than clients");
    for (abd_server& r : replicas_) {
        r.value = cfg_.initial;
        r.prev_value = cfg_.initial;
    }
    phase_.acked.resize(cfg_.servers);
    phase_.inc.resize(cfg_.servers);
}

void abd_system::deliver(const message& m) {
    if (m.dst < cfg_.clients) {
        credit(m);
        return;
    }
    const std::size_t s = m.dst - cfg_.clients;
    if (recovering_[s]) {
        // Not open for business: during catch-up the replica only listens
        // for its own state-transfer acks; client protocol messages are
        // dropped (client retransmission covers them).
        if (m.kind == msg_kind::read_ack && m.rid == catchup_rid_) {
            catchup_box_.push_back(m);
        }
        return;
    }
    const bool installed =
        m.kind == msg_kind::write_req && replicas_[s].ts < m.ts;
    bus_.send(replicas_[s].serve(m.dst, m));
    observe(m, s, installed);
}

void abd_system::rejoin(node_id node) {
    recover_server_locked(static_cast<std::size_t>(node) - cfg_.clients);
}

void abd_system::credit(const message& m) {
    open_phase& ph = phase_;
    // Anything but an ack for the open phase is a straggler.
    if (m.dst != ph.client || m.rid != ph.rid) return;
    const std::size_t s = m.src - cfg_.clients;
    if (ph.acked[s]) return;  // duplicate delivery / retransmit echo
    ph.acked[s] = true;
    ph.inc[s] = m.src_inc;  // the incarnation that sent it
    ++ph.acks;
    ph.got = true;
    if (m.kind != msg_kind::read_ack) return;
    if (!ph.first && m.ts != ph.res.ts) ph.res.all_equal = false;
    if (ph.first || ph.res.ts < m.ts) {
        ph.res.ts = m.ts;
        ph.res.value = m.value;
    }
    ph.first = false;
}

void abd_system::observe(const message& m, std::size_t server,
                         bool installed) {
    if (cfg_.observer == nullptr || !*cfg_.observer) return;
    // Only client protocol traffic counts as a real-register access; a
    // recovering peer's state-transfer query (src is a server node) is
    // bookkeeping. The pumping client is the thread executing the touch.
    if (m.src >= static_cast<node_id>(cfg_.clients)) return;
    if (phase_.client >= cfg_.clients) return;
    (*cfg_.observer)(phase_.client, server, installed,
                     replicas_[server].value);
}

abd_system::phase_result abd_system::run_phase(std::size_t client,
                                               msg_kind kind, stamp ts,
                                               value_t v) {
    net_lock::scoped guard(lock_);
    ++bus_.counters().rounds;
    const std::size_t n = cfg_.servers;
    const std::size_t q = quorum();
    open_phase& ph = phase_;
    ph.client = client;
    ph.rid = ++next_rid_[client];
    std::fill(ph.acked.begin(), ph.acked.end(), false);
    ph.acks = 0;
    ph.first = true;
    ph.res = {};
    ph.res.value = cfg_.initial;

    const auto broadcast = [&] {
        for (std::size_t s = 0; s < n; ++s) {
            if (ph.acked[s]) continue;
            message m;
            m.src = client_node(client);
            m.dst = server_node(s);
            m.kind = kind;
            m.rid = ph.rid;
            m.ts = ts;
            m.value = v;
            bus_.send(m);
        }
    };
    broadcast();

    // Retransmission backs off exponentially: the idle threshold is counted
    // in PUMPS, and a pump usually delivers someone ELSE's message when the
    // flight set is busy. A fixed threshold then refills the flight faster
    // than pumping drains it (each rebroadcast parks up to `servers`
    // messages, and every delivered request spawns an ack), a positive
    // feedback loop that makes each successive phase slower. Doubling the
    // threshold keeps per-phase injection logarithmic while the drain stays
    // linear, so the flight set shrinks back and liveness under real loss
    // is preserved (retransmissions never stop, they just space out).
    unsigned idle = 0;
    unsigned patience = cfg_.retransmit_after;
    unsigned attempts = 0;
    while (ph.acks < q) {
        if (abort_requested()) {
            ph.res.ok = false;
            break;
        }
        ph.got = false;
        bus_.pump_one();  // deliver() credits this phase's acks
        // An ack from a server that has crashed and re-incarnated since it
        // SENT the ack is VOID -- for EVERY phase kind, not just installs.
        // "Sent" matters: a crash swallows only the messages TO the dead
        // server, so its pre-crash acks can still land after it rejoins
        // empty, and `inc` holds the sender's incarnation (message::
        // src_inc), not the one current at arrival. Installs: recovery
        // reset the state the ack promised, so it cannot count toward the
        // quorum (the rebroadcast re-installs; the recovered catch-up stamp
        // is older, so adopt-if-newer lands it again). Queries: the read
        // fast path infers "this stamp sits at a whole quorum" from
        // unanimous replies, and unanimity across an incarnation change is
        // meaningless -- the old copy was erased before the new replies were
        // served, so the q copies never coexisted. Concretely: writer
        // installs T at s0 only; s0 recovers empty; the retransmission lands
        // T at s1; a reader holding the STALE s0 ack plus the fresh s1 ack
        // sees unanimous T, skips the write-back, and a later reader on
        // {s0, s2} returns the old value -- a new/old inversion (the n=3
        // crash_rejoin model run finds exactly this trace if the check is
        // scoped to installs). Voiding forces a re-query of the reborn
        // server, which breaks the false unanimity; the max stamp kept from
        // the stale ack is harmless (over-approximation only ever forces or
        // feeds the write-back, which re-installs it at live servers).
        for (std::size_t s = 0; s < n; ++s) {
            if (ph.acked[s] && bus_.incarnation(server_node(s)) != ph.inc[s]) {
                ph.acked[s] = false;
                --ph.acks;
            }
        }
        if (ph.got) {
            idle = 0;
            continue;
        }
        if (++idle >= patience) {
            if (cfg_.max_attempts != 0 && ++attempts >= cfg_.max_attempts) {
                // Quorum unavailable within the retry budget: degrade
                // gracefully instead of livelocking on a dead majority.
                ph.res.ok = false;
                break;
            }
            ++bus_.counters().retransmissions;
            broadcast();
            idle = 0;
            // Exponential backoff plus a seeded jitter so concurrent phases
            // do not rebroadcast in lockstep.
            patience += patience + static_cast<unsigned>(jitter_.below(
                            cfg_.retransmit_after + 1));
        }
    }
    ph.client = no_client;
    return ph.res;
}

void abd_system::bump_op(bool fast_path) {
    net_lock::scoped guard(lock_);
    ++bus_.counters().ops;
    if (fast_path) ++bus_.counters().fast_path_ops;
}

void abd_system::note_unavailable() {
    net_lock::scoped guard(lock_);
    ++bus_.counters().unavailable_ops;
}

std::optional<value_t> abd_system::read(std::size_t client,
                                        const pause_hook* pause) {
    const phase_result r1 = run_phase(client, msg_kind::read_req, {}, 0);
    if (pause != nullptr) (*pause)();
    if (!r1.ok) {
        note_unavailable();
        return std::nullopt;
    }
    const bool fast = r1.all_equal;
    if (!fast) {
        // Write the winner back so no later read can observe older.
        const phase_result r2 =
            run_phase(client, msg_kind::write_req, r1.ts, r1.value);
        if (!r2.ok) {
            note_unavailable();
            return std::nullopt;
        }
    }
    bump_op(fast);
    return r1.value;
}

bool abd_system::write(std::size_t client, value_t v,
                       const pause_hook* pause) {
    stamp ts;
    bool fast = false;
    if (cfg_.multi_writer) {
        const phase_result r1 = run_phase(client, msg_kind::read_req, {}, 0);
        if (!r1.ok) {
            note_unavailable();
            return false;
        }
        ts = {r1.ts.seq + 1, static_cast<std::uint32_t>(client)};
        if (pause != nullptr) (*pause)();
    } else {
        // SWMR fast path: the sole writer already knows the highest stamp
        // (its own) -- phase 1 is unnecessary, writes are one round.
        fast = true;
        if (pause != nullptr) (*pause)();
        ts = {++writer_seq_[client], static_cast<std::uint32_t>(client)};
    }
    const phase_result r2 = run_phase(client, msg_kind::write_req, ts, v);
    if (!r2.ok) {
        note_unavailable();
        return false;
    }
    bump_op(fast);
    return true;
}

net_counters abd_system::counters() {
    net_lock::scoped guard(lock_);
    return bus_.counters();
}

void abd_system::crash_server(std::size_t s) {
    net_lock::scoped guard(lock_);
    bus_.crash(server_node(s));
}

void abd_system::recover_server(std::size_t s) {
    net_lock::scoped guard(lock_);
    recover_server_locked(s);
}

std::uint32_t abd_system::server_incarnation(std::size_t s) {
    net_lock::scoped guard(lock_);
    return bus_.incarnation(server_node(s));
}

void abd_system::recover_server_locked(std::size_t s) {
    const node_id self = server_node(s);
    if (!bus_.node_crashed(self)) return;

    // Rejoin: EMPTY register state (zero stamp over the initial value)
    // under a fresh incarnation -- messages addressed to the crashed
    // incarnation are now rejected by the bus.
    replicas_[s] = abd_server{};
    replicas_[s].value = cfg_.initial;
    replicas_[s].prev_value = cfg_.initial;
    bus_.recover(self);
    recovering_[s] = true;
    ++bus_.counters().catchup_rounds;

    // State transfer: query EVERY live peer, not just a quorum. With at
    // most f servers down at once (this one still counts against the
    // budget until the catch-up completes), any completed write sits on a
    // quorum of which >= quorum - f >= 1 members are live peers -- so the
    // all-live query provably sees the newest completed stamp.
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

    stamp best{};
    value_t best_value = cfg_.initial;
    unsigned idle = 0;
    unsigned patience = cfg_.retransmit_after;
    for (;;) {
        if (abort_requested() || bus_.node_crashed(self)) {
            // Torn down (driver deadline) or re-crashed mid-catch-up:
            // never half-open -- back to crash-stop, budget untouched.
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
            if (best < m.ts) {
                best = m.ts;
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

    // Install the transferred state and open for business.
    if (replicas_[s].ts < best) {
        replicas_[s].ts = best;
        replicas_[s].value = best_value;
        replicas_[s].prev_ts = best;
        replicas_[s].prev_value = best_value;
    }
    recovering_[s] = false;
    bus_.recovery_complete(self);
}

}  // namespace bloom87::net
