#include "net/servers.hpp"

#include "util/check.hpp"

namespace bloom87::net {

template <typename Server>
server_group<Server>::server_group(const net_config& cfg, fault_plan* plan)
    : cfg_(cfg),
      bus_(*this, cfg.clients + cfg.servers, cfg.bus,
           static_cast<node_id>(cfg.clients), (cfg.servers - 1) / 2, plan),
      replicas_(cfg.servers, empty_replica()),
      next_rid_(cfg.clients, 0),
      recovering_(cfg.servers, false) {
    check(cfg_.servers >= 1 && cfg_.clients >= 1,
          "net composition: needs a server and a client");
    check(cfg_.writers <= cfg_.clients,
          "net composition: more writers than clients");
    phase_.acked.resize(cfg_.servers);
    phase_.inc.resize(cfg_.servers);
}

template <typename Server>
Server server_group<Server>::empty_replica() const {
    Server r{};
    r.value = cfg_.initial;
    r.prev_value = cfg_.initial;
    return r;
}

template <typename Server>
net_counters server_group<Server>::counters() {
    net_lock::scoped guard(lock_);
    return bus_.counters();
}

template <typename Server>
void server_group<Server>::crash_server(std::size_t s) {
    net_lock::scoped guard(lock_);
    bus_.crash(server_node(s));
}

template <typename Server>
void server_group<Server>::recover_server(std::size_t s) {
    net_lock::scoped guard(lock_);
    recover_server_locked(s);
}

template <typename Server>
std::uint32_t server_group<Server>::server_incarnation(std::size_t s) {
    net_lock::scoped guard(lock_);
    return bus_.incarnation(server_node(s));
}

template <typename Server>
void server_group<Server>::deliver(const message& m) {
    if (m.dst < cfg_.clients) {
        // Anything but an ack for the open phase is a straggler. The kind
        // test never fails on its own: a rid names one phase, and a server
        // answers each request with that request's ack kind.
        if (m.dst == phase_.client && m.rid == phase_.rid &&
            m.kind == ack_of(phase_.ask)) {
            arrivals_.push_back(m);
        }
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
    const bool from_peer = m.src >= static_cast<node_id>(cfg_.clients);
    bool adopted = false;
    bus_.send(replicas_[s].serve(m.dst, m, from_peer, adopted));
    // Only client protocol traffic counts as a real-register access; a
    // recovering peer's state-transfer query is bookkeeping. The pumping
    // client is the thread executing the touch.
    if (from_peer || phase_.client >= cfg_.clients) return;
    if (cfg_.observer == nullptr || !*cfg_.observer) return;
    (*cfg_.observer)(phase_.client, s, adopted, replicas_[s].value);
}

template <typename Server>
void server_group<Server>::rejoin(node_id node) {
    recover_server_locked(static_cast<std::size_t>(node) - cfg_.clients);
}

template <typename Server>
void server_group<Server>::recover_server_locked(std::size_t s) {
    const node_id self = server_node(s);
    if (!bus_.node_crashed(self)) return;

    // Rejoin: EMPTY register state under a fresh incarnation -- messages
    // addressed to the crashed incarnation are now rejected by the bus.
    replicas_[s] = empty_replica();
    bus_.recover(self);
    recovering_[s] = true;
    ++bus_.counters().catchup_rounds;

    // State transfer: query EVERY live peer, not just a quorum (the header
    // comment's ">= 1 live holder" argument needs all of them). Its own
    // loop, not round_trip(): it checks the abort flag and its own re-crash
    // before its done test, and its acks arrive through catchup_box_ inside
    // whatever phase's pump rejoined it.
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
    unsigned patience = first_patience;
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
        bus_.pump_one();  // deliver() boxes the catch-up acks
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
    replicas_[s].adopt(best, best_value);
    recovering_[s] = false;
    bus_.recovery_complete(self);
}

template class server_group<abd_server>;
template class server_group<twobit_server>;

}  // namespace bloom87::net
