#include "net/servers.hpp"

#include "net/abd.hpp"
#include "net/twobit.hpp"
#include "util/check.hpp"

namespace bloom87::net {

template <typename Server, typename Config>
server_group<Server, Config>::server_group(const Config& cfg,
                                           fault_plan* plan)
    : cfg_(cfg),
      bus_(*this, cfg.clients + cfg.servers, cfg.bus,
           static_cast<node_id>(cfg.clients), (cfg.servers - 1) / 2, plan),
      replicas_(cfg.servers, empty_replica()),
      recovering_(cfg.servers, false) {
    check(cfg_.servers >= 1 && cfg_.clients >= 1,
          "net composition: needs a server and a client");
}

template <typename Server, typename Config>
Server server_group<Server, Config>::empty_replica() const {
    Server r{};
    r.value = cfg_.initial;
    r.prev_value = cfg_.initial;
    return r;
}

template <typename Server, typename Config>
net_counters server_group<Server, Config>::counters() {
    net_lock::scoped guard(lock_);
    return bus_.counters();
}

template <typename Server, typename Config>
void server_group<Server, Config>::crash_server(std::size_t s) {
    net_lock::scoped guard(lock_);
    bus_.crash(server_node(s));
}

template <typename Server, typename Config>
void server_group<Server, Config>::recover_server(std::size_t s) {
    net_lock::scoped guard(lock_);
    recover_server_locked(s);
}

template <typename Server, typename Config>
std::uint32_t server_group<Server, Config>::server_incarnation(std::size_t s) {
    net_lock::scoped guard(lock_);
    return bus_.incarnation(server_node(s));
}

template <typename Server, typename Config>
void server_group<Server, Config>::rejoin(node_id node) {
    recover_server_locked(static_cast<std::size_t>(node) - cfg_.clients);
}

template <typename Server, typename Config>
void server_group<Server, Config>::recover_server_locked(std::size_t s) {
    const node_id self = server_node(s);
    if (!bus_.node_crashed(self)) return;

    // Rejoin: EMPTY register state under a fresh incarnation -- messages
    // addressed to the crashed incarnation are now rejected by the bus.
    replicas_[s] = empty_replica();
    bus_.recover(self);
    recovering_[s] = true;
    ++bus_.counters().catchup_rounds;

    // State transfer: query EVERY live peer, not just a quorum (the header
    // comment's ">= 1 live holder" argument needs all of them).
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
        bus_.pump_one();  // the replica's deliver() boxes its catch-up acks
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

template class server_group<abd_server, abd_config>;
template class server_group<twobit_server, twobit_config>;

}  // namespace bloom87::net
