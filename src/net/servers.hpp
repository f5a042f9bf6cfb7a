// bloom87: the machinery the net/ compositions share.
//
// abd_system and twobit_system run different client protocols over
// different replicas (node.hpp), but keep their servers and drive their
// quorum phases the same way. server_group owns both halves.
//
// Servers: the composition's one lock, its bus, the replicas, and the
// crash-recovery lifecycle -- a crashed server rejoins under a new
// incarnation with EMPTY state, catches up from every live peer, and only
// then reopens for client messages. The catch-up keeps the largest stamp
// the peers answer with and hands it to the replica's adopt(); twobit's
// peers answer with their full version as the stamp (twobit.hpp), so the
// largest stamp is also the largest version. Safe because a recovering
// server still counts against the crash budget until its catch-up
// completes: with at most f servers down at once, any completed write sits
// on a quorum of which >= quorum - f >= 1 members are live peers, so the
// all-live query sees the newest completed stamp (docs/NET.md §5).
//
// Clients: one loop, round_trip(), runs every quorum phase of both
// protocols -- send, pump, credit acks, void stale ones, back off, give up.
// The bus delivers into server_group; a replica serves its message, and an
// ack for the one open phase is boxed and credited after the pump returns.
// A protocol passes round_trip() only what it sends, what an accepted ack
// adds, and when the phase is done. At most one phase is open: ABD holds
// the lock across each phase, twobit's read() across its query and its
// write-back, so round_trip() itself never takes the lock.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/bus.hpp"
#include "net/node.hpp"
#include "util/rng.hpp"

namespace bloom87::net {

/// Mid-operation scheduling hook (the harness's adversarial pause).
using pause_hook = std::function<void()>;

/// Replica-access observer (the harness's gamma collector). Invoked under
/// the composition's net_lock every time a CLIENT protocol message touches
/// a server replica's register state: `client` is the PUMPING client -- the
/// processor whose thread delivered the message and executed the touch,
/// which is what a race detector must attribute the access to -- `server`
/// the replica index, `is_write` whether the replica installed a new value,
/// `v` the replica's value after serving. State-transfer traffic (recovery
/// catch-up and peer queries, src != a client node) is not client work and
/// is never reported.
using replica_observer = std::function<void(
    std::size_t client, std::size_t server, bool is_write, value_t v)>;

/// One replicated register's shape, for either protocol.
struct net_config {
    std::size_t servers{3};
    /// Client nodes = simulated processors: writers first, then readers.
    std::size_t clients{3};
    /// ABD runs its two-writer protocol when this exceeds 1; twobit
    /// requires exactly 1.
    std::size_t writers{1};
    value_t initial{0};
    bus_config bus{};  ///< twobit forces fifo on
    /// Driver's global op deadline: when the pointed-to flag goes true,
    /// in-flight phases bail out as unavailable at their next pump.
    const std::atomic<bool>* abort_flag{nullptr};
    /// Optional replica-access observer; must outlive the system.
    const replica_observer* observer{nullptr};
};

/// The servers and the client phase machinery of one composition; `Server`
/// is its node.hpp replica. The public methods that touch the bus take the
/// lock, and it guards every protected member but cfg_.
template <typename Server>
class server_group : private bus_owner {
public:
    server_group(const server_group&) = delete;
    server_group& operator=(const server_group&) = delete;

    [[nodiscard]] std::size_t quorum() const noexcept {
        return cfg_.servers / 2 + 1;
    }
    [[nodiscard]] std::size_t servers() const noexcept { return cfg_.servers; }
    /// Largest crash count quorum liveness survives: f = ceil(n/2) - 1.
    [[nodiscard]] std::size_t max_crashes() const noexcept {
        return (cfg_.servers - 1) / 2;
    }

    /// Snapshot of the run's traffic and round counters.
    [[nodiscard]] net_counters counters();

    /// Halts server s outright (tests; callers must respect max_crashes()
    /// if they still want operations to terminate).
    void crash_server(std::size_t s);

    /// Rejoins crashed server s and runs its catch-up (see the header
    /// comment). Public for tests; plan-driven recovery
    /// (`fault_spec::recover_after`) runs through rejoin().
    void recover_server(std::size_t s);

    /// Current incarnation of server s (tests pin rejoin semantics).
    [[nodiscard]] std::uint32_t server_incarnation(std::size_t s);

protected:
    /// The timeout at which a quorum phase gives up and its op reports
    /// unavailable: 9 rebroadcasts, ~first_patience * 2^10 pumps in all.
    static constexpr unsigned quorum_give_up = 10;
    /// round_trip()'s give_up for a phase only the abort flag ends.
    static constexpr unsigned never = 0;

    /// The one open client phase (see the header comment).
    struct open_phase {
        /// The client pumping the bus, which the observer attributes replica
        /// touches to; no_client outside any phase. Only a direct
        /// recover_server() pumps outside one, so its touches go
        /// unreported.
        std::size_t client{no_client};
        std::uint64_t rid{0};
        msg_kind ask{msg_kind::read_req};  ///< what the phase sends
        /// Per server: an accepted ack counts toward the phase.
        std::vector<bool> acked;
        std::vector<std::uint32_t> inc;  ///< per server: the ack's sender
        std::size_t count{0};            ///< acked servers
    };

    server_group(const net_config& cfg, fault_plan* plan);
    ~server_group() = default;

    [[nodiscard]] node_id server_node(std::size_t s) const noexcept {
        return static_cast<node_id>(cfg_.clients + s);
    }
    [[nodiscard]] bool quorum_acked() const noexcept {
        return phase_.count >= quorum();
    }
    /// The open phase's request to server s: src, dst, kind and rid set.
    [[nodiscard]] message request(std::size_t s) const noexcept {
        message m;
        m.src = static_cast<node_id>(phase_.client);
        m.dst = server_node(s);
        m.kind = phase_.ask;
        m.rid = phase_.rid;
        return m;
    }

    /// One phase of `client`: opens it to ask `ask`, calls send(s) for
    /// every server, then pumps until done(). An ack of the phase from a
    /// server not yet counted counts iff accept(s, ack) returns true. After
    /// `patience` ack-free pumps the phase calls send(s) again for every
    /// uncounted server and doubles the patience, plus a draw from `jitter`
    /// when given one. Returns false when the abort flag is up at a pump, or
    /// at the give_up-th timeout (`never` = 0: only the abort ends it).
    /// Requires lock_ held.
    template <typename Send, typename Accept, typename Done>
    bool round_trip(std::size_t client, msg_kind ask, Send&& send,
                    Accept&& accept, Done&& done, unsigned give_up,
                    rng* jitter = nullptr);

    net_config cfg_;
    net_lock lock_;
    bus bus_;
    open_phase phase_;

private:
    /// Ack-free pumps before a phase's first rebroadcast. The threshold
    /// doubles after every rebroadcast (docs/NET.md §1).
    static constexpr unsigned first_patience = 8;
    static constexpr std::size_t no_client = static_cast<std::size_t>(-1);

    [[nodiscard]] bool abort_requested() const noexcept {
        return cfg_.abort_flag != nullptr &&
               cfg_.abort_flag->load(std::memory_order_relaxed);
    }
    /// bus_owner: the replica serves a server-bound message (unless it is
    /// catching up); a client-bound ack for the open phase is boxed.
    void deliver(const message& m) override;
    /// bus_owner: plan-driven rejoin, recover_server_locked under the lock.
    void rejoin(node_id node) override;
    /// The rejoin and catch-up proper; requires lock_ held (rejoin() runs
    /// inside pump_one, i.e. under a phase's own lock hold).
    void recover_server_locked(std::size_t s);
    /// A replica holding nothing but the initial value.
    [[nodiscard]] Server empty_replica() const;

    std::vector<Server> replicas_;
    std::vector<std::uint64_t> next_rid_;  ///< per client
    std::vector<message> arrivals_;        ///< the open phase's acks
    std::vector<bool> recovering_;         ///< per server (catch-up window)
    std::vector<message> catchup_box_;     ///< state-transfer read_acks
    std::uint64_t catchup_rid_{0};
};

template <typename Server>
template <typename Send, typename Accept, typename Done>
bool server_group<Server>::round_trip(std::size_t client, msg_kind ask,
                                      Send&& send, Accept&& accept,
                                      Done&& done, unsigned give_up,
                                      rng* jitter) {
    ++bus_.counters().rounds;
    open_phase& ph = phase_;
    ph.client = client;
    ph.rid = ++next_rid_[client];
    ph.ask = ask;
    std::fill(ph.acked.begin(), ph.acked.end(), false);
    ph.count = 0;
    const auto broadcast = [&] {
        for (std::size_t s = 0; s < cfg_.servers; ++s) {
            if (!ph.acked[s]) send(s);
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
    unsigned patience = first_patience;
    unsigned timeouts = 0;
    bool ok = true;
    while (!done()) {
        if (abort_requested()) {
            ok = false;
            break;
        }
        bus_.pump_one();  // deliver() boxes this phase's acks
        bool got = false;
        for (const message& m : arrivals_) {
            const std::size_t s = m.src - cfg_.clients;
            if (ph.acked[s] || !accept(s, m)) continue;  // duplicates too
            ph.acked[s] = true;
            ph.inc[s] = m.src_inc;  // the incarnation that sent it
            ++ph.count;
            got = true;
        }
        arrivals_.clear();
        // An ack from a server that has crashed and re-incarnated since it
        // SENT the ack is VOID, for every phase kind. "Sent" matters: a
        // crash swallows only the messages TO the dead server, so its
        // pre-crash acks can still land after it rejoins empty, and `inc`
        // holds the sender's incarnation (message::src_inc), not the one
        // current at arrival. Either way the retransmission re-asks the
        // recovered replica.
        //  * Queries: a read fast path infers "this stamp (ABD) or this
        //    version (twobit) sits at a whole quorum" from unanimous
        //    replies, and unanimity across an incarnation change is
        //    meaningless -- the old copy was erased before the new replies
        //    were served, so the q copies never coexisted. Concretely:
        //    writer installs T at s0 only; s0 recovers empty; the
        //    retransmission lands T at s1; a reader holding the STALE s0
        //    ack plus the fresh s1 ack sees unanimous T, skips the
        //    write-back, and a later reader on {s0, s2} returns the old
        //    value -- a new/old inversion (the n=3 crash_rejoin model run
        //    finds exactly this trace if the check is scoped to installs).
        //    ABD keeps the max stamp of a voided ack: over-approximation
        //    only ever forces or feeds the write-back, which re-installs it
        //    at live servers.
        //  * Installs: recovery reset the state the ack promised, so it
        //    cannot count. ABD's rebroadcast re-installs (the recovered
        //    catch-up stamp is older, so adopt-if-newer lands it again).
        //    Twobit's catch-up reinstalls the max of the LIVE peers, which
        //    may be one version behind this install; without the void the
        //    writer believes the replica holds version k while it sits at
        //    k-1, and the NEXT write (k+1) becomes an unfillable
        //    consecutive-adoption gap: livelock.
        for (std::size_t s = 0; s < cfg_.servers; ++s) {
            if (ph.acked[s] && bus_.incarnation(server_node(s)) != ph.inc[s]) {
                ph.acked[s] = false;
                --ph.count;
            }
        }
        if (got) {
            idle = 0;
            continue;
        }
        if (++idle < patience) continue;
        if (give_up != never && ++timeouts >= give_up) {
            // Unavailable within the retry budget: degrade gracefully
            // instead of livelocking on a dead majority.
            ok = false;
            break;
        }
        ++bus_.counters().retransmissions;
        broadcast();
        idle = 0;
        patience += patience;
        if (jitter != nullptr) {
            patience +=
                static_cast<unsigned>(jitter->below(first_patience + 1));
        }
    }
    ph.client = no_client;
    return ok;
}

}  // namespace bloom87::net
