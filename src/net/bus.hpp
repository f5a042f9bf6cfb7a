// bloom87: deterministic in-process message bus.
//
// The network twin of `faulty_register` (registers/faulty.hpp): where that
// adapter makes a shared-memory substrate misbehave under a seeded
// `fault_plan`, this bus IS the substrate -- a message-passing layer whose
// delivery schedule, delays, losses, duplications, and server crashes are
// all pure functions of seeds. Sent messages park in an in-flight set;
// `pump_one()` delivers ONE of the currently deliverable messages, chosen
// by the bus's seeded rng, and hands it to the composition that owns the
// bus in ONE call (`bus_owner::deliver`). Clients block inside their quorum
// phases by pumping, so under the driver's seeded single-thread schedule
// the entire delivery order -- and therefore the entire execution -- is
// reproducible from (workload seed, bus seed, fault seed), exactly like a
// thread schedule.
//
// A pump costs no scan of the in-flight set unless something in it is
// delay-parked (or channels are FIFO): the bus keeps a high-water mark of
// every `not_before` it has parked, and past it every message in flight is
// deliverable, so the pick is one rng draw over the whole set.
//
// Concurrency model: the bus itself is UNSYNCHRONIZED. One `net_lock`
// spinlock per composition serializes every send/pump/delivery slice
// (owner calls run inside pump_one, under the caller's lock, and may send).
// This mirrors the fault plan's documented trade: the lock removes real
// substrate-level races, which is acceptable because the net layer studies
// protocol-level orderings (message interleavings), not data races -- and
// it is what makes seeded runs byte-identical. Clients must NOT hold the
// lock across blocking waits or adversarial pauses; they take it per slice.
//
// Fault seams (driver --fault, reusing fault_plan classes 1:1):
//   lost_write          -> the delivered-to message is dropped instead
//                          (clients retransmit; quorum liveness survives);
//   delayed_visibility  -> delivery deferred by spec.delay_accesses pumps;
//   torn_value          -> a value-carrying message's payload is corrupted
//                          (a never-written value enters the protocol: the
//                          checkers must catch what follows);
//   stale_read          -> a read_req is marked stale: the server answers
//                          from its previous pair (quorums can then miss a
//                          completed write: detectable non-atomicity);
//   port_crash          -> the destination SERVER halts (silently stops
//                          replying), capped at f = (servers-1)/2 so quorum
//                          liveness is preserved -- the crash model ABD is
//                          designed to survive.
// Each DELIVERY counts as one plan access (--fault-at = "the nth delivery").
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "net/counters.hpp"
#include "net/messages.hpp"
#include "registers/faulty.hpp"  // fault_plan
#include "util/rng.hpp"

namespace bloom87::net {

/// The one lock serializing a net composition (see the header comment).
/// Identical discipline to fault_plan's spinlock; declared in the memory-
/// order lint contracts (analysis/contracts.cpp).
class net_lock {
public:
    void lock() noexcept {
        while (locked_.exchange(true, std::memory_order_acquire)) {}
    }
    void unlock() noexcept { locked_.store(false, std::memory_order_release); }

    struct scoped {
        explicit scoped(net_lock& l) noexcept : l_(l) { l_.lock(); }
        ~scoped() { l_.unlock(); }
        scoped(const scoped&) = delete;
        scoped& operator=(const scoped&) = delete;
        net_lock& l_;  // NOLINT(misc-non-private-member-variables-in-classes)
    };

private:
    std::atomic<bool> locked_{false};
};

/// Standing misbehavior knobs, independent of (and composable with) a
/// fault_plan: tests drive these directly to bound loss/duplication rates.
struct bus_config {
    std::uint64_t seed{1};
    /// Per-channel FIFO delivery (twobit needs it: servers reconstruct
    /// version counts from in-order two-bit messages). ABD runs without it
    /// for maximal reordering coverage.
    bool fifo{false};
    /// Each send is dropped with probability loss_num/loss_den.
    std::uint64_t loss_num{0};
    std::uint64_t loss_den{1};
    /// Each send is enqueued twice with probability dup_num/dup_den.
    std::uint64_t dup_num{0};
    std::uint64_t dup_den{1};
    /// Each send is deferred delay_steps pumps with this probability.
    std::uint64_t delay_num{0};
    std::uint64_t delay_den{1};
    unsigned delay_steps{3};
};

/// The composition a bus delivers into (server_group, servers.hpp). Both
/// calls run inside pump_one, under the composition's net_lock, and may
/// call send().
class bus_owner {
public:
    /// One message reaches its live destination node.
    virtual void deliver(const message& m) = 0;
    /// Crashed server `node` is due to rejoin (the fault plan's
    /// `recover_after` ripened): recover() it and run its catch-up. At most
    /// one rejoin runs at a time.
    virtual void rejoin(node_id node) = 0;

protected:
    ~bus_owner() = default;
};

/// The bus proper. Every method requires the composition's net_lock held by
/// the caller (owner calls run with it held and may call send()).
class bus {
public:
    /// `server_lo`: first server node id (= client count); nodes at or past
    /// it are crash-eligible servers, capped at `max_server_crashes`. The
    /// bus keeps `owner` by reference and calls it only from pump_one.
    bus(bus_owner& owner, std::size_t nodes, const bus_config& cfg,
        node_id server_lo, std::size_t max_server_crashes,
        fault_plan* plan = nullptr);

    bus(const bus&) = delete;
    bus& operator=(const bus&) = delete;

    /// Enqueues (or loses / duplicates / delays, per the config knobs), and
    /// stamps the sender's and the destination's current incarnations.
    void send(message m);

    /// Delivers one deliverable in-flight message, seeded-randomly chosen
    /// (FIFO mode restricts candidates to channel heads). Applies the fault
    /// plan's class at the delivery instant. Returns false when nothing is
    /// deliverable this pump (in flight empty, or every message is still
    /// delay-parked -- the tick still advances, so parked messages ripen).
    bool pump_one();

    /// Halts a node: in-flight and future messages to it are swallowed and
    /// nothing is delivered to it again. Direct form of the port_crash fault
    /// (tests crash specific servers; the plan crashes seeded-random ones).
    void crash(node_id node);
    [[nodiscard]] bool node_crashed(node_id node) const;
    [[nodiscard]] std::size_t servers_crashed() const { return crashed_servers_; }

    // --- Crash-recovery lifecycle -----------------------------------------
    // recover() rejoins a crashed node under a NEW incarnation: messages
    // stamped with the old one are dropped at delivery (the node they were
    // addressed to no longer exists). The node stays in the `recovering`
    // state -- still counted against the crash budget, so the protocol's
    // ">= 1 live holder per completed write" invariant is untouched -- until
    // the protocol layer finishes its state-transfer catch-up and calls
    // recovery_complete(). abort_recovery() is the tear-down path (run
    // aborted mid-catch-up): back to plain crash-stop, nothing freed.
    // Plan-driven rejoins reach the protocol layer as bus_owner::rejoin.

    void recover(node_id node);
    void recovery_complete(node_id node);
    void abort_recovery(node_id node);
    [[nodiscard]] bool node_recovering(node_id node) const {
        return recovering_[node];
    }
    [[nodiscard]] std::uint32_t incarnation(node_id node) const {
        return incarnation_[node];
    }

    [[nodiscard]] std::size_t in_flight() const { return flight_.size(); }
    [[nodiscard]] net_counters& counters() noexcept { return counters_; }
    [[nodiscard]] const net_counters& counters() const noexcept {
        return counters_;
    }

private:
    struct pending {
        message m;
        std::uint64_t not_before;    ///< tick gate (delay faults/knob)
        std::uint64_t channel_seq;   ///< per-(src,dst) send order (FIFO mode)
    };

    [[nodiscard]] bool is_server(node_id n) const noexcept {
        return n >= server_lo_;
    }
    [[nodiscard]] std::size_t channel(node_id s, node_id d) const noexcept {
        return static_cast<std::size_t>(s) * nodes_ + d;
    }
    /// Applies the fault plan to a message about to be delivered. Returns
    /// false when the message was consumed (lost, crash-swallowed, parked).
    bool apply_plan(pending& p);
    void enqueue(const message& m, std::uint64_t extra_delay);
    /// Calls owner_.rejoin for the first crashed server whose
    /// plan-scheduled rejoin (`fault_spec::recover_after` ticks after the
    /// crash) is due. Called at the top of pump_one, BEFORE the pick
    /// scratch is built, so the rejoin's own nested pumps are safe.
    void maybe_recover();

    bus_owner& owner_;
    std::size_t nodes_;
    bus_config cfg_;
    node_id server_lo_;
    std::size_t max_server_crashes_;
    fault_plan* plan_;
    rng gen_;
    std::uint64_t tick_{0};
    /// Largest `not_before` ever parked: once tick_ reaches it, every
    /// message in flight is deliverable.
    std::uint64_t ripe_at_{0};
    std::vector<pending> flight_;
    std::vector<std::uint64_t> channel_next_;  ///< next seq per channel
    std::vector<bool> crashed_;
    std::vector<bool> recovering_;
    std::vector<std::uint32_t> incarnation_;
    std::vector<std::uint64_t> crash_tick_;  ///< when each node last crashed
    std::size_t crashed_servers_{0};
    bool recovery_active_{false};
    net_counters counters_{};
    std::vector<std::size_t> pick_;  ///< scratch: deliverable indices
};

}  // namespace bloom87::net
