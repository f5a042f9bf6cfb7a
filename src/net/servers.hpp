// bloom87: the server lifecycle the net/ compositions share.
//
// abd_system and twobit_system run different client protocols over
// different replicas (node.hpp), but they keep their servers the same way.
// server_group owns that part: the composition's one lock, its bus, the
// replicas, and the crash-recovery lifecycle -- a crashed server rejoins
// under a new incarnation with EMPTY state, catches up from every live
// peer, and only then reopens for client messages. The catch-up keeps the
// largest stamp the peers answer with and hands it to the replica's
// adopt(); twobit's peers answer with their full version as the stamp
// (twobit.hpp), so the largest stamp is also the largest version.
//
// Safe because a recovering server still counts against the crash budget
// until its catch-up completes: with at most f servers down at once, any
// completed write sits on a quorum of which >= quorum - f >= 1 members
// are live peers, so the all-live query sees the newest completed stamp
// (docs/NET.md §5).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/bus.hpp"
#include "net/node.hpp"

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

/// The servers of one composition: `Server` is its node.hpp replica,
/// `Config` its abd_config or twobit_config. The public methods that touch
/// the bus take the lock, and it guards every protected member but cfg_.
template <typename Server, typename Config>
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
    server_group(const Config& cfg, fault_plan* plan);
    ~server_group() = default;

    [[nodiscard]] node_id server_node(std::size_t s) const noexcept {
        return static_cast<node_id>(cfg_.clients + s);
    }
    [[nodiscard]] bool abort_requested() const noexcept {
        return cfg_.abort_flag != nullptr &&
               cfg_.abort_flag->load(std::memory_order_relaxed);
    }

    Config cfg_;
    net_lock lock_;
    bus bus_;
    std::vector<Server> replicas_;
    std::vector<bool> recovering_;      ///< per server (catch-up window)
    std::vector<message> catchup_box_;  ///< state-transfer read_acks
    std::uint64_t catchup_rid_{0};

private:
    /// bus_owner: plan-driven rejoin, recover_server_locked under the lock.
    void rejoin(node_id node) override;
    /// The rejoin and catch-up proper; requires lock_ held (rejoin() runs
    /// inside pump_one, i.e. under a phase's own lock hold).
    void recover_server_locked(std::size_t s);
    /// A replica holding nothing but the initial value.
    [[nodiscard]] Server empty_replica() const;
};

}  // namespace bloom87::net
