// bloom87: ABD-style replicated atomic registers over the message bus.
//
// Attiya-Bar-Noy-Dolev quorum replication, the canonical construction of an
// atomic register in a crash-prone message-passing system with f < n/2
// server failures. Two variants share the machinery:
//
//   SWMR (`multi_writer == false`): the single writer stamps writes from a
//   local counter and runs ONLY phase 2 -- the one-round write fast path.
//   Readers query a quorum (phase 1), pick the lexicographically largest
//   (seq, writer) stamp, and write the winner back to a quorum (phase 2) so
//   later readers cannot see older -- UNLESS every quorum reply carried the
//   same stamp, in which case the write-back is provably redundant and the
//   read completes in one round (the fast-path condition of Huang et al.,
//   PAPERS.md; docs/NET.md spells out why quorum intersection makes it
//   safe, and modelcheck/net_processes.cpp certifies it exhaustively).
//
//   Two-writer MWMR (`multi_writer == true`): writers first query a quorum
//   for the highest stamp and install (max_seq + 1, writer_id) -- the
//   writer-id tiebreak totally orders concurrent installs. Two rounds per
//   write, one or two per read. This is the repository's "millions of
//   users" answer to the paper's two-writer register: same external
//   interface, but the two writers may now be oceans apart.
//
// Blocking model: operations pump the bus until their quorum answers,
// re-broadcasting after a silence threshold (loss recovery). Every bus and
// server-state touch happens in slices under the composition's net_lock;
// the optional `pause` hook runs UNLOCKED at the round boundary, which is
// where the driver's seeded schedule interleaves other processors -- bus
// stepping under the same deterministic regime as thread scheduling.
//
// Delivery: the system is its bus's owner, so each delivered message costs
// one call. A server serves it; a client-bound ack is credited to the ONE
// open phase (a phase holds the lock from its broadcast until its quorum
// answers) the moment it arrives, and any other client-bound message is a
// straggler for an older request id and is dropped. Each ack counts for
// the incarnation that sent it (`message::src_inc`).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
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

struct abd_config {
    std::size_t servers{3};
    /// Client nodes = simulated processors: writers first, then readers.
    std::size_t clients{4};
    std::size_t writers{1};
    bool multi_writer{false};
    value_t initial{0};
    bus_config bus{};
    /// Ack-free pumps before a phase re-broadcasts to unanswered servers.
    /// The threshold doubles after every rebroadcast within one phase, so a
    /// busy flight set cannot be refilled faster than pumping drains it.
    unsigned retransmit_after{8};
    /// Graceful degradation: a phase gives up after this many rebroadcasts
    /// (the doubling threshold makes the total pump budget ~retransmit_after
    /// * 2^max_attempts) and the op reports `unavailable` instead of
    /// spinning on a quorum that no longer exists. 0 = retry forever.
    unsigned max_attempts{10};
    /// Driver's global op deadline: when the pointed-to flag goes true,
    /// in-flight phases bail out as unavailable at their next pump.
    const std::atomic<bool>* abort_flag{nullptr};
    /// Optional replica-access observer; must outlive the system.
    const replica_observer* observer{nullptr};
};

/// One replicated register: n server replicas + the client quorum logic.
/// Thread-safe: any client may be driven by its own thread (one thread per
/// client, the harness's sequential-processor model).
class abd_system final : private bus_owner {
public:
    explicit abd_system(const abd_config& cfg, fault_plan* plan = nullptr);

    /// nullopt / false = UNAVAILABLE: the op exhausted its bounded retry
    /// budget (or the abort flag fired) without assembling a quorum. The
    /// harness records such ops as dropped-but-accounted, like crashed ops.
    [[nodiscard]] std::optional<value_t> read(
        std::size_t client, const pause_hook* pause = nullptr);
    [[nodiscard]] bool write(std::size_t client, value_t v,
                             const pause_hook* pause = nullptr);

    [[nodiscard]] std::size_t quorum() const noexcept {
        return cfg_.servers / 2 + 1;
    }
    [[nodiscard]] std::size_t servers() const noexcept { return cfg_.servers; }
    /// Largest crash count quorum liveness survives: f = ceil(n/2) - 1.
    [[nodiscard]] std::size_t max_crashes() const noexcept {
        return (cfg_.servers - 1) / 2;
    }

    /// Snapshot of the run's traffic and round counters (takes the lock).
    [[nodiscard]] net_counters counters();

    /// Halts server s outright (tests; callers must respect max_crashes()
    /// if they still want operations to terminate).
    void crash_server(std::size_t s);

    /// Crash-RECOVERY: rejoins crashed server s under a new incarnation
    /// with EMPTY register state, runs the state-transfer catch-up round
    /// (query every live peer for the max stamp, install it), and only then
    /// reopens the replica for client protocol messages. Safe because a
    /// recovering server still counts against the crash budget until the
    /// catch-up completes, so every completed write keeps >= 1 live holder
    /// among the peers (docs/NET.md). Public for tests; plan-driven
    /// recovery (`fault_spec::recover_after`) runs through rejoin().
    void recover_server(std::size_t s);

    /// Current incarnation of server s (tests pin rejoin semantics).
    [[nodiscard]] std::uint32_t server_incarnation(std::size_t s);

private:
    struct phase_result {
        stamp ts{};
        value_t value{0};
        bool all_equal{true};  ///< every quorum read_ack carried ts
        bool ok{true};         ///< false: gave up (unavailable / aborted)
    };

    static constexpr std::size_t no_client = static_cast<std::size_t>(-1);

    /// The open client phase; at most one exists (see the header comment).
    struct open_phase {
        /// The client pumping the bus, which the observer attributes replica
        /// touches to; no_client outside any client phase.
        std::size_t client{no_client};
        std::uint64_t rid{0};
        std::vector<bool> acked;         ///< per server
        std::vector<std::uint32_t> inc;  ///< per server: the ack's sender
        std::size_t acks{0};
        bool got{false};    ///< an ack was credited during this pump
        bool first{true};   ///< no read_ack credited yet
        phase_result res;
    };

    [[nodiscard]] node_id client_node(std::size_t c) const noexcept {
        return static_cast<node_id>(c);
    }
    [[nodiscard]] node_id server_node(std::size_t s) const noexcept {
        return static_cast<node_id>(cfg_.clients + s);
    }

    /// One quorum round trip: broadcast `kind` and pump until a quorum
    /// answers, retransmitting through silence. Takes and holds the lock
    /// (the phase is self-sufficient: it needs no other thread to finish).
    phase_result run_phase(std::size_t client, msg_kind kind, stamp ts,
                           value_t v);
    /// bus_owner: a server serves the message, a client credit()s it.
    /// Requires lock_ held (runs inside pump_one).
    void deliver(const message& m) override;
    /// bus_owner: plan-driven rejoin, recover_server_locked under the lock.
    void rejoin(node_id node) override;
    /// Counts a client-bound ack toward the open phase, or drops it.
    void credit(const message& m);
    void bump_op(bool fast_path);
    void note_unavailable();
    /// Reports a replica touch to cfg_.observer (no-op without one, or when
    /// the message is not client traffic, or when no client phase is
    /// pumping). Requires lock_ held: fires from deliver().
    void observe(const message& m, std::size_t server, bool installed);
    /// The catch-up proper; requires lock_ held (rejoin() runs inside
    /// pump_one, i.e. under the phase's own lock hold).
    void recover_server_locked(std::size_t s);
    [[nodiscard]] bool abort_requested() const noexcept {
        return cfg_.abort_flag != nullptr &&
               cfg_.abort_flag->load(std::memory_order_relaxed);
    }

    abd_config cfg_;
    net_lock lock_;
    bus bus_;
    std::vector<abd_server> replicas_;
    open_phase phase_;                          ///< guarded by lock_
    std::vector<std::uint64_t> next_rid_;       ///< per client
    std::vector<std::uint64_t> writer_seq_;     ///< per client (SWMR stamps)
    std::vector<bool> recovering_;              ///< per server (catch-up)
    std::vector<message> catchup_box_;          ///< catch-up read_acks
    std::uint64_t catchup_rid_{0};
    rng jitter_;  ///< retransmission backoff jitter (de-synchronizes phases)
};

}  // namespace bloom87::net
