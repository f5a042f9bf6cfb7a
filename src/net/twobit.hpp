// bloom87: the bounded-control (two-bit) SWMR register.
//
// Mostefaoui & Raynal (PAPERS.md) show atomic read/write registers are
// implementable in crash-prone message-passing systems with TWO-BIT
// messages: no unbounded timestamp ever crosses the wire. This composition
// reproduces the construction's load-bearing structure, scaled to the
// harness:
//
//   * Version control on the wire is exactly two bits (`message::bits` =
//     version mod 4). Replicas and the writer keep FULL version counters
//     LOCALLY (unbounded local state is allowed; bounded *messages* are the
//     claim) and advance strictly one version at a time over FIFO channels,
//     so "code == mine + 1 (mod 4)" identifies the consecutive next version
//     and "code == mine" a duplicate -- mod 4 (not mod 2) because a replica
//     must also ORDER the two codes a reader shows it (x vs x+1 is
//     directional mod 4, ambiguous mod 2).
//   * The writer serializes rounds: version v+1 is not announced until v
//     reached EVERY live replica (crashed ones exempt -- the bus's crash-
//     stop knowledge stands in for a perfect failure detector, a documented
//     deviation), so any two replies a reader can collect are at most one
//     version apart -- which is what makes two bits enough to order them.
//     A quorum would not do: the replica left out can lag until its code
//     aliases the frontier mod 4, and a reader quorum containing it would
//     order the two codes backwards.
//   * Replicas do NOT gossip adopted versions to their peers. Cross-channel
//     echoes are unsound under bounded control: per-channel FIFO cannot stop
//     a stale echo (3 versions old, aliasing as consecutive-next mod 4) from
//     arriving after its destination advanced through the writer's own
//     channel (serve_at's comment). The all-live install rule above already
//     does the laggard-prevention work gossip existed for; a reader whose
//     quorum still shows incomparable codes (a gap) simply re-queries.
//   * Reads write the winning version back (same consecutive-adoption rule)
//     and complete only when a quorum provably holds it: a reply coding the
//     version itself or its consecutive successor. A write-back that stalls
//     (quorum moved on) abandons and re-queries. Query and write-back run
//     under one lock hold: a candidate carried across a lock release can go
//     stale by >= 3 versions and alias mod 4 (twobit.cpp's read() comment).
//
// Honest deviations from the paper, documented in docs/NET.md: ack-to-phase
// matching reuses the bus's rid field (MR achieve it with bounded means
// over reliable FIFO channels; it carries no version information), reads
// retry instead of using the paper's helping mechanism (obstruction-free
// against a concurrent writer rather than wait-free; bounded harness
// workloads always terminate), and a same-code/different-value quorum --
// possible only when codes alias versions >= 4 apart, i.e. a reader
// overtaken by 4 writes mid-phase -- is detected via the harness's unique
// write values and re-queried rather than mis-ordered.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/servers.hpp"

namespace bloom87::net {

struct twobit_config {
    std::size_t servers{3};
    /// Client 0 is THE writer (SWMR); clients 1.. are readers.
    std::size_t clients{3};
    value_t initial{0};
    bus_config bus{};  ///< fifo is forced on (the construction requires it)
    unsigned retransmit_after{8};  ///< doubles per rebroadcast (see abd.hpp)
    /// Write-back retransmission rounds before a read abandons its
    /// candidate and re-queries (the quorum moved >= 2 versions past it).
    unsigned writeback_patience{4};
    /// Graceful degradation (see abd_config::max_attempts): query phases
    /// give up after this many rebroadcasts, and a read abandons after this
    /// many full re-queries, reporting `unavailable`. 0 = retry forever.
    /// The writer's install is exempt (it waits on LIVE replicas only, so
    /// it cannot livelock on a dead quorum) and bounded by the abort flag.
    unsigned max_attempts{10};
    /// Driver's global op deadline (see abd_config::abort_flag).
    const std::atomic<bool>* abort_flag{nullptr};
    /// Optional replica-access observer (servers.hpp); must outlive the
    /// system.
    const replica_observer* observer{nullptr};
};

/// Delivery works as in abd_system (abd.hpp): the system owns its bus, and
/// acks are credited to the one open phase on arrival. Crash recovery is
/// server_group's (servers.hpp). The catch-up acks carry the replica's FULL
/// version counter in ts.seq -- a documented deviation: recovery is
/// out-of-band state transfer, and the two-bit bound is a steady-state
/// claim about the client protocol, not about bootstrapping a reborn
/// replica. Their max leaves the reborn replica at most ONE version behind
/// the writer's frontier -- the writer installs on every live replica, so
/// all live peers sit at the frontier or its predecessor -- which restores
/// the lag bound the two-bit ordering argument needs.
class twobit_system final : public server_group<twobit_server, twobit_config> {
public:
    explicit twobit_system(const twobit_config& cfg,
                           fault_plan* plan = nullptr);

    /// nullopt / false = UNAVAILABLE (see abd_system::read).
    [[nodiscard]] std::optional<value_t> read(
        std::size_t client, const pause_hook* pause = nullptr);
    /// Client 0 is the only writer; any other client fails a check().
    [[nodiscard]] bool write(std::size_t client, value_t v,
                             const pause_hook* pause = nullptr);

private:
    struct reply {
        value_t value{0};
        std::uint8_t bits{0};
    };

    static constexpr std::size_t no_client = static_cast<std::size_t>(-1);

    /// The open client phase: a query (wants read_acks) or an install
    /// (wants write_acks coding `code` or its successor). read() holds the
    /// lock across its phases, so at most one is open.
    struct open_phase {
        /// The client of the latest phase, which the observer attributes
        /// replica touches to; no_client before the first phase.
        std::size_t client{no_client};
        std::uint64_t rid{0};
        msg_kind want{msg_kind::read_ack};
        std::uint8_t code{0};
        /// Per server: replied (query) or provably holds the code (install).
        std::vector<bool> acked;
        std::vector<std::uint32_t> inc;  ///< per server: the ack's sender
        std::vector<reply> replies;      ///< per server (query)
        std::size_t count{0};
        bool got{false};  ///< an ack was credited during this pump
    };

    /// bus_owner: serve_at for a server, credit() for a client.
    void deliver(const message& m) override;
    /// Serves one message addressed to server s.
    void serve_at(std::size_t s, const message& m);
    /// Counts a client-bound ack toward the open phase, or drops it.
    void credit(const message& m);
    /// Opens phase_ for `client` wanting `want` acks; bumps the round count.
    void begin_phase(std::size_t client, msg_kind want, std::uint8_t code);
    /// Voids every ack whose sender has re-incarnated since (phase_).
    void void_stale_acks();
    /// Quorum of read_acks into phase_.acked/replies. Caller holds the lock.
    /// False: retry budget exhausted (quorum unavailable) or aborted.
    bool query_phase(std::size_t client);
    /// Push (value, code) until a quorum (reader write-back) or every live
    /// replica (writer, client 0) provably holds it; false when a limited
    /// caller's patience ran out (it re-queries). Caller holds the lock.
    bool install_phase(std::size_t client, value_t v, std::uint8_t code);
    void note_unavailable_locked();
    /// Observer report for one replica touch (see abd_system::observe).
    void observe(const message& m, std::size_t server, bool installed);

    open_phase phase_;  ///< guarded by lock_
    std::vector<std::uint64_t> next_rid_;
    std::uint64_t writer_version_{0};
};

}  // namespace bloom87::net
