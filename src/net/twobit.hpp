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
//     channel, and the overwritten value would be adopted as a fresh
//     version. The all-live install rule above already does the
//     laggard-prevention work gossip existed for; a reader whose quorum
//     still shows incomparable codes (a gap) simply re-queries.
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

#include <cstdint>
#include <optional>
#include <vector>

#include "net/servers.hpp"

namespace bloom87::net {

/// The phase machinery is server_group's (servers.hpp), as is crash
/// recovery. The catch-up acks carry the replica's FULL version counter in
/// ts.seq -- a documented deviation: recovery is out-of-band state
/// transfer, and the two-bit bound is a steady-state claim about the client
/// protocol, not about bootstrapping a reborn replica. Their max leaves the
/// reborn replica at most ONE version behind the writer's frontier -- the
/// writer installs on every live replica, so all live peers sit at the
/// frontier or its predecessor -- which restores the lag bound the two-bit
/// ordering argument needs. `net_config::bus.fifo` is forced on (the
/// construction counts on channel order), and `writers` must be 1.
class twobit_system final : public server_group<twobit_server> {
public:
    explicit twobit_system(const net_config& cfg, fault_plan* plan = nullptr);

    /// nullopt / false = UNAVAILABLE (see abd_system::read).
    [[nodiscard]] std::optional<value_t> read(
        std::size_t client, const pause_hook* pause = nullptr);
    /// Client 0 is the only writer; any other client fails a check().
    [[nodiscard]] bool write(std::size_t client, value_t v,
                             const pause_hook* pause = nullptr);

private:
    /// A reader's write-back abandons at this timeout and re-queries (the
    /// quorum moved >= 2 versions past its candidate).
    static constexpr unsigned writeback_give_up = 4;

    struct reply {
        value_t value{0};
        std::uint8_t bits{0};
    };

    /// A quorum of read_acks into phase_.acked and replies_. False: retry
    /// budget exhausted (quorum unavailable) or aborted. Caller holds the
    /// lock.
    bool query(std::size_t client);
    /// Push (value, code) until a quorum (reader write-back) or every live
    /// replica (writer, client 0) provably holds it; false when a reader's
    /// patience ran out (it re-queries) or the abort flag fired. Caller
    /// holds the lock.
    bool install(std::size_t client, value_t v, std::uint8_t code);

    std::vector<reply> replies_;  ///< per server: the last query's replies
    std::uint64_t writer_version_{0};
};

}  // namespace bloom87::net
