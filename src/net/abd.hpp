// bloom87: ABD-style replicated atomic registers over the message bus.
//
// Attiya-Bar-Noy-Dolev quorum replication, the canonical construction of an
// atomic register in a crash-prone message-passing system with f < n/2
// server failures. Two variants share the machinery:
//
//   SWMR (one writer): the single writer stamps writes from a local counter
//   and runs ONLY phase 2 -- the one-round write fast path. Readers query a
//   quorum (phase 1), pick the lexicographically largest (seq, writer)
//   stamp, and write the winner back to a quorum (phase 2) so later readers
//   cannot see older -- UNLESS every quorum reply carried the same stamp, in
//   which case the write-back is provably redundant and the read completes
//   in one round (the fast-path condition of Huang et al., PAPERS.md;
//   docs/NET.md spells out why quorum intersection makes it safe, and
//   modelcheck/net_processes.cpp certifies it exhaustively).
//
//   Two-writer MWMR (`writers > 1`): writers first query a quorum for the
//   highest stamp and install (max_seq + 1, writer_id) -- the writer-id
//   tiebreak totally orders concurrent installs. Two rounds per write, one
//   or two per read. This is the repository's "millions of users" answer to
//   the paper's two-writer register: same external interface, but the two
//   writers may now be oceans apart.
//
// Blocking model: each phase is one server_group::round_trip() under the
// composition's net_lock, which pumps the bus until a quorum answers,
// re-broadcasting after a silence threshold (loss recovery). The optional
// `pause` hook runs UNLOCKED at the round boundary, which is where the
// driver's seeded schedule interleaves other processors -- bus stepping
// under the same deterministic regime as thread scheduling. What is ABD's
// own: the requests it sends, the fold of the quorum's read_acks (max
// stamp, first reply, unanimity), and the seeded backoff jitter.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/servers.hpp"
#include "util/rng.hpp"

namespace bloom87::net {

/// One replicated register: n server replicas and the client quorum logic
/// (server_group), plus ABD's phases. Thread-safe: any client may be driven
/// by its own thread (one thread per client, the harness's
/// sequential-processor model).
class abd_system final : public server_group<abd_server> {
public:
    explicit abd_system(const net_config& cfg, fault_plan* plan = nullptr);

    /// nullopt / false = UNAVAILABLE: the op exhausted its bounded retry
    /// budget (or the abort flag fired) without assembling a quorum. The
    /// harness records such ops as dropped-but-accounted, like crashed ops.
    [[nodiscard]] std::optional<value_t> read(
        std::size_t client, const pause_hook* pause = nullptr);
    [[nodiscard]] bool write(std::size_t client, value_t v,
                             const pause_hook* pause = nullptr);

private:
    struct phase_result {
        stamp ts{};
        value_t value{0};
        bool all_equal{true};  ///< every quorum read_ack carried ts
        bool ok{true};         ///< false: gave up (unavailable / aborted)
    };

    /// One quorum phase: sends `kind` carrying (ts, v) and folds the
    /// read_acks. Takes and holds the lock (the phase is self-sufficient:
    /// it needs no other thread to finish).
    phase_result phase(std::size_t client, msg_kind kind, stamp ts,
                       value_t v);
    void bump_op(bool fast_path);
    void note_unavailable();

    std::vector<std::uint64_t> writer_seq_;  ///< per client (SWMR stamps)
    /// Retransmission backoff jitter, drawn at each rebroadcast. Phases never
    /// overlap (each holds the lock until its quorum answers), so it
    /// de-synchronizes nothing. It stays to keep the seeded schedules
    /// byte-identical: without it a phase's later rebroadcasts move, which
    /// changes no fault-matrix cell and no counter net_test pins but moves
    /// the replica touches of seeded ABD runs (the stream hashes net_test
    /// and harness_test pin).
    rng jitter_;
};

}  // namespace bloom87::net
