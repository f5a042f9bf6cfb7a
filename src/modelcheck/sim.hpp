// bloom87: simulated shared memory for bounded model checking.
//
// The model checker runs protocol processes over *simulated* base registers
// whose consistency level is explicit -- SAFE, REGULAR, or ATOMIC in
// Lamport's hierarchy -- and explores every interleaving up to a bound.
// This is how the repository re-verifies, mechanically, the claims the paper
// makes by hand-proof:
//
//   * Bloom's protocol over atomic base registers is atomic on every
//     schedule (Sections 5-7);
//   * the tournament extension to four writers is NOT (Section 8);
//   * the substrate algorithms (Simpson's four-slot over safe/regular
//     slots, Lamport's constructions) provide exactly the level they claim.
//
// Register semantics: an ATOMIC access is a single indivisible step (for
// atomic registers this loses no generality: the access touches shared
// state at one instant, and the scheduler can place that instant anywhere
// relative to other processes). SAFE and REGULAR accesses are split into
// begin/end steps so that overlap is observable; a read's result is chosen
// nondeterministically at its end step from the candidate set its overlaps
// permit -- the explorer branches over every candidate:
//
//   REGULAR read: {last value committed before the read began} union
//                 {values of all writes overlapping the read}
//   SAFE read:    committed value if no write overlapped, else ANY value
//                 of the register's domain.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/lockset.hpp"
#include "analysis/race_detector.hpp"
#include "histories/events.hpp"
#include "histories/history.hpp"
#include "util/check.hpp"

namespace bloom87::mc {

enum class reg_level : std::uint8_t { safe, regular, atomic };

/// Values in the simulated memory are small integers; tagged pairs are
/// encoded as value*2+tag by the protocol processes.
using mc_value = std::int16_t;

/// Shared-state footprint of a process's next step, unioned over all of its
/// nondeterministic choices. Register indices are bit positions (every model
/// in the repository uses <= 64 base registers). `visible` marks steps that
/// emit an external-history event (begin_op / end_op): all visible steps are
/// mutually dependent, because their relative order IS the recorded history.
/// The default-constructed footprint declares everything -- a step carrying
/// it commutes with nothing, so partial-order reduction (por.hpp) simply
/// never prunes around it. Split-phase accesses to safe/regular registers
/// count as WRITES even on the read side: begin_read/end_read mutate the
/// register's active-read set, which is what overlap semantics hang off.
struct step_footprint {
    std::uint64_t reads{~0ULL};
    std::uint64_t writes{~0ULL};
    bool visible{true};
};

/// Two steps are dependent (must not be reordered) when both are visible or
/// their register footprints overlap on a write.
[[nodiscard]] constexpr bool conflict(const step_footprint& a,
                                      const step_footprint& b) noexcept {
    return (a.visible && b.visible) ||
           (a.writes & (b.reads | b.writes)) != 0 ||
           (b.writes & (a.reads | a.writes)) != 0;
}

/// One external-history event produced by a step: an operation invocation
/// (`is_begin`, carrying the kind and the write argument) or a response
/// (carrying a read's returned value). The POR engine reconstructs exact
/// histories from sequences of these labels -- the simulation clock ticks
/// only on emissions, so a label's position in the sequence IS its
/// invoked/responded timestamp.
struct emission {
    bool is_begin{true};
    op_kind kind{op_kind::read};
    processor_id proc{0};
    op_index op{0};
    value_t value{0};
};

/// One simulated base register.
struct mc_register {
    reg_level level{reg_level::atomic};
    mc_value domain{2};     ///< legal values are 0..domain-1 (safe flicker set)
    mc_value committed{0};
    mc_value active_write{-1};  ///< value being written, -1 when no write active

    /// Opt-in (fault modeling): remember the previously committed value so
    /// faulty processes can serve STALE reads from it. Off by default --
    /// when on, `previous` joins the fingerprint, so state counts of
    /// fault-free explorations stay exactly what the tests pin.
    bool track_previous{false};
    mc_value previous{0};

    /// Race-detection mode only: the declared synchronization class of this
    /// register's accesses (analysis/contracts.hpp). Ignored unless the
    /// sim_state's detector is armed.
    analysis::sync_class sync{analysis::sync_class::sync};

    /// Lockset mode only: declared guard set of a guarded plain register
    /// (bitmask over register indices whose pseudo-locks cover it; 0 for
    /// unguarded). Ignored unless the lockset detector is armed.
    std::uint64_t guards{0};

    /// Reads in progress: (processor, candidate bitmask). Split accesses
    /// check domain <= 64 so the masks' shifts stay defined.
    std::vector<std::pair<std::int16_t, std::uint64_t>> active_reads;
};

class process;

/// The full model-checker state: registers, processes, and the external
/// history accumulated so far. Copyable (deep) for DFS.
class sim_state {
public:
    sim_state() = default;
    sim_state(const sim_state& other);
    sim_state& operator=(const sim_state&) = delete;
    sim_state(sim_state&&) = default;
    sim_state& operator=(sim_state&&) = default;

    std::vector<mc_register> registers;
    std::vector<std::unique_ptr<process>> procs;

    /// External history: completed and open simulated operations.
    std::vector<operation> hist;

    /// --- register access API used by processes ---

    /// Atomic single-step read/write: the register must be level atomic,
    /// and written values must lie in [0, domain). Both are checked in
    /// every build.
    [[nodiscard]] mc_value read_atomic(std::size_t reg);
    void write_atomic(std::size_t reg, mc_value v);

    /// Split-phase access for safe/regular registers (a begin on an atomic
    /// register fails a check in every build).
    void begin_read(std::size_t reg, std::int16_t proc);
    /// Number of values the pending read may return (the explorer's fanout).
    [[nodiscard]] int read_candidates(std::size_t reg, std::int16_t proc) const;
    /// Completes the read, returning the choice-th candidate (ascending).
    mc_value end_read(std::size_t reg, std::int16_t proc, int choice);
    void begin_write(std::size_t reg, mc_value v);
    void end_write(std::size_t reg);

    /// The previously committed value (fault modeling: STALE reads are
    /// served from it). Requires track_previous (checked); goes through the
    /// access API so footprint tracing sees the dependency.
    [[nodiscard]] mc_value read_previous(std::size_t reg);

    /// --- external-history hooks ---
    /// Opens a simulated operation; returns its index in hist.
    std::size_t begin_op(processor_id proc, op_index op, op_kind kind, value_t v);
    /// Closes it (reads pass their returned value).
    void end_op(std::size_t hist_index, value_t read_result);

    /// Deterministic structural fingerprint for memoization.
    void fingerprint(std::vector<std::uint64_t>& out) const;

    /// Structural fingerprint EXCLUDING the accumulated history and clock:
    /// the node key of the POR engine's trace-quotient graph (por.hpp).
    /// States that differ only in how they got here (their history prefix)
    /// collide, which is sound because every future label sequence depends
    /// only on registers + process states. `g`/`inv` optionally relabel
    /// process identities for symmetry canonicalization: process i is
    /// fingerprinted in slot g[i] under the identity g[i] (inv is g's
    /// inverse: inv[slot] = the process emitted there), and register
    /// active-read entries are relabeled by g and sorted so permuted
    /// in-flight reads collide too. nullptr = identity.
    void fingerprint_core(std::vector<std::uint64_t>& out,
                          const std::uint8_t* g = nullptr,
                          const std::uint8_t* inv = nullptr) const;

    /// Monotone event counter giving inv/resp positions.
    [[nodiscard]] event_pos now() const noexcept { return clock_; }

    /// --- emission capture (POR engine) ---
    /// begin_op / end_op record their external-history event here; the POR
    /// engine resets before each step and reads the labels after. At most
    /// two emissions per step occur in any machine in the repository; the
    /// first two are kept, and the count stops at 3 (the full engine steps
    /// states in place without resetting, so it must not wrap).
    void reset_emissions() noexcept { emitted_count_ = 0; }
    [[nodiscard]] int emitted_count() const noexcept { return emitted_count_; }
    [[nodiscard]] const emission& emitted(int i) const noexcept {
        return emitted_[static_cast<std::size_t>(i)];
    }

    /// --- footprint tracing (probe_footprint) ---
    /// While armed, every register access ORs its index bit into the traced
    /// masks; split-phase read steps trace as writes (they mutate the
    /// register's active-read set).
    void start_trace() noexcept { tracing_ = true; traced_reads_ = traced_writes_ = 0; }
    [[nodiscard]] std::uint64_t traced_reads() const noexcept { return traced_reads_; }
    [[nodiscard]] std::uint64_t traced_writes() const noexcept { return traced_writes_; }

    /// --- happens-before race detection (opt-in; off by default) ---

    /// Arms the FastTrack-style detector over procs.size() threads and
    /// registers.size() locations. Every subsequent register access feeds
    /// it using each register's declared `sync` class; the detector's
    /// clock digest joins fingerprint() (keeping memoization sound), and
    /// the first conflicting unordered pair of plain accesses latches
    /// race(). Call only after `registers` and `procs` are populated.
    void enable_race_detection();

    /// Arms the Eraser-style lockset second opinion over the same threads
    /// and locations, seeding per-location guard sets from each register's
    /// declared `guards` mask. Independent of the HB detector: arm either
    /// or both (the hybrid agreement layer runs them separately so each
    /// verdict stands on its own exploration).
    void enable_lockset_detection();

    /// Whether either detector is armed: armed states carry analysis
    /// state that breaks step independence, so the explorer routes them
    /// to the full (unreduced) engine.
    [[nodiscard]] bool race_detection_enabled() const noexcept {
        return detector_ != nullptr || lockset_ != nullptr;
    }

    /// The first detected race, nullptr while race-free (or unarmed).
    [[nodiscard]] const analysis::race_report* race() const noexcept {
        return detector_ != nullptr && detector_->first_race().has_value()
                   ? &*detector_->first_race()
                   : nullptr;
    }

    /// The first lockset violation, nullptr while clean (or unarmed).
    [[nodiscard]] const analysis::lockset_report* lockset_violation()
        const noexcept {
        return lockset_ != nullptr && lockset_->first_violation().has_value()
                   ? &*lockset_->first_violation()
                   : nullptr;
    }

    /// The first documented lockset divergence (raw candidate-set empty on
    /// a guarded site), nullptr while none (or unarmed). Never a failure.
    [[nodiscard]] const analysis::lockset_report* lockset_divergence()
        const noexcept {
        return lockset_ != nullptr && lockset_->first_divergence().has_value()
                   ? &*lockset_->first_divergence()
                   : nullptr;
    }

    /// registers[reg], checked: a model that names a register it lacks
    /// aborts instead of reaching past the vector.
    [[nodiscard]] mc_register& reg_at(std::size_t reg) {
        check(reg < registers.size(), "register index out of range");
        return registers[reg];
    }
    [[nodiscard]] const mc_register& reg_at(std::size_t reg) const {
        check(reg < registers.size(), "register index out of range");
        return registers[reg];
    }

    /// Explorer hook: the index (into procs) of the process about to step;
    /// its accesses are attributed to that thread id by the detector.
    void set_acting(std::int16_t proc) noexcept { acting_ = proc; }

private:
    void trace_read(std::size_t reg) noexcept {
        if (tracing_) traced_reads_ |= 1ULL << reg;
    }
    void trace_write(std::size_t reg) noexcept {
        if (tracing_) traced_writes_ |= 1ULL << reg;
    }
    void record_emission(const emission& e) noexcept {
        if (emitted_count_ < emitted_.size()) emitted_[emitted_count_] = e;
        if (emitted_count_ <= emitted_.size()) ++emitted_count_;
    }

    event_pos clock_{0};
    // Armed detectors live behind owning pointers: a disarmed state (every
    // state outside race mode) holds nulls, so moving one never touches
    // detector storage and the copy constructor clones only what is armed.
    std::unique_ptr<analysis::race_detector> detector_;
    std::unique_ptr<analysis::lockset_detector> lockset_;
    std::int16_t acting_{0};
    std::array<emission, 2> emitted_{};
    std::uint8_t emitted_count_{0};
    bool tracing_{false};
    std::uint64_t traced_reads_{0};
    std::uint64_t traced_writes_{0};
};

/// A protocol process: a small-step state machine over a sim_state.
class process {
public:
    virtual ~process() = default;
    [[nodiscard]] virtual std::unique_ptr<process> clone() const = 0;
    [[nodiscard]] virtual bool done(const sim_state&) const = 0;
    /// Number of nondeterministic outcomes of the next step (>= 1).
    [[nodiscard]] virtual int fanout(const sim_state&) const = 0;
    virtual void step(sim_state&, int choice) = 0;
    virtual void fingerprint(std::vector<std::uint64_t>&) const = 0;

    /// Footprint of this process's next step in `s` (which must be the
    /// state this process is about to step in), unioned over all fanout
    /// choices. Every process declares it; probe_footprint is the traced
    /// truth it must cover (por.cpp asserts so in debug builds, and
    /// modelcheck_test walks every reachable state of each model).
    [[nodiscard]] virtual step_footprint footprint(const sim_state& s,
                                                   std::size_t self) const = 0;
    /// The processor id this process stamps on its external-history
    /// operations (what it passes to begin_op), or -1 when unknown. The
    /// symmetry reduction needs the id <-> procs-index correspondence to
    /// relabel history labels; any process reporting -1 (or a duplicate)
    /// silently disables symmetry for the whole exploration.
    [[nodiscard]] virtual processor_id id() const { return -1; }
    /// Non-zero key grouping fully interchangeable processes: identical
    /// program, parameters, and register wiring, with the process identity
    /// entering only through external-history labels. Processes sharing a
    /// key may be permuted by the symmetry reduction (por.hpp). 0 (the
    /// default) = singleton, never permuted.
    [[nodiscard]] virtual std::uint64_t symmetry_key() const { return 0; }
    /// fingerprint() with the process's identity replaced by `as_proc`.
    /// Only classes returning a symmetry key need a real override; singleton
    /// processes are never relabeled.
    virtual void fingerprint_as(std::vector<std::uint64_t>& out,
                                processor_id /*as_proc*/) const {
        fingerprint(out);
    }
};

/// The exact footprint of process `self`'s next step in `s`: every choice
/// stepped on a scratch copy of `s` with access tracing armed, and what was
/// touched unioned. The reference a declared process::footprint is checked
/// against.
[[nodiscard]] step_footprint probe_footprint(const sim_state& s,
                                             std::size_t self);

}  // namespace bloom87::mc
