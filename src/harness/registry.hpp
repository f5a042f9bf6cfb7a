// bloom87: the run-harness register registry.
//
// Every register composition the repository can build -- Bloom's two-writer
// construction over each substrate, the SWMR-from-SWSR ladder, the
// timestamp-based multi-writer register, the Section 8 tournament, and the
// blocking/native baselines -- is constructible from a NAME STRING
// ("bloom/packed", "baseline/mutex", ...) behind one type-erased interface.
// The driver (driver.hpp), the benches, the examples, and the fuzzer all go
// through this map, so opening a new register to every workload and checker
// is one registry entry.
//
// Type erasure costs one virtual call per operation. That overhead is
// uniform across every registered register, so relative comparisons stay
// honest; absolute numbers are a nanosecond or two above the template-level
// figures (docs/HARNESS.md discusses this).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/two_writer.hpp"  // crash_point
#include "histories/event_log.hpp"
#include "histories/events.hpp"
#include "registers/faulty.hpp"  // fault_spec, fault_counts

namespace bloom87::harness {

/// A scheduling hook run in the middle of an operation (adversarial pacing).
using pause_fn = std::function<void()>;

/// Which side of the register a port drives.
enum class port_role : std::uint8_t { writer, reader };

/// One processor's handle on a type-erased register. A port must be driven
/// by at most one thread at a time (the paper's sequential-processor model).
class any_port {
public:
    virtual ~any_port() = default;

    /// Simulated atomic read.
    [[nodiscard]] virtual value_t read() = 0;
    /// Simulated atomic write (writer ports only).
    virtual void write(value_t v) = 0;

    /// Read with an adversarial pause at the protocol's vulnerable point.
    /// Registers without an internal pacing point run the pause first and
    /// then the whole operation (a processor that is slow to start).
    [[nodiscard]] virtual value_t read_paced(const pause_fn& pause) {
        pause();
        return read();
    }
    /// Write with an adversarial pause; same fallback convention.
    virtual void write_paced(value_t v, const pause_fn& pause) {
        pause();
        write(v);
    }

    /// Crash injection: run the write protocol but die at `cp`. Returns
    /// false when the register has no crash machinery (callers fall back to
    /// a plain write).
    virtual bool write_crashed(value_t /*v*/, crash_point /*cp*/) { return false; }

    /// The writer's cached read (paper Section 5, 1-2 real reads). Returns
    /// false when unsupported; `out` is untouched then.
    virtual bool read_cached(value_t& /*out*/) { return false; }

    /// One operation stalled mid-flight for the duration of `during` --
    /// a lock holder asleep in its critical section, a Bloom writer asleep
    /// between its real read and real write. Returns false if the register
    /// has nothing to stall (then nothing happened).
    virtual bool stall(const pause_fn& /*during*/) { return false; }

    /// True once the port has been killed by a port_crash fault: the
    /// operation that triggered it never responds (pending), and every
    /// later operation is a no-op. Drivers stop stepping a crashed port.
    [[nodiscard]] virtual bool crashed() const { return false; }
};

/// Snapshot of a net/ composition's message traffic, exposed through the
/// type-erased interface the way fault_counts is. Field meanings match
/// net::net_counters (src/net/bus.hpp); duplicated here so harness
/// consumers need no net headers.
struct net_stats {
    bool ran{false};       ///< true iff the register is a net/ composition
    std::size_t servers{0};
    std::size_t quorum{0};
    std::uint64_t sent{0};
    std::uint64_t delivered{0};
    std::uint64_t lost{0};
    std::uint64_t duplicated{0};
    std::uint64_t delayed{0};
    std::uint64_t retransmissions{0};
    std::uint64_t server_crashes{0};
    std::uint64_t ops{0};
    std::uint64_t rounds{0};
    std::uint64_t fast_path_ops{0};
    // Crash-recovery lifecycle (the report's v6 `recovery` block).
    std::uint64_t recoveries{0};       ///< completed crash->rejoin cycles
    std::uint64_t catchup_rounds{0};   ///< state-transfer query rounds
    std::uint64_t stale_inc_drops{0};  ///< deliveries to a dead incarnation
    std::uint64_t unavailable_ops{0};  ///< ops that exhausted their retries
};

/// Snapshot of a repair/ composition's self-healing overhead (the access-
/// count cost of masking injected faults); field meanings match
/// repair_counts (src/registers/repair.hpp).
struct repair_stats {
    bool ran{false};  ///< true iff the register is a repair/ composition
    std::uint64_t verify_reads{0};
    std::uint64_t rereads{0};
    std::uint64_t rewrites{0};
    std::uint64_t repaired{0};
};

/// Static facts about a registered composition.
struct register_info {
    std::string name;         ///< registry key, e.g. "bloom/packed"
    std::string family;       ///< text before the '/', e.g. "bloom"
    std::string description;  ///< one line for --list and reports
    std::size_t min_writers{1};
    std::size_t max_writers{1};
    bool wait_free{true};
    /// Accesses to the real registers appear in the gamma log, so the
    /// constructive (Section 7) checker can run on recorded histories.
    bool records_real_accesses{false};
    /// Must be constructed with a shared gamma log (recording substrate).
    bool requires_log{false};
    /// Known NOT to be atomic (the Section 8 tournament) -- checkers are
    /// expected to fail it.
    bool expected_atomic{true};
    /// Values travel beside the tag bit in one 64-bit word (util/bits.hpp),
    /// so the value domain is [-2^62, 2^62): make_register rejects an
    /// initial value outside it, and writing one aborts.
    bool packed_values{false};
    /// Declared synchronization contract of the composition's real accesses
    /// ("sync"/"relaxed"/"plain"; src/analysis/contracts.cpp), "" when the
    /// entry declares none. The race checker keys off this; build_registry
    /// fills it from analysis::registry_sync_class.
    std::string access_contract;
};

/// A type-erased register instance. Ports are created before the run, one
/// per participating processor: writer ports for processors [0, writers),
/// reader ports for processors [writers, writers + readers).
class any_register {
public:
    virtual ~any_register() = default;
    virtual std::unique_ptr<any_port> make_port(processor_id processor,
                                                port_role role) = 0;

    /// Injection counters of the run so far; all-zero for registers without
    /// a fault plan (everything outside the faulty/ family).
    [[nodiscard]] virtual fault_counts faults() { return {}; }

    /// Message-layer counters of the run so far; `ran` stays false for
    /// everything outside the net/ family (the report's `net` block is
    /// emitted only when it is true).
    [[nodiscard]] virtual net_stats net() { return {}; }

    /// Self-healing overhead counters; `ran` stays false for everything
    /// outside the repair/ family.
    [[nodiscard]] virtual repair_stats repair() { return {}; }
};

/// Everything a factory needs to build an instance.
struct register_args {
    value_t initial{0};
    std::size_t writers{2};
    std::size_t readers{2};
    /// Shared gamma log, or null for unrecorded runs. When non-null, the
    /// instance (or its adapter) logs every simulated operation's
    /// invocation/response into it; the recording substrate additionally
    /// logs real-register accesses.
    event_log* log{nullptr};
    /// Substrate fault injection; the faulty/ and net/ families read it
    /// (other entries ignore an active spec -- the driver rejects that
    /// combination up front).
    fault_spec fault{};
    /// Replica count for net/ compositions (ignored elsewhere). Quorum is
    /// servers/2 + 1; tolerated crashes f = (servers-1)/2.
    std::size_t servers{3};
    /// Seed for the bus's delivery schedule (net/ compositions only). The
    /// driver derives it from the run seed so delivery order varies with
    /// the schedule, reproducibly.
    std::uint64_t net_seed{1};
    /// Driver's global per-op deadline (net/ compositions): when the
    /// pointed-to flag goes true, in-flight quorum phases bail out as
    /// unavailable instead of pumping past the run's grace window.
    const std::atomic<bool>* abort{nullptr};
};

struct registry_entry {
    register_info info;
    std::function<std::unique_ptr<any_register>(const register_args&)> make;
};

/// The full registry, in presentation order.
[[nodiscard]] const std::vector<registry_entry>& registry();

/// Looks up one entry; null if the name is unknown.
[[nodiscard]] const registry_entry* find_register(std::string_view name);

/// All registered names, in presentation order.
[[nodiscard]] std::vector<std::string> register_names();

/// Constructs a register by name. Returns null and fills `error` when the
/// name is unknown, the writer count is out of the entry's range, the
/// entry requires a log and none was given, or the entry packs values and
/// `initial` is outside the packed domain.
[[nodiscard]] std::unique_ptr<any_register> make_register(
    std::string_view name, const register_args& args, std::string* error);

}  // namespace bloom87::harness
