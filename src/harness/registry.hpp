// bloom87: the run-harness register registry.
//
// Every register composition the repository can build -- Bloom's two-writer
// construction over each substrate, the SWMR-from-SWSR ladder, the
// timestamp-based multi-writer register, the Section 8 tournament, the
// replicated net/ registers, and the blocking/native baselines -- is
// constructible from a NAME STRING ("bloom/packed", "baseline/mutex", ...)
// behind one type-erased interface. The driver (driver.hpp), the benches,
// the examples, and the fuzzer all go through this map, so opening a new
// register to every workload and checker is one registry entry: a row of
// the table in registry.cpp, which names the entry and builds its register
// (docs/HARNESS.md §1).
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
#include "histories/events.hpp"
#include "histories/thread_log.hpp"
#include "net/counters.hpp"
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
/// type-erased interface the way fault_counts is: the composition's
/// net::net_counters (src/net/counters.hpp, which includes no bus) plus its
/// shape.
struct net_stats : net::net_counters {
    bool ran{false};  ///< true iff the register is a net/ composition
    std::size_t servers{0};
    std::size_t quorum{0};
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
    /// Accesses to the real registers appear in the recorded gamma, so the
    /// constructive (Section 7) checker can run on recorded histories.
    bool records_real_accesses{false};
    /// Must be constructed with the run's recorder (recording substrate).
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
    /// entry declares none. The race checker keys off this; each registry row
    /// fills it from analysis::registry_sync_class.
    std::string access_contract;
};

/// A type-erased register instance. Ports are created before the run, one
/// per participating processor: writer ports for processors [0, writers),
/// reader ports for processors [writers, writers + readers). Any other
/// processor, or a role its number does not give it, fails a check().
class any_register {
public:
    virtual ~any_register() = default;
    virtual std::unique_ptr<any_port> make_port(processor_id processor,
                                                port_role role) = 0;

    /// Injection counters of the run so far; all-zero for registers without
    /// a fault plan (everything outside the faulty/, repair/ and net/
    /// families).
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
    /// The run's stamped recorder, or null for unrecorded runs. Instances
    /// record only REAL accesses into it (the recording substrate, the net/
    /// replica observer), each into the accessing processor's buffer, and
    /// read the fault plan's first-injection position from it; the driver's
    /// script runner records every simulated invocation/response.
    run_log* log{nullptr};
    /// Substrate fault injection; the faulty/, repair/ and net/ families
    /// read it (the argument check rejects an active spec on any other
    /// entry).
    fault_spec fault{};
    /// Replica count for net/ compositions (ignored elsewhere, though the
    /// argument check bounds it everywhere). Quorum is servers/2 + 1;
    /// tolerated crashes f = (servers-1)/2.
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

/// Why `args` cannot build `info`'s register; empty when they can. Rejects
/// a writer count outside the entry's range, more processors (writers +
/// readers) than a fault plan has crash flags, more than 256 net servers,
/// a net/ entry with no server, an entry that records real accesses with no
/// recorder, an active fault spec on an entry without a fault plan, and an
/// initial value outside a packing entry's domain.
[[nodiscard]] std::string register_args_error(const register_info& info,
                                              const register_args& args);

/// Constructs a register by name. Returns null and fills `error` when the
/// name is unknown or register_args_error rejects the arguments; builds
/// nothing then.
[[nodiscard]] std::unique_ptr<any_register> make_register(
    std::string_view name, const register_args& args, std::string* error);

}  // namespace bloom87::harness
