// bloom87: runtime atomicity monitoring for any register implementation.
//
// A thin, thread-safe facade over the stamped recorder + checkers:
// application code reports each operation's boundaries through a
// per-processor port, and verify() renders a verdict over everything
// recorded so far. Each port records into its own buffer, stamping every
// event from one shared seq_source (histories/thread_log.hpp). Use it
// to put ANY register implementation (including ones outside this
// repository) under the same verification regime as the built-in ones:
//
//   atomicity_monitor mon(0);
//   auto port = mon.make_port(2);
//   port.begin_read();
//   value_t v = my_register.read();
//   port.end_read(v);
//   ...
//   auto verdict = mon.verify();   // after the run
//
// Monitoring only observes invocation/response order (it cannot see the
// register's internals), so it checks exactly what linearizability is
// defined over: the external history.
#pragma once

#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "histories/events.hpp"
#include "histories/thread_log.hpp"

namespace bloom87 {

struct monitor_verdict {
    bool atomic{false};
    std::size_t operations{0};
    std::string diagnosis;  ///< empty when atomic; else what broke
};

class atomicity_monitor {
public:
    /// `capacity` bounds the number of recorded events (2 per operation).
    /// Memory grows with the events recorded, not with the capacity.
    explicit atomicity_monitor(value_t initial, std::size_t capacity = 1 << 20)
        : initial_(initial), capacity_(capacity) {}

    atomicity_monitor(const atomicity_monitor&) = delete;
    atomicity_monitor& operator=(const atomicity_monitor&) = delete;

    /// One port per processor; each port must be driven by one thread at a
    /// time (operations on a port are sequential, as the model requires).
    class port {
    public:
        void begin_write(value_t v);
        void end_write();
        void begin_read();
        void end_read(value_t result);

        /// Report a crashed operation: begin_* was called but the op never
        /// finished. (Optional -- an un-ended op is treated as pending
        /// anyway; this just lets the port be reused afterwards.)
        void abandon();

    private:
        friend class atomicity_monitor;
        port(atomicity_monitor& owner, std::vector<stamped_event>& buffer,
             processor_id processor)
            : owner_(&owner), buffer_(&buffer), processor_(processor) {}

        /// Records one boundary event of the open (or opening) operation.
        void record(event_kind kind, value_t v);

        atomicity_monitor* owner_;
        std::vector<stamped_event>* buffer_;
        processor_id processor_;
        op_index next_op_{0};
        bool open_{false};
        op_index open_op_{0};
        bool open_is_write_{false};
    };

    /// Thread-safe: worker threads may create their ports concurrently.
    [[nodiscard]] port make_port(processor_id processor);

    /// Checks everything recorded so far. Call after the threads driving
    /// ports are quiescent (typically joined); in-flight operations are
    /// treated as pending (crashed).
    [[nodiscard]] monitor_verdict verify() const;

    /// True if the monitor ran out of capacity (verify() also reports it).
    [[nodiscard]] bool overflowed() const noexcept {
        return seqs_.issued() > capacity_;
    }

private:
    value_t initial_;
    std::size_t capacity_;
    /// Every event's gamma position; stamps past capacity_ are dropped.
    seq_source seqs_;
    mutable std::mutex ports_mu_;
    /// One buffer per port; a deque keeps each port's buffer in place
    /// while other ports are added.
    std::deque<std::vector<stamped_event>> buffers_;
};

/// The shortest prefix of a recorded history that already fails the
/// atomicity check, and the operation whose event closes it -- the op the
/// violation first became visible on.
struct violating_prefix {
    std::size_t length{0};  ///< events in the minimal violating prefix
    op_id culprit{};        ///< owner of events[length - 1]
    std::string diagnosis;  ///< why that prefix fails
};

/// Culprit localization for a run the streaming checker flagged: binary
/// search over the prefix length of `events` for the minimal violating
/// prefix. Valid because linearizability is prefix-closed -- a violating
/// prefix stays violating under extension. A parse failure or history
/// defect on a prefix (a read of a value no write produced, a duplicate
/// write) counts as a violation and is named as such: under substrate
/// fault injection that is exactly how torn values surface. Only the fast
/// checker's internal error reads "checker defect: ...". nullopt when the
/// whole history checks atomic.
[[nodiscard]] std::optional<violating_prefix> minimal_violating_prefix(
    const std::vector<event>& events, value_t initial);

}  // namespace bloom87
