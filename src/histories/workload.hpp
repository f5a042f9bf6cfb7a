// bloom87: workload generation for stress tests and benchmarks.
//
// A workload is a per-processor script of simulated operations. Writers may
// also read (the paper allows a single automaton to hold one read port and
// one write port, Section 5); readers only read. Write values are unique
// across the whole workload -- uniqueness makes linearizability checking
// unambiguous (every read names exactly one candidate write).
#pragma once

#include <cstdint>
#include <vector>

#include "histories/events.hpp"
#include "histories/history.hpp"

namespace bloom87 {

/// One scripted operation.
struct workload_op {
    op_kind kind{op_kind::read};
    value_t value{0};  ///< only meaningful for writes
};

/// Scripts, indexed by processor id. The writer count is a first-class
/// field: processors [0, writers) are writers, [writers, scripts.size())
/// are readers. (Bloom uses writers == 2; the tournament baseline 4; the
/// SWMR ladder 1 -- drivers must consult `writers` rather than assume 2.)
struct workload {
    std::vector<std::vector<workload_op>> scripts;
    std::size_t writers{2};

    [[nodiscard]] std::size_t readers() const noexcept {
        return scripts.size() - writers;
    }

    /// Sanity of the processor-id convention: writer count within range and
    /// writer scripts are the only ones containing writes.
    [[nodiscard]] bool valid() const noexcept {
        if (writers > scripts.size()) return false;
        for (std::size_t p = writers; p < scripts.size(); ++p) {
            for (const workload_op& op : scripts[p]) {
                if (op.kind == op_kind::write) return false;
            }
        }
        return true;
    }
};

/// Parameters for random workload generation.
struct workload_config {
    std::size_t writers = 2;          ///< 2 for Bloom; 4 for the tournament baseline
    std::size_t readers = 2;
    std::size_t ops_per_writer = 64;
    std::size_t ops_per_reader = 64;
    /// Fraction (num/den) of a writer's operations that are *reads* -- the
    /// paper's combined read/write port.
    std::uint64_t writer_read_num = 1;
    std::uint64_t writer_read_den = 4;
};

/// Encodes a globally unique write value: (processor+1) * 2^32 + counter.
/// Never collides with the conventional initial value 0.
[[nodiscard]] constexpr value_t unique_value(processor_id proc,
                                             std::uint32_t counter) noexcept {
    return (static_cast<value_t>(proc) + 1) * (value_t{1} << 32) +
           static_cast<value_t>(counter);
}

/// Generates a reproducible random workload from a seed.
[[nodiscard]] workload make_workload(const workload_config& cfg, std::uint64_t seed);

}  // namespace bloom87
