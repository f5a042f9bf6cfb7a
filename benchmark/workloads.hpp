// bloom87_bench: the load each workload puts on the library, shared by the
// untraced run (workloads.cpp) and the traced run with its per-layer
// ledger (ledger.cpp).
#pragma once

#include <cstdint>

#include "bench.hpp"
#include "harness/driver.hpp"
#include "modelcheck/explorer.hpp"

namespace bench {

/// `contended`: closed loop, writers p0,p1 and reader p2 on bloom/packed,
/// nothing collected, every 16th op's latency sampled.
[[nodiscard]] bloom87::harness::run_spec contended_spec(std::uint64_t seed);

/// `verified`: the contended load plus per-thread rings and the streaming
/// checker (window 4096, stride 4096).
[[nodiscard]] bloom87::harness::run_spec verified_spec(std::uint64_t seed);

/// `net_faulty`: net/abd-mw over 3 servers on the seeded single-thread
/// schedule, 1/8 of ops paced, under composed loss, delay and server
/// crash-recovery faults.
[[nodiscard]] bloom87::harness::run_spec net_faulty_spec(
    std::uint64_t seed, std::size_t ops_per_proc);

/// `model_check`: paper footnote 5 -- Bloom with 2x2 writes and a reader
/// that samples the tags in reversed order.
[[nodiscard]] bloom87::mc::sim_state footnote5_state();

/// Exploration settings of `model_check`: reduction on, one thread. The
/// sequential engine is as fast here as two threads (phase-2 enumeration
/// dominates and runs on one thread anyway) and varies less run to run.
[[nodiscard]] bloom87::mc::explore_config footnote5_config();

/// Distinct histories of the footnote-5 configuration.
inline constexpr std::uint64_t footnote5_histories = 247354;

/// Ops per processor of a net_faulty rep.
[[nodiscard]] std::size_t net_ops_per_proc(const options& opt);

/// Nanoseconds one workload may spend measuring.
[[nodiscard]] std::uint64_t budget_ns(const options& opt);

}  // namespace bench
