// bloom87: mutual-exclusion MRMW register baseline.
//
// The paper's Section 4 explicitly rejects this design: "a protocol could be
// cobbled together from a fair mutual exclusion protocol. This would require
// processes to wait for each other... one processor could crash while
// reading the register and block all further access." We implement it
// anyway, as the baseline the benches contrast against: bench_stall_tolerance
// shows reads blocking behind a stalled lock holder, while Bloom's register
// keeps serving.
#pragma once

#include <mutex>

namespace bloom87 {

/// Multi-reader multi-writer atomic register via a mutex. All operations
/// are blocking; none are wait-free.
template <typename T>
class mutex_register {
public:
    explicit mutex_register(T initial) : value_(initial) {}

    [[nodiscard]] T read() {
        std::scoped_lock lock(mutex_);
        return value_;
    }

    void write(T v) {
        std::scoped_lock lock(mutex_);
        value_ = v;
    }

    /// Hands the caller the lock, simulating a processor stalled (or
    /// crashed) inside its critical section. Used by bench_stall_tolerance.
    [[nodiscard]] std::unique_lock<std::mutex> stall() {
        return std::unique_lock<std::mutex>(mutex_);
    }

private:
    std::mutex mutex_;
    T value_;
};

}  // namespace bloom87
