// bloom87: readers-writers lock baseline (the paper's [CHP] reference).
//
// Courtois, Heymans & Parnas's readers-writers problem is the classic
// mutual-exclusion approach to the same resource-sharing shape: many
// readers OR one writer. Modern C++ packages it as std::shared_mutex. Like
// the plain mutex baseline it provides atomicity by BLOCKING -- readers
// scale better than a plain mutex when writes are rare, but a stalled
// writer still wedges every reader, which is exactly the failure mode the
// paper's wait-free protocol exists to avoid (Section 4).
#pragma once

#include <mutex>
#include <shared_mutex>

namespace bloom87 {

/// MRMW atomic register via a readers-writers lock. Reads share the lock;
/// writes take it exclusively. Blocking; not wait-free.
template <typename T>
class rwlock_register {
public:
    explicit rwlock_register(T initial) : value_(initial) {}

    [[nodiscard]] T read() {
        std::shared_lock lock(mutex_);
        return value_;
    }

    void write(T v) {
        std::unique_lock lock(mutex_);
        value_ = v;
    }

    /// Simulates a writer stalled (or crashed) inside its critical section;
    /// used by bench_stall_tolerance.
    [[nodiscard]] std::unique_lock<std::shared_mutex> stall() {
        return std::unique_lock<std::shared_mutex>(mutex_);
    }

private:
    std::shared_mutex mutex_;
    T value_;
};

}  // namespace bloom87
