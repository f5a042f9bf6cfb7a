// bloom87: per-thread lock-free event logs + the deterministic seq merge.
//
// The shared MPMC event_log (event_log.hpp) costs every recorded event one
// contended fetch_add, one store into a shared slot array, and one shared
// ready-flag publish. This header is the contention-free alternative the
// harness's per-thread collection mode runs on:
//
//  * a global `seq_source` hands out 64-bit sequence numbers with a single
//    relaxed fetch_add -- the ONLY shared write on the record path. The
//    fetch_add order is a legal serialization of the recording instants
//    (each stamp is drawn inside its operation's invocation..response
//    window), so sorting by seq reconstructs a valid external schedule;
//  * each worker owns one `event_ring`: a fixed-capacity single-producer/
//    single-consumer ring of {seq, event} records. Appends are plain
//    stores plus one release publish of the head index; no allocation
//    after construction. With capacity covering a scripted run the ring
//    doubles as a flat slab (nothing is popped until the merge). The two
//    indices live on separate cache lines, and each side keeps a private
//    copy of the other side's index, reloading it (acquire) only when the
//    copy says "full" (producer) or "empty" (consumer) -- so a push or pop
//    that the copy already allows touches no line the other side writes;
//  * `ring_merger` stitches the rings back into one gamma-ordered stream
//    by ascending seq. Per-ring seqs are strictly increasing (a producer
//    draws stamps in program order), so the merger can emit the minimum
//    head as soon as every unfinished ring is non-empty -- which makes the
//    same merger work post-run (all rings finished) and LIVE, chasing the
//    producers while they append.
//
// Determinism: under the seeded single-thread schedule, seq assignment is
// a pure function of the spec, so the merged history is byte-identical
// across runs -- the property tests/streaming_test.cpp pins.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "histories/events.hpp"
#include "util/sync.hpp"

namespace bloom87 {

/// Global sequence stamps: one relaxed fetch_add per record. Shared by all
/// producers of one run; the total order of draws is consistent with each
/// thread's program order and with cross-thread real time.
class seq_source {
public:
    [[nodiscard]] std::uint64_t draw() noexcept {
        return next_.fetch_add(1, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t issued() const noexcept {
        return next_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> next_{0};
};

/// One seq-stamped gamma event.
struct stamped_event {
    std::uint64_t seq{0};
    event e{};
};

/// Fixed-capacity SPSC ring of stamped events. The producer never
/// allocates; when the ring is full it yields until the consumer drains
/// (backpressure -- counted in stalls() so saturation is visible, not
/// silent). Sized to cover the whole run, push never blocks and the ring
/// behaves as an append-only slab.
class event_ring {
public:
    explicit event_ring(std::size_t capacity) {
        std::size_t cap = 16;
        while (cap < capacity) cap <<= 1;
        slots_.resize(cap);
        mask_ = cap - 1;
    }

    event_ring(const event_ring&) = delete;
    event_ring& operator=(const event_ring&) = delete;

    // ---- producer side (one thread) ----

    void push(std::uint64_t seq, const event& e) noexcept {
        const std::uint64_t h = head_.load(std::memory_order_relaxed);
        wait_for_room(h, 1);
        slots_[h & mask_] = {seq, e};
        head_.store(h + 1, std::memory_order_release);
    }

    /// Waits until at least `n` slots are free. Recorders call this at
    /// OPERATION boundaries (before invoking), so the pushes inside an
    /// operation never block: a producer stalled mid-operation would keep
    /// that operation open in the merged stream, pinning the streaming
    /// checker's quiescent cut for the whole stall -- checker slows,
    /// backpressure worsens, retention grows, a feedback loop. Stalling
    /// between operations pins nothing.
    void reserve(std::size_t n) noexcept {
        wait_for_room(head_.load(std::memory_order_relaxed), n);
    }

    /// Non-blocking reserve: true when at least `n` slots are free right
    /// now. The drop ring policy calls this instead of reserve() and skips
    /// the WHOLE operation on false -- executing it unrecorded would hand
    /// the checkers a history with invisible writes.
    [[nodiscard]] bool try_reserve(std::size_t n) noexcept {
        return has_room(head_.load(std::memory_order_relaxed), n);
    }

    /// Producer is done; the merger treats empty-and-finished as closed.
    void finish() noexcept { done_.store(true, std::memory_order_release); }

    [[nodiscard]] std::uint64_t stalls() const noexcept { return stalls_; }

    // ---- consumer side (one thread) ----

    [[nodiscard]] bool peek(stamped_event* out) noexcept {
        const std::uint64_t t = tail_.load(std::memory_order_relaxed);
        // >=, not ==: a consumer that pops without peeking (it knows what
        // was pushed) can move t past the copy.
        if (t >= head_seen_) {
            head_seen_ = head_.load(std::memory_order_acquire);
            if (t >= head_seen_) return false;
        }
        *out = slots_[t & mask_];
        return true;
    }

    void pop() noexcept {
        const std::uint64_t t = tail_.load(std::memory_order_relaxed);
        tail_.store(t + 1, std::memory_order_release);
    }

    [[nodiscard]] bool finished() const noexcept {
        return done_.load(std::memory_order_acquire);
    }

    [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

private:
    /// True when `n` slots past head `h` are free, by the producer's copy
    /// of tail_; the copy is reloaded before answering false.
    [[nodiscard]] bool has_room(std::uint64_t h, std::size_t n) noexcept {
        if (h + n - tail_seen_ <= mask_ + 1) return true;
        tail_seen_ = tail_.load(std::memory_order_acquire);
        return h + n - tail_seen_ <= mask_ + 1;
    }

    void wait_for_room(std::uint64_t h, std::size_t n) noexcept {
        while (!has_room(h, n)) {
            ++stalls_;
            std::this_thread::yield();
        }
    }

    // Fixed at construction (the slots themselves pass producer to
    // consumer through head_ and back through tail_).
    std::vector<stamped_event> slots_;
    std::size_t mask_{0};
    // Written by the producer only.
    alignas(cacheline_size) std::atomic<std::uint64_t> head_{0};
    std::uint64_t tail_seen_{0};  ///< producer's copy of tail_
    std::uint64_t stalls_{0};     ///< producer-private backpressure counter
    std::atomic<bool> done_{false};
    // Written by the consumer only.
    alignas(cacheline_size) std::atomic<std::uint64_t> tail_{0};
    std::uint64_t head_seen_{0};  ///< consumer's copy of head_
};

/// K-way merge of event rings by ascending seq. Single consumer thread.
/// next() blocks (yielding) while any unfinished ring is empty -- an empty
/// live ring may still publish a smaller seq than every current head, so
/// emitting early would break the global order. Liveness holds because
/// producers publish each record immediately after drawing its stamp.
class ring_merger {
public:
    explicit ring_merger(std::span<event_ring* const> rings)
        : rings_(rings.begin(), rings.end()) {}

    /// Emits the next event in global seq order; false when every ring is
    /// finished and drained.
    bool next(stamped_event* out) {
        for (;;) {
            bool waiting = false;
            std::size_t best = rings_.size();
            stamped_event best_se{};
            for (std::size_t i = 0; i < rings_.size(); ++i) {
                stamped_event se;
                if (!rings_[i]->peek(&se)) {
                    if (!rings_[i]->finished()) {
                        waiting = true;
                        break;
                    }
                    // finish() is released after the last push: one
                    // re-peek catches a record published just before it.
                    if (!rings_[i]->peek(&se)) continue;
                }
                if (best == rings_.size() || se.seq < best_se.seq) {
                    best = i;
                    best_se = se;
                }
            }
            if (waiting) {
                std::this_thread::yield();
                continue;
            }
            if (best == rings_.size()) return false;  // all drained
            rings_[best]->pop();
            *out = best_se;
            return true;
        }
    }

private:
    std::vector<event_ring*> rings_;
};

}  // namespace bloom87
