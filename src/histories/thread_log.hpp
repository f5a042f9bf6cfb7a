// bloom87: the stamped recorder, per-thread lock-free rings, and the
// deterministic seq merge.
//
// Every recorded event draws its gamma position from one `seq_source`: a
// single relaxed fetch_add, the ONLY shared write on the record path. The
// fetch_add order is a legal serialization of the recording instants (a
// stamp is drawn inside its operation's invocation..response window, and a
// real access draws its stamp inside the critical section that makes the
// access atomic), so ordering by stamp reconstructs a valid gamma.
//
//  * A scripted run records into a `run_log`: one growable append-only
//    buffer per processor. Every drawn stamp is stored, so a stamp IS the
//    event's gamma position: the merge places the event stamped k at index
//    k, and a real read names the write it observed by that write's stamp.
//  * A timed run, whose history is unbounded, gives each worker one
//    `event_ring`: a fixed-capacity single-producer/single-consumer ring of
//    {seq, event} records, no allocation after construction. The two
//    indices live on separate cache lines, and each side keeps a private
//    copy of the other side's index, reloading it (acquire) only when the
//    copy says "full" (producer) or "empty" (consumer). `ring_merger`
//    stitches the rings into one stream by ascending seq, LIVE: per-ring
//    seqs increase, so the minimum head is safe to emit as soon as every
//    unfinished ring is non-empty. The merger hands a ring's slots back
//    in batches (one release store of tail_ per quarter ring), and before
//    it waits or returns, so a blocked producer is not polling a line the
//    consumer writes once per event.
//
// Determinism: under the seeded single-thread schedule, seq assignment is
// a pure function of the spec, so the merged history is byte-identical
// across runs -- the property tests/harness_test.cpp pins.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "histories/events.hpp"
#include "util/check.hpp"
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

/// Places each event of `buf` at its stamp's index in `out`. Buffers that
/// together hold every stamp in [0, out.size()) fill `out` exactly.
inline void scatter_by_stamp(const std::vector<stamped_event>& buf,
                             std::vector<event>& out) {
    for (const stamped_event& se : buf) {
        check(se.seq < out.size(), "stamp outside the merged stream");
        out[se.seq] = se.e;
    }
}

/// The scripted-run recorder: one append-only buffer per processor, every
/// record stamped from one seq_source. Only the thread acting as processor
/// p records for p; merge() runs once every recorder has stopped (threads
/// joined). Memory grows with the events recorded: nothing is preallocated
/// and nothing can overflow.
class run_log {
public:
    explicit run_log(std::size_t processors) : bufs_(processors) {}

    run_log(const run_log&) = delete;
    run_log& operator=(const run_log&) = delete;

    /// Appends `e` to processor p's buffer; returns its gamma position.
    event_pos record(processor_id p, const event& e) {
        const auto i = static_cast<std::size_t>(p);
        check(i < bufs_.size(), "run_log::record: processor outside the run");
        const std::uint64_t seq = seqs_.draw();
        bufs_[i].events.push_back({seq, e});
        return seq;
    }

    /// The gamma position the next record will take.
    [[nodiscard]] event_pos next_pos() const noexcept {
        return seqs_.issued();
    }

    /// The recorded gamma: the event stamped k at index k.
    [[nodiscard]] std::vector<event> merge() const {
        std::vector<event> out(seqs_.issued());
        for (const buffer& b : bufs_) scatter_by_stamp(b.events, out);
        return out;
    }

private:
    struct alignas(cacheline_size) buffer {
        std::vector<stamped_event> events;
    };

    alignas(cacheline_size) seq_source seqs_;
    std::vector<buffer> bufs_;
};

/// Fixed-capacity SPSC ring of stamped events (timed runs). The producer
/// never allocates; when the ring is full it yields until the consumer
/// drains (backpressure -- counted in stalls() so saturation is visible,
/// not silent).
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
    /// now (what reserve() waits for).
    [[nodiscard]] bool try_reserve(std::size_t n) noexcept {
        return has_room(head_.load(std::memory_order_relaxed), n);
    }

    /// Producer is done; the merger treats empty-and-finished as closed.
    void finish() noexcept { done_.store(true, std::memory_order_release); }

    [[nodiscard]] std::uint64_t stalls() const noexcept { return stalls_; }

    // ---- consumer side (one thread) ----

    /// Reads the record `ahead` slots past the tail without consuming it;
    /// false when the producer has not published that far. A consumer that
    /// holds records it already used (not yet popped) peeks past them.
    [[nodiscard]] bool peek(stamped_event* out, std::size_t ahead = 0) noexcept {
        const std::uint64_t t = tail_.load(std::memory_order_relaxed) + ahead;
        // >=, not ==: a consumer that pops without peeking (it knows what
        // was pushed) can move t past the copy.
        if (t >= head_seen_) {
            head_seen_ = head_.load(std::memory_order_acquire);
            if (t >= head_seen_) return false;
        }
        *out = slots_[t & mask_];
        return true;
    }

    /// Hands the `n` oldest records' slots back to the producer with one
    /// release store.
    void pop(std::size_t n = 1) noexcept {
        const std::uint64_t t = tail_.load(std::memory_order_relaxed);
        tail_.store(t + n, std::memory_order_release);
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
/// producers publish each record immediately after drawing its stamp, and
/// the merger hands back every slot it holds before it waits: a producer
/// blocked on a full ring then waits only for records the merger has not
/// emitted yet.
///
/// An emitted record's slot is held, not freed, until its ring's batch
/// (a quarter of the ring) is full: one release store per batch instead of
/// one per event, on the line blocked producers poll. A producer's view of
/// the free room only lags, so its reserve() at an operation boundary
/// still guarantees that the operation's pushes never block; merged order
/// is still a pure function of the stamps.
class ring_merger {
public:
    explicit ring_merger(std::span<event_ring* const> rings) {
        sources_.reserve(rings.size());
        for (event_ring* r : rings) sources_.push_back({r, 0, r->capacity() / 4});
    }

    /// Emits the next event in global seq order; false when every ring is
    /// finished and drained (every slot handed back).
    bool next(stamped_event* out) {
        for (;;) {
            bool waiting = false;
            std::size_t best = sources_.size();
            stamped_event best_se{};
            for (std::size_t i = 0; i < sources_.size(); ++i) {
                source& s = sources_[i];
                stamped_event se;
                if (!s.ring->peek(&se, s.held)) {
                    if (!s.ring->finished()) {
                        waiting = true;
                        break;
                    }
                    // finish() is released after the last push: one
                    // re-peek catches a record published just before it.
                    if (!s.ring->peek(&se, s.held)) continue;
                }
                if (best == sources_.size() || se.seq < best_se.seq) {
                    best = i;
                    best_se = se;
                }
            }
            if (waiting || best == sources_.size()) {
                hand_back_all();
                if (!waiting) return false;  // all drained
                std::this_thread::yield();
                continue;
            }
            source& s = sources_[best];
            if (++s.held == s.batch) {
                s.ring->pop(s.held);
                s.held = 0;
            }
            *out = best_se;
            return true;
        }
    }

private:
    struct source {
        event_ring* ring;
        std::size_t held;   ///< emitted records whose slots are not back yet
        std::size_t batch;  ///< hand back once this many are held
    };

    void hand_back_all() noexcept {
        for (source& s : sources_) {
            if (s.held == 0) continue;
            s.ring->pop(s.held);
            s.held = 0;
        }
    }

    std::vector<source> sources_;
};

}  // namespace bloom87
