// bloom87: recording SWMR atomic register.
//
// The observability substrate. Each access (read or write) happens entirely
// inside a per-register spinlock critical section which also draws the
// event's position in the shared gamma log. Consequences:
//
//  * every access is mutually exclusive and instantaneous at its log draw,
//    so this register is trivially ATOMIC and its recorded *-action order is
//    the true one -- across BOTH real registers, because positions come from
//    one shared log;
//  * each read knows exactly which write it observed (`observed_write`),
//    which is the input the paper's constructive proof needs ("R's final
//    real read reads Reg_j and W's real write is the last real write to
//    Reg_j before it", Section 6).
//
// This substrate is for test/verification builds; performance benches use
// packed_atomic_register / seqlock_register without recording.
#pragma once

#include <atomic>
#include <thread>

#include "histories/event_log.hpp"
#include "histories/events.hpp"
#include "registers/concepts.hpp"
#include "registers/tagged.hpp"
#include "util/check.hpp"
#include "util/sync.hpp"

namespace bloom87 {

/// SWMR atomic register over tagged<value_t> that logs every access to a
/// shared gamma log.
class recording_register {
public:
    /// `reg_index` is this register's name in recorded events (0 or 1).
    recording_register(tagged<value_t> initial, event_log* log,
                       std::uint8_t reg_index) noexcept
        : log_(log), reg_index_(reg_index), tag_(initial.tag),
          value_(initial.value) {
        check(log_ != nullptr, "recording_register needs a gamma log");
    }

    /// Atomic read; logs a real_read event citing the observed write.
    [[nodiscard]] tagged<value_t> read(access_context ctx = {}) noexcept {
        lock();
        const tagged<value_t> out{value_, tag_};
        event e;
        e.kind = event_kind::real_read;
        e.reg = reg_index_;
        e.processor = ctx.processor;
        e.op = ctx.op;
        e.tag = tag_;
        e.value = value_;
        e.observed_write = last_write_pos_;
        log_->append(e);
        unlock();
        return out;
    }

    /// Atomic write; logs a real_write event.
    void write(tagged<value_t> v, access_context ctx = {}) noexcept {
        lock();
        event e;
        e.kind = event_kind::real_write;
        e.reg = reg_index_;
        e.processor = ctx.processor;
        e.op = ctx.op;
        e.tag = v.tag;
        e.value = v.value;
        const event_pos pos = log_->append(e);
        tag_ = v.tag;
        value_ = v.value;
        last_write_pos_ = pos;
        unlock();
    }

private:
    void lock() noexcept {
        while (locked_.exchange(true, std::memory_order_acquire)) {
            std::this_thread::yield();
        }
    }
    void unlock() noexcept { locked_.store(false, std::memory_order_release); }

    event_log* log_;
    const std::uint8_t reg_index_;
    alignas(cacheline_size) std::atomic<bool> locked_{false};
    bool tag_;
    value_t value_;
    event_pos last_write_pos_{no_event};
};

}  // namespace bloom87
