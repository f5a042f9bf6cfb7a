// bloom87: the two-writer n-reader atomic register (the paper's result).
//
// two_writer_register<T, Reg> simulates a 2-writer, n-reader atomic register
// on top of two 1-writer, (n+1)-reader atomic registers of type Reg holding
// tagged<T>. Costs match the paper exactly:
//
//   simulated write           = 1 real read + 1 real write
//   simulated read            = 3 real reads
//   simulated read by writer  = 1 or 2 real reads (cached variant, §5)
//
// Both operations are wait-free (no loops, no waiting on other processors)
// and a writer crashing at any point leaves the register consistent: the
// write's only externally visible step is its single final real write.
//
// Usage:
//   two_writer_register<int, packed_atomic_register<int>> reg(0);
//   auto& w0 = reg.writer0();            // owned by thread A
//   auto& w1 = reg.writer1();            // owned by thread B
//   auto r   = reg.make_reader();        // one per reader thread
//   w0.write(42);
//   int v = r.read();
//
// Thread contract: writer0()/writer1() handles must each be driven by at
// most one thread at a time; every reader thread uses its own reader handle.
// This mirrors the paper's model: each port of the register is a sequential
// processor.
#pragma once

#include <array>
#include <cstdint>

#include "core/protocol.hpp"
#include "histories/events.hpp"
#include "histories/history.hpp"
#include "registers/concepts.hpp"
#include "registers/tagged.hpp"
#include "util/check.hpp"

namespace bloom87 {

/// Where a deliberately injected writer crash happens (failure testing).
enum class crash_point : std::uint8_t {
    before_read,   ///< crash before any real access: write never visible
    after_read,    ///< crash between real read and real write: never visible
    after_write,   ///< crash after the real write: write fully visible
};

template <typename T, typename Reg>
    requires swmr_register<Reg, tagged<T>>
class two_writer_register {
public:
    class writer;
    class reader;

    /// Builds the register initialized to v0: both real registers start with
    /// value v0 and tag bit 0 (paper, Section 5).
    explicit two_writer_register(T initial)
        requires std::constructible_from<Reg, tagged<T>>
        : regs_{Reg{tagged<T>{initial, false}}, Reg{tagged<T>{initial, false}}},
          writers_{writer{*this, 0}, writer{*this, 1}} {}

    /// Factory constructor for substrates needing per-register arguments
    /// (e.g. ported_substrate). `make(initial_tagged, reg_index)` must
    /// return the register by value (constructed in place via guaranteed
    /// elision; substrates are immovable).
    template <typename Factory>
        requires std::is_invocable_r_v<Reg, Factory&, tagged<T>, int>
    two_writer_register(T initial, Factory&& make)
        : regs_{make(tagged<T>{initial, false}, 0),
                make(tagged<T>{initial, false}, 1)},
          writers_{writer{*this, 0}, writer{*this, 1}} {}

    two_writer_register(const two_writer_register&) = delete;
    two_writer_register& operator=(const two_writer_register&) = delete;

    /// The two write ports. Each must be driven by one thread at a time.
    [[nodiscard]] writer& writer0() noexcept { return writers_[0]; }
    [[nodiscard]] writer& writer1() noexcept { return writers_[1]; }

    /// Creates a read port. `processor` names the reader in recorded
    /// histories; readers are conventionally numbered from 2 upward.
    [[nodiscard]] reader make_reader(processor_id processor = 2) noexcept {
        return reader{*this, processor};
    }

    /// A write port: performs simulated writes, and simulated reads in both
    /// the plain (3 real reads) and cached (1-2 real reads) variants.
    class writer {
    public:
        /// Simulated write (paper, Section 5):
        ///   read t',v' from Reg_{~i}; t := i (+) t'; write t,v to Reg_i.
        void write(T v) {
            write_body(v, [](crash_point) { return true; });
        }

        /// Simulated write with an adversarial pause between the real read
        /// and the real write (the protocol's only vulnerable window; an
        /// overlapping write by the other writer makes this one impotent,
        /// paper Section 7). Real schedulers almost never produce that
        /// interleaving spontaneously -- cache-line arbitration keeps the
        /// two writers' accesses bursty -- so verification harnesses use
        /// this to exercise the impotent-write machinery deliberately.
        template <typename Pause>
        void write_paced(T v, Pause&& between_read_and_write) {
            write_body(v, [&](crash_point at) {
                if (at == crash_point::after_read) between_read_and_write();
                return true;
            });
        }

        /// Failure injection: run the write protocol but crash at `cp`. The
        /// write still takes an op index (the caller's recorder logs its
        /// invocation, never its response); the handle remains usable,
        /// modeling a processor that recovers with fresh state. An
        /// out-of-range `cp` (a cast from a bad integer) is a programming
        /// error, rejected up front in every build rather than silently
        /// running the full protocol as after_write would.
        void write_crashed(T v, crash_point cp) {
            check(cp == crash_point::before_read ||
                      cp == crash_point::after_read ||
                      cp == crash_point::after_write,
                  "write_crashed: crash_point out of range");
            write_body(v, [cp](crash_point at) { return at != cp; });
        }

        /// Simulated read using the full three-real-read reader protocol.
        [[nodiscard]] T read() {
            return owner_->read_body(next_context(), [] {});
        }

        /// Simulated read using the writer's local copy of its own real
        /// register (paper, Section 5): one real read when the tag sum
        /// points at our own register, two otherwise.
        [[nodiscard]] T read_cached() {
            const access_context ctx = next_context();
            if (!cache_valid_) {
                // First operation ever: own register still holds the
                // initial value; a real read of it is free to cache.
                cache_ = owner_->regs_[index_].read(ctx);
                cache_valid_ = true;
            }
            const tagged<T> other = owner_->regs_[1 - index_].read(ctx);
            const bool t0 = index_ == 0 ? cache_.tag : other.tag;
            const bool t1 = index_ == 0 ? other.tag : cache_.tag;
            if (reader_pick(t0, t1) == index_) return cache_.value;
            return owner_->regs_[1 - index_].read(ctx).value;
        }

        /// This port's writer index (0 or 1).
        [[nodiscard]] int index() const noexcept { return index_; }

    private:
        friend class two_writer_register;
        writer(two_writer_register& owner, int index) noexcept
            : owner_(&owner), index_(index) {}

        access_context next_context() noexcept {
            return {static_cast<processor_id>(index_), next_op_++};
        }

        /// The one write body. `step(at)` runs at each protocol point and
        /// returns false to stop the write there (a crash); the op index is
        /// taken first, so even a write stopped at before_read consumes one.
        template <typename Step>
        void write_body(T v, Step&& step) {
            const access_context ctx = next_context();
            if (!step(crash_point::before_read)) return;
            const tagged<T> other = owner_->regs_[1 - index_].read(ctx);
            if (!step(crash_point::after_read)) return;
            const tagged<T> mine{v, writer_tag_choice(index_, other.tag)};
            owner_->regs_[index_].write(mine, ctx);
            cache_ = mine;
            cache_valid_ = true;
            (void)step(crash_point::after_write);
        }

        two_writer_register* owner_;
        int index_;
        op_index next_op_{0};
        tagged<T> cache_{};
        bool cache_valid_{false};
    };

    /// A read port (paper, Section 5):
    ///   read t0,v0 from Reg0; read t1,v1 from Reg1;
    ///   r := t0 (+) t1; read t2,v2 from Reg_r; return v2.
    class reader {
    public:
        [[nodiscard]] T read() {
            return owner_->read_body({processor_, next_op_++}, [] {});
        }

        /// Simulated read with an adversarial pause between the tag sample
        /// (first two real reads) and the final real read -- the paper's
        /// "very slow reader" (Section 7.2), which may return the value of
        /// an impotent write. Verification harnesses use this to exercise
        /// Step 3 / Lemma 4 deliberately.
        template <typename Pause>
        [[nodiscard]] T read_paced(Pause&& between_tags_and_final) {
            return owner_->read_body({processor_, next_op_++},
                                     between_tags_and_final);
        }

        [[nodiscard]] processor_id processor() const noexcept { return processor_; }

    private:
        friend class two_writer_register;
        reader(two_writer_register& owner, processor_id processor) noexcept
            : owner_(&owner), processor_(processor) {}

        two_writer_register* owner_;
        processor_id processor_;
        op_index next_op_{0};
    };

    /// Direct access to the real registers (tests and benches only).
    [[nodiscard]] Reg& real_register(int i) noexcept { return regs_[i]; }

private:
    /// The one read body, shared by reader::read, reader::read_paced and
    /// writer::read: `pause` runs between the tag sample and the final read.
    template <typename Pause>
    T read_body(access_context ctx, Pause&& pause) {
        const tagged<T> r0 = regs_[0].read(ctx);
        const tagged<T> r1 = regs_[1].read(ctx);
        pause();
        return regs_[reader_pick(r0.tag, r1.tag)].read(ctx).value;
    }

    std::array<Reg, 2> regs_;
    std::array<writer, 2> writers_;
};

}  // namespace bloom87
