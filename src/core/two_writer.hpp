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
#include "histories/event_log.hpp"
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

    /// Recording-substrate constructor: forwards the shared gamma log and
    /// the register index to each real register, and logs the simulated
    /// operations' invocations/responses as well.
    two_writer_register(T initial, event_log* log)
        requires std::constructible_from<Reg, tagged<T>, event_log*, std::uint8_t>
        : regs_{Reg{tagged<T>{initial, false}, log, 0},
                Reg{tagged<T>{initial, false}, log, 1}},
          writers_{writer{*this, 0}, writer{*this, 1}}, log_(log) {}

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

    /// Attaches an external-schedule log: every simulated operation's
    /// invocation and response is appended (values included when T converts
    /// to value_t). Works with ANY substrate -- real-register *-actions are
    /// additionally recorded only by the recording substrate. Attach before
    /// concurrent use.
    void set_external_log(event_log* log) noexcept { log_ = log; }

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
            const access_context ctx = begin(op_kind::write, v);
            const tagged<T> other = owner_->regs_[1 - index_].read(ctx);
            const bool t = writer_tag_choice(index_, other.tag);
            owner_->regs_[index_].write(tagged<T>{v, t}, ctx);
            cache_ = tagged<T>{v, t};
            cache_valid_ = true;
            end(event_kind::sim_respond_write, 0, ctx);
        }

        /// Simulated read using the full three-real-read reader protocol.
        [[nodiscard]] T read() {
            const access_context ctx = begin(op_kind::read, T{});
            const T result = owner_->read_protocol(ctx);
            end(event_kind::sim_respond_read, static_cast<value_t>(0), ctx,
                result);
            return result;
        }

        /// Simulated read using the writer's local copy of its own real
        /// register (paper, Section 5): one real read when the tag sum
        /// points at our own register, two otherwise.
        [[nodiscard]] T read_cached() {
            const access_context ctx = begin(op_kind::read, T{});
            if (!cache_valid_) {
                // First operation ever: own register still holds the
                // initial value; a real read of it is free to cache.
                cache_ = owner_->regs_[index_].read(ctx);
                cache_valid_ = true;
            }
            const tagged<T> other = owner_->regs_[1 - index_].read(ctx);
            const bool t0 = index_ == 0 ? cache_.tag : other.tag;
            const bool t1 = index_ == 0 ? other.tag : cache_.tag;
            const int pick = reader_pick(t0, t1);
            T result;
            if (pick == index_) {
                result = cache_.value;
            } else {
                result = owner_->regs_[1 - index_].read(ctx).value;
            }
            end(event_kind::sim_respond_read, 0, ctx, result);
            return result;
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
            const access_context ctx = begin(op_kind::write, v);
            const tagged<T> other = owner_->regs_[1 - index_].read(ctx);
            between_read_and_write();
            const bool t = writer_tag_choice(index_, other.tag);
            owner_->regs_[index_].write(tagged<T>{v, t}, ctx);
            cache_ = tagged<T>{v, t};
            cache_valid_ = true;
            end(event_kind::sim_respond_write, 0, ctx);
        }

        /// Failure injection: run the write protocol but crash at `cp`.
        /// The invocation is logged (if recording) but never acknowledged;
        /// the handle remains usable, modeling a processor that recovers
        /// with fresh state. An out-of-range `cp` (a cast from a bad
        /// integer) is a programming error, rejected up front in every
        /// build rather than silently running the full protocol as
        /// after_write would.
        void write_crashed(T v, crash_point cp) {
            check(cp == crash_point::before_read ||
                      cp == crash_point::after_read ||
                      cp == crash_point::after_write,
                  "write_crashed: crash_point out of range");
            const access_context ctx = begin(op_kind::write, v);
            if (cp == crash_point::before_read) {
                return;  // no real access: the write is never visible
            }
            const tagged<T> other = owner_->regs_[1 - index_].read(ctx);
            if (cp == crash_point::after_read) return;  // read but no write
            const bool t = writer_tag_choice(index_, other.tag);
            owner_->regs_[index_].write(tagged<T>{v, t}, ctx);
            cache_ = tagged<T>{v, t};
            cache_valid_ = true;
        }

        /// This port's writer index (0 or 1).
        [[nodiscard]] int index() const noexcept { return index_; }

    private:
        friend class two_writer_register;
        writer(two_writer_register& owner, int index) noexcept
            : owner_(&owner), index_(index) {}

        access_context begin(op_kind kind, [[maybe_unused]] T v) {
            const access_context ctx{static_cast<processor_id>(index_), next_op_++};
            if (owner_->log_ != nullptr) {
                event e;
                e.kind = kind == op_kind::write ? event_kind::sim_invoke_write
                                                : event_kind::sim_invoke_read;
                e.processor = ctx.processor;
                e.op = ctx.op;
                if constexpr (std::convertible_to<T, value_t>) {
                    e.value = kind == op_kind::write ? static_cast<value_t>(v) : 0;
                }
                owner_->log_->append(e);
            }
            return ctx;
        }

        void end(event_kind kind, value_t, access_context ctx,
                 [[maybe_unused]] T read_result = T{}) {
            if (owner_->log_ != nullptr) {
                event e;
                e.kind = kind;
                e.processor = ctx.processor;
                e.op = ctx.op;
                if constexpr (std::convertible_to<T, value_t>) {
                    e.value = kind == event_kind::sim_respond_read
                                  ? static_cast<value_t>(read_result)
                                  : 0;
                }
                owner_->log_->append(e);
            }
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
            const access_context ctx{processor_, next_op_++};
            if (owner_->log_ != nullptr) {
                event e;
                e.kind = event_kind::sim_invoke_read;
                e.processor = ctx.processor;
                e.op = ctx.op;
                owner_->log_->append(e);
            }
            const T result = owner_->read_protocol(ctx);
            if (owner_->log_ != nullptr) {
                event e;
                e.kind = event_kind::sim_respond_read;
                e.processor = ctx.processor;
                e.op = ctx.op;
                if constexpr (std::convertible_to<T, value_t>) {
                    e.value = static_cast<value_t>(result);
                }
                owner_->log_->append(e);
            }
            return result;
        }

        /// Simulated read with an adversarial pause between the tag sample
        /// (first two real reads) and the final real read -- the paper's
        /// "very slow reader" (Section 7.2), which may return the value of
        /// an impotent write. Verification harnesses use this to exercise
        /// Step 3 / Lemma 4 deliberately.
        template <typename Pause>
        [[nodiscard]] T read_paced(Pause&& between_tags_and_final) {
            const access_context ctx{processor_, next_op_++};
            if (owner_->log_ != nullptr) {
                event e;
                e.kind = event_kind::sim_invoke_read;
                e.processor = ctx.processor;
                e.op = ctx.op;
                owner_->log_->append(e);
            }
            const tagged<T> r0 = owner_->regs_[0].read(ctx);
            const tagged<T> r1 = owner_->regs_[1].read(ctx);
            between_tags_and_final();
            const int pick = reader_pick(r0.tag, r1.tag);
            const T result = owner_->regs_[pick].read(ctx).value;
            if (owner_->log_ != nullptr) {
                event e;
                e.kind = event_kind::sim_respond_read;
                e.processor = ctx.processor;
                e.op = ctx.op;
                if constexpr (std::convertible_to<T, value_t>) {
                    e.value = static_cast<value_t>(result);
                }
                owner_->log_->append(e);
            }
            return result;
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
    T read_protocol(access_context ctx) {
        const tagged<T> r0 = regs_[0].read(ctx);
        const tagged<T> r1 = regs_[1].read(ctx);
        const int pick = reader_pick(r0.tag, r1.tag);
        return regs_[pick].read(ctx).value;
    }

    std::array<Reg, 2> regs_;
    std::array<writer, 2> writers_;
    event_log* log_{nullptr};
};

}  // namespace bloom87
