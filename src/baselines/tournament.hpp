// bloom87: the BROKEN four-writer tournament register (paper, Section 8).
//
// "Consider N = 2^k writers arranged in a tournament... However, this does
// not work." This file implements the natural-but-wrong extension so the
// repository can demonstrate the failure: four writers over two real
// TWO-writer registers, running Bloom's tag-bit protocol one level up.
// Writers Wr00, Wr01 share real register 0; Wr10, Wr11 share register 1.
// A writer in pair p reads the other pair's tag t' and writes (v, p (+) t').
//
// Per the paper's footnote 6, the counterexample does not depend on how the
// two-writer registers are built -- "it works for any protocol, or even
// hardware atomic two-writer registers" -- so we use hardware MRMW atomic
// words as the strongest possible substrate. The register is STILL not
// atomic: an overwritten value can reappear (Figure 5), which
// bench_fig5_counterexample replays deterministically and the
// linearizability checker flags.
//
// The split-phase writer API (begin_write / finish_write) exists precisely
// to drive the Figure 5 schedule: Wr00 performs its real reads, "goes to
// sleep", and finishes its real write after Wr11 and Wr01 have written.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "core/protocol.hpp"
#include "histories/events.hpp"
#include "registers/tagged.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"
#include "util/sync.hpp"

namespace bloom87 {

/// Four-writer n-reader register via the (incorrect) tournament scheme.
/// Writer ids: 0 = Wr00, 1 = Wr01 (pair 0); 2 = Wr10, 3 = Wr11 (pair 1).
/// Reader processor ids start at 4 by convention.
template <word_packable T>
class tournament_four_writer {
public:
    class writer;
    class reader;

    explicit tournament_four_writer(T initial) noexcept
        : regs_{pack_tagged(initial, false), pack_tagged(initial, false)} {}

    tournament_four_writer(const tournament_four_writer&) = delete;
    tournament_four_writer& operator=(const tournament_four_writer&) = delete;

    /// Write port for writer `id` in [0, 4); any other id fails a check()
    /// in every build (it would index outside regs_). One thread per port.
    [[nodiscard]] writer make_writer(int id) { return writer{*this, id}; }

    /// Read port; `processor` names the reader to the caller's recorder.
    [[nodiscard]] reader make_reader(processor_id processor = 4) noexcept {
        return reader{*this, processor};
    }

    /// Current contents of real register i (for the Figure 5 table).
    [[nodiscard]] tagged<T> real_contents(int i) const noexcept {
        const std::uint64_t w = regs_[i].load(std::memory_order_seq_cst);
        return {unpack_value<T>(w), unpack_tag(w)};
    }

    class writer {
    public:
        /// Full write: real read of the other pair's register, then the
        /// real write -- the two-writer protocol run at tournament level.
        void write(T v) {
            begin_write(v);
            finish_write();
        }

        /// A write asleep in `pause` between its two phases (Wr00's sleep).
        template <typename Pause>
        void write_paced(T v, Pause&& pause) {
            begin_write(v);
            pause();
            finish_write();
        }

        /// The reader protocol: a writer's port reads too.
        [[nodiscard]] T read() {
            return owner_->make_reader(static_cast<processor_id>(id_)).read();
        }

        /// Phase 1: the real read + tag computation ("(reads)" in Fig. 5).
        /// Calling it twice without finish_write fails a check(): the
        /// second call would overwrite the pending write.
        void begin_write(T v) {
            check(!armed_, "begin_write called twice without finish_write");
            const std::uint64_t other =
                owner_->regs_[1 - pair_].load(std::memory_order_seq_cst);
            pending_ = pack_tagged(v, writer_tag_choice(pair_, unpack_tag(other)));
            armed_ = true;
        }

        /// Phase 2: the single real write, possibly long after phase 1.
        /// Without a begin_write first it fails a check() instead of
        /// storing a stale or zero pending word.
        void finish_write() {
            check(armed_, "finish_write without begin_write");
            owner_->regs_[pair_].store(pending_, std::memory_order_seq_cst);
            armed_ = false;
        }

        [[nodiscard]] int id() const noexcept { return id_; }
        [[nodiscard]] int pair() const noexcept { return pair_; }

    private:
        friend class tournament_four_writer;
        writer(tournament_four_writer& owner, int id)
            : owner_(&owner), id_(id), pair_(id >> 1) {
            check(id >= 0 && id < 4, "tournament writer id outside [0, 4)");
        }

        tournament_four_writer* owner_;
        int id_;
        int pair_;
        std::uint64_t pending_{0};
        bool armed_{false};
    };

    class reader {
    public:
        [[nodiscard]] T read() {
            const std::uint64_t w0 = owner_->regs_[0].load(std::memory_order_seq_cst);
            const std::uint64_t w1 = owner_->regs_[1].load(std::memory_order_seq_cst);
            const int pick = reader_pick(unpack_tag(w0), unpack_tag(w1));
            const std::uint64_t w2 =
                owner_->regs_[pick].load(std::memory_order_seq_cst);
            return unpack_value<T>(w2);
        }

        [[nodiscard]] processor_id processor() const noexcept { return processor_; }

    private:
        friend class tournament_four_writer;
        reader(tournament_four_writer& owner, processor_id processor) noexcept
            : owner_(&owner), processor_(processor) {}

        tournament_four_writer* owner_;
        processor_id processor_;
    };

private:
    // Hardware MRMW atomic words standing in for the two "real two-writer
    // registers" (strongest substrate; the scheme fails regardless).
    std::array<std::atomic<std::uint64_t>, 2> regs_;
};

}  // namespace bloom87
