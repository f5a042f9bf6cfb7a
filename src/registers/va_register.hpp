// bloom87: n-writer m-reader atomic register via unbounded timestamps
// (in the style of Vitanyi & Awerbuch [VA], the multi-writer work the
// paper's Section 8 points to).
//
// Bloom's protocol is specifically TWO-writer, and Section 8 proves the
// natural tournament extension fails for any two-writer building block.
// The way forward the paper cites is timestamp-based: give each writer its
// own SWMR atomic register; a writer scans all of them, picks a timestamp
// larger than any it saw, and publishes (value, timestamp, writer-id) in
// its own register; a reader scans all registers and returns the value
// with the lexicographically largest (timestamp, writer-id).
//
//   write by w:  for all j: s_j := R_j.read();  ts := 1 + max_j s_j.ts;
//                R_w.write((v, ts, w))
//   read:        for all j: s_j := R_j.read();  return value of max (ts, id)
//
// Atomic with UNBOUNDED timestamps (64-bit here -- practically unbounded);
// the bounded-timestamp constructions are the hard part the literature
// spent years on and are out of scope. Costs: write = n reads + 1 write;
// read = n reads; space = n SWMR registers of (value + 64-bit ts).
//
// Contrast with Bloom for the 2-writer case: VA pays timestamp space and
// n reads per write, Bloom pays ONE tag bit and one read per write --
// that economy is the paper's contribution. bench_multiwriter prices it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "registers/concepts.hpp"
#include "registers/seqlock.hpp"
#include "registers/tagged.hpp"
#include "util/check.hpp"

namespace bloom87 {

/// n-writer multi-reader atomic register over T. Each writer must use its
/// own writer_port (single-threaded); reads may come from any thread.
template <typename T, template <typename> class SwmrTmpl = seqlock_register>
class va_register {
    struct stamped {
        T value{};
        std::uint64_t ts{0};   // 0 = initial
        std::uint32_t writer{0};
    };
    using cell = SwmrTmpl<stamped>;

public:
    class writer_port;

    va_register(T initial, std::size_t writers) : writers_(writers) {
        cells_.reserve(writers_);
        for (std::size_t i = 0; i < writers_; ++i) {
            cells_.push_back(std::make_unique<cell>(
                tagged<stamped>{stamped{initial, 0, 0}, false}));
        }
    }

    /// Write port for writer w in [0, writers). One thread per port.
    [[nodiscard]] writer_port make_writer_port(std::size_t w) {
        check(w < writers_, "va_register: writer port index out of range");
        return writer_port{*this, w};
    }

    /// Atomic read, any thread: n SWMR reads, newest (ts, writer) wins.
    [[nodiscard]] T read(access_context = {}) {
        return scan().value;
    }

    class writer_port {
    public:
        /// Atomic write: n SWMR reads + 1 SWMR write.
        void write(T v, access_context = {}) {
            const stamped newest = owner_->scan();
            owner_->cells_[index_]->write(tagged<stamped>{
                stamped{v, newest.ts + 1, static_cast<std::uint32_t>(index_)},
                false});
        }

        /// The port doubles as a read port (any port may read).
        [[nodiscard]] T read(access_context = {}) { return owner_->read(); }

        [[nodiscard]] std::size_t index() const noexcept { return index_; }

    private:
        friend class va_register;
        writer_port(va_register& owner, std::size_t index)
            : owner_(&owner), index_(index) {}

        va_register* owner_;
        std::size_t index_;
    };

    [[nodiscard]] std::size_t writers() const noexcept { return writers_; }

private:
    [[nodiscard]] stamped scan() {
        stamped best = cells_[0]->read().value;
        for (std::size_t j = 1; j < writers_; ++j) {
            const stamped s = cells_[j]->read().value;
            if (s.ts > best.ts || (s.ts == best.ts && s.writer > best.writer)) {
                best = s;
            }
        }
        return best;
    }

    std::size_t writers_;
    std::vector<std::unique_ptr<cell>> cells_;
};

}  // namespace bloom87
