// bloom87: native hardware MRMW atomic register baseline.
//
// Modern hardware provides multi-writer multi-reader atomic words directly
// (the paper predates this being taken for granted -- its footnote 1 even
// remarks that "few if any multiprocessors" have per-processor channels to
// shared registers). One seq_cst atomic word is a wait-free MRMW atomic
// register; it is the upper baseline every simulation is measured against.
#pragma once

#include <atomic>

#include "histories/events.hpp"
#include "util/bits.hpp"
#include "util/sync.hpp"

namespace bloom87 {

/// MRMW atomic register over a word-packable T, via one std::atomic word.
template <word_packable T>
class native_atomic_register {
public:
    explicit native_atomic_register(T initial) noexcept
        : word_(pack_tagged(initial, false)) {}

    [[nodiscard]] T read(processor_id = 0) noexcept {
        return unpack_value<T>(word_.load(std::memory_order_seq_cst));
    }

    void write(T v, processor_id = 0) noexcept {
        word_.store(pack_tagged(v, false), std::memory_order_seq_cst);
    }

private:
    alignas(cacheline_size) std::atomic<std::uint64_t> word_;
};

}  // namespace bloom87
