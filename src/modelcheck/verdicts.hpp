// bloom87: shared verdict machinery for the exploration engines.
//
// The full explorer (explorer.cpp) and the trace-quotient POR engine
// (por.cpp) must agree BIT-FOR-BIT on what verdict a history gets -- the
// reduction's whole contract is "same property_holds / violations /
// distinct_histories, fewer states". This header holds the pieces both
// engines share: the word hasher and the per-history judge.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "histories/history.hpp"
#include "modelcheck/explorer.hpp"

namespace bloom87::mc {

[[nodiscard]] inline std::uint64_t hash_words(
    const std::vector<std::uint64_t>& words) {
    // FNV-1a over 64-bit words, then a finalizer. One collision in a
    // visited set only costs a false prune; the full engine's history memo
    // takes the same odds (negligible at the scale of these explorations),
    // and the POR engine's label-DAG states compare full kernels.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint64_t w : words) {
        h ^= w;
        h *= 0x100000001b3ULL;
    }
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
}

struct judgement {
    bool ok{true};
    std::string diagnosis;
};

/// Runs the configured checker over one complete history.
[[nodiscard]] judgement judge_history(const std::vector<operation>& hist,
                                      property prop, value_t initial);

}  // namespace bloom87::mc
