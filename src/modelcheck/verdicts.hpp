// bloom87: shared verdict machinery for the exploration engines.
//
// The full explorer (explorer.cpp) and the trace-quotient POR engine
// (por.cpp) must agree BIT-FOR-BIT on what verdict a history gets -- the
// reduction's whole contract is "same property_holds / violations /
// distinct_histories, fewer states". This header holds the pieces both
// engines share: the word hasher, the fixed-key table and the per-history
// judge, plus what the POR engine adds on top of them: the word interner,
// the history a label sequence spells, and the judge state, which reaches
// judge_history's verdict one label at a time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "histories/history.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/sim.hpp"
#include "util/check.hpp"

namespace bloom87::mc {

[[nodiscard]] inline std::uint64_t hash_words(
    std::span<const std::uint64_t> words) {
    // FNV-1a over 64-bit words, then a finalizer. One collision in a
    // visited set only costs a false prune; the full engine's history memo
    // takes the same odds (negligible at the scale of these explorations),
    // and the POR engine's label-DAG states and judge states compare full
    // words.
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

/// Maps 64-bit keys to values by linear probing in a power-of-two array
/// kept at most 3/4 full. With the default empty value type it is a set of
/// bare keys in 8-byte slots: the full engine's visited and history memos.
/// The POR engine keeps its node map and step and product memos in one
/// each. kNoKey marks an empty slot, so the table keeps that one key's
/// entry beside the array.
template <class V = std::tuple<>>
class key_table {
public:
    static constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

    [[nodiscard]] const V* find(std::uint64_t key) const {
        if (key == kNoKey) return no_key_ ? &*no_key_ : nullptr;
        if (slots_.empty()) return nullptr;
        const slot& s = slots_[probe(key)];
        return s.key == key ? &s.value : nullptr;
    }

    /// The value under `key`, after inserting `value` there if the key was
    /// absent; the flag says whether it was.
    std::pair<V, bool> try_emplace(std::uint64_t key, V value = {}) {
        if (key == kNoKey) {
            if (no_key_) return {*no_key_, false};
            no_key_ = value;
            size_ += 1;
            return {value, true};
        }
        if (4 * (size_ + 1) > 3 * slots_.size()) grow();
        slot& s = slots_[probe(key)];
        if (s.key == key) return {s.value, false};
        s = slot{key, value};
        size_ += 1;
        return {value, true};
    }

    [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
    [[nodiscard]] std::uint64_t bytes() const noexcept {
        return slots_.capacity() * sizeof(slot);
    }

private:
    struct slot {
        std::uint64_t key{kNoKey};
        [[no_unique_address]] V value{};
    };
    static_assert(!std::is_empty_v<V> || sizeof(slot) == sizeof(std::uint64_t),
                  "a set keeps bare keys");

    /// The slot holding `key`, or the empty slot where it belongs.
    [[nodiscard]] std::size_t probe(std::uint64_t key) const {
        std::uint64_t h = key ^ (key >> 31);
        h *= 0x9e3779b97f4a7c15ULL;
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = static_cast<std::size_t>(h >> 20) & mask;
        while (slots_[i].key != key && slots_[i].key != kNoKey) {
            i = (i + 1) & mask;
        }
        return i;
    }
    void grow() {
        std::vector<slot> old(std::max<std::size_t>(1024, 2 * slots_.size()));
        old.swap(slots_);
        for (const slot& s : old) {
            if (s.key != kNoKey) slots_[probe(s.key)] = s;
        }
    }

    std::vector<slot> slots_;
    std::optional<V> no_key_;
    std::uint64_t size_{0};
};

/// Word strings interned in one flat arena: string i is the words
/// [starts_[i], starts_[i + 1]), and an open-addressing index over their
/// hashes finds it again. Ids count up from 0 in insertion order, and
/// nothing is allocated per string. The judge states and the POR engine's
/// DAG kernels and stored labels live in one each.
class word_interner {
public:
    /// The id of `w` and whether this call inserted it.
    std::pair<std::uint32_t, bool> intern(std::span<const std::uint64_t> w);

    /// The words of string `id`. Valid until the next insertion.
    [[nodiscard]] std::span<const std::uint64_t> words(std::uint32_t id) const {
        check(id < hashes_.size(), "an interned id");
        return std::span(arena_).subspan(starts_[id],
                                         starts_[id + 1] - starts_[id]);
    }
    [[nodiscard]] std::uint32_t size() const noexcept {
        return static_cast<std::uint32_t>(hashes_.size());
    }
    /// Arena, offsets, hashes and index, by capacity.
    [[nodiscard]] std::uint64_t bytes() const noexcept;

private:
    static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

    std::vector<std::uint64_t> arena_;
    std::vector<std::uint64_t> starts_{0};
    std::vector<std::uint64_t> hashes_;
    std::vector<std::uint32_t> index_ = std::vector<std::uint32_t>(16, kEmpty);
};

struct judgement {
    bool ok{true};
    std::string diagnosis;
};

/// Runs the configured checker over one complete history.
[[nodiscard]] judgement judge_history(const std::vector<operation>& hist,
                                      property prop, value_t initial);

/// The history a label sequence spells. The simulation clock ticks only at
/// emissions, so a label's position IS its timestamp; an op whose end label
/// never came (a crashed process) stays pending, as the full engine records
/// it.
[[nodiscard]] std::vector<operation> history_of(
    const std::vector<emission>& labels);

/// The checker's state after a prefix of labels, advanced one label at a
/// time: judge_history's verdict on a history without building it. States
/// are interned, so equal ids have equal futures whatever prefix led there
/// (the POR engine memoizes on them).
///
/// - atomic: the set of just-in-time linearization configurations (Lowe,
///   "Testing for linearizability", 2017) reachable after the prefix. A
///   configuration holds the current value, which open writes are already
///   linearized, and for each open read the set of values the register has
///   held since that read was invoked. After each begin the set is closed
///   under "linearize one more open write"; a write's end keeps the
///   configurations where it is linearized; a read's end keeps those whose
///   value set holds the value it returned. A history passes iff the set is
///   non-empty. Ops still open at the end are optional, as normalize_history
///   treats them: it drops open reads and unread open writes, and a read
///   open write (infinite response) can always be linearized last.
/// - regular_swmr / safe_swmr: one deterministic configuration: the value
///   of the last completed write, the single writer, and each open read's
///   allowed set -- that value plus the values of the writes overlapping the
///   read. Under safe_swmr a read that overlaps any write may return
///   anything.
///
/// A failed check is absorbing: every extension fails. A prefix the state
/// cannot represent -- more than 62 begins under `atomic`
/// (check_exhaustive's size limit) or a write of a 65th distinct value --
/// steps to `unrepresentable`; a history with such a prefix needs
/// judge_history.
class label_judge {
public:
    static constexpr std::uint32_t unrepresentable = ~std::uint32_t{0};

    label_judge(property prop, value_t initial);

    /// The state of the empty prefix.
    [[nodiscard]] static constexpr std::uint32_t root() noexcept { return 0; }

    /// The state after `state` then `label`. Checks that a process begins
    /// an op only once its previous op has ended (a crashed process halts
    /// for good) and that an end closes its process's open op.
    [[nodiscard]] std::uint32_t step(std::uint32_t state,
                                     const emission& label);

    /// judge_history(history_of(prefix)).ok, for a representable state.
    [[nodiscard]] bool passes(std::uint32_t state) const noexcept {
        return state != failed_;
    }

    [[nodiscard]] std::uint64_t states() const noexcept {
        return states_.size();
    }
    /// Interned states and the value table, by capacity.
    [[nodiscard]] std::uint64_t bytes() const noexcept;

private:
    void load(std::uint32_t state);
    [[nodiscard]] int value_index(value_t v) const noexcept;
    void insert_slot(std::size_t at, std::uint64_t slot);
    void remove_slot(std::size_t at);
    void close_under_linearization();
    void sort_unique_configs();

    const property prop_;
    std::vector<value_t> values_;  ///< value indices; [0] = initial
    word_interner states_;
    std::uint32_t failed_{0};

    // The state being stepped: a header word, one word per open op (sorted
    // by process), then the configurations, 1 + slots_.size() words each.
    std::uint64_t header_{0};
    std::vector<std::uint64_t> slots_;
    std::vector<std::uint64_t> configs_;
    std::vector<std::uint64_t> buffer_;
    std::vector<std::uint32_t> order_;
};

}  // namespace bloom87::mc
