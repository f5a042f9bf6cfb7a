#include "linearizability/normalize.hpp"

#include <cstdint>
#include <utility>

#include "util/radix_sort.hpp"

namespace bloom87 {

normalized_index normalize_indices(const std::vector<operation>& raw,
                                   value_t initial,
                                   bool require_unique_writes) {
    constexpr std::size_t none = normalized_index::no_source;
    normalized_index out;

    // (value, index) of every write and complete read; the low tag bit
    // marks a read. Sorted stably by value, each run of equal values lists
    // its ops in raw order.
    struct keyed {
        value_t value;
        std::size_t tag;
    };
    std::vector<keyed> keys;
    keys.reserve(raw.size());
    // Per raw op: is a write, is complete -- so the passes below need not
    // reread the (much larger) operations.
    constexpr std::uint8_t is_write = 1;
    constexpr std::uint8_t is_complete = 2;
    std::vector<std::uint8_t> shape(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
        const bool read = raw[i].kind == op_kind::read;
        const bool complete = raw[i].complete();
        shape[i] = static_cast<std::uint8_t>((read ? 0 : is_write) |
                                             (complete ? is_complete : 0));
        if (!read || complete) keys.push_back({raw[i].value, 2 * i + read});
    }
    std::vector<keyed> spare;
    radix_sort(keys, spare, [](const keyed& k) {
        return static_cast<std::uint64_t>(k.value) ^ (std::uint64_t{1} << 63);
    });

    // Per raw op: for a read, the first write of its value (or none); for a
    // write, itself if some complete read returned its value, else none.
    std::vector<std::size_t> link(raw.size(), none);
    std::size_t first_defect = none;  // raw index of the earliest defect
    const char* defect = nullptr;
    bool unwritten_read = false;
    for (std::size_t g = 0; g < keys.size();) {
        const value_t value = keys[g].value;
        std::size_t h = g;
        std::size_t first = none;
        std::size_t second = none;
        bool has_read = false;
        for (; h < keys.size() && keys[h].value == value; ++h) {
            if ((keys[h].tag & 1U) != 0) {
                has_read = true;
            } else if (first == none) {
                first = keys[h].tag / 2;
            } else if (second == none) {
                second = keys[h].tag / 2;
            }
        }
        if (require_unique_writes) {
            if (value == initial && first < first_defect) {
                first_defect = first;
                defect = "write of the initial value breaks uniqueness";
            } else if (second < first_defect) {
                first_defect = second;
                defect = "duplicate write value; checkers require unique writes";
            }
        }
        if (has_read && first == none && value != initial) unwritten_read = true;
        for (; g < h; ++g) {
            const std::size_t i = keys[g].tag / 2;
            if ((keys[g].tag & 1U) != 0) {
                link[i] = first;
            } else if (has_read) {
                link[i] = i;
            }
        }
    }
    if (defect != nullptr) {
        out.defect = defect;
        return out;
    }
    // A read returning a value that no write (kept or dropped) ever wrote,
    // and that is not the initial value, can never linearize; catch it here
    // with a clear message instead of a generic checker failure.
    if (unwritten_read) {
        out.defect = "read returned a value no write produced";
        return out;
    }

    // Complete ops survive; a pending write survives iff some read observed
    // it (it must have taken effect; its response stays +infinity).
    out.kept.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
        if ((shape[i] & is_complete) != 0 || link[i] == i) out.kept.push_back(i);
    }
    if (require_unique_writes) {
        // Reuse `link` to map a kept write's raw index to its position.
        out.source.resize(out.kept.size());
        for (std::size_t k = 0; k < out.kept.size(); ++k) {
            if ((shape[out.kept[k]] & is_write) != 0) link[out.kept[k]] = k;
        }
        for (std::size_t k = 0; k < out.kept.size(); ++k) {
            const std::size_t i = out.kept[k];
            out.source[k] = (shape[i] & is_write) != 0 ? k
                            : link[i] == none          ? none
                                                       : link[link[i]];
        }
    }
    return out;
}

normalized_history normalize_history(const std::vector<operation>& raw,
                                     value_t initial,
                                     bool require_unique_writes) {
    normalized_history out;
    out.initial = initial;
    normalized_index idx = normalize_indices(raw, initial, require_unique_writes);
    out.defect = std::move(idx.defect);
    if (!out.ok()) return out;
    out.ops.reserve(idx.kept.size());
    for (const std::size_t i : idx.kept) out.ops.push_back(raw[i]);
    return out;
}

}  // namespace bloom87
