#include "linearizability/normalize.hpp"

#include <cstdint>

#include "util/check.hpp"

namespace bloom87 {

const char* normalizer::run(std::span<const operation> raw,
                            value_t initial, bool require_unique_writes) {
    constexpr std::uint32_t none = no_source;
    constexpr std::uint32_t used_bit = 1;
    constexpr std::uint32_t read_bit = 2;
    constexpr std::uint8_t is_write = 1;
    constexpr std::uint8_t is_complete = 2;
    const std::size_t n = raw.size();
    // Below 2^31 ops the table's 2^32 slots fit a 32-bit link.
    check(n < (std::size_t{1} << 31), "normalize: 2^31 operations or more");
    kept_.clear();
    source_.clear();

    // At most half full: a probe ends after about two slots.
    unsigned bits = 4;
    while ((std::size_t{1} << bits) < 2 * n) ++bits;
    table_.assign(std::size_t{1} << bits, slot{0, none, 0});
    const std::size_t mask = table_.size() - 1;
    const auto find = [&](value_t v) -> std::uint32_t {
        // Fibonacci hashing: write values differ in a few counter bits and
        // a processor field, which the multiply spreads over the top bits.
        std::size_t h = static_cast<std::size_t>(
            (static_cast<std::uint64_t>(v) * 0x9E3779B97F4A7C15ULL) >>
            (64 - bits));
        while ((table_[h].state & used_bit) != 0 && table_[h].value != v) {
            h = (h + 1) & mask;
        }
        if ((table_[h].state & used_bit) == 0) table_[h] = {v, none, used_bit};
        return static_cast<std::uint32_t>(h);
    };

    // Writes and complete reads find their value's slot; the first write
    // of a value claims it. Scanned in raw order, so with several
    // uniqueness defects the first one met is the one reported.
    link_.resize(n);
    shape_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const operation& o = raw[i];
        const bool write = o.kind == op_kind::write;
        const bool complete = o.complete();
        shape_[i] = static_cast<std::uint8_t>((write ? is_write : 0) |
                                              (complete ? is_complete : 0));
        if (!write && !complete) {
            link_[i] = none;
            continue;
        }
        const std::uint32_t h = find(o.value);
        link_[i] = h;
        slot& s = table_[h];
        if (!write) {
            s.state |= read_bit;
        } else if (s.write == none) {
            s.write = static_cast<std::uint32_t>(i);
            if (require_unique_writes && o.value == initial) {
                return "write of the initial value breaks uniqueness";
            }
        } else if (require_unique_writes) {
            return "duplicate write value; checkers require unique writes";
        }
    }

    // Complete ops survive; a pending write survives iff some read observed
    // it (it must have taken effect; its response stays +infinity). A read
    // links to its value's first write.
    kept_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (link_[i] == none) continue;  // a pending read
        const slot& s = table_[link_[i]];
        if ((shape_[i] & is_write) == 0) {
            // A read returning a value that no write (kept or dropped) ever
            // wrote, and that is not the initial value, can never
            // linearize; catch it here with a clear message instead of a
            // generic checker failure.
            if (s.write == none && s.value != initial) {
                return "read returned a value no write produced";
            }
            link_[i] = s.write;
        } else if ((shape_[i] & is_complete) == 0 &&
                   (s.state & read_bit) == 0) {
            continue;
        } else {
            link_[i] = static_cast<std::uint32_t>(kept_.size());
        }
        kept_.push_back(static_cast<std::uint32_t>(i));
    }
    if (require_unique_writes) {
        source_.resize(kept_.size());
        for (std::size_t k = 0; k < kept_.size(); ++k) {
            const std::uint32_t i = kept_[k];
            source_[k] = (shape_[i] & is_write) != 0 ? static_cast<std::uint32_t>(k)
                         : link_[i] == none          ? none
                                                     : link_[link_[i]];
        }
    }
    return nullptr;
}

normalized_history normalize_history(const std::vector<operation>& raw,
                                     value_t initial,
                                     bool require_unique_writes) {
    normalized_history out;
    out.initial = initial;
    normalizer norm;
    if (const char* defect = norm.run(raw, initial, require_unique_writes)) {
        out.defect = defect;
        return out;
    }
    out.ops.reserve(norm.kept().size());
    for (const std::uint32_t i : norm.kept()) out.ops.push_back(raw[i]);
    return out;
}

}  // namespace bloom87
