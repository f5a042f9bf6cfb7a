#include "modelcheck/verdicts.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <span>

#include "linearizability/exhaustive.hpp"
#include "linearizability/regularity.hpp"
#include "util/check.hpp"

namespace bloom87::mc {

std::pair<std::uint32_t, bool> word_interner::intern(
    std::span<const std::uint64_t> w) {
    const std::uint64_t h = hash_words(w);
    std::size_t mask = index_.size() - 1;
    std::size_t pos = h & mask;
    for (; index_[pos] != kEmpty; pos = (pos + 1) & mask) {
        const std::uint32_t id = index_[pos];
        if (hashes_[id] == h && std::ranges::equal(w, words(id))) {
            return {id, false};
        }
    }
    const auto id = static_cast<std::uint32_t>(hashes_.size());
    check(id < kEmpty, "interned ids fit 32 bits");
    arena_.insert(arena_.end(), w.begin(), w.end());
    starts_.push_back(arena_.size());
    hashes_.push_back(h);
    if (2 * hashes_.size() <= index_.size()) {
        index_[pos] = id;
        return {id, true};
    }
    index_.assign(2 * index_.size(), kEmpty);
    mask = index_.size() - 1;
    for (std::uint32_t i = 0; i < hashes_.size(); ++i) {
        std::size_t p = hashes_[i] & mask;
        while (index_[p] != kEmpty) p = (p + 1) & mask;
        index_[p] = i;
    }
    return {id, true};
}

std::uint64_t word_interner::bytes() const noexcept {
    return (arena_.capacity() + starts_.capacity() + hashes_.capacity()) *
               sizeof(std::uint64_t) +
           index_.capacity() * sizeof(std::uint32_t);
}

judgement judge_history(const std::vector<operation>& hist, property prop,
                        value_t initial) {
    judgement j;
    if (prop == property::atomic) {
        const exhaustive_result res = check_exhaustive(hist, initial);
        if (!res.ok()) {
            j.ok = false;
            j.diagnosis = "checker defect: " + *res.defect;
        } else if (!res.linearizable) {
            j.ok = false;
            j.diagnosis = "history is not linearizable";
        }
    } else if (prop == property::regular_swmr) {
        const regularity_result res = check_regular_swmr(hist, initial);
        if (!res.regular) {
            j.ok = false;
            j.diagnosis = res.diagnosis;
        }
    } else {
        const regularity_result res = check_safe_swmr(hist, initial);
        if (!res.regular) {
            j.ok = false;
            j.diagnosis = res.diagnosis;
        }
    }
    return j;
}

std::vector<operation> history_of(const std::vector<emission>& labels) {
    std::vector<operation> hist;
    std::array<std::int32_t, 64> open;
    open.fill(-1);
    event_pos t = 0;
    for (const emission& l : labels) {
        const auto pid = static_cast<std::size_t>(l.proc);
        check(pid < open.size(), "label process id below 64");
        if (l.is_begin) {
            operation o;
            o.id = op_id{l.proc, l.op};
            o.kind = l.kind;
            o.value = l.value;
            o.invoked = t++;
            open[pid] = static_cast<std::int32_t>(hist.size());
            hist.push_back(o);
        } else {
            check(open[pid] >= 0, "a response closes an open operation");
            operation& o = hist[static_cast<std::size_t>(open[pid])];
            if (o.kind == op_kind::read) o.value = l.value;
            o.responded = t++;
            open[pid] = -1;
        }
    }
    return hist;
}

// ---------------------------------------------------------------------------
// label_judge. Word layouts:
//   header:  bits 0-7 open ops, 8-15 begins (atomic), 16-31 writer + 1
//            (regular/safe; 0 = none yet); kFailed alone is the failed state
//   slot:    bits 0-15 process, bit 16 write, bits 24-31 value index
//   config:  word 0: bits 0-7 value index, 8-23 linearized open writes,
//            32-47 reads that may return anything (safe); then one word per
//            slot: an open read's set of value indices (0 for a write)
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint64_t kFailed = std::uint64_t{1} << 63;
constexpr std::size_t kMaxSlots = 16;     // mask fields are 16 bits wide
constexpr std::uint64_t kMaxBegins = 62;  // check_exhaustive's limit
constexpr std::size_t kMaxValues = 64;    // value sets are one word

[[nodiscard]] constexpr std::uint64_t slot_proc(std::uint64_t s) noexcept {
    return s & 0xFFFF;
}
[[nodiscard]] constexpr bool slot_write(std::uint64_t s) noexcept {
    return ((s >> 16) & 1) != 0;
}
[[nodiscard]] constexpr unsigned slot_value(std::uint64_t s) noexcept {
    return static_cast<unsigned>((s >> 24) & 0xFF);
}
[[nodiscard]] constexpr std::uint64_t cfg_lin(std::uint64_t w) noexcept {
    return (w >> 8) & 0xFFFF;
}
[[nodiscard]] constexpr std::uint64_t cfg_any(std::uint64_t w) noexcept {
    return (w >> 32) & 0xFFFF;
}
[[nodiscard]] constexpr std::uint64_t make_cfg(std::uint64_t value,
                                               std::uint64_t lin,
                                               std::uint64_t any) noexcept {
    return value | (lin << 8) | (any << 32);
}
/// Opens a zero bit at position `at` of a slot mask.
[[nodiscard]] constexpr std::uint64_t widen(std::uint64_t mask,
                                            std::size_t at) noexcept {
    const std::uint64_t low = mask & ((std::uint64_t{1} << at) - 1);
    return low | ((mask >> at) << (at + 1));
}
/// Deletes bit `at` of a slot mask.
[[nodiscard]] constexpr std::uint64_t narrow(std::uint64_t mask,
                                             std::size_t at) noexcept {
    const std::uint64_t low = mask & ((std::uint64_t{1} << at) - 1);
    return low | ((mask >> (at + 1)) << at);
}

}  // namespace

label_judge::label_judge(property prop, value_t initial)
    : prop_(prop), values_{initial} {
    // Root (id 0): nothing open, the register holds the initial value.
    buffer_.assign({0, make_cfg(0, 0, 0)});
    (void)states_.intern(buffer_);
    buffer_.assign({kFailed});
    failed_ = states_.intern(buffer_).first;
}

std::uint64_t label_judge::bytes() const noexcept {
    return states_.bytes() + values_.capacity() * sizeof(value_t);
}

void label_judge::load(std::uint32_t state) {
    const std::span<const std::uint64_t> w = states_.words(state);
    header_ = w[0];
    const std::span<const std::uint64_t> slots = w.subspan(1, header_ & 0xFF);
    slots_.assign(slots.begin(), slots.end());
    configs_.assign(slots.end(), w.end());
}

int label_judge::value_index(value_t v) const noexcept {
    const auto it = std::find(values_.begin(), values_.end(), v);
    return it == values_.end() ? -1 : static_cast<int>(it - values_.begin());
}

void label_judge::insert_slot(std::size_t at, std::uint64_t slot) {
    const std::size_t stride = 1 + slots_.size();
    buffer_.clear();
    for (std::size_t c = 0; c < configs_.size(); c += stride) {
        const std::uint64_t* cfg = configs_.data() + c;
        buffer_.push_back(make_cfg(cfg[0] & 0xFF, widen(cfg_lin(cfg[0]), at),
                                   widen(cfg_any(cfg[0]), at)));
        buffer_.insert(buffer_.end(), cfg + 1, cfg + 1 + at);
        buffer_.push_back(0);
        buffer_.insert(buffer_.end(), cfg + 1 + at, cfg + stride);
    }
    configs_.swap(buffer_);
    slots_.insert(slots_.begin() + static_cast<std::ptrdiff_t>(at), slot);
}

void label_judge::remove_slot(std::size_t at) {
    const std::size_t stride = 1 + slots_.size();
    buffer_.clear();
    for (std::size_t c = 0; c < configs_.size(); c += stride) {
        const std::uint64_t* cfg = configs_.data() + c;
        buffer_.push_back(make_cfg(cfg[0] & 0xFF, narrow(cfg_lin(cfg[0]), at),
                                   narrow(cfg_any(cfg[0]), at)));
        buffer_.insert(buffer_.end(), cfg + 1, cfg + 1 + at);
        buffer_.insert(buffer_.end(), cfg + 2 + at, cfg + stride);
    }
    configs_.swap(buffer_);
    slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(at));
}

void label_judge::sort_unique_configs() {
    const std::size_t stride = 1 + slots_.size();
    const std::size_t count = configs_.size() / stride;
    if (count < 2) return;
    order_.resize(count);
    std::iota(order_.begin(), order_.end(), 0U);
    const std::uint64_t* base = configs_.data();
    std::sort(order_.begin(), order_.end(),
              [base, stride](std::uint32_t a, std::uint32_t b) {
                  return std::lexicographical_compare(
                      base + a * stride, base + (a + 1) * stride,
                      base + b * stride, base + (b + 1) * stride);
              });
    buffer_.clear();
    for (const std::uint32_t i : order_) {
        const std::uint64_t* cfg = base + i * stride;
        if (!buffer_.empty() &&
            std::equal(cfg, cfg + stride,
                       buffer_.data() + buffer_.size() - stride)) {
            continue;
        }
        buffer_.insert(buffer_.end(), cfg, cfg + stride);
    }
    configs_.swap(buffer_);
}

void label_judge::close_under_linearization() {
    const std::size_t stride = 1 + slots_.size();
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;
    for (std::size_t k = 0; k < slots_.size(); ++k) {
        (slot_write(slots_[k]) ? writes : reads) |= std::uint64_t{1} << k;
    }
    sort_unique_configs();
    for (;;) {
        const std::size_t count = configs_.size() / stride;
        for (std::size_t c = 0; c < count; ++c) {
            std::uint64_t pending = writes & ~cfg_lin(configs_[c * stride]);
            while (pending != 0) {
                const auto k = static_cast<unsigned>(std::countr_zero(pending));
                pending &= pending - 1;
                const std::size_t at = configs_.size();
                configs_.resize(at + stride);
                std::uint64_t* cfg = configs_.data() + at;
                std::copy_n(configs_.data() + c * stride, stride, cfg);
                const unsigned v = slot_value(slots_[k]);
                cfg[0] = make_cfg(v, cfg_lin(cfg[0]) | (std::uint64_t{1} << k),
                                  cfg_any(cfg[0]));
                for (std::uint64_t r = reads; r != 0; r &= r - 1) {
                    cfg[1 + std::countr_zero(r)] |= std::uint64_t{1} << v;
                }
            }
        }
        sort_unique_configs();
        if (configs_.size() / stride == count) return;
    }
}

std::uint32_t label_judge::step(std::uint32_t state, const emission& label) {
    if (state == unrepresentable || state == failed_) return state;
    check(label.proc >= 0, "label process ids are non-negative");
    load(state);
    const auto proc = static_cast<std::uint64_t>(label.proc);
    const auto it = std::lower_bound(
        slots_.begin(), slots_.end(), proc,
        [](std::uint64_t s, std::uint64_t p) { return slot_proc(s) < p; });
    const auto at = static_cast<std::size_t>(it - slots_.begin());
    const bool open = it != slots_.end() && slot_proc(*it) == proc;
    const bool write = label.kind == op_kind::write;
    const bool atomic = prop_ == property::atomic;

    if (label.is_begin) {
        check(!open,
              "a process begins an op only after its previous one ended");
        check(slots_.size() < kMaxSlots, "at most 16 ops open at once");
        std::uint64_t value = 0;
        if (write) {
            int v = value_index(label.value);
            if (v < 0) {
                if (values_.size() == kMaxValues) return unrepresentable;
                values_.push_back(label.value);
                v = static_cast<int>(values_.size() - 1);
            }
            value = static_cast<std::uint64_t>(v);
        }
        if (atomic) {
            if (((header_ >> 8) & 0xFF) == kMaxBegins) return unrepresentable;
            header_ += std::uint64_t{1} << 8;
        } else if (write) {
            const std::uint64_t writer = (header_ >> 16) & 0xFFFF;
            if (writer == 0) {
                header_ |= (proc + 1) << 16;
            } else if (writer != proc + 1) {
                return failed_;  // check_*_swmr requires a single writer
            }
        }
        insert_slot(at, proc | (write ? std::uint64_t{1} << 16 : 0) |
                            (value << 24));
        const std::size_t stride = 1 + slots_.size();
        std::uint64_t writes = 0;
        std::uint64_t reads = 0;
        std::uint64_t write_values = 0;
        for (std::size_t k = 0; k < slots_.size(); ++k) {
            if (k == at) continue;
            if (slot_write(slots_[k])) {
                writes |= std::uint64_t{1} << k;
                write_values |= std::uint64_t{1} << slot_value(slots_[k]);
            } else {
                reads |= std::uint64_t{1} << k;
            }
        }
        for (std::size_t c = 0; c < configs_.size(); c += stride) {
            std::uint64_t* cfg = configs_.data() + c;
            if (!write) {
                // The read may return the value held at its invocation...
                cfg[1 + at] = std::uint64_t{1} << (cfg[0] & 0xFF);
                // ...or, when regular, any overlapping write's; when safe,
                // overlapping any write frees it.
                if (prop_ == property::regular_swmr) {
                    cfg[1 + at] |= write_values;
                }
                if (prop_ == property::safe_swmr && writes != 0) {
                    cfg[0] |= std::uint64_t{1} << (32 + at);
                }
            } else if (prop_ == property::regular_swmr) {
                for (std::uint64_t r = reads; r != 0; r &= r - 1) {
                    cfg[1 + std::countr_zero(r)] |= std::uint64_t{1} << value;
                }
            } else if (prop_ == property::safe_swmr) {
                cfg[0] |= reads << 32;
            }
        }
        if (atomic) close_under_linearization();
    } else {
        check(open && slot_write(slots_[at]) == write,
              "an end closes its process's open op of that kind");
        const std::size_t stride = 1 + slots_.size();
        const int returned = write ? -1 : value_index(label.value);
        std::size_t kept = 0;
        for (std::size_t c = 0; c < configs_.size(); c += stride) {
            std::uint64_t* cfg = configs_.data() + c;
            bool keep = true;
            if (write && atomic) {
                keep = ((cfg_lin(cfg[0]) >> at) & 1) != 0;
            } else if (write) {
                cfg[0] = make_cfg(slot_value(slots_[at]), cfg_lin(cfg[0]),
                                  cfg_any(cfg[0]));
            } else {
                keep = ((cfg_any(cfg[0]) >> at) & 1) != 0 ||
                       (returned >= 0 && ((cfg[1 + at] >> returned) & 1) != 0);
            }
            if (!keep) continue;
            std::copy_n(cfg, stride, configs_.data() + kept);
            kept += stride;
        }
        if (kept == 0) return failed_;
        configs_.resize(kept);
        remove_slot(at);
        sort_unique_configs();
    }
    header_ = (header_ & ~std::uint64_t{0xFF}) | slots_.size();
    buffer_.clear();
    buffer_.push_back(header_);
    buffer_.insert(buffer_.end(), slots_.begin(), slots_.end());
    buffer_.insert(buffer_.end(), configs_.begin(), configs_.end());
    // Ids stay below ~0: no state is mistaken for `unrepresentable`.
    return states_.intern(buffer_).first;
}

}  // namespace bloom87::mc
