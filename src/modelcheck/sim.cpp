#include "modelcheck/sim.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace bloom87::mc {
namespace {

std::uint64_t full_mask(mc_value domain) {
    return domain >= 64 ? ~0ULL : ((1ULL << domain) - 1);
}

/// Deep copy of an armed detector; null stays null.
template <typename Detector>
std::unique_ptr<Detector> clone_armed(const std::unique_ptr<Detector>& d) {
    return d != nullptr ? std::make_unique<Detector>(*d) : nullptr;
}

}  // namespace

sim_state::sim_state(const sim_state& other)
    : clock_(other.clock_),
      detector_(clone_armed(other.detector_)),
      lockset_(clone_armed(other.lockset_)),
      acting_(other.acting_) {
    // Capacity-preserving clone: the explorer copies states at every branch
    // point and then keeps appending to `hist` -- inheriting the parent's
    // grown capacity spares the child the same reallocation ladder.
    registers = other.registers;
    hist.reserve(other.hist.capacity());
    hist = other.hist;
    procs.reserve(other.procs.size());
    for (const auto& p : other.procs) procs.push_back(p->clone());
}

void sim_state::enable_race_detection() {
    detector_ = std::make_unique<analysis::race_detector>(procs.size(),
                                                          registers.size());
}

void sim_state::enable_lockset_detection() {
    lockset_ = std::make_unique<analysis::lockset_detector>(procs.size(),
                                                            registers.size());
    for (std::size_t i = 0; i < registers.size(); ++i) {
        if (registers[i].guards != 0) {
            lockset_->set_guards(i, registers[i].guards);
        }
    }
}

mc_value sim_state::read_atomic(std::size_t reg) {
    mc_register& r = reg_at(reg);
    check(r.level == reg_level::atomic,
          "read_atomic on a split-level register");
    trace_read(reg);
    if (detector_ != nullptr) {
        detector_->on_access(static_cast<std::size_t>(acting_), reg, false,
                             r.sync);
    }
    if (lockset_ != nullptr) {
        lockset_->on_access(static_cast<std::size_t>(acting_), reg, false,
                            r.sync);
    }
    return r.committed;
}

mc_value sim_state::read_previous(std::size_t reg) {
    mc_register& r = reg_at(reg);
    check(r.track_previous,
          "read_previous on a register without track_previous");
    trace_read(reg);
    return r.previous;
}

void sim_state::write_atomic(std::size_t reg, mc_value v) {
    mc_register& r = reg_at(reg);
    check(r.level == reg_level::atomic,
          "write_atomic on a split-level register");
    check(v >= 0 && v < r.domain, "write_atomic: value outside [0, domain)");
    trace_write(reg);
    if (detector_ != nullptr) {
        detector_->on_access(static_cast<std::size_t>(acting_), reg, true,
                             r.sync);
    }
    if (lockset_ != nullptr) {
        lockset_->on_access(static_cast<std::size_t>(acting_), reg, true,
                            r.sync);
    }
    if (r.track_previous) r.previous = r.committed;
    r.committed = v;
}

void sim_state::begin_read(std::size_t reg, std::int16_t proc) {
    mc_register& r = reg_at(reg);
    check(r.level != reg_level::atomic, "begin_read on an atomic register");
    check(r.domain <= 64, "split-level register domain exceeds the 64-bit "
                          "candidate mask");
    // Split reads trace as WRITES: they mutate the active-read set that
    // overlap semantics (and so every other access's behavior) hangs off.
    trace_write(reg);
    // The access joins/checks happens-before at its BEGIN step: reads
    // record here and writes check recorded reads at begin_write, so any
    // overlap between a split read and a split write is caught from
    // whichever side starts second.
    if (detector_ != nullptr) {
        detector_->on_access(static_cast<std::size_t>(proc), reg, false,
                             r.sync);
    }
    if (lockset_ != nullptr) {
        lockset_->on_access(static_cast<std::size_t>(proc), reg, false,
                            r.sync);
    }
    std::uint64_t candidates = 1ULL << r.committed;
    if (r.active_write >= 0) {
        candidates = r.level == reg_level::safe ? full_mask(r.domain)
                                                : candidates | (1ULL << r.active_write);
    }
    r.active_reads.emplace_back(proc, candidates);
}

int sim_state::read_candidates(std::size_t reg, std::int16_t proc) const {
    const mc_register& r = reg_at(reg);
    for (const auto& [p, mask] : r.active_reads) {
        if (p == proc) return std::popcount(mask);
    }
    check_failed("read_candidates without begin_read",
                 std::source_location::current());
}

mc_value sim_state::end_read(std::size_t reg, std::int16_t proc, int choice) {
    mc_register& r = reg_at(reg);
    trace_write(reg);
    auto it = std::find_if(r.active_reads.begin(), r.active_reads.end(),
                           [&](const auto& pr) { return pr.first == proc; });
    check(it != r.active_reads.end(), "end_read without begin_read");
    std::uint64_t mask = it->second;
    r.active_reads.erase(it);
    // The choice-th set bit, ascending.
    for (int bit = 0; bit < 64; ++bit) {
        if ((mask >> bit) & 1ULL) {
            if (choice == 0) return static_cast<mc_value>(bit);
            --choice;
        }
    }
    check_failed("end_read choice out of range",
                 std::source_location::current());
}

void sim_state::begin_write(std::size_t reg, mc_value v) {
    mc_register& r = reg_at(reg);
    check(r.level != reg_level::atomic, "begin_write on an atomic register");
    check(r.active_write < 0, "begin_write on a register with an open write "
                              "(concurrent writers on a single-writer register)");
    check(r.domain <= 64, "split-level register domain exceeds the 64-bit "
                          "candidate mask");
    check(v >= 0 && v < r.domain, "begin_write: value outside [0, domain)");
    trace_write(reg);
    if (detector_ != nullptr) {
        detector_->on_access(static_cast<std::size_t>(acting_), reg, true,
                             r.sync);
    }
    if (lockset_ != nullptr) {
        lockset_->on_access(static_cast<std::size_t>(acting_), reg, true,
                            r.sync);
    }
    r.active_write = v;
    // The new write overlaps every read in progress.
    for (auto& [p, mask] : r.active_reads) {
        mask = r.level == reg_level::safe ? full_mask(r.domain)
                                          : mask | (1ULL << v);
    }
}

void sim_state::end_write(std::size_t reg) {
    mc_register& r = reg_at(reg);
    trace_write(reg);
    check(r.active_write >= 0, "end_write without begin_write");
    r.committed = r.active_write;
    r.active_write = -1;
}

std::size_t sim_state::begin_op(processor_id proc, op_index op, op_kind kind,
                                value_t v) {
    operation o;
    o.id = op_id{proc, op};
    o.kind = kind;
    o.value = v;
    o.invoked = clock_++;
    hist.push_back(o);
    record_emission(emission{true, kind, proc, op, v});
    return hist.size() - 1;
}

void sim_state::end_op(std::size_t hist_index, value_t read_result) {
    operation& o = hist[hist_index];
    if (o.kind == op_kind::read) o.value = read_result;
    o.responded = clock_++;
    record_emission(
        emission{false, o.kind, o.id.processor, o.id.op, read_result});
}

void sim_state::fingerprint(std::vector<std::uint64_t>& out) const {
    // Registers contribute <= 2 + active_reads words each, operations 4,
    // processes a handful; reserving up front makes the (per-state, hot)
    // fingerprint pass allocation-free once the caller reuses the vector.
    out.reserve(out.size() + 2 + registers.size() * 4 + hist.size() * 4 +
                procs.size() * 8);
    out.push_back(registers.size());
    for (const mc_register& r : registers) {
        out.push_back((static_cast<std::uint64_t>(r.committed) << 32) |
                      (static_cast<std::uint64_t>(static_cast<std::uint16_t>(
                           r.active_write))
                       << 8) |
                      static_cast<std::uint64_t>(r.level));
        // Only fault-model explorations pay for the extra word; fingerprints
        // (and so pinned state counts) of everything else are unchanged.
        if (r.track_previous) {
            out.push_back(0xFA417000ULL |
                          static_cast<std::uint64_t>(
                              static_cast<std::uint16_t>(r.previous)));
        }
        out.push_back(r.active_reads.size());
        for (const auto& [p, mask] : r.active_reads) {
            out.push_back((static_cast<std::uint64_t>(static_cast<std::uint16_t>(p))
                           << 48) ^
                          mask);
        }
    }
    out.push_back(hist.size());
    for (const operation& o : hist) {
        out.push_back((static_cast<std::uint64_t>(
                           static_cast<std::uint16_t>(o.id.processor))
                       << 40) |
                      (static_cast<std::uint64_t>(o.id.op) << 8) |
                      static_cast<std::uint64_t>(o.kind));
        out.push_back(static_cast<std::uint64_t>(o.value));
        out.push_back(o.invoked);
        out.push_back(o.responded);
    }
    for (const auto& p : procs) p->fingerprint(out);
    // Armed detectors join the fingerprint (clock vectors only): two states
    // with identical structure but different happens-before knowledge must
    // not be merged, or a race reachable from one could be pruned via the
    // other. Race-free explorations pay nothing.
    if (detector_ != nullptr) detector_->fingerprint(out);
    if (lockset_ != nullptr) lockset_->fingerprint(out);
}

void sim_state::fingerprint_core(std::vector<std::uint64_t>& out,
                                 const std::uint8_t* g,
                                 const std::uint8_t* inv) const {
    // The POR engine's node key: registers + process states ONLY. The
    // history and the clock are deliberately excluded -- every future label
    // sequence is determined by this much, and the enumeration phase
    // reconstructs exact histories (timestamps included) from labels. Armed
    // race detectors carry per-state clock vectors that would make this
    // merge unsound; the explorer routes them to the full engine.
    assert(detector_ == nullptr && lockset_ == nullptr);
    out.reserve(out.size() + 2 + registers.size() * 4 + procs.size() * 8);
    out.push_back(registers.size());
    // Active-read entries and history labels carry processor IDS (what the
    // process passes to begin_read/begin_op), while `g` permutes procs-vector
    // INDICES; translate through the id table. Symmetry is only engaged when
    // every process exposes a valid unique id (por.cpp checks), so the table
    // is total here.
    std::array<std::uint8_t, 64> idx_of{};
    if (g != nullptr) {
        for (std::size_t i = 0; i < procs.size(); ++i) {
            const processor_id pid = procs[i]->id();
            check(pid >= 0 && static_cast<std::size_t>(pid) < idx_of.size(),
                  "symmetry relabeling needs processor ids in [0, 64)");
            idx_of[static_cast<std::size_t>(pid)] =
                static_cast<std::uint8_t>(i);
        }
    }
    std::array<std::uint64_t, 16> reads{};  // relabeled, then sorted
    for (const mc_register& r : registers) {
        out.push_back((static_cast<std::uint64_t>(r.committed) << 32) |
                      (static_cast<std::uint64_t>(static_cast<std::uint16_t>(
                           r.active_write))
                       << 8) |
                      static_cast<std::uint64_t>(r.level));
        if (r.track_previous) {
            out.push_back(0xFA417000ULL |
                          static_cast<std::uint64_t>(
                              static_cast<std::uint16_t>(r.previous)));
        }
        out.push_back(r.active_reads.size());
        // Relabel in-flight readers and SORT the entries: the vector's push
        // order is schedule debris (begin_read order), not semantics --
        // candidates and end_read lookups are per-process -- so states
        // differing only in that order (or by a symmetry permutation of
        // reader identities) must collide.
        const std::size_t n = r.active_reads.size();
        check(n <= reads.size(), "more than 16 reads in flight on a register");
        for (std::size_t i = 0; i < n; ++i) {
            const auto [p, mask] = r.active_reads[i];
            const std::uint64_t id =
                g != nullptr
                    ? g[idx_of[static_cast<std::size_t>(p)]]
                    : static_cast<std::uint64_t>(
                          static_cast<std::uint16_t>(p));
            reads[i] = (id << 48) ^ mask;
        }
        std::sort(reads.begin(), reads.begin() + static_cast<std::ptrdiff_t>(n));
        for (std::size_t i = 0; i < n; ++i) out.push_back(reads[i]);
    }
    for (std::size_t slot = 0; slot < procs.size(); ++slot) {
        if (g == nullptr) {
            procs[slot]->fingerprint(out);
        } else {
            // The process landing in `slot` is fingerprinted under the
            // IDENTITY of the slot's original resident, so permuted twins
            // collide with the unpermuted state.
            procs[inv[slot]]->fingerprint_as(out, procs[slot]->id());
        }
    }
}

step_footprint probe_footprint(const sim_state& s, std::size_t self) {
    step_footprint f{0, 0, false};
    const int n = s.procs[self]->fanout(s);
    for (int choice = 0; choice < n; ++choice) {
        sim_state copy(s);
        copy.start_trace();
        copy.reset_emissions();
        copy.set_acting(static_cast<std::int16_t>(self));
        copy.procs[self]->step(copy, choice);
        f.reads |= copy.traced_reads();
        f.writes |= copy.traced_writes();
        f.visible = f.visible || copy.emitted_count() > 0;
    }
    return f;
}

}  // namespace bloom87::mc
