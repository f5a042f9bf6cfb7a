#include "analysis/lockset.hpp"

#include "util/check.hpp"

namespace bloom87::analysis {
namespace {

const char* reason_name(lockset_report::reason r) noexcept {
    switch (r) {
        case lockset_report::reason::no_common_guard:
            return "no common guard";
        case lockset_report::reason::no_declared_guard:
            return "none of the declared guards held";
        case lockset_report::reason::guarded_divergence:
            return "candidate set emptied on a guarded site";
    }
    return "?";
}

std::string hex_mask(std::uint64_t m) {
    if (m == 0) return "{}";
    std::string s = "{";
    bool first = true;
    for (unsigned b = 0; b < 64; ++b) {
        if ((m >> b & 1ULL) == 0) continue;
        if (!first) s += ",";
        first = false;
        s += (b == 63) ? std::string("LOCK") : std::to_string(b);
    }
    s += "}";
    return s;
}

}  // namespace

std::string lockset_report::describe(std::string_view location_label) const {
    std::string s = "lockset";
    if (why == reason::guarded_divergence) s += " divergence (documented)";
    s += ": ";
    s += is_write ? "write" : "read";
    s += " of ";
    s += location_label;
    s += " ";
    s += std::to_string(location);
    s += " by thread ";
    s += std::to_string(thread);
    s += " at access ";
    s += std::to_string(pos);
    s += ": ";
    s += reason_name(why);
    s += " (held ";
    s += hex_mask(held);
    s += ", candidates ";
    s += hex_mask(candidates);
    s += ")";
    return s;
}

void lockset_detector::reset(std::size_t threads, std::size_t locations) {
    // Location indices double as pseudo-lock bits; bit 63 is reserved for
    // the composition-wide lock, so at most 63 locations fit.
    check(locations <= 63, "lockset_detector: more than 63 locations");
    threads_ = threads;
    locations_ = locations;
    held_.assign(threads, 0);
    cand_.assign(locations, ~0ULL);
    guards_.assign(locations, 0);
    state_.assign(locations, loc_state::virgin);
    owner_.assign(locations, -1);
    accesses_ = 0;
    warnings_ = 0;
    divergences_ = 0;
    violation_.reset();
    divergence_.reset();
}

void lockset_detector::set_guards(std::size_t loc, std::uint64_t guards) {
    guards_[loc] = guards;
}

void lockset_detector::latch(lockset_report::reason why, std::size_t loc,
                             std::size_t thread, bool is_write,
                             std::uint64_t held_now) {
    lockset_report r;
    r.why = why;
    r.location = static_cast<std::uint32_t>(loc);
    r.thread = static_cast<std::int16_t>(thread);
    r.is_write = is_write;
    r.pos = accesses_;
    r.held = held_now;
    r.candidates = cand_[loc];
    if (why == lockset_report::reason::guarded_divergence) {
        ++divergences_;
        if (!divergence_) divergence_ = r;
    } else {
        ++warnings_;
        if (!violation_) violation_ = r;
    }
}

void lockset_detector::on_access(std::size_t thread, std::size_t location,
                                 bool is_write, sync_class cls) {
    check(thread < threads_ && location < locations_,
          "lockset_detector::on_access: thread or location out of range");
    ++accesses_;

    switch (cls) {
        case sync_class::relaxed:
            // Neither holds nor constitutes a guard.
            return;
        case sync_class::sync:
            // The pseudo-lock mapping: acquiring a sync location takes its
            // baton, releasing it hands the baton on. Sync locations are
            // the guards, never the guarded data.
            if (is_write) {
                held_[thread] &= ~(1ULL << location);
            } else {
                held_[thread] |= 1ULL << location;
            }
            return;
        case sync_class::plain:
        case sync_class::lock_region:
            break;
    }

    // Data access: run the Eraser machine with the effective held set. A
    // lock_region access holds the composition lock for its own duration.
    std::uint64_t held = held_[thread];
    if (cls == sync_class::lock_region) held |= lockset_region_bit;

    const std::uint64_t declared = guards_[location];
    if (declared != 0 && (held & declared) == 0) {
        // Guard-coverage breach: the verdict-level check on guarded sites.
        latch(lockset_report::reason::no_declared_guard, location, thread,
              is_write, held);
    }

    loc_state& st = state_[location];
    switch (st) {
        case loc_state::virgin:
            st = loc_state::exclusive;
            owner_[location] = static_cast<std::int16_t>(thread);
            return;  // first touch: no candidate refinement yet
        case loc_state::exclusive:
            if (owner_[location] == static_cast<std::int16_t>(thread)) {
                // Eraser's initialization heuristic: the owning thread may
                // keep touching its own location lock-free. This is also
                // why lockset misses first-access races the HB detector
                // catches (docs/ANALYSIS.md, the writes=1 divergences).
                return;
            }
            st = is_write ? loc_state::shared_modified : loc_state::shared;
            break;
        case loc_state::shared:
            if (is_write) st = loc_state::shared_modified;
            break;
        case loc_state::shared_modified:
            break;
    }

    cand_[location] &= held;
    if (st == loc_state::shared_modified && cand_[location] == 0) {
        latch(declared != 0 ? lockset_report::reason::guarded_divergence
                            : lockset_report::reason::no_common_guard,
              location, thread, is_write, held);
    }
}

void lockset_detector::fingerprint(std::vector<std::uint64_t>& out) const {
    // Tag word: distinct from FastTrack's 0x4ace tag; low bits latch the
    // verdict so violating states never alias clean ones.
    out.push_back(0x10c5e70000ULL | (violation_ ? 1ULL : 0ULL) |
                  (divergence_ ? 2ULL : 0ULL));
    for (std::size_t t = 0; t < threads_; ++t) out.push_back(held_[t]);
    for (std::size_t x = 0; x < locations_; ++x) {
        out.push_back(cand_[x]);
        out.push_back(static_cast<std::uint64_t>(state_[x]) |
                      (static_cast<std::uint64_t>(
                           static_cast<std::uint16_t>(owner_[x]))
                       << 8));
    }
}

}  // namespace bloom87::analysis
