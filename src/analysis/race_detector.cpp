#include "analysis/race_detector.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace bloom87::analysis {

std::string race_report::describe(std::string_view location_label) const {
    auto access = [](bool w) { return w ? "write" : "read"; };
    std::string out = "data race on ";
    out += location_label;
    out += " ";
    out += std::to_string(location);
    out += ": plain ";
    out += access(first_is_write);
    out += " by thread ";
    out += std::to_string(first_thread);
    out += " (access #";
    out += std::to_string(first_pos);
    out += ") is unordered with plain ";
    out += access(second_is_write);
    out += " by thread ";
    out += std::to_string(second_thread);
    out += " (access #";
    out += std::to_string(second_pos);
    out += ")";
    return out;
}

void race_detector::reset(std::size_t threads, std::size_t locations) {
    threads_ = threads;
    locations_ = locations;
    vc_.assign(threads * threads, 0);
    // C_t[t] starts at 1 so "never accessed" (clock entry 0) is
    // distinguishable from "accessed before any synchronization".
    for (std::size_t t = 0; t < threads; ++t) vc(t, t) = 1;
    rel_.assign(locations * threads, 0);
    lck_.assign(threads, 0);
    wclk_.assign(locations * threads, 0);
    rclk_.assign(locations * threads, 0);
    wpos_.assign(locations * threads, 0);
    rpos_.assign(locations * threads, 0);
    accesses_ = 0;
    races_ = 0;
    first_.reset();
}

void race_detector::flag(std::size_t loc, std::size_t prior_thread,
                         bool prior_is_write, std::uint64_t prior_pos,
                         std::size_t thread, bool is_write) {
    ++races_;
    if (first_.has_value()) return;
    race_report r;
    r.location = static_cast<std::uint32_t>(loc);
    r.first_thread = static_cast<std::int16_t>(prior_thread);
    r.second_thread = static_cast<std::int16_t>(thread);
    r.first_is_write = prior_is_write;
    r.second_is_write = is_write;
    r.first_pos = prior_pos;
    r.second_pos = accesses_;
    first_ = std::move(r);
}

void race_detector::on_access(std::size_t thread, std::size_t location,
                              bool is_write, sync_class cls) {
    check(thread < threads_ && location < locations_,
          "race_detector::on_access: thread or location out of range");
    ++accesses_;
    const std::size_t base = location * threads_;
    switch (cls) {
        case sync_class::relaxed:
            // Atomic but non-synchronizing: never a data race, never an
            // ordering edge. Counted and done.
            return;
        case sync_class::sync: {
            if (is_write) {
                // Release store: publish this thread's clock as the
                // location's sync clock, then advance the local epoch so
                // later accesses are ordered after the store.
                for (std::size_t u = 0; u < threads_; ++u) {
                    rel_[base + u] = vc(thread, u);
                }
                ++vc(thread, thread);
            } else {
                // Acquire load: join the clock published by the (last)
                // store this load reads from.
                for (std::size_t u = 0; u < threads_; ++u) {
                    vc(thread, u) = std::max(vc(thread, u), rel_[base + u]);
                }
            }
            return;
        }
        case sync_class::lock_region:
            // Entering the region joins the lock clock: this access is
            // ordered after every earlier lock_region access.
            for (std::size_t u = 0; u < threads_; ++u) {
                vc(thread, u) = std::max(vc(thread, u), lck_[u]);
            }
            break;  // then the plain conflict check below
        case sync_class::plain:
            break;
    }

    // Plain access: conflicting accesses by other threads must already be
    // ordered before this one (their recorded clock entry covered by OUR
    // view of their clock).
    for (std::size_t u = 0; u < threads_; ++u) {
        if (u == thread) continue;
        if (wclk_[base + u] > vc(thread, u)) {
            flag(location, u, true, wpos_[base + u], thread, is_write);
            break;
        }
        if (is_write && rclk_[base + u] > vc(thread, u)) {
            flag(location, u, false, rpos_[base + u], thread, is_write);
            break;
        }
    }
    if (is_write) {
        wclk_[base + thread] = vc(thread, thread);
        wpos_[base + thread] = accesses_;
    } else {
        rclk_[base + thread] = vc(thread, thread);
        rpos_[base + thread] = accesses_;
    }
    if (cls == sync_class::lock_region) {
        // Leaving the region publishes into the lock clock (release) and
        // advances the local epoch, ordering later region entries after us.
        for (std::size_t u = 0; u < threads_; ++u) {
            lck_[u] = std::max(lck_[u], vc(thread, u));
        }
        ++vc(thread, thread);
    }
}

void race_detector::fingerprint(std::vector<std::uint64_t>& out) const {
    out.reserve(out.size() + 1 +
                (vc_.size() + rel_.size() + wclk_.size() + rclk_.size() + 1) /
                    2);
    // Tag word guards against a detector digest aliasing other state.
    out.push_back(0x4ace0000ULL | (races_ > 0 ? 1ULL : 0ULL));
    auto emit = [&out](const std::vector<std::uint32_t>& v) {
        std::uint64_t acc = 0;
        bool half = false;
        for (std::uint32_t w : v) {
            if (!half) {
                acc = w;
                half = true;
            } else {
                out.push_back(acc << 32 | w);
                half = false;
            }
        }
        if (half) out.push_back(acc << 32 | 0xffffffffULL);
    };
    emit(vc_);
    emit(rel_);
    emit(lck_);
    emit(wclk_);
    emit(rclk_);
}

}  // namespace bloom87::analysis
