#include "linearizability/zones.hpp"

#include <algorithm>

namespace bloom87 {

bool zone_judge::judge(std::span<const operation> raw, value_t initial) {
    if (norm_.run(raw, initial, true) != nullptr) return false;
    const std::vector<std::uint32_t>& kept = norm_.kept();
    const std::vector<std::uint32_t>& source = norm_.source();

    // Each cluster's f and s, at its write's position in kept(). The
    // initial cluster has only s0; 0 stands in for -infinity until its
    // value is read, as no f is below it.
    writes_.clear();
    first_resp_.assign(kept.size(), no_event);
    last_inv_.assign(kept.size(), 0);
    event_pos s0 = 0;
    for (std::uint32_t k = 0; k < kept.size(); ++k) {
        const operation& o = raw[kept[k]];
        const std::uint32_t c = source[k];
        if (c == normalizer::no_source) {
            s0 = std::max(s0, o.invoked);
            continue;
        }
        if (c == k) {
            writes_.push_back(k);
        } else if (o.responded < raw[kept[c]].invoked) {
            return false;  // (1)
        }
        first_resp_[c] = std::min(first_resp_[c], o.responded);
        last_inv_[c] = std::max(last_inv_[c], o.invoked);
    }

    // The forward zones, and the latest s with its runner-up, which the
    // last values are measured against.
    forward_.clear();
    event_pos top = s0;
    event_pos second = 0;
    std::uint32_t top_write = UINT32_MAX;  // none: the initial cluster's
    for (const std::uint32_t k : writes_) {
        const event_pos f = first_resp_[k];
        const event_pos s = last_inv_[k];
        if (f < s0) return false;  // (2)/(3) against the initial zone
        if (f < s) forward_.push_back({f, s});
        if (s > top) {
            second = top;
            top = s;
            top_write = k;
        } else {
            second = std::max(second, s);
        }
    }
    // Sorted by f, the forward zones pass (2) iff each ends before the
    // next begins.
    std::sort(forward_.begin(), forward_.end(),
              [](const zone& a, const zone& b) { return a.f < b.f; });
    for (std::size_t i = 1; i < forward_.size(); ++i) {
        if (forward_[i].f < forward_[i - 1].s) return false;  // (2)
    }

    // (3): of the disjoint forward zones, only the last one to begin before
    // a backward zone's s can contain it. A cursor finds it -- a stream
    // batch meets the backward zones in nearly ascending s -- and a step
    // back searches.
    last_.clear();
    std::size_t below = 0;  // forward_[0, below) begin before s
    for (const std::uint32_t k : writes_) {
        const event_pos f = first_resp_[k];
        const event_pos s = last_inv_[k];
        if (!(f < s)) {
            const auto begins_before = [&](const zone& z) { return z.f < s; };
            if (below > 0 && !begins_before(forward_[below - 1])) {
                below = static_cast<std::size_t>(
                    std::partition_point(forward_.begin(),
                                         forward_.begin() + below,
                                         begins_before) -
                    forward_.begin());
            }
            while (below < forward_.size() && begins_before(forward_[below])) {
                ++below;
            }
            if (below > 0 && f < forward_[below - 1].s) return false;
        }
        if (!(f < (k == top_write ? second : top))) {
            last_.push_back(raw[kept[k]].value);
        }
    }
    if (writes_.empty()) last_.push_back(initial);
    return true;
}

}  // namespace bloom87
