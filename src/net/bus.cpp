#include "net/bus.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace bloom87::net {

bus::bus(bus_owner& owner, std::size_t nodes, const bus_config& cfg,
         node_id server_lo, std::size_t max_server_crashes, fault_plan* plan)
    : owner_(owner),
      nodes_(nodes),
      cfg_(cfg),
      server_lo_(server_lo),
      max_server_crashes_(max_server_crashes),
      plan_(plan),
      gen_(cfg.seed),
      channel_next_(nodes * nodes, 0),
      crashed_(nodes, false),
      recovering_(nodes, false),
      incarnation_(nodes, 0),
      crash_tick_(nodes, 0) {
    check(server_lo_ <= nodes_, "bus: first server id past the node count");
    if (plan_ != nullptr && plan_->spec().crash_budget > 0) {
        // Deliberate over-budget experiments (the driver's op deadline turns
        // the resulting quorum loss into `unavailable`, not a hang).
        max_server_crashes_ = plan_->spec().crash_budget;
    }
}

void bus::enqueue(const message& m, std::uint64_t extra_delay) {
    const std::uint64_t not_before = tick_ + extra_delay;
    ripe_at_ = std::max(ripe_at_, not_before);
    flight_.push_back(
        {m, not_before, channel_next_[channel(m.src, m.dst)]++});
}

void bus::send(message m) {
    ++counters_.sent;
    m.src_inc = incarnation_[m.src];
    m.dst_inc = incarnation_[m.dst];
    if (crashed_[m.dst]) {
        // Addressed to a halted node: it will never be consumed, so it does
        // not even enter flight (a dead letter, counted as lost).
        ++counters_.lost;
        return;
    }
    std::uint64_t delay = 0;
    if (cfg_.delay_num != 0 && gen_.chance(cfg_.delay_num, cfg_.delay_den)) {
        delay = cfg_.delay_steps;
        ++counters_.delayed;
    }
    if (cfg_.loss_num != 0 && gen_.chance(cfg_.loss_num, cfg_.loss_den)) {
        ++counters_.lost;
        return;
    }
    enqueue(m, delay);
    if (cfg_.dup_num != 0 && gen_.chance(cfg_.dup_num, cfg_.dup_den)) {
        ++counters_.duplicated;
        enqueue(m, delay);  // the duplicate takes the NEXT channel slot
    }
}

bool bus::apply_plan(pending& p) {
    if (plan_ == nullptr || !plan_->spec().active()) return true;
    fault_plan::scoped_lock guard(*plan_);
    switch (plan_->trigger_any()) {
        case fault_class::lost_write:
            plan_->note(fault_class::lost_write);
            ++counters_.lost;
            return false;
        case fault_class::delayed_visibility:
            plan_->note(fault_class::delayed_visibility);
            ++counters_.delayed;
            // Re-park under its ORIGINAL channel slot, so FIFO channels
            // stay FIFO: everything behind it waits too.
            p.not_before = tick_ + plan_->spec().delay_accesses;
            ripe_at_ = std::max(ripe_at_, p.not_before);
            flight_.push_back(p);
            return false;
        case fault_class::torn_value: {
            if (!carries_value(p.m.kind)) return true;
            plan_->note(fault_class::torn_value);
            auto mask = static_cast<value_t>(plan_->generator()());
            if (mask == 0) mask = 1;
            p.m.value ^= mask;
            return true;
        }
        case fault_class::stale_read:
            if (p.m.kind != msg_kind::read_req) return true;
            plan_->note(fault_class::stale_read);
            p.m.stale = true;
            return true;
        case fault_class::port_crash:
            // In net-land the crashing "port" is a SERVER, and the crash
            // budget keeps a live quorum: this is the fault class ABD is
            // built to tolerate.
            if (!is_server(p.m.dst) ||
                crashed_servers_ >= max_server_crashes_) {
                return true;
            }
            plan_->note(fault_class::port_crash);
            crash(p.m.dst);
            ++counters_.lost;  // this message dies with its destination
            return false;
        case fault_class::none:
            return true;
    }
    return true;
}

bool bus::pump_one() {
    ++tick_;
    if (crashed_servers_ != 0) maybe_recover();
    if (flight_.empty()) return false;
    std::size_t idx = 0;
    if (!cfg_.fifo && tick_ >= ripe_at_) {
        // Nothing is parked, so every message in flight is deliverable: the
        // scan below would build the identity map, and this is its draw.
        idx = static_cast<std::size_t>(gen_.below(flight_.size()));
    } else {
        pick_.clear();
        if (cfg_.fifo) {
            // Deliverable = ripe channel heads. A delay-parked head blocks
            // its whole channel (that is what FIFO means). O(flight^2)
            // scan; flights stay small (a few requests per open phase).
            for (std::size_t i = 0; i < flight_.size(); ++i) {
                const pending& p = flight_[i];
                if (p.not_before > tick_) continue;
                bool head = true;
                for (std::size_t j = 0; j < flight_.size(); ++j) {
                    if (j != i && flight_[j].m.src == p.m.src &&
                        flight_[j].m.dst == p.m.dst &&
                        flight_[j].channel_seq < p.channel_seq) {
                        head = false;
                        break;
                    }
                }
                if (head) pick_.push_back(i);
            }
        } else {
            for (std::size_t i = 0; i < flight_.size(); ++i) {
                if (flight_[i].not_before <= tick_) pick_.push_back(i);
            }
        }
        if (pick_.empty()) return false;
        idx = pick_[gen_.below(pick_.size())];
    }
    pending p = flight_[idx];
    flight_[idx] = flight_.back();
    flight_.pop_back();
    if (crashed_[p.m.dst]) {
        ++counters_.lost;
        return true;  // consumed a dead letter: still progress
    }
    if (p.m.dst_inc != incarnation_[p.m.dst]) {
        // Addressed to a previous incarnation of a since-recovered node:
        // that process no longer exists, so the message is rejected.
        ++counters_.stale_inc_drops;
        ++counters_.lost;
        return true;
    }
    if (!apply_plan(p)) return true;
    ++counters_.delivered;
    owner_.deliver(p.m);
    return true;
}

void bus::crash(node_id node) {
    if (crashed_[node]) return;
    crashed_[node] = true;
    crash_tick_[node] = tick_;
    if (is_server(node)) {
        if (recovering_[node]) {
            // Re-crashed mid-catch-up: the budget already counts it.
            recovering_[node] = false;
        } else {
            ++crashed_servers_;
        }
        ++counters_.server_crashes;
    }
}

bool bus::node_crashed(node_id node) const { return crashed_[node]; }

void bus::recover(node_id node) {
    check(crashed_[node], "bus::recover: only a crashed node can recover");
    crashed_[node] = false;
    recovering_[node] = true;  // budget still counts it (see bus.hpp)
    ++incarnation_[node];
}

void bus::recovery_complete(node_id node) {
    if (!recovering_[node]) return;
    recovering_[node] = false;
    if (is_server(node) && crashed_servers_ > 0) --crashed_servers_;
    ++counters_.recoveries;
}

void bus::abort_recovery(node_id node) {
    if (!recovering_[node]) return;
    recovering_[node] = false;
    crashed_[node] = true;  // back to crash-stop; the budget never freed
}

void bus::maybe_recover() {
    if (recovery_active_ || plan_ == nullptr) return;
    const std::uint64_t after = plan_->spec().recover_after;
    if (after == 0) return;
    for (node_id n = server_lo_; n < nodes_; ++n) {
        if (!crashed_[n] || recovering_[n]) continue;
        if (tick_ - crash_tick_[n] < after) continue;
        // One recovery at a time: the safety argument (docs/NET.md) needs
        // every OTHER crashed slot still counted while this one catches up.
        recovery_active_ = true;
        owner_.rejoin(n);
        recovery_active_ = false;
        return;
    }
}

}  // namespace bloom87::net
