#include "net/abd.hpp"

namespace bloom87::net {

abd_system::abd_system(const net_config& cfg, fault_plan* plan)
    : server_group(cfg, plan),
      writer_seq_(cfg.clients, 0),
      jitter_(cfg.bus.seed ^ 0x6a69747465726564ULL) {}

abd_system::phase_result abd_system::phase(std::size_t client, msg_kind kind,
                                           stamp ts, value_t v) {
    net_lock::scoped guard(lock_);
    phase_result res;
    res.value = cfg_.initial;
    bool first = true;  // no read_ack folded yet
    res.ok = round_trip(
        client, kind,
        [&](std::size_t s) {
            message m = request(s);
            m.ts = ts;
            m.value = v;
            bus_.send(m);
        },
        [&](std::size_t, const message& ack) {
            if (ack.kind != msg_kind::read_ack) return true;
            if (!first && ack.ts != res.ts) res.all_equal = false;
            if (first || res.ts < ack.ts) {
                res.ts = ack.ts;
                res.value = ack.value;
            }
            first = false;
            return true;
        },
        [this] { return quorum_acked(); }, quorum_give_up, &jitter_);
    return res;
}

void abd_system::bump_op(bool fast_path) {
    net_lock::scoped guard(lock_);
    ++bus_.counters().ops;
    if (fast_path) ++bus_.counters().fast_path_ops;
}

void abd_system::note_unavailable() {
    net_lock::scoped guard(lock_);
    ++bus_.counters().unavailable_ops;
}

std::optional<value_t> abd_system::read(std::size_t client,
                                        const pause_hook* pause) {
    const phase_result r1 = phase(client, msg_kind::read_req, {}, 0);
    if (pause != nullptr) (*pause)();
    if (!r1.ok) {
        note_unavailable();
        return std::nullopt;
    }
    const bool fast = r1.all_equal;
    if (!fast) {
        // Write the winner back so no later read can observe older.
        const phase_result r2 =
            phase(client, msg_kind::write_req, r1.ts, r1.value);
        if (!r2.ok) {
            note_unavailable();
            return std::nullopt;
        }
    }
    bump_op(fast);
    return r1.value;
}

bool abd_system::write(std::size_t client, value_t v,
                       const pause_hook* pause) {
    stamp ts;
    bool fast = false;
    if (cfg_.writers > 1) {
        const phase_result r1 = phase(client, msg_kind::read_req, {}, 0);
        if (!r1.ok) {
            note_unavailable();
            return false;
        }
        ts = {r1.ts.seq + 1, static_cast<std::uint32_t>(client)};
        if (pause != nullptr) (*pause)();
    } else {
        // SWMR fast path: the sole writer already knows the highest stamp
        // (its own) -- phase 1 is unnecessary, writes are one round.
        fast = true;
        if (pause != nullptr) (*pause)();
        ts = {++writer_seq_[client], static_cast<std::uint32_t>(client)};
    }
    const phase_result r2 = phase(client, msg_kind::write_req, ts, v);
    if (!r2.ok) {
        note_unavailable();
        return false;
    }
    bump_op(fast);
    return true;
}

}  // namespace bloom87::net
