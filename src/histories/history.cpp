#include "histories/history.hpp"

#include <array>
#include <sstream>

namespace bloom87 {
namespace {

struct open_op {
    operation op;
    bool open{false};
};

}  // namespace

parse_result parse_history(std::vector<event> gamma, value_t initial_value) {
    parse_result result;
    result.hist.initial_value = initial_value;
    result.hist.gamma = std::move(gamma);
    const auto& g = result.hist.gamma;

    auto fail = [&](std::string msg, event_pos pos) {
        result.error = parse_error{std::move(msg), pos};
        return result;
    };

    // Per-processor currently open operation (input-correctness implies at
    // most one), plus last write position per real register for
    // observed_write validation.
    std::map<processor_id, open_op> open;
    std::array<event_pos, 2> last_real_write{no_event, no_event};

    for (event_pos pos = 0; pos < g.size(); ++pos) {
        const event& e = g[pos];
        switch (e.kind) {
            case event_kind::sim_invoke_read:
            case event_kind::sim_invoke_write: {
                auto& slot = open[e.processor];
                if (slot.open) {
                    // A new invocation while an operation never responded
                    // means the processor crashed mid-operation and
                    // recovered: record the old operation as pending.
                    // (An overlap with a *responding* op is caught below,
                    // because responses always close the slot.)
                    result.hist.index.emplace(slot.op.id, result.hist.ops.size());
                    result.hist.ops.push_back(slot.op);
                }
                slot.open = true;
                slot.op = operation{};
                slot.op.id = op_id{e.processor, e.op};
                slot.op.kind = e.kind == event_kind::sim_invoke_read ? op_kind::read
                                                                     : op_kind::write;
                slot.op.value = e.value;  // write argument; reads fill at response
                slot.op.invoked = pos;
                break;
            }
            case event_kind::sim_respond_read:
            case event_kind::sim_respond_write: {
                auto it = open.find(e.processor);
                if (it == open.end() || !it->second.open) {
                    return fail("response without a matching open invocation", pos);
                }
                operation& op = it->second.op;
                if (op.id.op != e.op) {
                    return fail("response op index does not match open invocation", pos);
                }
                const bool read_resp = e.kind == event_kind::sim_respond_read;
                if ((op.kind == op_kind::read) != read_resp) {
                    return fail("response kind does not match invocation kind", pos);
                }
                if (read_resp) op.value = e.value;
                op.responded = pos;
                result.hist.index.emplace(op.id, result.hist.ops.size());
                result.hist.ops.push_back(op);
                it->second.open = false;
                break;
            }
            case event_kind::real_read:
            case event_kind::real_write: {
                if (e.reg > 1) break;  // auxiliary register (net/ per-server
                                       // observer): kept in gamma for the race
                                       // checker, exempt from base-register
                                       // containment/observation validation.
                auto it = open.find(e.processor);
                if (it == open.end() || !it->second.open) {
                    return fail("real access outside any simulated operation", pos);
                }
                if (it->second.op.id.op != e.op) {
                    return fail("real access op index does not match its open operation",
                                pos);
                }
                if (e.kind == event_kind::real_write) {
                    last_real_write[e.reg] = pos;
                } else if (e.observed_write != no_event) {
                    if (e.observed_write >= pos) {
                        return fail("read observes a write at a later position", pos);
                    }
                    const event& w = g[e.observed_write];
                    if (w.kind != event_kind::real_write || w.reg != e.reg) {
                        return fail("read's observed_write is not a write to this register",
                                    pos);
                    }
                    if (last_real_write[e.reg] != e.observed_write) {
                        return fail("read does not observe the latest write", pos);
                    }
                } else if (last_real_write[e.reg] != no_event) {
                    return fail("read observes initial value after a write", pos);
                }
                it->second.op.real_accesses.push_back(pos);
                break;
            }
        }
    }

    // Crashed / pending operations: recorded with an invocation but no
    // response. They still participate in checking (a crashed write may or
    // may not have taken effect), so keep them.
    for (auto& [proc, slot] : open) {
        if (slot.open) {
            result.hist.index.emplace(slot.op.id, result.hist.ops.size());
            result.hist.ops.push_back(slot.op);
        }
    }
    return result;
}

std::string to_string(event_kind k) {
    switch (k) {
        case event_kind::sim_invoke_read: return "R_start";
        case event_kind::sim_respond_read: return "R_finish";
        case event_kind::sim_invoke_write: return "W_start";
        case event_kind::sim_respond_write: return "W_finish";
        case event_kind::real_read: return "real_read";
        case event_kind::real_write: return "real_write";
    }
    return "?";
}

std::string to_string(const event& e) {
    std::ostringstream oss;
    oss << to_string(e.kind) << " proc=" << e.processor << " op=" << e.op;
    if (is_real(e.kind)) {
        oss << " reg=" << int(e.reg) << " tag=" << int(e.tag) << " value=" << e.value;
        if (e.kind == event_kind::real_read) {
            if (e.observed_write == no_event) {
                oss << " observed=initial";
            } else {
                oss << " observed=" << e.observed_write;
            }
        }
    } else {
        oss << " value=" << e.value;
    }
    return oss.str();
}

std::string format_history(const history& h) {
    std::ostringstream oss;
    for (event_pos pos = 0; pos < h.gamma.size(); ++pos) {
        oss << pos << ": " << to_string(h.gamma[pos]) << "\n";
    }
    return oss.str();
}

std::string format_external_schedule(const history& h) {
    std::ostringstream oss;
    for (event_pos pos = 0; pos < h.gamma.size(); ++pos) {
        if (!is_real(h.gamma[pos].kind)) {
            oss << pos << ": " << to_string(h.gamma[pos]) << "\n";
        }
    }
    return oss.str();
}

}  // namespace bloom87
