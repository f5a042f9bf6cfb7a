#include "ioa/executor.hpp"

#include <array>
#include <limits>
#include <map>
#include <string_view>

#include "ioa/protocol_automata.hpp"
#include "util/check.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace bloom87::ioa {

schedule run_fair(composition& system, std::uint64_t seed,
                  std::size_t max_steps) {
    rng gen(seed);
    schedule out;
    for (std::size_t step = 0; step < max_steps; ++step) {
        auto options = system.enabled();
        if (options.empty()) return out;
        auto& [owner, a] = options[gen.below(options.size())];
        system.apply(owner, a);
        out.push_back(scheduled_action{owner, std::move(a)});
    }
    // A truncated schedule returned as if the system had quiesced would
    // hand its caller an incomplete execution.
    check(system.enabled().empty(),
          "run_fair exceeded max_steps; the system does not quiesce");
    return out;
}

std::vector<action> external_schedule(const schedule& s) {
    std::vector<action> out;
    for (const scheduled_action& sa : s) {
        if (sa.act_taken.channel.starts_with("ext:")) {
            out.push_back(sa.act_taken);
        }
    }
    return out;
}

namespace {

/// The processor of a port name: "wr<k>" -> k, "rd<j>" -> 1+j. The number
/// runs to the end of `port` or to a "->" ("wr0->reg1").
processor_id port_processor(std::string_view port) {
    const bool writer = port.starts_with("wr");
    check(writer || port.starts_with("rd"),
          "channel names a wr<k> or rd<j> port");
    std::string_view digits = port.substr(2);
    digits = digits.substr(0, digits.find("->"));
    processor_id k = 0;
    check(parse_number(digits, &k) && k >= 0 &&
              k < std::numeric_limits<processor_id>::max(),
          "channel names a wr<k> or rd<j> port");
    return static_cast<processor_id>(writer ? k : 1 + k);
}

/// "ext:wr0" -> 0, "ext:rd<j>" -> 1+j.
processor_id processor_of_channel(std::string_view chan) {
    check(chan.starts_with("ext:"), "an external channel starts with ext:");
    return port_processor(chan.substr(4));
}

/// "rd3->reg1" -> 1: one of the two real registers.
std::uint8_t channel_register(std::string_view chan) {
    const std::size_t arrow = chan.find("->reg");
    std::uint8_t reg = 0;
    check(arrow != std::string_view::npos &&
              parse_number(chan.substr(arrow + 5), &reg) && reg < 2,
          "a register channel names reg0 or reg1");
    return reg;
}

}  // namespace

std::vector<operation> external_history(const schedule& s) {
    std::vector<operation> out;
    std::map<std::string, std::size_t> open;  // channel -> index in out
    std::map<std::string, op_index> counters;
    event_pos clock = 0;
    for (const scheduled_action& sa : s) {
        const action& a = sa.act_taken;
        if (!a.channel.starts_with("ext:")) {
            ++clock;  // internal progress still advances time
            continue;
        }
        if (is_request(a.kind)) {
            operation op;
            op.id = op_id{processor_of_channel(a.channel), counters[a.channel]++};
            op.kind = a.kind == act::write_request ? op_kind::write : op_kind::read;
            op.value = a.value;
            op.invoked = clock++;
            open[a.channel] = out.size();
            out.push_back(op);
        } else if (is_ack(a.kind)) {
            auto it = open.find(a.channel);
            check(it != open.end(), "an acknowledgment follows its request");
            operation& op = out[it->second];
            if (op.kind == op_kind::read) op.value = a.value;
            op.responded = clock++;
            open.erase(it);
        }
    }
    return out;
}

std::vector<event> to_gamma(const schedule& s) {
    std::vector<event> out;
    // Per-processor simulated-op counters (bumped on each external request)
    // and per-register last-write positions for observed_write.
    std::map<processor_id, op_index> op_counter;
    std::map<processor_id, op_index> current_op;
    std::array<event_pos, 2> last_write{no_event, no_event};

    for (const scheduled_action& sa : s) {
        const action& a = sa.act_taken;
        if (a.channel.starts_with("ext:")) {
            if (!is_request(a.kind) && !is_ack(a.kind)) continue;
            event e;
            const processor_id proc = processor_of_channel(a.channel);
            e.processor = proc;
            if (is_request(a.kind)) {
                current_op[proc] = op_counter[proc]++;
                e.kind = a.kind == act::write_request
                             ? event_kind::sim_invoke_write
                             : event_kind::sim_invoke_read;
                e.value = a.kind == act::write_request ? a.value : 0;
            } else {
                e.kind = a.kind == act::write_ack ? event_kind::sim_respond_write
                                                  : event_kind::sim_respond_read;
                e.value = a.kind == act::read_ack ? a.value : 0;
            }
            e.op = current_op[proc];
            out.push_back(e);
        } else if (is_star(a.kind) && a.channel.find("->reg") != std::string::npos) {
            event e;
            e.processor = port_processor(a.channel);
            e.op = current_op[e.processor];
            e.reg = channel_register(a.channel);
            // Register channels carry tagged values encoded as value*2+tag.
            e.tag = decode_tagged_bit(a.value);
            e.value = decode_tagged_value(a.value);
            if (a.kind == act::star_write) {
                e.kind = event_kind::real_write;
                last_write[e.reg] = out.size();
            } else {
                e.kind = event_kind::real_read;
                e.observed_write = last_write[e.reg];
            }
            out.push_back(e);
        }
    }
    return out;
}

}  // namespace bloom87::ioa
