#include "histories/serialize.hpp"

#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

#include "util/parse.hpp"

namespace bloom87 {
namespace {

const std::map<std::string, event_kind>& kind_names() {
    static const std::map<std::string, event_kind> names{
        {"R_start", event_kind::sim_invoke_read},
        {"R_finish", event_kind::sim_respond_read},
        {"W_start", event_kind::sim_invoke_write},
        {"W_finish", event_kind::sim_respond_write},
        {"real_read", event_kind::real_read},
        {"real_write", event_kind::real_write},
    };
    return names;
}

std::string name_of(event_kind k) {
    for (const auto& [name, kind] : kind_names()) {
        if (kind == k) return name;
    }
    return "?";
}

}  // namespace

void write_gamma(std::ostream& os, const std::vector<event>& gamma,
                 value_t initial) {
    os << "gamma v1 initial=" << initial << "\n";
    for (const event& e : gamma) {
        os << name_of(e.kind) << " proc=" << e.processor << " op=" << e.op;
        if (is_real(e.kind)) {
            os << " reg=" << int(e.reg) << " tag=" << int(e.tag)
               << " value=" << e.value;
            if (e.kind == event_kind::real_read) {
                os << " observed=";
                if (e.observed_write == no_event) {
                    os << "initial";
                } else {
                    os << e.observed_write;
                }
            }
        } else {
            os << " value=" << e.value;
        }
        os << "\n";
    }
}

gamma_parse_result read_gamma(std::istream& is) {
    gamma_parse_result out;
    std::string line;
    std::size_t line_no = 0;
    bool header_seen = false;

    auto fail = [&](const std::string& msg) {
        out.error = "line " + std::to_string(line_no) + ": " + msg;
        return out;
    };

    while (std::getline(is, line)) {
        ++line_no;
        // Strip comments and whitespace-only lines.
        if (const auto hash = line.find('#'); hash != std::string::npos) {
            line.erase(hash);
        }
        std::istringstream ls(line);
        std::string word;
        if (!(ls >> word)) continue;

        if (!header_seen) {
            if (word != "gamma") return fail("expected 'gamma v1' header");
            std::string version;
            if (!(ls >> version) || version != "v1") {
                return fail("unsupported gamma version");
            }
            std::string field;
            while (ls >> field) {
                if (!field.starts_with("initial=")) continue;
                if (!parse_number(std::string_view(field).substr(8),
                                  &out.initial)) {
                    return fail("bad number in field '" + field + "'");
                }
            }
            header_seen = true;
            continue;
        }

        const auto kind_it = kind_names().find(word);
        if (kind_it == kind_names().end()) {
            return fail("unknown event kind '" + word + "'");
        }
        event e;
        e.kind = kind_it->second;
        std::string field;
        while (ls >> field) {
            const auto eq = field.find('=');
            if (eq == std::string::npos) {
                return fail("malformed field '" + field + "'");
            }
            const std::string key = field.substr(0, eq);
            const std::string_view val = std::string_view(field).substr(eq + 1);
            // Each field parses whole into its own type, in range.
            bool ok = false;
            if (key == "proc") {
                ok = parse_number(val, &e.processor) && e.processor >= 0;
            } else if (key == "op") {
                ok = parse_number(val, &e.op);
            } else if (key == "reg") {
                ok = parse_number(val, &e.reg);
            } else if (key == "tag") {
                std::uint8_t tag = 0;
                ok = parse_number(val, &tag) && tag <= 1;
                e.tag = tag == 1;
            } else if (key == "value") {
                ok = parse_number(val, &e.value);
            } else if (key == "observed") {
                e.observed_write = no_event;
                ok = val == "initial" || parse_number(val, &e.observed_write);
            } else {
                return fail("unknown field '" + key + "'");
            }
            if (!ok) return fail("bad number in field '" + field + "'");
        }
        out.gamma.push_back(e);
    }
    if (!header_seen) {
        line_no = 0;
        return fail("empty input (no gamma header)");
    }
    return out;
}

}  // namespace bloom87
