#include "analysis/mo_lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <fstream>
#include <sstream>

namespace bloom87::analysis {
namespace {

constexpr std::array<std::string_view, 7> member_ops = {
    "load",
    "store",
    "exchange",
    "fetch_add",
    "fetch_sub",
    "compare_exchange_weak",
    "compare_exchange_strong",
};

[[nodiscard]] bool ident_char(char c) noexcept {
    return (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_';
}

/// Strength rank of a memory order; used only to phrase WEAKENED findings.
[[nodiscard]] int order_rank(std::string_view order) noexcept {
    if (order == "relaxed") return 0;
    if (order == "consume") return 1;
    if (order == "acquire" || order == "release") return 2;
    if (order == "acq_rel") return 3;
    return 4;  // seq_cst
}

/// Splits a comma-separated order list ("acquire,relaxed").
[[nodiscard]] std::vector<std::string_view> split_orders(
    std::string_view orders) {
    std::vector<std::string_view> out;
    std::size_t start = 0;
    while (start <= orders.size()) {
        const std::size_t comma = orders.find(',', start);
        const std::string_view item = orders.substr(
            start,
            comma == std::string_view::npos ? std::string_view::npos
                                            : comma - start);
        if (!item.empty()) out.push_back(item);
        if (comma == std::string_view::npos) break;
        start = comma + 1;
    }
    return out;
}

/// 1-based line number of offset `pos` in `content`.
[[nodiscard]] std::size_t line_of(std::string_view content, std::size_t pos) {
    return 1 + static_cast<std::size_t>(
                   std::count(content.begin(),
                              content.begin() + static_cast<std::ptrdiff_t>(pos),
                              '\n'));
}

/// True when `pos` sits inside a // comment on its line.
[[nodiscard]] bool in_line_comment(std::string_view content, std::size_t pos) {
    const std::size_t bol = content.rfind('\n', pos);
    const std::size_t start = bol == std::string_view::npos ? 0 : bol + 1;
    const std::size_t slash = content.find("//", start);
    return slash != std::string_view::npos && slash < pos;
}

/// Receiver identifier ending just before `dot` (a '.' or the '-' of
/// "->"), with one trailing [subscript] stripped ("words_[i]." yields
/// "words_"). Empty when the receiver is not a simple identifier (e.g.
/// "ports[i].second.").
[[nodiscard]] std::string_view receiver_before(std::string_view content,
                                               std::size_t dot) {
    std::size_t end = dot;
    if (end > 0 && content[end - 1] == ']') {
        // Skip one balanced subscript.
        int depth = 0;
        std::size_t i = end;
        while (i > 0) {
            --i;
            if (content[i] == ']') ++depth;
            if (content[i] == '[') {
                --depth;
                if (depth == 0) break;
            }
        }
        if (depth != 0) return {};
        end = i;
    }
    std::size_t begin = end;
    while (begin > 0 && ident_char(content[begin - 1])) --begin;
    return content.substr(begin, end - begin);
}

/// Offset one past the ')' matching the '(' at `open`; npos if unmatched.
[[nodiscard]] std::size_t matching_paren(std::string_view content,
                                         std::size_t open) {
    int depth = 0;
    for (std::size_t i = open; i < content.size(); ++i) {
        if (content[i] == '(') ++depth;
        if (content[i] == ')') {
            --depth;
            if (depth == 0) return i + 1;
        }
    }
    return std::string_view::npos;
}

/// memory_order_* suffixes inside an argument span; empty = defaulted.
[[nodiscard]] std::vector<std::string_view> orders_in(std::string_view args) {
    std::vector<std::string_view> out;
    static constexpr std::string_view needle = "memory_order_";
    std::size_t pos = 0;
    while ((pos = args.find(needle, pos)) != std::string_view::npos) {
        std::size_t end = pos + needle.size();
        while (end < args.size() && ident_char(args[end])) ++end;
        out.push_back(args.substr(pos + needle.size(), end - pos - needle.size()));
        pos = end;
    }
    return out;
}

struct found_site {
    std::string_view object;
    std::string_view op;
    std::size_t line;
    std::vector<std::string_view> orders;  ///< empty = implicit seq_cst
};

[[nodiscard]] std::vector<found_site> scan(std::string_view content) {
    std::vector<found_site> sites;
    for (std::size_t pos = 0; pos < content.size(); ++pos) {
        // Fences first (no receiver).
        static constexpr std::string_view fence = "atomic_thread_fence(";
        if (content.compare(pos, fence.size(), fence) == 0) {
            if (in_line_comment(content, pos)) continue;
            const std::size_t open = pos + fence.size() - 1;
            const std::size_t close = matching_paren(content, open);
            if (close == std::string_view::npos) continue;
            found_site s;
            s.op = "fence";
            s.line = line_of(content, pos);
            s.orders = orders_in(content.substr(open, close - open));
            sites.push_back(std::move(s));
            pos = close - 1;
            continue;
        }
        // A member call through `.` or through a pointer's `->`.
        std::size_t name = pos + 1;
        if (content.compare(pos, 2, "->") == 0) {
            name = pos + 2;
        } else if (content[pos] != '.') {
            continue;
        }
        for (const std::string_view op : member_ops) {
            if (content.compare(name, op.size(), op) != 0) continue;
            const std::size_t open = name + op.size();
            if (open >= content.size() || content[open] != '(') continue;
            // Longest-match guard: ".load(" must not also match inside
            // ".fetch_add(" scans; ops are distinct prefixes except
            // compare_exchange_weak/strong, which differ after '('.
            if (in_line_comment(content, pos)) break;
            const std::string_view object = receiver_before(content, pos);
            if (object.empty()) break;  // not a simple receiver; skip
            const std::size_t close = matching_paren(content, open);
            if (close == std::string_view::npos) break;
            found_site s;
            s.object = object;
            s.op = op;
            s.line = line_of(content, pos);
            s.orders = orders_in(content.substr(open, close - open));
            sites.push_back(std::move(s));
            break;
        }
    }
    return sites;
}

void check_site(const found_site& site, const site_contract& contract,
                std::string_view file, std::vector<lint_finding>& out) {
    const std::vector<std::string_view> allowed =
        split_orders(contract.orders);
    int weakest_allowed = 4;
    for (const std::string_view a : allowed) {
        weakest_allowed = std::min(weakest_allowed, order_rank(a));
    }
    std::vector<std::string_view> orders = site.orders;
    const bool implicit = orders.empty();
    if (implicit) orders.push_back("seq_cst");
    for (const std::string_view order : orders) {
        if (std::find(allowed.begin(), allowed.end(), order) !=
            allowed.end()) {
            continue;
        }
        lint_finding f;
        f.file = std::string(file);
        f.line = site.line;
        f.object = std::string(site.object);
        f.op = std::string(site.op);
        f.order = std::string(order);
        f.message = std::string(site.object.empty() ? "fence" : site.object) +
                    (site.object.empty() ? "" : "." + f.op) + " uses " +
                    (implicit ? "implicit " : "") + "memory_order_" + f.order +
                    "; contract allows {" + std::string(contract.orders) + "}";
        if (order_rank(order) < weakest_allowed) {
            f.message += " -- WEAKENED order";
        }
        out.push_back(std::move(f));
    }
}

/// Declared-discipline / allowed-order consistency: the discipline a row
/// claims must be expressible by the orders it permits. Catches table rot
/// like a "relaxed statistics" row quietly allowing acquire, or a
/// lock-region row that never synchronizes.
void check_discipline(const site_contract& row, std::string_view file,
                      std::vector<lint_finding>& out) {
    const std::vector<std::string_view> allowed = split_orders(row.orders);
    const bool all_relaxed =
        std::all_of(allowed.begin(), allowed.end(),
                    [](std::string_view o) { return o == "relaxed"; });
    const bool any_syncing =
        std::any_of(allowed.begin(), allowed.end(), [](std::string_view o) {
            return o == "acquire" || o == "release" || o == "acq_rel" ||
                   o == "seq_cst";
        });
    std::string_view why;
    switch (row.discipline) {
        case site_discipline::plain_data:
            // Plain data has no atomic call sites at all; a site row
            // declaring it is self-contradictory.
            why = "plain_data sites cannot have atomic call-site rows";
            break;
        case site_discipline::relaxed_stat:
            if (!all_relaxed) why = "relaxed_stat must allow only relaxed";
            break;
        case site_discipline::guarded:
            if (!all_relaxed) {
                why = "guarded data must stay relaxed (guards synchronize)";
            }
            break;
        case site_discipline::acq_rel:
        case site_discipline::seqlock_phase:
        case site_discipline::net_lock:
            if (!any_syncing) {
                why = "synchronizing discipline allows no syncing order";
            }
            break;
    }
    if (why.empty()) return;
    lint_finding f;
    f.file = std::string(file);
    f.object = std::string(row.object);
    f.op = std::string(row.op);
    f.message = "inconsistent contract row " +
                (f.object.empty() ? std::string("fence") : f.object) + "." +
                f.op + ": discipline " +
                std::string(site_discipline_name(row.discipline)) +
                " vs orders {" + std::string(row.orders) + "} -- " +
                std::string(why);
    out.push_back(std::move(f));
}

}  // namespace

std::vector<lint_finding> lint_source(std::string_view file,
                                      std::string_view content) {
    std::vector<lint_finding> out;
    const file_contract* fc = find_file_contract(file);
    if (fc == nullptr) {
        lint_finding f;
        f.file = std::string(file);
        f.message =
            "file is not in the contract table (src/analysis/contracts.cpp)";
        out.push_back(std::move(f));
        return out;
    }
    for (const site_contract& row : fc->sites) {
        check_discipline(row, file, out);
    }
    const std::vector<found_site> sites = scan(content);
    std::vector<std::size_t> matched(fc->sites.size(), 0);
    for (const found_site& site : sites) {
        const site_contract* row = nullptr;
        for (std::size_t i = 0; i < fc->sites.size(); ++i) {
            if (fc->sites[i].object == site.object &&
                fc->sites[i].op == site.op) {
                row = &fc->sites[i];
                ++matched[i];
                break;
            }
        }
        if (row == nullptr) {
            lint_finding f;
            f.file = std::string(file);
            f.line = site.line;
            f.object = std::string(site.object);
            f.op = std::string(site.op);
            f.message = "undeclared atomic call site " +
                        (site.object.empty() ? std::string("atomic_thread_fence")
                                             : f.object + "." + f.op) +
                        "() -- declare it in src/analysis/contracts.cpp";
            out.push_back(std::move(f));
            continue;
        }
        check_site(site, *row, file, out);
    }
    for (std::size_t i = 0; i < fc->sites.size(); ++i) {
        if (matched[i] != 0) continue;
        lint_finding f;
        f.file = std::string(file);
        f.object = std::string(fc->sites[i].object);
        f.op = std::string(fc->sites[i].op);
        f.message = "stale contract row " +
                    (f.object.empty() ? std::string("fence") : f.object) + "." +
                    f.op + ": no such call site in the file";
        out.push_back(std::move(f));
    }
    return out;
}

std::vector<lint_finding> lint_directory(const std::string& src_root) {
    std::vector<lint_finding> out;
    for (const file_contract& fc : register_contracts()) {
        const std::string path =
            src_root + "/" + std::string(fc.dir) + "/" + std::string(fc.file);
        std::ifstream in(path);
        if (!in) {
            lint_finding f;
            f.file = std::string(fc.file);
            f.message = "cannot read " + path;
            out.push_back(std::move(f));
            continue;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        const std::string content = buf.str();
        std::vector<lint_finding> file_findings =
            lint_source(fc.file, content);
        out.insert(out.end(),
                   std::make_move_iterator(file_findings.begin()),
                   std::make_move_iterator(file_findings.end()));
    }
    return out;
}

std::string format_findings(const std::vector<lint_finding>& findings) {
    std::string out;
    for (const lint_finding& f : findings) {
        out += f.file;
        if (f.line != 0) {
            out += ":";
            out += std::to_string(f.line);
        }
        out += ": ";
        out += f.message;
        out += "\n";
    }
    return out;
}

}  // namespace bloom87::analysis
