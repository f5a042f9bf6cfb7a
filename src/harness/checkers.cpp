#include "harness/checkers.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>

#include "analysis/contracts.hpp"
#include "analysis/lockset.hpp"
#include "analysis/race_detector.hpp"
#include "linearizability/bloom_linearizer.hpp"
#include "linearizability/exhaustive.hpp"
#include "linearizability/fast_register.hpp"
#include "linearizability/monitor.hpp"
#include "linearizability/regularity.hpp"

namespace bloom87::harness {
namespace {

using steady = std::chrono::steady_clock;

[[nodiscard]] double ms_since(steady::time_point t0) {
    return std::chrono::duration<double, std::milli>(steady::now() - t0)
        .count();
}

/// Exhaustive search is sound only up to this many operations.
constexpr std::size_t exhaustive_limit = 62;

[[nodiscard]] std::size_t writing_processors(const history& h) {
    std::set<processor_id> procs;
    for (const operation& op : h.ops) {
        if (op.kind == op_kind::write) procs.insert(op.id.processor);
    }
    return procs.size();
}

[[nodiscard]] bool has_real_accesses(const history& h) {
    for (const event& e : h.gamma) {
        if (is_real(e.kind)) return true;
    }
    return false;
}

/// True when the log carries real accesses to the two BASE registers
/// (reg 0/1). The Bloom linearizer consumes exactly those; net/ logs
/// carry per-server real accesses at reg >= 2 instead, which it cannot
/// interpret.
[[nodiscard]] bool has_base_real_accesses(const history& h) {
    for (const event& e : h.gamma) {
        if (is_real(e.kind) && e.reg <= 1) return true;
    }
    return false;
}

/// Replays the external schedule through the runtime monitor, exactly as an
/// application embedding it would: one port per processor, begin/end around
/// every operation, abandon() when a processor recovered from a crash.
[[nodiscard]] monitor_verdict replay_monitor(const history& h,
                                             value_t initial) {
    atomicity_monitor mon(initial, h.gamma.size() + 16);
    std::map<processor_id, atomicity_monitor::port> ports;
    for (const event& e : h.gamma) {
        if (is_real(e.kind)) continue;
        auto it = ports.find(e.processor);
        if (it == ports.end()) {
            it = ports.emplace(e.processor, mon.make_port(e.processor)).first;
        }
        atomicity_monitor::port& port = it->second;
        switch (e.kind) {
            case event_kind::sim_invoke_write:
                port.abandon();  // no-op unless the last op crashed
                port.begin_write(e.value);
                break;
            case event_kind::sim_invoke_read:
                port.abandon();
                port.begin_read();
                break;
            case event_kind::sim_respond_write:
                port.end_write();
                break;
            case event_kind::sim_respond_read:
                port.end_read(e.value);
                break;
            default:
                break;
        }
    }
    return mon.verify();
}

check_verdict run_one(checker_kind kind, const history& h, value_t initial,
                      const std::string& register_name) {
    check_verdict v;
    v.kind = kind;
    const steady::time_point t0 = steady::now();
    switch (kind) {
        case checker_kind::bloom: {
            if (!has_base_real_accesses(h)) {
                v.skip_reason =
                    "needs base-register (reg 0/1) real accesses (record "
                    "through bloom/recording)";
                return v;
            }
            const bloom_result r = bloom_linearize(h);
            v.ran = true;
            v.pass = r.ok() && r.atomic;
            if (!v.pass) {
                v.diagnosis = r.defect.has_value() ? *r.defect : r.diagnosis;
            }
            v.impotent_writes = r.impotent_count;
            v.potent_writes = r.potent_count;
            v.reads_of_potent = r.reads_of_potent;
            v.reads_of_impotent = r.reads_of_impotent;
            v.reads_of_initial = r.reads_of_initial;
            break;
        }
        case checker_kind::fast: {
            fast_checker checker;
            const fast_check_result r = checker.check(h.ops, initial);
            v.ran = true;
            v.pass = r.ok() && r.linearizable;
            if (!v.pass) v.diagnosis = r.failure();
            break;
        }
        case checker_kind::exhaustive: {
            if (h.ops.size() > exhaustive_limit) {
                v.skip_reason = "history has " + std::to_string(h.ops.size()) +
                                " ops (exhaustive limit " +
                                std::to_string(exhaustive_limit) + ")";
                return v;
            }
            const exhaustive_result r = check_exhaustive(h.ops, initial);
            v.ran = true;
            v.pass = r.ok() && r.linearizable;
            if (!v.pass && r.defect.has_value()) v.diagnosis = *r.defect;
            else if (!v.pass) v.diagnosis = "no linearization found";
            break;
        }
        case checker_kind::monitor: {
            const monitor_verdict r = replay_monitor(h, initial);
            v.ran = true;
            v.pass = r.atomic;
            if (!v.pass) v.diagnosis = r.diagnosis;
            break;
        }
        case checker_kind::race: {
            // The detector needs to know how the register class the log came
            // from synchronizes its real accesses: the registry name selects
            // the declared contract (src/analysis/contracts.cpp).
            if (register_name.empty()) {
                v.skip_reason =
                    "needs the recorded register's registry name to select "
                    "its declared synchronization contract";
                return v;
            }
            const analysis::registry_contract* rc =
                analysis::find_registry_contract(register_name);
            if (rc == nullptr) {
                v.skip_reason = "register '" + register_name +
                                "' declares no synchronization contract";
                return v;
            }
            if (!has_real_accesses(h)) {
                v.skip_reason =
                    "needs real-register accesses (record through "
                    "bloom/recording)";
                return v;
            }
            v.contract = analysis::sync_class_name(rc->blanket);
            // Dense thread ids: gamma carries sparse processor ids.
            std::map<processor_id, std::size_t> threads;
            std::size_t locations = 0;
            for (const event& e : h.gamma) {
                if (!is_real(e.kind)) continue;
                threads.emplace(e.processor, threads.size());
                locations = std::max(locations,
                                     static_cast<std::size_t>(e.reg) + 1);
            }
            // Hybrid replay: happens-before and the lockset second opinion
            // both consume the same feed; each location's class (and, for
            // guarded plain sites, its declared guard set) comes from the
            // composition's per-site contract.
            analysis::race_detector hb(threads.size(), locations);
            analysis::lockset_detector ls(threads.size(), locations);
            for (std::size_t loc = 0; loc < locations; ++loc) {
                const std::uint64_t guards =
                    rc->guards_of(static_cast<std::uint8_t>(loc));
                if (guards != 0) ls.set_guards(loc, guards);
            }
            for (const event& e : h.gamma) {
                if (!is_real(e.kind)) continue;
                const analysis::sync_class cls = rc->class_of(e.reg);
                const std::size_t t = threads.at(e.processor);
                const bool w = e.kind == event_kind::real_write;
                hb.on_access(t, e.reg, w, cls);
                ls.on_access(t, e.reg, w, cls);
            }
            v.ran = true;
            v.races = static_cast<std::size_t>(hb.races());
            v.accesses_checked = static_cast<std::size_t>(hb.accesses());
            v.lockset_warnings = static_cast<std::size_t>(ls.warnings());
            v.lockset_divergences = static_cast<std::size_t>(ls.divergences());
            const bool hb_pass = hb.races() == 0;
            v.lockset_pass = !ls.first_violation().has_value();
            v.pass = hb_pass && v.lockset_pass;
            v.agreement = hb_pass && v.lockset_pass    ? "both_certify"
                          : !hb_pass && !v.lockset_pass ? "both_flag"
                          : !hb_pass                    ? "hb_only"
                                                        : "lockset_only";
            if (!hb_pass && hb.first_race().has_value()) {
                v.diagnosis = hb.first_race()->describe("register");
            }
            if (!v.lockset_pass && ls.first_violation().has_value()) {
                v.lockset_diagnosis =
                    ls.first_violation()->describe("register");
                if (v.diagnosis.empty()) v.diagnosis = v.lockset_diagnosis;
            }
            if (ls.first_divergence().has_value()) {
                v.divergence = ls.first_divergence()->describe("register");
            }
            break;
        }
        case checker_kind::regular:
        case checker_kind::safe: {
            if (writing_processors(h) > 1) {
                v.skip_reason = "regularity/safety are single-writer notions";
                return v;
            }
            const regularity_result r = kind == checker_kind::regular
                                            ? check_regular_swmr(h.ops, initial)
                                            : check_safe_swmr(h.ops, initial);
            v.ran = true;
            v.pass = r.regular;
            if (!v.pass) v.diagnosis = r.diagnosis;
            break;
        }
    }
    v.millis = ms_since(t0);
    return v;
}

}  // namespace

std::string checker_name(checker_kind k) {
    switch (k) {
        case checker_kind::bloom: return "bloom";
        case checker_kind::fast: return "fast";
        case checker_kind::exhaustive: return "exhaustive";
        case checker_kind::monitor: return "monitor";
        case checker_kind::regular: return "regular";
        case checker_kind::safe: return "safe";
        case checker_kind::race: return "race";
    }
    return "?";
}

std::optional<checker_kind> parse_checker(std::string_view name) {
    if (name == "bloom") return checker_kind::bloom;
    if (name == "fast") return checker_kind::fast;
    if (name == "exhaustive") return checker_kind::exhaustive;
    if (name == "monitor") return checker_kind::monitor;
    if (name == "regular") return checker_kind::regular;
    if (name == "safe") return checker_kind::safe;
    if (name == "race") return checker_kind::race;
    return std::nullopt;
}

std::optional<std::vector<checker_kind>> parse_checker_list(
    std::string_view list, std::string* error) {
    std::vector<checker_kind> kinds;
    if (list.empty() || list == "none") return kinds;
    std::size_t start = 0;
    while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string_view name =
            list.substr(start, comma == std::string_view::npos
                                   ? std::string_view::npos
                                   : comma - start);
        const std::optional<checker_kind> k = parse_checker(name);
        if (!k.has_value()) {
            if (error != nullptr) {
                *error = "unknown checker '" + std::string(name) +
                         "' (bloom, fast, exhaustive, monitor, regular, "
                         "safe, race, none)";
            }
            return std::nullopt;
        }
        kinds.push_back(*k);
        if (comma == std::string_view::npos) break;
        start = comma + 1;
    }
    return kinds;
}

pipeline_result run_checkers(const std::vector<event>& events, value_t initial,
                             const std::vector<checker_kind>& kinds,
                             const std::string& register_name) {
    pipeline_result out;
    parse_result parsed = parse_history(events, initial);
    if (!parsed.ok()) {
        out.parse_error = parsed.error->message + " (gamma position " +
                          std::to_string(parsed.error->position) + ")";
        return out;
    }
    out.parsed = true;
    out.operations = parsed.hist.ops.size();
    out.verdicts.reserve(kinds.size());
    for (const checker_kind k : kinds) {
        out.verdicts.push_back(run_one(k, parsed.hist, initial, register_name));
    }
    return out;
}

}  // namespace bloom87::harness
