#include "modelcheck/explorer.hpp"

#include <sstream>
#include <utility>

#include "modelcheck/por.hpp"
#include "modelcheck/verdicts.hpp"

namespace bloom87::mc {
namespace {

/// The history-only fingerprint keying verdict memoization.
void history_fingerprint(const std::vector<operation>& hist,
                         std::vector<std::uint64_t>& fp) {
    fp.clear();
    fp.reserve(hist.size() * 4);
    for (const operation& o : hist) {
        fp.push_back((static_cast<std::uint64_t>(
                          static_cast<std::uint16_t>(o.id.processor))
                      << 40) |
                     (static_cast<std::uint64_t>(o.id.op) << 8) |
                     static_cast<std::uint64_t>(o.kind));
        fp.push_back(static_cast<std::uint64_t>(o.value));
        fp.push_back(o.invoked);
        fp.push_back(o.responded);
    }
}

/// A state whose expansion is in progress: already counted and memoized,
/// with the not-yet-taken (process, choice) moves, taken front to back.
struct branch_node {
    sim_state state;
    std::vector<std::uint32_t> moves;  ///< (proc << 16) | choice, DFS order
    std::size_t next{0};
};

class explore_engine {
public:
    explicit explore_engine(const explore_config& cfg) : cfg_(cfg) {
        fp_.reserve(256);
    }

    explore_result run(const sim_state& initial) {
        // The root itself may resolve to a leaf or a forced chain; then
        // there is no branching work at all.
        std::vector<branch_node> stack;
        if (auto node = visit(sim_state(initial))) {
            stack.push_back(std::move(*node));
        }
        while (!stack.empty() && !stop_) {
            branch_node& top = stack.back();
            const std::uint32_t move = top.moves[top.next++];
            const auto proc = static_cast<std::size_t>(move >> 16);
            const int choice = static_cast<int>(move & 0xffff);
            sim_state child = [&] {
                if (top.next == top.moves.size()) {
                    // Last branch: consume the parent state by move.
                    sim_state s = std::move(top.state);
                    stack.pop_back();
                    return s;
                }
                return sim_state(top.state);
            }();
            child.set_acting(static_cast<std::int16_t>(proc));
            child.procs[proc]->step(child, choice);
            if (auto node = visit(std::move(child))) {
                stack.push_back(std::move(*node));
            }
        }
        // first_violation_reduced stays false: this engine records raw
        // explored schedules. reduction stays disengaged.
        out_.memory.memo_entries = visited_.size();
        out_.memory.memo_bytes = visited_.bytes();
        out_.memory.bytes_per_state =
            out_.memory.memo_entries == 0
                ? 0
                : out_.memory.memo_bytes / out_.memory.memo_entries;
        out_.memory.history_entries = checked_histories_.size();
        return std::move(out_);
    }

private:
    /// Counts a freshly generated state against the budget. True = the
    /// exploration is over.
    bool over_budget() {
        if (++out_.states_explored <= cfg_.max_states) return false;
        out_.truncated = true;
        stop_ = true;
        return true;
    }

    /// Counts a violation; the first one's history is the trace.
    void record_violation(const sim_state& s, std::string diagnosis) {
        ++out_.violations;
        out_.property_holds = false;
        if (!out_.first_violation.has_value()) {
            out_.first_violation = violation{s.hist, std::move(diagnosis)};
        }
        if (cfg_.stop_at_first_violation) stop_ = true;
    }

    /// Takes ownership of a freshly stepped state: counts it, claims it in
    /// the visited set, runs forced (fanout == 1) stretches in place on the
    /// SAME copy, and judges leaves. Returns a branch node when the state
    /// branches (>= 2 moves), nothing otherwise.
    std::optional<branch_node> visit(sim_state&& s) {
        std::size_t single_proc = 0;
        int total_moves = 0;
        for (;;) {
            if (over_budget()) return std::nullopt;
            // Race-mode pruning: a state whose detector latched a race is a
            // counterexample -- record the schedule that got here and do not
            // expand it (every extension stays racy).
            if (const analysis::race_report* r = s.race()) {
                record_violation(s, r->describe("base register"));
                return std::nullopt;
            }
            // Lockset-mode pruning: same shape as the race prune -- a
            // latched lockset VIOLATION (unguarded empty candidate set, or
            // a guarded site touched without any declared guard) is a
            // counterexample and every extension stays one.
            if (const analysis::lockset_report* l = s.lockset_violation()) {
                record_violation(s, l->describe("base register"));
                return std::nullopt;
            }
            fp_.clear();
            s.fingerprint(fp_);
            if (!visited_.try_emplace(hash_words(fp_)).second) {
                ++out_.memo_hits;
                return std::nullopt;
            }
            // A documented lockset DIVERGENCE is informational: latch the
            // first witness schedule, count the state, keep exploring (the
            // certification must still cover every bounded schedule).
            if (const analysis::lockset_report* d = s.lockset_divergence()) {
                ++out_.divergences;
                if (!out_.first_divergence.has_value()) {
                    out_.first_divergence =
                        violation{s.hist, d->describe("base register")};
                }
            }
            total_moves = 0;
            for (std::size_t p = 0; p < s.procs.size(); ++p) {
                if (s.procs[p]->done(s)) continue;
                total_moves += s.procs[p]->fanout(s);
                single_proc = p;
            }
            if (total_moves == 0) {
                leaf(s);
                return std::nullopt;
            }
            if (total_moves > 1) break;
            // Deterministic stretch: step the one enabled move in place --
            // no copy at all (long forced stretches dominate real
            // explorations).
            s.set_acting(static_cast<std::int16_t>(single_proc));
            s.procs[single_proc]->step(s, 0);
        }
        std::vector<std::uint32_t> moves;
        moves.reserve(static_cast<std::size_t>(total_moves));
        for (std::size_t p = 0; p < s.procs.size(); ++p) {
            if (s.procs[p]->done(s)) continue;
            const int fanout = s.procs[p]->fanout(s);
            for (int choice = 0; choice < fanout; ++choice) {
                moves.push_back(static_cast<std::uint32_t>((p << 16) | choice));
            }
        }
        return branch_node{std::move(s), std::move(moves)};
    }

    void leaf(const sim_state& s) {
        ++out_.leaves;
        history_fingerprint(s.hist, fp_);
        if (!checked_histories_.try_emplace(hash_words(fp_)).second) return;
        ++out_.distinct_histories;

        judgement j = judge_history(s.hist, cfg_.prop, cfg_.initial);
        if (!j.ok) record_violation(s, std::move(j.diagnosis));
    }

    const explore_config& cfg_;
    explore_result out_;
    bool stop_{false};
    std::vector<std::uint64_t> fp_;
    key_table<> visited_;
    key_table<> checked_histories_;
};

}  // namespace

explore_result explore(const sim_state& initial_state, const explore_config& cfg) {
    // Route eligible explorations through the trace-quotient POR engine;
    // race-mode states (happens-before clocks break step independence) and
    // oversized configurations fall back to full exploration.
    if (cfg.por && reduction_applicable(initial_state)) {
        return explore_reduced(initial_state, cfg);
    }
    return explore_engine(cfg).run(initial_state);
}

std::string format_operations(const std::vector<operation>& ops) {
    std::ostringstream oss;
    for (const operation& op : ops) {
        oss << "proc " << op.id.processor << " "
            << (op.kind == op_kind::write ? "write(" : "read(") << op.value
            << ") [" << op.invoked << ", ";
        if (op.complete()) {
            oss << op.responded;
        } else {
            oss << "pending";
        }
        oss << ")\n";
    }
    return oss.str();
}

}  // namespace bloom87::mc
