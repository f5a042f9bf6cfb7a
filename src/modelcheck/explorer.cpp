#include "modelcheck/explorer.hpp"

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_set>
#include <utility>

#include "modelcheck/por.hpp"
#include "modelcheck/verdicts.hpp"
#include "util/sync.hpp"

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

/// Fingerprint set sharded into cache-line-padded stripes. The stripe is
/// chosen by the hash's TOP bits (unordered_set consumes the low ones), so
/// concurrent inserts from different workers mostly land on different
/// mutexes. Sequential explorations skip the locks entirely.
class sharded_fingerprint_set {
public:
    static constexpr std::size_t stripe_bits = 6;
    static constexpr std::size_t num_stripes = std::size_t{1} << stripe_bits;

    explicit sharded_fingerprint_set(bool locked) : locked_(locked) {}

    /// True when `h` was not present (the caller owns exploring it).
    bool insert(std::uint64_t h) {
        stripe& s = stripes_[h >> (64 - stripe_bits)];
        if (!locked_) return s.set.insert(h).second;
        std::lock_guard<std::mutex> guard(s.mutex);
        return s.set.insert(h).second;
    }

    /// Memory accounting (call after the workers joined). `bytes` is a
    /// container-size estimate: ~40 bytes per unordered_set node (value +
    /// chain pointer + allocator overhead) plus the bucket array. The sets
    /// only grow, so final == peak.
    [[nodiscard]] std::uint64_t entries() const {
        std::uint64_t n = 0;
        for (const stripe& s : stripes_) n += s.set.size();
        return n;
    }
    [[nodiscard]] std::uint64_t bytes() const {
        std::uint64_t b = 0;
        for (const stripe& s : stripes_) {
            b += s.set.size() * 40 + s.set.bucket_count() * 8;
        }
        return b;
    }

private:
    struct alignas(cacheline_size) stripe {
        std::mutex mutex;
        std::unordered_set<std::uint64_t> set;
    };
    const bool locked_;
    std::array<stripe, num_stripes> stripes_;
};


/// A state whose expansion is in progress: already counted and memoized,
/// with the not-yet-taken (process, choice) moves. Workers take moves from
/// the front; frontier splitting donates moves from the back (the part a
/// sequential DFS would reach last).
struct branch_node {
    sim_state state;
    std::vector<std::uint32_t> moves;  ///< (proc << 16) | choice, DFS order
    std::size_t next{0};

    branch_node(sim_state&& s, std::vector<std::uint32_t>&& m)
        : state(std::move(s)), moves(std::move(m)) {}
};

class explore_engine {
public:
    explore_engine(const explore_config& cfg, unsigned threads)
        : cfg_(cfg),
          nthreads_(threads),
          visited_(threads > 1),
          checked_histories_(threads > 1) {}

    explore_result run(const sim_state& initial) {
        {
            // Seed the queue with the root's branch node (the root itself
            // may resolve to a leaf or a forced chain; then there is no
            // branching work and the workers terminate immediately).
            std::vector<std::uint64_t> fp;
            sim_state root(initial);
            if (auto node = visit(std::move(root), fp)) {
                queue_.push_back(std::move(*node));
            }
        }
        if (nthreads_ == 1) {
            worker_main();
        } else {
            std::vector<std::thread> pool;
            pool.reserve(nthreads_);
            for (unsigned t = 0; t < nthreads_; ++t) {
                pool.emplace_back([this] { worker_main(); });
            }
            for (std::thread& th : pool) th.join();
        }

        explore_result out;
        out.states_explored = states_explored_.load(std::memory_order_relaxed);
        out.memo_hits = memo_hits_.load(std::memory_order_relaxed);
        out.leaves = leaves_.load(std::memory_order_relaxed);
        out.distinct_histories =
            distinct_histories_.load(std::memory_order_relaxed);
        out.violations = violations_.load(std::memory_order_relaxed);
        out.property_holds = property_holds_.load(std::memory_order_relaxed);
        out.truncated = truncated_.load(std::memory_order_relaxed);
        out.first_violation = std::move(first_violation_);
        out.first_divergence = std::move(first_divergence_);
        out.divergences = divergences_.load(std::memory_order_relaxed);
        // first_violation_reduced stays false: this engine records raw
        // explored schedules. reduction stays disengaged.
        out.memory.memo_entries = visited_.entries();
        out.memory.memo_bytes = visited_.bytes();
        out.memory.bytes_per_state =
            out.memory.memo_entries == 0
                ? 0
                : out.memory.memo_bytes / out.memory.memo_entries;
        out.memory.history_entries = checked_histories_.entries();
        return out;
    }

private:
    /// Counts a freshly generated state against the budget. True = the
    /// exploration is over (budget blown or another worker stopped it).
    bool over_budget() {
        if (stop_.load(std::memory_order_relaxed)) return true;
        if (states_explored_.fetch_add(1, std::memory_order_relaxed) + 1 >
            cfg_.max_states) {
            truncated_.store(true, std::memory_order_relaxed);
            request_stop();
            return true;
        }
        return false;
    }

    void request_stop() {
        stop_.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> guard(queue_mutex_);
        queue_cv_.notify_all();
    }

    /// Takes ownership of a freshly stepped state: counts it, claims it in
    /// the visited set, runs forced (fanout == 1) stretches in place on the
    /// SAME copy, and judges leaves. Returns a branch node when the state
    /// branches (>= 2 moves), nothing otherwise.
    std::optional<branch_node> visit(sim_state&& s,
                                     std::vector<std::uint64_t>& fp) {
        std::size_t single_proc = 0;
        int total_moves = 0;
        for (;;) {
            if (over_budget()) return std::nullopt;
            // Race-mode pruning: a state whose detector latched a race is a
            // counterexample -- record the schedule that got here and do not
            // expand it (every extension stays racy).
            if (const analysis::race_report* r = s.race()) {
                violations_.fetch_add(1, std::memory_order_relaxed);
                property_holds_.store(false, std::memory_order_relaxed);
                {
                    std::lock_guard<std::mutex> guard(violation_mutex_);
                    if (!first_violation_.has_value()) {
                        first_violation_ =
                            violation{s.hist, r->describe("base register")};
                    }
                }
                if (cfg_.stop_at_first_violation) request_stop();
                return std::nullopt;
            }
            // Lockset-mode pruning: same shape as the race prune -- a
            // latched lockset VIOLATION (unguarded empty candidate set, or
            // a guarded site touched without any declared guard) is a
            // counterexample and every extension stays one.
            if (const analysis::lockset_report* l = s.lockset_violation()) {
                violations_.fetch_add(1, std::memory_order_relaxed);
                property_holds_.store(false, std::memory_order_relaxed);
                {
                    std::lock_guard<std::mutex> guard(violation_mutex_);
                    if (!first_violation_.has_value()) {
                        first_violation_ =
                            violation{s.hist, l->describe("base register")};
                    }
                }
                if (cfg_.stop_at_first_violation) request_stop();
                return std::nullopt;
            }
            fp.clear();
            s.fingerprint(fp);
            if (!visited_.insert(hash_words(fp))) {
                memo_hits_.fetch_add(1, std::memory_order_relaxed);
                return std::nullopt;
            }
            // A documented lockset DIVERGENCE is informational: latch the
            // first witness schedule, count the state, keep exploring (the
            // certification must still cover every bounded schedule).
            if (const analysis::lockset_report* d = s.lockset_divergence()) {
                divergences_.fetch_add(1, std::memory_order_relaxed);
                std::lock_guard<std::mutex> guard(violation_mutex_);
                if (!first_divergence_.has_value()) {
                    first_divergence_ =
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
                leaf(s, fp);
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
        return branch_node(std::move(s), std::move(moves));
    }

    void leaf(const sim_state& s, std::vector<std::uint64_t>& fp) {
        leaves_.fetch_add(1, std::memory_order_relaxed);
        history_fingerprint(s.hist, fp);
        if (!checked_histories_.insert(hash_words(fp))) return;
        distinct_histories_.fetch_add(1, std::memory_order_relaxed);

        judgement j = judge_history(s.hist, cfg_.prop, cfg_.initial);
        if (!j.ok) {
            violations_.fetch_add(1, std::memory_order_relaxed);
            property_holds_.store(false, std::memory_order_relaxed);
            {
                std::lock_guard<std::mutex> guard(violation_mutex_);
                if (!first_violation_.has_value()) {
                    first_violation_ =
                        violation{s.hist, std::move(j.diagnosis)};
                }
            }
            if (cfg_.stop_at_first_violation) request_stop();
        }
    }

    /// Blocks until work is available; empty when the exploration is over
    /// (stop requested, or every worker idle with an empty queue).
    std::optional<branch_node> acquire() {
        std::unique_lock<std::mutex> lock(queue_mutex_);
        for (;;) {
            if (stop_.load(std::memory_order_relaxed) || done_) {
                return std::nullopt;
            }
            if (!queue_.empty()) {
                branch_node node = std::move(queue_.front());
                queue_.pop_front();
                return node;
            }
            idle_workers_.fetch_add(1, std::memory_order_relaxed);
            if (idle_workers_.load(std::memory_order_relaxed) == nthreads_) {
                done_ = true;
                queue_cv_.notify_all();
                return std::nullopt;
            }
            queue_cv_.wait(lock, [this] {
                return stop_.load(std::memory_order_relaxed) || done_ ||
                       !queue_.empty();
            });
            idle_workers_.fetch_sub(1, std::memory_order_relaxed);
        }
    }

    /// Frontier splitting: when another worker is starving, give it the
    /// back half of the pending moves of the SHALLOWEST unexhausted branch
    /// node -- the biggest subtrees this worker still owes.
    void maybe_donate(std::vector<branch_node>& stack) {
        if (idle_workers_.load(std::memory_order_relaxed) == 0) return;
        for (branch_node& node : stack) {
            const std::size_t remaining = node.moves.size() - node.next;
            if (remaining == 0) continue;
            const std::size_t take = (remaining + 1) / 2;
            std::vector<std::uint32_t> taken(node.moves.end() -
                                                 static_cast<std::ptrdiff_t>(take),
                                             node.moves.end());
            node.moves.resize(node.moves.size() - take);
            // Taking every remaining move exhausts the node; its state can
            // move instead of copy (the husk is popped unused).
            sim_state state =
                take == remaining ? std::move(node.state) : sim_state(node.state);
            std::lock_guard<std::mutex> guard(queue_mutex_);
            queue_.push_back(branch_node(std::move(state), std::move(taken)));
            queue_cv_.notify_one();
            return;
        }
    }

    void worker_main() {
        std::vector<branch_node> stack;
        std::vector<std::uint64_t> fp;
        fp.reserve(256);
        for (;;) {
            std::optional<branch_node> root = acquire();
            if (!root.has_value()) return;
            stack.clear();
            stack.push_back(std::move(*root));
            while (!stack.empty()) {
                if (stop_.load(std::memory_order_relaxed)) return;
                branch_node& top = stack.back();
                if (top.next >= top.moves.size()) {  // drained (or donated away)
                    stack.pop_back();
                    continue;
                }
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
                if (std::optional<branch_node> node = visit(std::move(child), fp)) {
                    stack.push_back(std::move(*node));
                }
                if (nthreads_ > 1) maybe_donate(stack);
            }
        }
    }

    const explore_config& cfg_;
    const unsigned nthreads_;

    sharded_fingerprint_set visited_;
    sharded_fingerprint_set checked_histories_;

    std::atomic<std::uint64_t> states_explored_{0};
    std::atomic<std::uint64_t> memo_hits_{0};
    std::atomic<std::uint64_t> leaves_{0};
    std::atomic<std::uint64_t> distinct_histories_{0};
    std::atomic<std::uint64_t> violations_{0};
    std::atomic<std::uint64_t> divergences_{0};
    std::atomic<bool> property_holds_{true};
    std::atomic<bool> truncated_{false};
    std::atomic<bool> stop_{false};

    std::mutex violation_mutex_;
    std::optional<violation> first_violation_;
    std::optional<violation> first_divergence_;

    std::mutex queue_mutex_;
    std::condition_variable queue_cv_;
    std::deque<branch_node> queue_;
    std::atomic<unsigned> idle_workers_{0};
    bool done_{false};  // guarded by queue_mutex_
};

}  // namespace

explore_result explore(const sim_state& initial_state, const explore_config& cfg) {
    // Route eligible explorations through the trace-quotient POR engine;
    // race-mode states (happens-before clocks break step independence) and
    // oversized configurations fall back to full exploration.
    if (cfg.por && reduction_applicable(initial_state)) {
        return explore_reduced(initial_state, cfg);
    }
    unsigned threads = cfg.threads;
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0) threads = 1;
    }
    explore_engine engine(cfg, threads);
    return engine.run(initial_state);
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
