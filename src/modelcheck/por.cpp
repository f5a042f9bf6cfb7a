#include "modelcheck/por.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "modelcheck/verdicts.hpp"
#include "util/check.hpp"

namespace bloom87::mc {
namespace {

// ---------------------------------------------------------------------------
// Process-identity permutations, packed 4 bits per process (<= 16 procs).
// perm_at(p, i) = where process index i is sent.
// ---------------------------------------------------------------------------

using perm_t = std::uint64_t;
constexpr perm_t kIdentity = 0xFEDCBA9876543210ULL;

[[nodiscard]] constexpr unsigned perm_at(perm_t p, unsigned i) noexcept {
    return static_cast<unsigned>((p >> (4 * i)) & 0xF);
}
[[nodiscard]] perm_t perm_compose(perm_t a, perm_t b) noexcept {
    // (a o b)(i) = a(b(i))
    perm_t r = 0;
    for (unsigned i = 0; i < 16; ++i) {
        r |= static_cast<perm_t>(perm_at(a, perm_at(b, i))) << (4 * i);
    }
    return r;
}
[[nodiscard]] perm_t perm_invert(perm_t p) noexcept {
    perm_t r = 0;
    for (unsigned i = 0; i < 16; ++i) {
        r |= static_cast<perm_t>(i) << (4 * perm_at(p, i));
    }
    return r;
}
/// Remaps a bitmask of process indices: bit i -> bit perm(i).
[[nodiscard]] std::uint64_t perm_bits(perm_t g, std::uint64_t mask) noexcept {
    std::uint64_t r = 0;
    while (mask != 0) {
        const unsigned i = static_cast<unsigned>(std::countr_zero(mask));
        mask &= mask - 1;
        r |= 1ULL << perm_at(g, i);
    }
    return r;
}

/// The symmetry group: the product of the symmetric groups of every class of
/// processes sharing a non-zero symmetry_key. Falls back to {identity} when
/// any process lacks a usable identity (symmetry relabels external-history
/// labels through the id <-> index tables) or the group would exceed 64
/// elements (the canonicalization cost is |G| fingerprints per arrival).
/// The fallback is SILENT only when there was nothing to lose (no class of
/// >= 2 interchangeable processes); when symmetric classes exist but the
/// reduction cannot engage, `warning` says so and why -- a quietly
/// disabled reduction looks identical to a weak one and wastes the next
/// investigation.
std::vector<perm_t> build_group(const sim_state& s, bool want_symmetry,
                                std::string* warning) {
    std::vector<perm_t> G{kIdentity};
    if (!want_symmetry) return G;
    const std::size_t n = s.procs.size();
    // Collect the symmetry classes FIRST: only a configuration that has
    // interchangeable twins earns a warning when the group cannot be built.
    std::vector<std::pair<std::uint64_t, std::uint8_t>> keyed;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t k = s.procs[i]->symmetry_key();
        if (k != 0) keyed.emplace_back(k, static_cast<std::uint8_t>(i));
    }
    std::sort(keyed.begin(), keyed.end());
    bool has_class = false;
    for (std::size_t lo = 0; lo < keyed.size();) {
        std::size_t hi = lo;
        while (hi < keyed.size() && keyed[hi].first == keyed[lo].first) ++hi;
        if (hi - lo >= 2) has_class = true;
        lo = hi;
    }
    if (!has_class) return G;  // nothing to permute: identity, no warning
    std::uint64_t ids_seen = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const processor_id id = s.procs[i]->id();
        if (id < 0 || id >= 16 || ((ids_seen >> id) & 1) != 0) {
            if (warning != nullptr) {
                *warning =
                    "symmetry disabled: symmetric process classes exist but "
                    "process " +
                    std::to_string(i) + " has unusable id " +
                    std::to_string(id) +
                    " (need distinct ids in [0,16); override process::id())";
            }
            return G;
        }
        ids_seen |= 1ULL << id;
    }
    for (std::size_t lo = 0; lo < keyed.size();) {
        std::size_t hi = lo;
        while (hi < keyed.size() && keyed[hi].first == keyed[lo].first) ++hi;
        const std::size_t k = hi - lo;
        if (k >= 2) {
            std::vector<std::uint8_t> members;
            for (std::size_t j = lo; j < hi; ++j) members.push_back(keyed[j].second);
            std::vector<std::uint8_t> arranged = members;
            std::vector<perm_t> grown;
            do {
                perm_t p = kIdentity;
                for (std::size_t j = 0; j < k; ++j) {
                    p &= ~(0xFULL << (4 * members[j]));
                    p |= static_cast<perm_t>(arranged[j]) << (4 * members[j]);
                }
                for (perm_t g : G) grown.push_back(perm_compose(g, p));
            } while (std::next_permutation(arranged.begin(), arranged.end()));
            if (grown.size() > 64) {
                if (warning != nullptr) {
                    *warning =
                        "symmetry disabled: the symmetry group exceeds 64 "
                        "permutations (canonicalization costs |G| "
                        "fingerprints per arrival); shrink a symmetric "
                        "class";
                }
                return {kIdentity};
            }
            G = std::move(grown);
        }
        lo = hi;
    }
    return G;
}

// ---------------------------------------------------------------------------
// The trace-quotient graph.
// ---------------------------------------------------------------------------

/// One labeled transition, stored in the SOURCE node's canonical frame:
/// `labels` are the external-history emissions of the step (process field in
/// canonical index space when symmetry is on), `perm` aligns the target's
/// canonical frame with the source's (sigma' = sigma o perm while walking).
struct qedge {
    std::array<emission, 2> labels{};
    std::uint8_t nlabels{0};
    std::uint8_t perm_index{0};  ///< phase 2: position of `perm` in G
    perm_t perm{kIdentity};
    std::uint32_t target{0};
    std::uint32_t mid{0};  ///< phase 2: mid-edge slot of a 2-label edge
};

[[nodiscard]] bool same_labels(const qedge& a, const qedge& b) noexcept {
    if (a.nlabels != b.nlabels) return false;
    for (int i = 0; i < a.nlabels; ++i) {
        const emission &x = a.labels[static_cast<std::size_t>(i)],
                       &y = b.labels[static_cast<std::size_t>(i)];
        if (x.is_begin != y.is_begin || x.kind != y.kind || x.proc != y.proc ||
            x.op != y.op || x.value != y.value) {
            return false;
        }
    }
    return true;
}

/// A quotient node: a (core state, sleep set) pair canonicalized over the
/// symmetry group.
struct qnode {
    std::vector<qedge> edges;
    std::uint32_t eps_edges{0};  ///< phase 2: edges[0, eps_edges) emit nothing
    bool accepting{false};
    bool productive{false};
};

struct work_item {
    std::uint32_t node{0};
    sim_state state;
    std::uint64_t sleep{0};
    perm_t g{kIdentity};  ///< canonical frame of `node`: index -> slot
};

class por_engine {
public:
    por_engine(const explore_config& cfg, const sim_state& initial)
        : cfg_(cfg),
          G_(build_group(initial, cfg.symmetry, &symmetry_warning_)),
          symmetry_on_(G_.size() > 1) {
        if (symmetry_on_) {
            for (std::size_t i = 0; i < initial.procs.size(); ++i) {
                const auto pid =
                    static_cast<std::size_t>(initial.procs[i]->id());
                pid_of_[i] = static_cast<processor_id>(initial.procs[i]->id());
                idx_of_[pid] = static_cast<std::uint8_t>(i);
            }
        }
    }

    explore_result run(const sim_state& initial) {
        build_graph(initial);
        // Phase 2 interns nothing in the phase-1 map: record its size, then
        // free it.
        map_entries_ = map_.size();
        map_bytes_ = map_.size() * 48 + map_.bucket_count() * 8;
        decltype(map_)().swap(map_);
        if (!truncated_) enumerate();
        return assemble();
    }

private:
    // --- phase 1: build the quotient graph (depth first, LIFO) ------------

    struct canon {
        std::uint64_t key;
        perm_t g;
    };

    canon canonicalize(const sim_state& s, std::uint64_t sleep,
                       std::vector<std::uint64_t>& fp) {
        if (!symmetry_on_) {
            fp.clear();
            s.fingerprint_core(fp);
            fp.push_back(0x51EE9ULL);
            fp.push_back(sleep);
            return {hash_words(fp), kIdentity};
        }
        std::uint64_t best = 0;
        perm_t bestg = kIdentity;
        bool first = true;
        std::array<std::uint8_t, 16> garr{};
        std::array<std::uint8_t, 16> inv{};
        for (perm_t g : G_) {
            for (unsigned i = 0; i < 16; ++i) {
                garr[i] = static_cast<std::uint8_t>(perm_at(g, i));
                inv[garr[i]] = static_cast<std::uint8_t>(i);
            }
            fp.clear();
            s.fingerprint_core(fp, garr.data(), inv.data());
            fp.push_back(0x51EE9ULL);
            fp.push_back(perm_bits(g, sleep));
            const std::uint64_t h = hash_words(fp);
            if (first || h < best) {
                best = h;
                bestg = g;
                first = false;
            }
        }
        if (bestg != kIdentity) ++symmetry_folds_;
        return {best, bestg};
    }

    /// Counts one arrival against the budget (same semantics as the full
    /// engine: every generated state counts, memoized or not).
    bool over_budget() {
        if (++states_explored_ <= cfg_.max_states) return false;
        truncated_ = true;
        return true;
    }

    /// The id of the node keyed `key`, and whether this call created it.
    std::pair<std::uint32_t, bool> intern(std::uint64_t key) {
        const auto [it, fresh] = map_.try_emplace(
            key, static_cast<std::uint32_t>(nodes_.size()));
        if (fresh) nodes_.emplace_back();
        return {it->second, fresh};
    }

    /// Expands every fresh node once, popping the most recently pushed
    /// first; a node's children are pushed in (process, choice) order.
    void build_graph(const sim_state& initial) {
        std::vector<std::uint64_t> fp;
        fp.reserve(256);
        if (over_budget()) return;
        sim_state root(initial);
        const canon c = canonicalize(root, 0, fp);
        intern(c.key);
        sigma0_ = perm_invert(c.g);
        stack_.push_back(work_item{0, std::move(root), 0, c.g});
        while (!stack_.empty() && !truncated_) {
            work_item it = std::move(stack_.back());
            stack_.pop_back();
            expand(it, fp);
        }
    }

    void expand(work_item& it, std::vector<std::uint64_t>& fp) {
        sim_state& x = it.state;
        struct enabled_t {
            std::uint8_t p;
            int fo;
            step_footprint fp;
        };
        std::array<enabled_t, 16> en{};
        std::size_t ne = 0;
        for (std::size_t p = 0; p < x.procs.size(); ++p) {
            if (x.procs[p]->done(x)) continue;
            en[ne].p = static_cast<std::uint8_t>(p);
            en[ne].fo = x.procs[p]->fanout(x);
            en[ne].fp = x.procs[p]->footprint(x, p);
#ifndef NDEBUG
            // Declared footprints must cover the traced truth.
            const step_footprint probed = x.procs[p]->process::footprint(x, p);
            assert((en[ne].fp.reads | probed.reads) == en[ne].fp.reads);
            assert((en[ne].fp.writes | probed.writes) == en[ne].fp.writes);
            assert(en[ne].fp.visible || !probed.visible);
#endif
            ++ne;
        }
        if (ne == 0) {
            nodes_[it.node].accepting = true;
            return;
        }
        std::uint64_t earlier = 0;
        for (std::size_t i = 0; i < ne; ++i) {
            const enabled_t& e = en[i];
            if (((it.sleep >> e.p) & 1) != 0) {
                ++sleep_pruned_;
                continue;
            }
            // Sleep-set rule: a sibling explored earlier (or inherited
            // asleep) stays asleep in this child iff independent of the
            // step taken -- its interleavings are covered, commuted, by the
            // subtree that explored it first.
            std::uint64_t child_sleep = 0;
            const std::uint64_t cand = it.sleep | earlier;
            for (std::size_t j = 0; j < ne; ++j) {
                if (((cand >> en[j].p) & 1) != 0 && en[j].p != e.p &&
                    !conflict(en[j].fp, e.fp)) {
                    child_sleep |= 1ULL << en[j].p;
                }
            }
            for (int choice = 0; choice < e.fo; ++choice) {
                sim_state y(x);
                y.reset_emissions();
                y.set_acting(static_cast<std::int16_t>(e.p));
                y.procs[e.p]->step(y, choice);
                check(y.emitted_count() <= 2, "a step emits at most two labels");
                if (over_budget()) return;
                const canon c = canonicalize(y, child_sleep, fp);
                const auto [target, fresh] = intern(c.key);
                if (!fresh) ++memo_hits_;
                qedge ed;
                ed.target = target;
                ed.perm = perm_compose(it.g, perm_invert(c.g));
                for (int k = 0; k < y.emitted_count(); ++k) {
                    emission l = y.emitted(k);
                    if (symmetry_on_) {
                        // Store in canonical index space of the SOURCE.
                        l.proc = static_cast<processor_id>(perm_at(
                            it.g,
                            idx_of_[static_cast<std::size_t>(l.proc)]));
                    }
                    ed.labels[ed.nlabels++] = l;
                }
                // Taken after intern(), which may have grown nodes_.
                std::vector<qedge>& edges = nodes_[it.node].edges;
                // Distinct choices occasionally produce the same transition
                // (e.g. a fault choice that lands where the clean one does);
                // the full engine memoizes the duplicate away, we drop the
                // parallel edge.
                const bool dup = std::any_of(
                    edges.begin(), edges.end(), [&](const qedge& prev) {
                        return prev.target == ed.target &&
                               prev.perm == ed.perm && same_labels(prev, ed);
                    });
                if (dup) continue;
                edges.push_back(ed);
                ++edges_;
                if (fresh) {
                    stack_.push_back(
                        work_item{target, std::move(y), child_sleep, c.g});
                }
            }
            earlier |= 1ULL << e.p;
        }
    }

    // --- phase 2: determinize, then judge every DAG path in product ------
    //
    // The quotient graph is a nondeterministic automaton over concrete
    // labels: its states are (node, sigma) pairs, epsilon edges emit
    // nothing, and distinct label paths often spell the same word. A
    // label's position is its timestamp, so a word IS a history. Subset
    // construction over epsilon closures turns the automaton into a DAG
    // with at most one out-edge per label: each accepting DAG path is then
    // exactly one distinct history. The walk carries the judge state of
    // its path, so no history is built to be judged, and a (DAG state,
    // judge state) pair is walked once.

    /// Marks nodes from which an accepting node is reachable; edges into
    /// unproductive nodes (sleep-set dead ends) are dropped from phase 2.
    void mark_productive() {
        std::vector<std::vector<std::uint32_t>> rev(nodes_.size());
        std::vector<std::uint32_t> queue;
        for (std::uint32_t n = 0; n < nodes_.size(); ++n) {
            for (const qedge& e : nodes_[n].edges) rev[e.target].push_back(n);
            if (nodes_[n].accepting) {
                nodes_[n].productive = true;
                queue.push_back(n);
            }
        }
        while (!queue.empty()) {
            const std::uint32_t n = queue.back();
            queue.pop_back();
            for (std::uint32_t p : rev[n]) {
                if (!nodes_[p].productive) {
                    nodes_[p].productive = true;
                    queue.push_back(p);
                }
            }
        }
    }

    /// A DAG state: an epsilon-closed set of automaton members,
    /// (slot << 6) | sigma-index, kept as its sorted kernel -- the members
    /// that accept or emit; the rest add nothing to the future. Slots below
    /// nodes_.size() are nodes; the others are mid-edge members, between
    /// the two labels of a 2-label edge (mid_edges_).
    struct dfa_state {
        const std::vector<std::uint64_t>* kernel;
        std::uint64_t trans_at{0};
        std::uint32_t trans_len{0};
        bool accepting{false};
        bool expanded{false};
    };
    struct dfa_edge {
        emission label;
        std::uint32_t target;
    };
    /// One labelled move out of a DAG state, before grouping by label.
    struct label_move {
        emission label;
        std::uint32_t slot;
        std::uint8_t sigma;
    };
    struct kernel_hash {
        std::size_t operator()(const std::vector<std::uint64_t>& k) const {
            return hash_words(k);
        }
    };

    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    /// Readies the quotient graph for the subset construction: drops edges
    /// into unproductive nodes, puts each node's epsilon edges first, and
    /// numbers G_'s elements and the mid-edge slots.
    void prepare_automaton() {
        std::unordered_map<perm_t, std::uint8_t> index;
        for (std::size_t i = 0; i < G_.size(); ++i) {
            index.emplace(G_[i], static_cast<std::uint8_t>(i));
        }
        gsize_ = G_.size();
        compose_.resize(gsize_ * gsize_);
        for (std::size_t a = 0; a < gsize_; ++a) {
            for (std::size_t b = 0; b < gsize_; ++b) {
                compose_[a * gsize_ + b] =
                    index.at(perm_compose(G_[a], G_[b]));
            }
        }
        sigma0_index_ = index.at(sigma0_);
        for (qnode& q : nodes_) {
            if (!q.productive) continue;
            std::erase_if(q.edges, [this](const qedge& e) {
                return !nodes_[e.target].productive;
            });
            const auto emitting = std::stable_partition(
                q.edges.begin(), q.edges.end(),
                [](const qedge& e) { return e.nlabels == 0; });
            q.eps_edges =
                static_cast<std::uint32_t>(emitting - q.edges.begin());
            for (qedge& e : q.edges) {
                e.perm_index = index.at(e.perm);
                if (e.nlabels != 2) continue;
                e.mid = static_cast<std::uint32_t>(nodes_.size() +
                                                   mid_edges_.size());
                mid_edges_.push_back(&e);
            }
        }
        const std::size_t slots = nodes_.size() + mid_edges_.size();
        check(slots < kNone, "phase-2 slots fit 32 bits");
        mark_gen_.assign(slots, 0);
        mark_mask_.assign(slots, 0);
    }

    /// The sigma of an edge's target: sigma o G_[e.perm_index].
    [[nodiscard]] std::uint8_t step_sigma(std::uint8_t sigma,
                                          const qedge& e) const {
        return compose_[sigma * gsize_ + e.perm_index];
    }

    emission concrete_label(const emission& stored, std::uint8_t sigma) const {
        if (!symmetry_on_) return stored;
        emission l = stored;
        l.proc = pid_of_[perm_at(G_[sigma],
                                 static_cast<unsigned>(stored.proc))];
        return l;
    }

    [[nodiscard]] static bool label_less(const emission& a,
                                         const emission& b) noexcept {
        return std::tuple(a.proc, a.op, !a.is_begin, a.kind, a.value) <
               std::tuple(b.proc, b.op, !b.is_begin, b.kind, b.value);
    }

    /// Adds (slot, sigma) to the closure under construction unless present.
    void visit(std::uint32_t slot, std::uint8_t sigma) {
        if (mark_gen_[slot] != gen_) {
            mark_gen_[slot] = gen_;
            mark_mask_[slot] = 0;
        }
        const std::uint64_t bit = std::uint64_t{1} << sigma;
        if ((mark_mask_[slot] & bit) != 0) return;
        mark_mask_[slot] |= bit;
        work_.emplace_back(slot, sigma);
    }

    /// Closes the seeds of `moves` under productive epsilon edges and
    /// returns the DAG state of the result (kNone once over budget).
    std::uint32_t close(const label_move* first, const label_move* last) {
        if (++gen_ == 0) {  // stamp wrapped: forget every old mark
            std::fill(mark_gen_.begin(), mark_gen_.end(), 0);
            gen_ = 1;
        }
        work_.clear();
        kernel_.clear();
        for (const label_move* m = first; m != last; ++m) {
            visit(m->slot, m->sigma);
        }
        bool accepting = false;
        while (!work_.empty()) {
            const auto [slot, sigma] = work_.back();
            work_.pop_back();
            const std::uint64_t member =
                (static_cast<std::uint64_t>(slot) << 6) | sigma;
            if (slot >= nodes_.size()) {
                kernel_.push_back(member);
                continue;
            }
            const qnode& q = nodes_[slot];
            if (q.accepting || q.edges.size() > q.eps_edges) {
                kernel_.push_back(member);
            }
            accepting = accepting || q.accepting;
            for (std::uint32_t k = 0; k < q.eps_edges; ++k) {
                visit(q.edges[k].target, step_sigma(sigma, q.edges[k]));
            }
        }
        std::sort(kernel_.begin(), kernel_.end());
        if (const auto it = dfa_index_.find(kernel_); it != dfa_index_.end()) {
            return it->second;
        }
        if (phase2_over_budget(1)) return kNone;
        const auto id = static_cast<std::uint32_t>(dfa_.size());
        const auto it = dfa_index_.emplace(kernel_, id).first;
        dfa_.push_back(dfa_state{&it->first, 0, 0, accepting, false});
        kernel_members_ += kernel_.size();
        return id;
    }

    /// Builds the out-edges of DAG state `id`, sorted by concrete label.
    void expand_state(std::uint32_t id) {
        moves_.clear();
        for (const std::uint64_t member : *dfa_[id].kernel) {
            const auto slot = static_cast<std::uint32_t>(member >> 6);
            const auto sigma = static_cast<std::uint8_t>(member & 63);
            if (slot >= nodes_.size()) {
                const qedge& e = *mid_edges_[slot - nodes_.size()];
                moves_.push_back(
                    label_move{concrete_label(e.labels[1], sigma), e.target,
                               step_sigma(sigma, e)});
                continue;
            }
            const qnode& q = nodes_[slot];
            for (std::size_t k = q.eps_edges; k < q.edges.size(); ++k) {
                const qedge& e = q.edges[k];
                const emission l = concrete_label(e.labels[0], sigma);
                moves_.push_back(
                    e.nlabels == 1
                        ? label_move{l, e.target, step_sigma(sigma, e)}
                        : label_move{l, e.mid, sigma});
            }
        }
        std::sort(moves_.begin(), moves_.end(),
                  [](const label_move& a, const label_move& b) {
                      return label_less(a.label, b.label);
                  });
        const std::uint64_t trans_at = trans_.size();
        for (std::size_t lo = 0; lo < moves_.size();) {
            std::size_t hi = lo + 1;
            while (hi < moves_.size() &&
                   !label_less(moves_[lo].label, moves_[hi].label)) {
                ++hi;
            }
            const std::uint32_t target =
                close(moves_.data() + lo, moves_.data() + hi);
            if (target == kNone) return;
            trans_.push_back(dfa_edge{moves_[lo].label, target});
            lo = hi;
        }
        dfa_[id].trans_at = trans_at;
        dfa_[id].trans_len =
            static_cast<std::uint32_t>(trans_.size() - trans_at);
        dfa_[id].expanded = true;
    }

    /// DAG states and judged histories count against the budget after the
    /// phase-1 arrivals, so a determinization blow-up truncates.
    [[nodiscard]] bool phase2_fits(std::uint64_t more) const {
        return states_explored_ + dfa_.size() + leaves_ + more <=
               cfg_.max_states;
    }
    bool phase2_over_budget(std::uint64_t more) {
        if (phase2_fits(more)) return false;
        truncated_ = true;
        abort_enumeration_ = true;
        return true;
    }

    /// One DAG state on the walk's stack, in product with the judge state
    /// of the label path that reached it.
    struct frame {
        std::uint32_t state;
        std::uint32_t judge;
        std::uint32_t next{0};
        /// A history below was judged by judge_history (the judge state
        /// could not represent it): this pair and every pair above it stay
        /// out of the memo.
        bool rebuilt{false};
        std::uint64_t paths{0};  ///< accepting paths below, so far
        std::uint64_t bad{0};    ///< violating paths below, so far
    };
    /// Memo of the product: (DAG state, judge state) -> violations below.
    struct pair_slot {
        std::uint64_t key{kNoPair};
        std::uint64_t bad{0};
    };
    static constexpr std::uint64_t kNoPair = ~std::uint64_t{0};
    static constexpr std::uint64_t kUnknownPaths = ~std::uint64_t{0};

    [[nodiscard]] static std::uint64_t pair_key(std::uint32_t state,
                                                std::uint32_t judge) noexcept {
        return (static_cast<std::uint64_t>(state) << 32) | judge;
    }
    [[nodiscard]] std::size_t pair_home(std::uint64_t key) const noexcept {
        key ^= key >> 31;
        key *= 0x9e3779b97f4a7c15ULL;
        return static_cast<std::size_t>(key >> 20) & (memo_.size() - 1);
    }
    [[nodiscard]] const pair_slot* find_pair(std::uint64_t key) const {
        if (memo_.empty()) return nullptr;
        const std::size_t mask = memo_.size() - 1;
        for (std::size_t i = pair_home(key);; i = (i + 1) & mask) {
            if (memo_[i].key == key) return &memo_[i];
            if (memo_[i].key == kNoPair) return nullptr;
        }
    }
    void remember_pair(std::uint64_t key, std::uint64_t bad) {
        if (4 * (pairs_ + 1) > 3 * memo_.size()) {  // load factor <= 3/4
            std::vector<pair_slot> old(
                std::max<std::size_t>(1024, 2 * memo_.size()));
            old.swap(memo_);
            for (const pair_slot& p : old) {
                if (p.key != kNoPair) place_pair(p);
            }
        }
        place_pair(pair_slot{key, bad});
        pairs_ += 1;
    }
    void place_pair(const pair_slot& p) {
        std::size_t i = pair_home(p.key);
        while (memo_[i].key != kNoPair) i = (i + 1) & (memo_.size() - 1);
        memo_[i] = p;
    }

    /// Counts the history of the current DAG path -- a distinct one by
    /// construction -- by the judge state it ends in. The history is
    /// rebuilt only for the first violation's diagnosis, or when the judge
    /// state cannot represent it.
    void judge_leaf(frame& f) {
        if (phase2_over_budget(1)) return;
        leaves_ += 1;
        f.paths += 1;
        const bool representable = f.judge != label_judge::unrepresentable;
        if (representable && judge_.passes(f.judge)) return;
        std::vector<operation> hist;
        judgement j;
        if (!representable || !first_violation_.has_value()) {
            hist = history_of(path_labels_);
            j = judge_history(hist, cfg_.prop, cfg_.initial);
            if (j.ok) {
                check(!representable,
                      "judge_history agrees with the judge state");
                return;
            }
        }
        f.bad += 1;
        violations_ += 1;
        property_holds_ = false;
        if (!first_violation_.has_value()) {
            first_violation_ =
                violation{std::move(hist), std::move(j.diagnosis)};
        }
        if (cfg_.stop_at_first_violation) abort_enumeration_ = true;
    }

    /// Skips an edge into a pair whose sub-DAG was already walked, counting
    /// its paths and violations in bulk -- unless the bulk would pass the
    /// budget (truncation lands on the same history as a walk). It never
    /// passes the first violation, which must be found and reported in
    /// label order: a pair is memoized once its sub-DAG is walked, so one
    /// with violations below comes after the first of them.
    bool skip_known(frame& parent, std::uint32_t state, std::uint32_t judge) {
        if (judge == label_judge::unrepresentable) return false;
        const pair_slot* known = find_pair(pair_key(state, judge));
        if (known == nullptr) return false;
        check(known->bad == 0 || first_violation_.has_value(),
              "a pair with violations below is memoized after the first");
        const std::uint64_t paths = paths_below_[state];
        if (!phase2_fits(paths)) return false;
        leaves_ += paths;
        violations_ += known->bad;
        parent.paths += paths;
        parent.bad += known->bad;
        return true;
    }

    void push_frame(std::uint32_t state, std::uint32_t judge) {
        walk_.push_back(
            frame{state, judge, 0, judge == label_judge::unrepresentable});
        if (dfa_[state].accepting) judge_leaf(walk_.back());
    }

    /// Walks the DAG depth first, building states on first visit and
    /// stepping the judge state along every edge. Out-edges are sorted by
    /// label, so histories are judged in lexicographic order whatever the
    /// node numbering; memoized pairs are skipped.
    void enumerate() {
        if (nodes_.empty()) return;
        mark_productive();
        if (!nodes_[0].productive) return;  // no complete execution in budget
        prepare_automaton();
        const label_move root_seed{emission{}, 0, sigma0_index_};
        const std::uint32_t root = close(&root_seed, &root_seed + 1);
        if (root == kNone) return;
        push_frame(root, label_judge::root());
        while (!walk_.empty() && !abort_enumeration_) {
            frame& f = walk_.back();
            if (!dfa_[f.state].expanded) {
                expand_state(f.state);
                if (abort_enumeration_) break;
            }
            const dfa_state& d = dfa_[f.state];
            if (f.next < d.trans_len) {
                const dfa_edge e = trans_[d.trans_at + f.next++];
                const std::uint32_t judge = judge_.step(f.judge, e.label);
                if (skip_known(f, e.target, judge)) continue;
                path_labels_.push_back(e.label);
                push_frame(e.target, judge);
                continue;
            }
            // The sub-DAG below f.state is walked: remember its path count,
            // and the pair's violations unless a history was rebuilt.
            if (paths_below_.size() < dfa_.size()) {
                paths_below_.resize(dfa_.size(), kUnknownPaths);
            }
            std::uint64_t& paths = paths_below_[f.state];
            check(paths == kUnknownPaths || paths == f.paths,
                  "a DAG state's path count does not depend on the prefix");
            paths = f.paths;
            if (!f.rebuilt) remember_pair(pair_key(f.state, f.judge), f.bad);
            const frame done = f;
            walk_.pop_back();
            if (walk_.empty()) break;
            path_labels_.pop_back();
            frame& parent = walk_.back();
            parent.paths += done.paths;
            parent.bad += done.bad;
            parent.rebuilt = parent.rebuilt || done.rebuilt;
        }
    }

    // --- results ----------------------------------------------------------

    explore_result assemble() {
        explore_result out;
        out.states_explored = states_explored_;
        out.memo_hits = memo_hits_;
        out.leaves = leaves_;
        out.distinct_histories = leaves_;  // one DAG path per history
        out.violations = violations_;
        out.property_holds = property_holds_;
        out.truncated = truncated_;
        out.first_violation = std::move(first_violation_);
        out.first_violation_reduced = out.first_violation.has_value();
        out.reduction.engaged = true;
        out.reduction.symmetry = symmetry_on_;
        out.reduction.core_states = nodes_.size();
        out.reduction.core_edges = edges_;
        out.reduction.sleep_pruned = sleep_pruned_;
        out.reduction.symmetry_folds = symmetry_folds_;
        out.reduction.symmetry_group = G_.size();
        out.reduction.symmetry_warning = symmetry_warning_;
        out.reduction.dfa_states = dfa_.size();
        out.reduction.enumerated_paths = leaves_;
        out.reduction.judge_states = judge_.states();
        out.reduction.product_pairs = pairs_;
        out.memory.memo_entries = map_entries_;
        out.memory.memo_bytes = map_bytes_;
        std::uint64_t graph = nodes_.size() * sizeof(qnode);
        for (const qnode& n : nodes_) graph += n.edges.capacity() * sizeof(qedge);
        out.memory.bytes_per_state =
            map_entries_ == 0 ? 0 : (map_bytes_ + graph) / map_entries_;
        // The DAG (~64 bytes per kernel-map node and vector header), the
        // judge states and the product memo.
        graph += dfa_.capacity() * sizeof(dfa_state) +
                 trans_.capacity() * sizeof(dfa_edge) +
                 dfa_index_.size() * 64 +
                 kernel_members_ * sizeof(std::uint64_t) + judge_.bytes() +
                 memo_.capacity() * sizeof(pair_slot) +
                 paths_below_.capacity() * sizeof(std::uint64_t);
        out.memory.graph_bytes = graph;
        return out;
    }

    const explore_config& cfg_;
    std::string symmetry_warning_;  ///< declared before G_: build_group fills it
    const std::vector<perm_t> G_;
    const bool symmetry_on_;
    std::array<processor_id, 16> pid_of_{};  ///< index -> processor id
    std::array<std::uint8_t, 64> idx_of_{};  ///< processor id -> index
    perm_t sigma0_{kIdentity};

    std::unordered_map<std::uint64_t, std::uint32_t> map_;  ///< key -> node id
    std::uint64_t map_entries_{0};  ///< map_'s size, recorded before freeing
    std::uint64_t map_bytes_{0};
    std::vector<qnode> nodes_;
    std::vector<work_item> stack_;
    std::uint64_t states_explored_{0};
    std::uint64_t memo_hits_{0};
    std::uint64_t edges_{0};
    std::uint64_t sleep_pruned_{0};
    std::uint64_t symmetry_folds_{0};
    bool truncated_{false};

    std::size_t gsize_{1};
    std::vector<std::uint8_t> compose_;  ///< [a * gsize_ + b] = G_[a] o G_[b]
    std::uint8_t sigma0_index_{0};
    std::vector<const qedge*> mid_edges_;  ///< mid-edge slot - nodes -> edge
    // Closure marks per slot: a sigma bitmask, valid when its stamp is gen_.
    std::vector<std::uint32_t> mark_gen_;
    std::vector<std::uint64_t> mark_mask_;
    std::uint32_t gen_{0};
    std::vector<std::pair<std::uint32_t, std::uint8_t>> work_;
    std::vector<std::uint64_t> kernel_;
    std::unordered_map<std::vector<std::uint64_t>, std::uint32_t, kernel_hash>
        dfa_index_;
    std::uint64_t kernel_members_{0};
    std::vector<dfa_state> dfa_;
    std::vector<dfa_edge> trans_;
    std::vector<label_move> moves_;
    std::vector<emission> path_labels_;
    std::vector<frame> walk_;
    label_judge judge_{cfg_.prop, cfg_.initial};
    std::vector<pair_slot> memo_;  ///< open addressing, power-of-two size
    std::uint64_t pairs_{0};
    std::vector<std::uint64_t> paths_below_;  ///< per DAG state, once walked
    std::uint64_t leaves_{0};
    std::uint64_t violations_{0};
    bool property_holds_{true};
    bool abort_enumeration_{false};
    std::optional<violation> first_violation_;
};

}  // namespace

bool reduction_applicable(const sim_state& initial) {
    return initial.procs.size() <= 16 && initial.registers.size() <= 64 &&
           !initial.race_detection_enabled();
}

explore_result explore_reduced(const sim_state& initial,
                               const explore_config& cfg) {
    por_engine engine(cfg, initial);
    return engine.run(initial);
}

}  // namespace bloom87::mc
