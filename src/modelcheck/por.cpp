#include "modelcheck/por.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <tuple>
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
// The fixed-key table: the phase-1 node map, the judge-step memo and the
// product memo.
// ---------------------------------------------------------------------------

/// Maps 64-bit keys to values by linear probing in a power-of-two array
/// kept at most 3/4 full. kNoKey marks an empty slot, so it is the one key
/// the table cannot hold.
template <class V>
class key_table {
public:
    static constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

    [[nodiscard]] const V* find(std::uint64_t key) const {
        if (slots_.empty()) return nullptr;
        const slot& s = slots_[probe(key)];
        return s.key == key ? &s.value : nullptr;
    }

    /// The value under `key`, after inserting `value` there if the key was
    /// absent; the flag says whether it was.
    std::pair<V, bool> try_emplace(std::uint64_t key, V value) {
        if (4 * (size_ + 1) > 3 * slots_.size()) grow();
        slot& s = slots_[probe(key)];
        if (s.key == key) return {s.value, false};
        s = slot{key, value};
        size_ += 1;
        return {value, true};
    }

    [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
    [[nodiscard]] std::uint64_t bytes() const noexcept {
        return slots_.capacity() * sizeof(slot);
    }

private:
    struct slot {
        std::uint64_t key{kNoKey};
        V value{};
    };

    /// The slot holding `key`, or the empty slot where it belongs.
    [[nodiscard]] std::size_t probe(std::uint64_t key) const {
        check(key != kNoKey, "a table key is not the empty marker");
        std::uint64_t h = key ^ (key >> 31);
        h *= 0x9e3779b97f4a7c15ULL;
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = static_cast<std::size_t>(h >> 20) & mask;
        while (slots_[i].key != key && slots_[i].key != kNoKey) {
            i = (i + 1) & mask;
        }
        return i;
    }
    void grow() {
        std::vector<slot> old(std::max<std::size_t>(1024, 2 * slots_.size()));
        old.swap(slots_);
        for (const slot& s : old) {
            if (s.key != kNoKey) slots_[probe(s.key)] = s;
        }
    }

    std::vector<slot> slots_;
    std::uint64_t size_{0};
};

// ---------------------------------------------------------------------------
// The trace-quotient graph.
// ---------------------------------------------------------------------------

/// One labeled transition, stored in the SOURCE node's canonical frame:
/// `labels` are the ids of the step's external-history emissions in the
/// stored-label table (process field in canonical index space when symmetry
/// is on), and `perm` is the index in G of the permutation that aligns the
/// target's canonical frame with the source's (sigma' = sigma o G[perm]
/// while walking).
struct qedge {
    std::uint32_t target{0};
    std::array<std::uint32_t, 2> labels{};
    std::uint8_t nlabels{0};
    std::uint8_t perm{0};

    friend bool operator==(const qedge&, const qedge&) = default;
};

/// A quotient node: a (core state, sleep set) pair canonicalized over the
/// symmetry group. Its out-edges are edges_[begin, end), appended when the
/// node is expanded. Once the graph is frozen, a productive node's range
/// holds only edges into productive nodes, the epsilon edges
/// edges_[begin, eps) first.
struct qnode {
    std::uint32_t begin{0};
    std::uint32_t eps{0};
    std::uint32_t end{0};
    bool accepting{false};
    bool productive{false};
};

struct work_item {
    std::uint32_t node{0};
    sim_state state;
    std::uint64_t sleep{0};
    std::uint8_t g{0};  ///< canonical frame of `node`: index -> slot, in G
};

class por_engine {
public:
    por_engine(const explore_config& cfg, const sim_state& initial)
        : cfg_(cfg),
          G_(build_group(initial, cfg.symmetry, &symmetry_warning_)),
          symmetry_on_(G_.size() > 1),
          gsize_(G_.size()) {
        if (symmetry_on_) {
            for (std::size_t i = 0; i < initial.procs.size(); ++i) {
                const auto pid =
                    static_cast<std::size_t>(initial.procs[i]->id());
                pid_of_[i] = static_cast<processor_id>(initial.procs[i]->id());
                idx_of_[pid] = static_cast<std::uint8_t>(i);
            }
        }
        compose_.resize(gsize_ * gsize_);
        inverse_.resize(gsize_);
        for (std::size_t a = 0; a < gsize_; ++a) {
            inverse_[a] = index_of(perm_invert(G_[a]));
            for (std::size_t b = 0; b < gsize_; ++b) {
                compose_[a * gsize_ + b] =
                    index_of(perm_compose(G_[a], G_[b]));
            }
        }
    }

    explore_result run(const sim_state& initial) {
        build_graph(initial);
        // Phase 2 interns nothing in the phase-1 map: record its size, then
        // free it.
        map_entries_ = node_ids_.size();
        map_bytes_ = node_ids_.bytes();
        node_ids_ = {};
        if (!truncated_) enumerate();
        return assemble();
    }

private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    /// The index of `p` in G_, a group: closed under composition and
    /// inversion.
    [[nodiscard]] std::uint8_t index_of(perm_t p) const {
        const auto it = std::find(G_.begin(), G_.end(), p);
        check(it != G_.end(), "the symmetry group is closed");
        return static_cast<std::uint8_t>(it - G_.begin());
    }

    /// The index of G_[a] o G_[b].
    [[nodiscard]] std::uint8_t compose(std::size_t a, std::size_t b) const {
        return compose_[a * gsize_ + b];
    }

    // --- phase 1: build the quotient graph (depth first, LIFO) ------------

    struct canon {
        std::uint64_t key;
        std::uint8_t g;  ///< index in G_
    };

    canon canonicalize(const sim_state& s, std::uint64_t sleep,
                       std::vector<std::uint64_t>& fp) {
        if (!symmetry_on_) {
            fp.clear();
            s.fingerprint_core(fp);
            fp.push_back(0x51EE9ULL);
            fp.push_back(sleep);
            return {hash_words(fp), 0};
        }
        std::uint64_t best = 0;
        std::uint8_t bestg = 0;
        std::array<std::uint8_t, 16> garr{};
        std::array<std::uint8_t, 16> inv{};
        for (std::size_t gi = 0; gi < gsize_; ++gi) {
            const perm_t g = G_[gi];
            for (unsigned i = 0; i < 16; ++i) {
                garr[i] = static_cast<std::uint8_t>(perm_at(g, i));
                inv[garr[i]] = static_cast<std::uint8_t>(i);
            }
            fp.clear();
            s.fingerprint_core(fp, garr.data(), inv.data());
            fp.push_back(0x51EE9ULL);
            fp.push_back(perm_bits(g, sleep));
            const std::uint64_t h = hash_words(fp);
            if (gi == 0 || h < best) {
                best = h;
                bestg = static_cast<std::uint8_t>(gi);
            }
        }
        if (G_[bestg] != kIdentity) ++symmetry_folds_;
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
        // A fingerprint equal to the table's empty marker is folded onto
        // its neighbour: at worst a false merge, as any collision is.
        if (key == key_table<std::uint32_t>::kNoKey) key -= 1;
        const auto [id, fresh] = node_ids_.try_emplace(
            key, static_cast<std::uint32_t>(nodes_.size()));
        if (fresh) {
            check(nodes_.size() < kNone, "node ids fit 32 bits");
            nodes_.emplace_back();
        }
        return {id, fresh};
    }

    /// The id of `l` in the stored-label table.
    std::uint32_t stored_label(const emission& l) {
        const std::array<std::uint64_t, 2> words{
            static_cast<std::uint64_t>(l.is_begin) |
                (static_cast<std::uint64_t>(l.kind) << 8) |
                (static_cast<std::uint64_t>(static_cast<std::uint16_t>(l.proc))
                 << 16) |
                (static_cast<std::uint64_t>(l.op) << 32),
            static_cast<std::uint64_t>(l.value)};
        const auto [id, fresh] = stored_ids_.intern(words);
        if (fresh) stored_.push_back(l);
        return id;
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
        sigma0_ = inverse_[c.g];
        stack_.push_back(work_item{0, std::move(root), 0, c.g});
        while (!stack_.empty() && !truncated_) {
            work_item it = std::move(stack_.back());
            stack_.pop_back();
            expand(it, fp);
        }
    }

    /// Appends the out-edges of `it.node`, which no earlier call expanded,
    /// to edges_.
    void expand(work_item& it, std::vector<std::uint64_t>& fp) {
        sim_state& x = it.state;
        const auto begin = static_cast<std::uint32_t>(edges_.size());
        nodes_[it.node].begin = begin;
        nodes_[it.node].end = begin;  // until the children are appended
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
                ed.perm = compose(it.g, inverse_[c.g]);
                for (int k = 0; k < y.emitted_count(); ++k) {
                    emission l = y.emitted(k);
                    if (symmetry_on_) {
                        // Store in canonical index space of the SOURCE.
                        l.proc = static_cast<processor_id>(perm_at(
                            G_[it.g],
                            idx_of_[static_cast<std::size_t>(l.proc)]));
                    }
                    ed.labels[ed.nlabels++] = stored_label(l);
                }
                // Distinct choices occasionally produce the same transition
                // (e.g. a fault choice that lands where the clean one does);
                // the full engine memoizes the duplicate away, we drop the
                // parallel edge.
                if (std::find(edges_.begin() + begin, edges_.end(), ed) !=
                    edges_.end()) {
                    continue;
                }
                check(edges_.size() < kNone, "edge ids fit 32 bits");
                edges_.push_back(ed);
                if (fresh) {
                    stack_.push_back(
                        work_item{target, std::move(y), child_sleep, c.g});
                }
            }
            earlier |= 1ULL << e.p;
        }
        nodes_[it.node].end = static_cast<std::uint32_t>(edges_.size());
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
        // The in-edges of node t come from from[first[t], first[t + 1]).
        const std::size_t n = nodes_.size();
        std::vector<std::uint32_t> first(n + 1, 0);
        for (const qedge& e : edges_) ++first[e.target + 1];
        for (std::size_t t = 0; t < n; ++t) first[t + 1] += first[t];
        std::vector<std::uint32_t> next(first.begin(), first.end() - 1);
        std::vector<std::uint32_t> from(edges_.size());
        std::vector<std::uint32_t> queue;
        for (std::uint32_t s = 0; s < n; ++s) {
            for (std::uint32_t k = nodes_[s].begin; k < nodes_[s].end; ++k) {
                from[next[edges_[k].target]++] = s;
            }
            if (nodes_[s].accepting) {
                nodes_[s].productive = true;
                queue.push_back(s);
            }
        }
        while (!queue.empty()) {
            const std::uint32_t t = queue.back();
            queue.pop_back();
            for (std::uint32_t k = first[t]; k < first[t + 1]; ++k) {
                qnode& p = nodes_[from[k]];
                if (!p.productive) {
                    p.productive = true;
                    queue.push_back(from[k]);
                }
            }
        }
    }

    /// A DAG state: an epsilon-closed set of automaton members,
    /// (slot << 6) | sigma-index, kept as its sorted kernel in kernels_ --
    /// the members that accept or emit; the rest add nothing to the future.
    /// Slots below nodes_.size() are nodes; slot nodes_.size() + k is the
    /// mid-edge member of the 2-label edge edges_[k], between its two
    /// labels. A DAG state's id is its kernel's id.
    struct dfa_state {
        std::uint32_t trans_at{0};
        std::uint32_t trans_len{0};
        bool accepting{false};
        bool expanded{false};
    };
    struct dfa_edge {
        std::uint32_t label;  ///< concrete-label id
        std::uint32_t target;
    };
    /// One labelled move out of a DAG state, before grouping by label.
    struct label_move {
        std::uint32_t label;  ///< concrete-label id
        std::uint32_t slot;
        std::uint8_t sigma;
    };

    /// Freezes the quotient graph in place for the subset construction:
    /// drops edges into unproductive nodes, puts each node's epsilon edges
    /// first, and numbers the concrete labels.
    void freeze() {
        check(nodes_.size() + edges_.size() < kNone,
              "phase-2 slots fit 32 bits");
        for (qnode& q : nodes_) {
            if (!q.productive) continue;
            const auto first = edges_.begin() + q.begin;
            const auto kept = std::partition(
                first, edges_.begin() + q.end,
                [this](const qedge& e) { return nodes_[e.target].productive; });
            const auto emitting = std::partition(
                first, kept, [](const qedge& e) { return e.nlabels == 0; });
            q.eps = static_cast<std::uint32_t>(emitting - edges_.begin());
            q.end = static_cast<std::uint32_t>(kept - edges_.begin());
        }
        number_labels();
        mark_gen_.assign(nodes_.size(), 0);
        mark_mask_.assign(nodes_.size(), 0);
    }

    [[nodiscard]] static bool label_less(const emission& a,
                                         const emission& b) noexcept {
        return std::tuple(a.proc, a.op, !a.is_begin, a.kind, a.value) <
               std::tuple(b.proc, b.op, !b.is_begin, b.kind, b.value);
    }

    /// The concrete label a stored label spells under G_[sigma].
    [[nodiscard]] emission concrete_label(emission l, std::size_t sigma) const {
        if (symmetry_on_) {
            l.proc = pid_of_[perm_at(G_[sigma], static_cast<unsigned>(l.proc))];
        }
        return l;
    }

    /// Numbers the concrete label of every (stored label, sigma) pair in
    /// label order, so that ids compare as their labels do: labels_[id] is
    /// the label, and concrete_[stored * |G| + sigma] its id.
    void number_labels() {
        for (const emission& l : stored_) {
            for (std::size_t g = 0; g < gsize_; ++g) {
                labels_.push_back(concrete_label(l, g));
            }
        }
        std::sort(labels_.begin(), labels_.end(), label_less);
        labels_.erase(std::unique(labels_.begin(), labels_.end(),
                                  [](const emission& a, const emission& b) {
                                      return !label_less(a, b);
                                  }),
                      labels_.end());
        concrete_.reserve(stored_.size() * gsize_);
        for (const emission& l : stored_) {
            for (std::size_t g = 0; g < gsize_; ++g) {
                concrete_.push_back(static_cast<std::uint32_t>(
                    std::lower_bound(labels_.begin(), labels_.end(),
                                     concrete_label(l, g), label_less) -
                    labels_.begin()));
            }
        }
    }

    /// The concrete-label id of stored label `stored` under G_[sigma].
    [[nodiscard]] std::uint32_t label_id(std::uint32_t stored,
                                         std::uint8_t sigma) const {
        return concrete_[stored * gsize_ + sigma];
    }

    /// The sigma of an edge's target: sigma o G_[e.perm].
    [[nodiscard]] std::uint8_t step_sigma(std::uint8_t sigma,
                                          const qedge& e) const {
        return compose(sigma, e.perm);
    }

    /// Adds node (slot, sigma) to the closure under construction unless
    /// present.
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
        const auto nodes = static_cast<std::uint32_t>(nodes_.size());
        for (const label_move* m = first; m != last; ++m) {
            if (m->slot < nodes) {
                visit(m->slot, m->sigma);
            } else {
                // A mid-edge member emits, has no epsilon edge, and is
                // seeded at most once: only its edge's source member,
                // unique in the kernel it was expanded from, moves there.
                kernel_.push_back((std::uint64_t{m->slot} << 6) | m->sigma);
            }
        }
        bool accepting = false;
        while (!work_.empty()) {
            const auto [slot, sigma] = work_.back();
            work_.pop_back();
            const qnode& q = nodes_[slot];
            if (q.accepting || q.end > q.eps) {
                kernel_.push_back((std::uint64_t{slot} << 6) | sigma);
            }
            accepting = accepting || q.accepting;
            for (std::uint32_t k = q.begin; k < q.eps; ++k) {
                visit(edges_[k].target, step_sigma(sigma, edges_[k]));
            }
        }
        std::sort(kernel_.begin(), kernel_.end());
        const auto [id, fresh] = kernels_.intern(kernel_);
        if (!fresh) return id;
        // A kernel interned past the budget is never expanded.
        if (phase2_over_budget()) return kNone;
        check(id == dfa_.size(), "a DAG state's id is its kernel's");
        dfa_.push_back(dfa_state{0, 0, accepting, false});
        return id;
    }

    /// Builds the out-edges of DAG state `id`, sorted by concrete label.
    void expand_state(std::uint32_t id) {
        moves_.clear();
        const auto nodes = static_cast<std::uint32_t>(nodes_.size());
        // close() may grow the arena: done with the kernel before it runs.
        for (const std::uint64_t member : kernels_.words(id)) {
            const auto slot = static_cast<std::uint32_t>(member >> 6);
            const auto sigma = static_cast<std::uint8_t>(member & 63);
            if (slot >= nodes) {
                const qedge& e = edges_[slot - nodes];
                moves_.push_back(label_move{label_id(e.labels[1], sigma),
                                            e.target, step_sigma(sigma, e)});
                continue;
            }
            const qnode& q = nodes_[slot];
            for (std::uint32_t k = q.eps; k < q.end; ++k) {
                const qedge& e = edges_[k];
                const std::uint32_t l = label_id(e.labels[0], sigma);
                moves_.push_back(
                    e.nlabels == 1
                        ? label_move{l, e.target, step_sigma(sigma, e)}
                        : label_move{l, nodes + k, sigma});
            }
        }
        std::sort(moves_.begin(), moves_.end(),
                  [](const label_move& a, const label_move& b) {
                      return a.label < b.label;
                  });
        const std::size_t trans_at = trans_.size();
        for (std::size_t lo = 0; lo < moves_.size();) {
            std::size_t hi = lo + 1;
            while (hi < moves_.size() && moves_[hi].label == moves_[lo].label) {
                ++hi;
            }
            const std::uint32_t target =
                close(moves_.data() + lo, moves_.data() + hi);
            if (target == kNone) return;
            trans_.push_back(dfa_edge{moves_[lo].label, target});
            lo = hi;
        }
        check(trans_.size() < kNone, "DAG edge ids fit 32 bits");
        dfa_[id].trans_at = static_cast<std::uint32_t>(trans_at);
        dfa_[id].trans_len =
            static_cast<std::uint32_t>(trans_.size() - trans_at);
        dfa_[id].expanded = true;
    }

    /// Phase 2's work counts against the budget after the phase-1 arrivals:
    /// DAG states, memoized pairs, and histories rebuilt for judge_history.
    /// A history counted in bulk or passed by its judge state costs nothing.
    bool phase2_over_budget() {
        if (states_explored_ + dfa_.size() + pairs_.size() + rebuilt_ <
            cfg_.max_states) {
            return false;
        }
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
    static constexpr std::uint64_t kUnknownPaths = ~std::uint64_t{0};

    [[nodiscard]] static std::uint64_t pair_key(std::uint32_t hi,
                                                std::uint32_t lo) noexcept {
        return (static_cast<std::uint64_t>(hi) << 32) | lo;
    }

    /// The judge state after `judge` then concrete label `label`, memoized.
    /// The memo is exact: label_judge::step reads the judge's value table
    /// only through the indices `judge` already holds, and the table only
    /// grows (a value a later step adds gets an index no earlier state
    /// holds, and a full table stays full), so the next state is a fixed
    /// function of the pair. A hit thus returns what a fresh step would,
    /// and skips no check() the first step did not pass.
    std::uint32_t step_judge(std::uint32_t judge, std::uint32_t label) {
        if (judge == label_judge::unrepresentable) return judge;
        const std::uint64_t key = pair_key(judge, label);
        if (const std::uint32_t* next = steps_.find(key)) return *next;
        const std::uint32_t next = judge_.step(judge, labels_[label]);
        steps_.try_emplace(key, next);
        return next;
    }

    /// Counts the history of the current DAG path -- a distinct one by
    /// construction -- by the judge state it ends in. The history is
    /// rebuilt only for the first violation's diagnosis, or when the judge
    /// state cannot represent it.
    void judge_leaf(frame& f) {
        const bool representable = f.judge != label_judge::unrepresentable;
        const bool passes = representable && judge_.passes(f.judge);
        const bool rebuild =
            !representable || (!passes && !first_violation_.has_value());
        if (rebuild && phase2_over_budget()) return;
        leaves_ += 1;
        f.paths += 1;
        if (passes) return;
        std::vector<operation> hist;
        judgement j;
        if (rebuild) {
            rebuilt_ += 1;
            std::vector<emission> spelled;
            spelled.reserve(path_labels_.size());
            for (const std::uint32_t l : path_labels_) {
                spelled.push_back(labels_[l]);
            }
            hist = history_of(spelled);
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
    /// its paths and violations in bulk. It never passes the first
    /// violation, which must be found and reported in label order: a pair
    /// is memoized once its sub-DAG is walked, so one with violations below
    /// comes after the first of them.
    bool skip_known(frame& parent, std::uint32_t state, std::uint32_t judge) {
        if (judge == label_judge::unrepresentable) return false;
        const std::uint64_t* bad = pairs_.find(pair_key(state, judge));
        if (bad == nullptr) return false;
        check(*bad == 0 || first_violation_.has_value(),
              "a pair with violations below is memoized after the first");
        check(state < paths_below_.size(), "a memoized state's paths");
        const std::uint64_t paths = paths_below_[state];
        leaves_ += paths;
        violations_ += *bad;
        parent.paths += paths;
        parent.bad += *bad;
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
        freeze();
        const label_move root_seed{0, 0, sigma0_};
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
                const std::uint32_t judge = step_judge(f.judge, e.label);
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
            if (!f.rebuilt) {
                if (phase2_over_budget()) break;
                pairs_.try_emplace(pair_key(f.state, f.judge), f.bad);
            }
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
        out.reduction.core_edges = edges_.size();
        out.reduction.sleep_pruned = sleep_pruned_;
        out.reduction.symmetry_folds = symmetry_folds_;
        out.reduction.symmetry_group = G_.size();
        out.reduction.symmetry_warning = symmetry_warning_;
        out.reduction.dfa_states = dfa_.size();
        out.reduction.enumerated_paths = leaves_;
        out.reduction.judge_states = judge_.states();
        out.reduction.product_pairs = pairs_.size();
        out.memory.memo_entries = map_entries_;
        out.memory.memo_bytes = map_bytes_;
        std::uint64_t graph = nodes_.capacity() * sizeof(qnode) +
                              edges_.capacity() * sizeof(qedge);
        out.memory.bytes_per_state =
            map_entries_ == 0 ? 0 : (map_bytes_ + graph) / map_entries_;
        // Everything else phase 2 keeps, by capacity: the label tables, the
        // closure marks, the DAG's states, edges and kernels, the judge
        // states, the step and product memos, and the path counts.
        graph += stored_ids_.bytes() +
                 (stored_.capacity() + labels_.capacity()) * sizeof(emission) +
                 concrete_.capacity() * sizeof(std::uint32_t) +
                 mark_gen_.capacity() * sizeof(std::uint32_t) +
                 mark_mask_.capacity() * sizeof(std::uint64_t) +
                 dfa_.capacity() * sizeof(dfa_state) +
                 trans_.capacity() * sizeof(dfa_edge) + kernels_.bytes() +
                 judge_.bytes() + steps_.bytes() + pairs_.bytes() +
                 paths_below_.capacity() * sizeof(std::uint64_t);
        out.memory.graph_bytes = graph;
        return out;
    }

    const explore_config& cfg_;
    std::string symmetry_warning_;  ///< declared before G_: build_group fills it
    const std::vector<perm_t> G_;
    const bool symmetry_on_;
    const std::size_t gsize_;
    std::vector<std::uint8_t> compose_;  ///< [a * gsize_ + b] = G_[a] o G_[b]
    std::vector<std::uint8_t> inverse_;  ///< [a] = G_[a]^-1
    std::array<processor_id, 16> pid_of_{};  ///< index -> processor id
    std::array<std::uint8_t, 64> idx_of_{};  ///< processor id -> index
    std::uint8_t sigma0_{0};  ///< the root's frame, in G_

    key_table<std::uint32_t> node_ids_;  ///< canonical key -> node id
    std::uint64_t map_entries_{0};  ///< node_ids_'s size, before freeing
    std::uint64_t map_bytes_{0};
    std::vector<qnode> nodes_;
    std::vector<qedge> edges_;
    word_interner stored_ids_;      ///< stored label -> id
    std::vector<emission> stored_;  ///< id -> stored label
    std::vector<work_item> stack_;
    std::uint64_t states_explored_{0};
    std::uint64_t memo_hits_{0};
    std::uint64_t sleep_pruned_{0};
    std::uint64_t symmetry_folds_{0};
    bool truncated_{false};

    std::vector<emission> labels_;  ///< concrete-label id -> label, in order
    std::vector<std::uint32_t> concrete_;  ///< (stored, sigma) -> concrete id
    // Closure marks per node: a sigma bitmask, valid when its stamp is gen_.
    std::vector<std::uint32_t> mark_gen_;
    std::vector<std::uint64_t> mark_mask_;
    std::uint32_t gen_{0};
    std::vector<std::pair<std::uint32_t, std::uint8_t>> work_;
    std::vector<std::uint64_t> kernel_;
    word_interner kernels_;  ///< DAG state id -> kernel
    std::vector<dfa_state> dfa_;
    std::vector<dfa_edge> trans_;
    std::vector<label_move> moves_;
    std::vector<std::uint32_t> path_labels_;
    std::vector<frame> walk_;
    label_judge judge_{cfg_.prop, cfg_.initial};
    key_table<std::uint32_t> steps_;  ///< (judge, label) -> next judge
    key_table<std::uint64_t> pairs_;  ///< (DAG state, judge) -> bad below
    std::vector<std::uint64_t> paths_below_;  ///< per DAG state, once walked
    std::uint64_t leaves_{0};
    std::uint64_t rebuilt_{0};  ///< histories handed to judge_history
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
