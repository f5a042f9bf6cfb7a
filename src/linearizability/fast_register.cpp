#include "linearizability/fast_register.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>

#include "linearizability/spec.hpp"
#include "util/radix_sort.hpp"

namespace bloom87 {
namespace {

constexpr std::uint32_t none = UINT32_MAX;
constexpr std::uint32_t response_bit = 1U << 31;
/// Endpoints are placed by position while their positions span at most
/// this many slots per endpoint.
constexpr std::uint64_t direct_span_per_endpoint = 4;

}  // namespace

std::string fast_check_result::failure() const {
    if (ok()) return diagnosis;
    if (defect->starts_with("internal error")) return "checker defect: " + *defect;
    return *defect;
}

void fast_checker::group_by_source(const pair_list& pairs, std::size_t nodes,
                                   csr& g) {
    g.offset.assign(nodes + 1, 0);
    for (const auto& [from, to] : pairs) ++g.offset[from + 1];
    for (std::size_t n = 0; n < nodes; ++n) g.offset[n + 1] += g.offset[n];
    g.target.resize(pairs.size());
    cursor_.assign(g.offset.begin(), g.offset.end() - 1);
    for (const auto& [from, to] : pairs) g.target[cursor_[from]++] = to;
}

void fast_checker::order_endpoints() {
    // All invocations, then all responses, each in op order: a stable sort
    // by position puts an invocation before a response at the same
    // position, so a forward sweep sees at an invocation exactly the
    // responses strictly before it, and a backward sweep sees at a
    // response exactly the invocations strictly after it.
    order_.clear();
    if (rec_.empty()) return;
    event_pos lo = no_event;
    event_pos hi = 0;
    std::uint64_t count = rec_.size();
    for (const op_rec& r : rec_) {
        lo = std::min(lo, r.invoked);
        hi = std::max(hi, r.invoked);
        if (r.responded != no_event) {
            lo = std::min(lo, r.responded);
            hi = std::max(hi, r.responded);
            ++count;
        }
    }
    if (hi - lo < direct_span_per_endpoint * count) {
        // Dense positions: place each endpoint at its position. With no
        // two endpoints at one position, position order is the only order.
        by_pos_.assign(hi - lo + 1, none);
        bool shared = false;
        const auto place = [&](event_pos pos, std::uint32_t tag) {
            std::uint32_t& at = by_pos_[pos - lo];
            shared = shared || at != none;
            at = tag;
        };
        for (std::uint32_t k = 0; k < rec_.size(); ++k) {
            place(rec_[k].invoked, k);
            if (rec_[k].responded != no_event) {
                place(rec_[k].responded, k | response_bit);
            }
        }
        if (!shared) {
            for (const std::uint32_t tag : by_pos_) {
                if (tag != none) order_.push_back(tag);
            }
            return;
        }
    }
    ends_.clear();
    for (std::uint32_t k = 0; k < rec_.size(); ++k) {
        ends_.push_back({rec_[k].invoked, k});
    }
    for (std::uint32_t k = 0; k < rec_.size(); ++k) {
        if (rec_[k].responded != no_event) {
            ends_.push_back({rec_[k].responded, k | response_bit});
        }
    }
    radix_sort(ends_, spare_, [](const endpoint& e) { return e.pos; });
    for (const endpoint& e : ends_) order_.push_back(e.tag);
}

fast_check_result fast_checker::check(const std::vector<operation>& raw,
                                      value_t initial) {
    fast_check_result out;
    seq_.clear();
    if (raw.size() >= response_bit) {
        out.defect = "history too large for the fast checker (2^31 ops)";
        return out;
    }
    if (const char* defect = norm_.run(raw, initial, true)) {
        out.defect = defect;
        return out;
    }
    const std::vector<std::uint32_t>& kept = norm_.kept();
    const std::vector<std::uint32_t>& source = norm_.source();
    const std::size_t n = kept.size();
    const auto op = [&](std::size_t k) -> const operation& {
        return raw[kept[k]];
    };

    // --- nodes: 0 = virtual initial write, 1.. = writes in history order.
    // Each op's own (write) or dictating (read) node and its processor's
    // dense slot are computed once, into a compact record ---
    rec_.resize(n);
    write_of_node_.assign(1, 0);
    procs_.clear();
    for (std::size_t k = 0; k < n; ++k) {
        const operation& o = op(k);
        std::size_t s = 0;
        while (s < procs_.size() && procs_[s] != o.id.processor) ++s;
        if (s == procs_.size()) procs_.push_back(o.id.processor);
        rec_[k] = {o.invoked, o.responded, 0, static_cast<std::uint32_t>(s),
                   o.kind == op_kind::write};
        if (rec_[k].write) {
            rec_[k].node = static_cast<std::uint32_t>(write_of_node_.size());
            write_of_node_.push_back(static_cast<std::uint32_t>(k));
        }
    }
    const std::size_t num_nodes = write_of_node_.size();
    const std::size_t num_procs = procs_.size();
    for (std::size_t k = 0; k < n; ++k) {
        if (rec_[k].write || source[k] == normalizer::no_source) continue;
        rec_[k].node = rec_[source[k]].node;
        // local condition: no read from the future
        if (rec_[k].responded < rec_[source[k]].invoked) {
            out.diagnosis = "read returned a value written only after it finished";
            return out;
        }
    }
    order_endpoints();

    // --- constraint edges. A processor is sequential, so for each query
    // only its last predecessor (or first successor) per processor needs
    // an edge; the per-processor slots hold exactly those. A slot repeats
    // an edge to the same node only once. Node 0 precedes every write:
    // Kahn's smallest-first order pops it first without an edge to each,
    // and an edge into it closes a cycle ---
    edges_.clear();
    bool into_initial = false;
    const auto set = [](proc_slot& s, std::uint32_t m) { s = {m, none}; };
    const auto add_edge = [&](proc_slot& from, std::uint32_t to) {
        if (from.node == none || from.sent_to == to) return;
        from.sent_to = to;
        if (from.node == to) return;
        if (to == 0) {
            into_initial = true;
        } else {
            edges_.emplace_back(from.node, to);
        }
    };
    // Forward: at each invocation, the last completed write -- (a) for a
    // write, (b) for a read -- and, for a read, the last completed read (d)
    // of every processor. Reads are also collected in invocation order.
    last_write_.assign(num_procs, {none, none});
    last_read_.assign(num_procs, {none, none});
    reads_by_inv_.clear();
    for (const std::uint32_t tag : order_) {
        const op_rec& r = rec_[tag & ~response_bit];
        if ((tag & response_bit) != 0) {
            set((r.write ? last_write_ : last_read_)[r.slot], r.node);
            continue;
        }
        for (proc_slot& w : last_write_) add_edge(w, r.node);
        if (r.write) continue;
        reads_by_inv_.push_back(tag);
        for (proc_slot& q : last_read_) add_edge(q, r.node);
    }
    // Backward: at each read's response, the first write every processor
    // invokes after it (c).
    next_write_.assign(num_procs, {none, none});
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
        const op_rec& r = rec_[*it & ~response_bit];
        if ((*it & response_bit) == 0) {
            if (r.write) set(next_write_[r.slot], r.node);
        } else if (!r.write) {
            for (proc_slot& w : next_write_) {  // reversed: W(r) before w
                if (w.node == none || w.sent_to == r.node) continue;
                w.sent_to = r.node;
                if (w.node != r.node) edges_.emplace_back(r.node, w.node);
            }
        }
    }

    // --- topological sort (Kahn, smallest ready node first) ---
    constexpr const char* cyclic =
        "cyclic write-order constraints (e.g. an overwritten value reappeared)";
    if (into_initial) {
        out.diagnosis = cyclic;
        return out;
    }
    group_by_source(edges_, num_nodes, graph_);
    indegree_.assign(num_nodes, 0);
    for (const std::uint32_t to : graph_.target) ++indegree_[to];
    topo_.clear();
    ready_.clear();
    // Pushed in ascending order, so already a min-heap.
    for (std::uint32_t m = 0; m < num_nodes; ++m) {
        if (indegree_[m] == 0) ready_.push_back(m);
    }
    while (!ready_.empty()) {
        std::pop_heap(ready_.begin(), ready_.end(), std::greater<>{});
        const std::uint32_t m = ready_.back();
        ready_.pop_back();
        topo_.push_back(m);
        for (std::uint32_t e = graph_.offset[m]; e < graph_.offset[m + 1]; ++e) {
            if (--indegree_[graph_.target[e]] == 0) {
                ready_.push_back(graph_.target[e]);
                std::push_heap(ready_.begin(), ready_.end(), std::greater<>{});
            }
        }
    }
    if (topo_.size() != num_nodes) {
        out.diagnosis = cyclic;
        return out;
    }

    // --- construct the witness linearization: each write, then the reads
    // of its value in invocation order ---
    read_pairs_.clear();
    for (const std::uint32_t k : reads_by_inv_) {
        read_pairs_.emplace_back(rec_[k].node, k);
    }
    group_by_source(read_pairs_, num_nodes, reads_of_);
    for (const std::uint32_t m : topo_) {
        if (m != 0) seq_.push_back(&op(write_of_node_[m]));
        for (std::uint32_t r = reads_of_.offset[m]; r < reads_of_.offset[m + 1]; ++r) {
            seq_.push_back(&op(reads_of_.target[r]));
        }
    }

    // --- re-verify the witness (guards against any gap in the theory) ---
    if (!satisfies_register_property(seq_, initial)) {
        seq_.clear();
        out.defect = "internal error: witness violates the register property";
        return out;
    }
    event_pos min_resp_suffix = no_event;
    for (std::size_t k = seq_.size(); k-- > 0;) {
        if (min_resp_suffix < seq_[k]->invoked) {
            seq_.clear();
            out.defect = "internal error: witness violates real-time order";
            return out;
        }
        min_resp_suffix = std::min(min_resp_suffix, seq_[k]->responded);
    }

    out.linearizable = true;
    return out;
}

fast_check_result check_fast(const std::vector<operation>& raw, value_t initial) {
    fast_checker checker;
    fast_check_result out = checker.check(raw, initial);
    out.witness.reserve(checker.witness().size());
    for (const operation* o : checker.witness()) out.witness.push_back(*o);
    return out;
}

}  // namespace bloom87
