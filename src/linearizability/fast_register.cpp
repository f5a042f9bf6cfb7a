#include "linearizability/fast_register.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>

#include "linearizability/normalize.hpp"
#include "linearizability/spec.hpp"
#include "util/radix_sort.hpp"

namespace bloom87 {
namespace {

constexpr std::uint32_t none = UINT32_MAX;
constexpr std::uint32_t response_bit = 1U << 31;

/// One operation endpoint: its stream position, and the op's position in
/// the normalized history, with `response_bit` set on a response.
struct endpoint {
    event_pos pos;
    std::uint32_t tag;
};

/// Compressed adjacency: the targets of node n are
/// `target[offset[n] .. offset[n + 1])`.
struct csr {
    std::vector<std::uint32_t> offset;
    std::vector<std::uint32_t> target;
};

/// Groups (from, to) pairs by `from` over nodes [0, nodes), keeping their
/// order within each group.
[[nodiscard]] csr group_by_source(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs,
    std::size_t nodes) {
    csr g;
    g.offset.assign(nodes + 1, 0);
    for (const auto& [from, to] : pairs) ++g.offset[from + 1];
    for (std::size_t n = 0; n < nodes; ++n) g.offset[n + 1] += g.offset[n];
    g.target.resize(pairs.size());
    std::vector<std::uint32_t> cursor(g.offset.begin(), g.offset.end() - 1);
    for (const auto& [from, to] : pairs) g.target[cursor[from]++] = to;
    return g;
}

}  // namespace

fast_check_result check_fast(const std::vector<operation>& raw, value_t initial) {
    fast_check_result out;
    const normalized_index norm = normalize_indices(raw, initial, true);
    if (!norm.ok()) {
        out.defect = norm.defect;
        return out;
    }
    const std::size_t n = norm.kept.size();
    if (n >= response_bit) {
        out.defect = "history too large for the fast checker (2^31 ops)";
        return out;
    }
    const auto op = [&](std::size_t k) -> const operation& {
        return raw[norm.kept[k]];
    };

    // --- nodes: 0 = virtual initial write, 1.. = writes in history order.
    // Each op's own (write) or dictating (read) node and its processor's
    // dense slot are computed once, into a compact record ---
    struct op_rec {
        event_pos invoked;
        event_pos responded;
        std::uint32_t node;
        std::uint32_t slot;
        bool write;
    };
    std::vector<op_rec> rec(n);
    std::vector<std::size_t> write_of_node{0};  // node -> op; [0] unused
    write_of_node.reserve(n + 1);
    std::vector<processor_id> procs;  // slot -> processor (a history has few)
    for (std::size_t k = 0; k < n; ++k) {
        const operation& o = op(k);
        std::size_t s = 0;
        while (s < procs.size() && procs[s] != o.id.processor) ++s;
        if (s == procs.size()) procs.push_back(o.id.processor);
        rec[k] = {o.invoked, o.responded, 0, static_cast<std::uint32_t>(s),
                  o.kind == op_kind::write};
        if (rec[k].write) {
            rec[k].node = static_cast<std::uint32_t>(write_of_node.size());
            write_of_node.push_back(k);
        }
    }
    const std::size_t num_nodes = write_of_node.size();
    const std::size_t num_procs = procs.size();
    for (std::size_t k = 0; k < n; ++k) {
        if (rec[k].write || norm.source[k] == normalized_index::no_source) continue;
        rec[k].node = rec[norm.source[k]].node;
        // local condition: no read from the future
        if (rec[k].responded < rec[norm.source[k]].invoked) {
            out.diagnosis = "read returned a value written only after it finished";
            return out;
        }
    }

    // All invocations, then all responses, each in op order: the stable
    // sort by position puts an invocation before a response at the same
    // position, so a forward sweep sees at an invocation exactly the
    // responses strictly before it, and a backward sweep sees at a
    // response exactly the invocations strictly after it.
    std::vector<endpoint> ends;
    ends.reserve(2 * n);
    for (std::size_t k = 0; k < n; ++k) {
        ends.push_back({rec[k].invoked, static_cast<std::uint32_t>(k)});
    }
    for (std::size_t k = 0; k < n; ++k) {
        if (rec[k].responded != no_event) {
            ends.push_back({rec[k].responded,
                            static_cast<std::uint32_t>(k) | response_bit});
        }
    }
    {
        std::vector<endpoint> spare;
        radix_sort(ends, spare, [](const endpoint& e) { return e.pos; });
    }

    // --- constraint edges. A processor is sequential, so for each query
    // only its last predecessor (or first successor) per processor needs
    // an edge; the per-processor slots hold exactly those. A slot repeats
    // an edge to the same node only once. Node 0 precedes every write:
    // Kahn's smallest-first order pops it first without an edge to each,
    // and an edge into it closes a cycle ---
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    edges.reserve(3 * n);
    bool into_initial = false;
    struct proc_slot {
        std::uint32_t node{none};
        std::uint32_t sent_to{none};

        void set(std::uint32_t m) {
            node = m;
            sent_to = none;
        }
    };
    const auto add_edge = [&](proc_slot& from, std::uint32_t to) {
        if (from.node == none || from.sent_to == to) return;
        from.sent_to = to;
        if (from.node == to) return;
        if (to == 0) {
            into_initial = true;
        } else {
            edges.emplace_back(from.node, to);
        }
    };
    // Forward: at each invocation, the last completed write -- (a) for a
    // write, (b) for a read -- and, for a read, the last completed read (d)
    // of every processor. Reads are also collected in invocation order.
    std::vector<proc_slot> last_write(num_procs);
    std::vector<proc_slot> last_read(num_procs);
    std::vector<std::uint32_t> reads_by_inv;
    reads_by_inv.reserve(n);
    for (const endpoint& e : ends) {
        const op_rec& r = rec[e.tag & ~response_bit];
        if ((e.tag & response_bit) != 0) {
            (r.write ? last_write : last_read)[r.slot].set(r.node);
            continue;
        }
        for (proc_slot& w : last_write) add_edge(w, r.node);
        if (r.write) continue;
        reads_by_inv.push_back(e.tag);
        for (proc_slot& q : last_read) add_edge(q, r.node);
    }
    // Backward: at each read's response, the first write every processor
    // invokes after it (c).
    std::vector<proc_slot> next_write(num_procs);
    for (auto it = ends.rbegin(); it != ends.rend(); ++it) {
        const op_rec& r = rec[it->tag & ~response_bit];
        if ((it->tag & response_bit) == 0) {
            if (r.write) next_write[r.slot].set(r.node);
        } else if (!r.write) {
            for (proc_slot& w : next_write) {  // reversed: W(r) before w
                if (w.node == none || w.sent_to == r.node) continue;
                w.sent_to = r.node;
                if (w.node != r.node) edges.emplace_back(r.node, w.node);
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
    const csr graph = group_by_source(edges, num_nodes);
    std::vector<std::uint32_t> indegree(num_nodes, 0);
    for (const std::uint32_t to : graph.target) ++indegree[to];
    std::vector<std::uint32_t> topo;
    topo.reserve(num_nodes);
    std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                        std::greater<>> ready;
    for (std::uint32_t m = 0; m < num_nodes; ++m) {
        if (indegree[m] == 0) ready.push(m);
    }
    while (!ready.empty()) {
        const std::uint32_t m = ready.top();
        ready.pop();
        topo.push_back(m);
        for (std::uint32_t e = graph.offset[m]; e < graph.offset[m + 1]; ++e) {
            if (--indegree[graph.target[e]] == 0) ready.push(graph.target[e]);
        }
    }
    if (topo.size() != num_nodes) {
        out.diagnosis = cyclic;
        return out;
    }

    // --- construct the witness linearization: each write, then the reads
    // of its value in invocation order ---
    std::vector<std::pair<std::uint32_t, std::uint32_t>> read_pairs;
    read_pairs.reserve(reads_by_inv.size());
    for (const std::uint32_t k : reads_by_inv) read_pairs.emplace_back(rec[k].node, k);
    const csr reads_of = group_by_source(read_pairs, num_nodes);
    std::vector<const operation*> seq;
    seq.reserve(n);
    for (const std::uint32_t m : topo) {
        if (m != 0) seq.push_back(&op(write_of_node[m]));
        for (std::uint32_t r = reads_of.offset[m]; r < reads_of.offset[m + 1]; ++r) {
            seq.push_back(&op(reads_of.target[r]));
        }
    }

    // --- re-verify the witness (guards against any gap in the theory) ---
    if (!satisfies_register_property(seq, initial)) {
        out.defect = "internal error: witness violates the register property";
        return out;
    }
    event_pos min_resp_suffix = no_event;
    for (std::size_t k = seq.size(); k-- > 0;) {
        if (min_resp_suffix < seq[k]->invoked) {
            out.defect = "internal error: witness violates real-time order";
            return out;
        }
        min_resp_suffix = std::min(min_resp_suffix, seq[k]->responded);
    }

    out.linearizable = true;
    out.witness.reserve(seq.size());
    for (const operation* o : seq) out.witness.push_back(*o);
    return out;
}

}  // namespace bloom87
