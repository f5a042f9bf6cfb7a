#include "linearizability/bloom_linearizer.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/protocol.hpp"

namespace bloom87 {
namespace {

/// Per-register index of real writes, for "tag bit of Reg_j just before
/// position p" queries.
struct register_timeline {
    std::vector<event_pos> positions;  // ascending
    std::vector<bool> tags;

    /// Tag of this register at any instant strictly before `p`
    /// (initial tag 0 if never written before p).
    [[nodiscard]] bool tag_before(event_pos p) const {
        auto it = std::lower_bound(positions.begin(), positions.end(), p);
        if (it == positions.begin()) return false;
        return tags[static_cast<std::size_t>(it - positions.begin()) - 1];
    }

    /// Position of the last write strictly before `p`, or no_event.
    [[nodiscard]] event_pos last_write_before(event_pos p) const {
        auto it = std::lower_bound(positions.begin(), positions.end(), p);
        return it == positions.begin() ? no_event : *(it - 1);
    }

    /// Position of the last write strictly inside (lo, hi), or no_event.
    [[nodiscard]] event_pos last_write_in(event_pos lo, event_pos hi) const {
        const event_pos cand = last_write_before(hi);
        return cand != no_event && cand > lo ? cand : no_event;
    }
};

/// A read's three real reads (Reg0, Reg1, Reg_r) in protocol order: their
/// gamma positions and the events themselves.
struct read_triple {
    std::array<event_pos, 3> pos{};
    std::array<event, 3> ev{};
};

/// Maps a completed read onto the plain protocol's three real reads, or
/// returns why it cannot. A writer's CACHED read (paper, Section 5) really
/// reads only the other register: once or twice, after at most one read of
/// its own register on the writer's first operation. Its own register
/// holds the writer's last write throughout the operation -- nobody else
/// writes it -- so the read is the plain protocol with the own-register
/// reads performed virtually: writer 0 reads Reg0 just before its read of
/// Reg1, writer 1 reads Reg1 just after its read of Reg0. (A virtual read
/// before event p anchors at p - 1, after every *-action there; p - 1 is
/// never before the operation's invocation event.)
[[nodiscard]] std::optional<std::string> as_three_reads(
    const history& h, const operation& op,
    const std::array<register_timeline, 2>& regs, read_triple& out) {
    const auto& acc = op.real_accesses;
    const int i = op.id.processor;
    const bool writer = i == 0 || i == 1;
    // A writer's first cached read may also read three times (own, other,
    // other); only writer 0's coincides with the plain Reg0, Reg1 order.
    if (acc.size() == 3 && (!writer || (h.gamma[acc[0]].reg == 0 &&
                                        h.gamma[acc[1]].reg == 1))) {
        for (std::size_t k = 0; k < 3; ++k) {
            out.pos[k] = acc[k];
            out.ev[k] = h.gamma[acc[k]];
        }
        return std::nullopt;
    }
    if (!writer) return "read did not perform exactly three real reads";
    std::vector<event_pos> other;
    for (const event_pos p : acc) {
        const event& e = h.gamma[p];
        if (e.kind != event_kind::real_read) {
            return "cached read performed a real write";
        }
        if (e.reg == 1 - i) {
            other.push_back(p);
        } else if (!other.empty()) {
            return "cached read re-read its own register";
        }
    }
    if (other.empty() || other.size() > 2) {
        return "read is neither the plain nor the cached read protocol";
    }
    event own;
    own.kind = event_kind::real_read;
    own.reg = static_cast<std::uint8_t>(i);
    own.processor = op.id.processor;
    own.op = op.id.op;
    own.observed_write = regs[i].last_write_before(other[0]);
    own.tag = regs[i].tag_before(other[0]);
    own.value = own.observed_write == no_event
                    ? h.initial_value
                    : h.gamma[own.observed_write].value;
    const event& first = h.gamma[other[0]];
    const int pick = i == 0 ? reader_pick(own.tag, first.tag)
                            : reader_pick(first.tag, own.tag);
    if ((pick == i) != (other.size() == 1)) {
        return "cached read re-read the wrong register for its tags";
    }
    const event_pos last = other.back();
    const event& final_read = pick == i ? own : h.gamma[last];
    if (i == 0) {
        out.pos = {other[0] - 1, other[0], last};
        out.ev = {own, first, final_read};
    } else {
        out.pos = {other[0], other[0], last};
        out.ev = {first, own, final_read};
    }
    return std::nullopt;
}

}  // namespace

bloom_result bloom_linearize(const history& h) {
    bloom_result out;
    auto fail_defect = [&](std::string msg) {
        out.defect = std::move(msg);
        return out;
    };
    auto fail = [&](std::string why) {
        out.atomic = false;
        out.diagnosis = std::move(why);
        return out;
    };

    // ---- index real writes per register, and map positions to sim ops ----
    std::array<register_timeline, 2> regs;
    std::map<event_pos, op_id> write_op_at;  // real-write position -> sim write
    for (event_pos p = 0; p < h.gamma.size(); ++p) {
        const event& e = h.gamma[p];
        if (!is_real(e.kind)) continue;
        if (e.reg > 1) {
            return fail_defect("real access to register " +
                               std::to_string(e.reg) + " at gamma position " +
                               std::to_string(p) +
                               ": Bloom's protocol has registers 0 and 1 only");
        }
        if (e.kind != event_kind::real_write) continue;
        regs[e.reg].positions.push_back(p);
        regs[e.reg].tags.push_back(e.tag);
        write_op_at[p] = op_id{e.processor, e.op};
    }

    // ---- analyze writes: structure, potency, prefinishers (Step 0) ----
    std::map<op_id, std::size_t> write_index;  // into out.writes
    for (const operation& op : h.ops) {
        if (op.kind != op_kind::write) continue;
        if (op.id.processor != 0 && op.id.processor != 1) {
            return fail_defect("simulated write by a non-writer processor");
        }
        write_analysis wa;
        wa.id = op.id;
        wa.writer = op.id.processor;

        // Expected access pattern: real read of Reg_{~i}, then real write of
        // Reg_i. Crashed writes may stop after 0 or 1 accesses.
        if (op.real_accesses.size() > 2) {
            return fail_defect("write performed more than two real accesses");
        }
        if (!op.real_accesses.empty()) {
            const event& r = h.gamma[op.real_accesses[0]];
            if (r.kind != event_kind::real_read || r.reg != 1 - wa.writer) {
                return fail_defect("write's first access is not a read of the other register");
            }
            wa.real_read = op.real_accesses[0];
        }
        if (op.real_accesses.size() == 2) {
            const event& w = h.gamma[op.real_accesses[1]];
            if (w.kind != event_kind::real_write || w.reg != wa.writer) {
                return fail_defect("write's second access is not a write of its own register");
            }
            wa.real_write = op.real_accesses[1];
            wa.took_effect = true;
        }
        if (op.complete() && !wa.took_effect) {
            return fail_defect("completed write performed no real write");
        }

        if (wa.took_effect) {
            const bool own_tag = h.gamma[wa.real_write].tag;
            const bool other_tag = regs[1 - wa.writer].tag_before(wa.real_write);
            const bool tag0 = wa.writer == 0 ? own_tag : other_tag;
            const bool tag1 = wa.writer == 0 ? other_tag : own_tag;
            wa.potent = write_is_potent(wa.writer, tag0, tag1);
            ++(wa.potent ? out.potent_count : out.impotent_count);

            if (!wa.potent) {
                const event_pos pf =
                    regs[1 - wa.writer].last_write_in(wa.real_read, wa.real_write);
                if (pf == no_event) {
                    return fail("Lemma 1 violated: impotent write has no prefinisher");
                }
                wa.has_prefinisher = true;
                wa.prefinisher = write_op_at.at(pf);
            }
        }
        write_index[wa.id] = out.writes.size();
        out.writes.push_back(wa);
    }

    // Lemma 2: every prefinisher is potent. Also: no two impotent writes
    // share a prefinisher (their *-action slot must be exclusive).
    std::map<op_id, op_id> prefinisher_used_by;
    for (const write_analysis& wa : out.writes) {
        if (!wa.has_prefinisher) continue;
        auto it = write_index.find(wa.prefinisher);
        if (it == write_index.end()) {
            return fail_defect("prefinisher write has no operation record");
        }
        if (!out.writes[it->second].potent) {
            return fail("Lemma 2 violated: prefinisher is impotent");
        }
        auto [pos, inserted] = prefinisher_used_by.emplace(wa.prefinisher, wa.id);
        if (!inserted) {
            return fail("two impotent writes share one prefinisher");
        }
    }

    // ---- Step 1: *-actions for writes ----
    std::vector<star_action> stars;
    auto write_anchor = [&](const write_analysis& wa) -> star_action {
        if (wa.potent) {
            return {wa.id, wa.real_write, 4, wa.real_write};
        }
        const write_analysis& pf = out.writes[write_index.at(wa.prefinisher)];
        return {wa.id, pf.real_write, 2, wa.real_write};
    };
    for (const write_analysis& wa : out.writes) {
        if (!wa.took_effect) continue;  // crashed before its real write: invisible
        stars.push_back(write_anchor(wa));
    }

    // ---- analyze reads and Steps 2-4 ----
    for (const operation& op : h.ops) {
        if (op.kind != op_kind::read) continue;
        if (!op.complete()) continue;  // a crashed read returns nothing
        read_triple t;
        if (std::optional<std::string> bad = as_three_reads(h, op, regs, t)) {
            return fail_defect(std::move(*bad));
        }
        read_analysis ra;
        ra.id = op.id;
        ra.r0 = t.pos[0];
        ra.r1 = t.pos[1];
        ra.r2 = t.pos[2];
        const event& e0 = t.ev[0];
        const event& e1 = t.ev[1];
        const event& e2 = t.ev[2];
        if (e0.kind != event_kind::real_read || e0.reg != 0 ||
            e1.kind != event_kind::real_read || e1.reg != 1 ||
            e2.kind != event_kind::real_read) {
            return fail_defect("read's real accesses are not (Reg0, Reg1, Reg_r)");
        }
        if (int(e2.reg) != reader_pick(e0.tag, e1.tag)) {
            return fail_defect("read re-read the wrong register for its tags");
        }

        star_action sa;
        sa.id = ra.id;
        sa.tiebreak = op.invoked;
        if (e2.observed_write == no_event) {
            ra.cls = read_class::of_initial;
            ++out.reads_of_initial;
            sa.anchor = ra.r1;  // Step 4
            sa.layer = 5;
        } else {
            auto wit = write_op_at.find(e2.observed_write);
            if (wit == write_op_at.end()) {
                return fail_defect("read observed an unrecorded write");
            }
            ra.source = wit->second;
            const write_analysis& src = out.writes[write_index.at(ra.source)];
            if (src.potent) {
                ra.cls = read_class::of_potent;
                ++out.reads_of_potent;
                const star_action ws = write_anchor(src);
                if (ws.anchor > ra.r0) {  // Step 2: later of r0 and W's *-action
                    sa.anchor = ws.anchor;
                    sa.layer = 5;
                } else {
                    sa.anchor = ra.r0;
                    sa.layer = 5;
                }
            } else {
                ra.cls = read_class::of_impotent;
                ++out.reads_of_impotent;
                const star_action ws = write_anchor(src);
                sa.anchor = ws.anchor;  // Step 3: just after W0, before prefinisher
                sa.layer = 3;
            }
        }
        out.reads.push_back(ra);
        stars.push_back(sa);
    }

    // ---- order the *-actions ----
    std::sort(stars.begin(), stars.end(), [](const star_action& a,
                                             const star_action& b) {
        if (a.anchor != b.anchor) return a.anchor < b.anchor;
        if (a.layer != b.layer) return a.layer < b.layer;
        if (a.tiebreak != b.tiebreak) return a.tiebreak < b.tiebreak;
        return a.id < b.id;
    });

    // ---- verification ----
    // (1) interval containment: each *-action between its op's invocation
    //     and response (Lemma 4 is the nontrivial case).
    for (const star_action& sa : stars) {
        const operation* op = h.find(sa.id);
        if (op == nullptr) return fail_defect("star action for unknown op");
        if (sa.anchor < op->invoked || sa.anchor >= op->responded) {
            std::ostringstream oss;
            oss << "Lemma 4 / containment violated: *-action of proc "
                << sa.id.processor << " op " << sa.id.op
                << " anchored at " << sa.anchor << " outside ["
                << op->invoked << ", " << op->responded << ")";
            return fail(oss.str());
        }
    }
    // (2) program order per processor.
    std::map<processor_id, op_index> last_op_of;
    for (const star_action& sa : stars) {
        auto it = last_op_of.find(sa.id.processor);
        if (it != last_op_of.end() && sa.id.op <= it->second) {
            return fail("program order violated in constructed linearization");
        }
        last_op_of[sa.id.processor] = sa.id.op;
    }
    // (3) the register property.
    value_t current = h.initial_value;
    for (const star_action& sa : stars) {
        const operation* op = h.find(sa.id);
        if (op->kind == op_kind::write) {
            current = op->value;
        } else if (op->value != current) {
            std::ostringstream oss;
            oss << "register property violated: read by proc " << sa.id.processor
                << " op " << sa.id.op << " returned " << op->value
                << " but the register held " << current;
            return fail(oss.str());
        }
    }

    out.atomic = true;
    out.linearization = std::move(stars);
    return out;
}

}  // namespace bloom87
