#include "linearizability/streaming.hpp"

#include <algorithm>
#include <limits>

#include "linearizability/fast_register.hpp"

namespace bloom87 {
namespace {

/// Processor id reserved for the virtual reads appended at retirement;
/// far above anything the harness hands out.
constexpr processor_id vread_processor =
    std::numeric_limits<processor_id>::max();

}  // namespace

streaming_checker::streaming_checker(value_t initial, streaming_config cfg)
    : cfg_(cfg), initial_(initial) {
    if (cfg_.stride == 0) cfg_.stride = 1;
    if (cfg_.pending_grace == 0) {
        cfg_.pending_grace = 16 * cfg_.window + 1024;
    }
    candidates_.push_back(initial_);
    stats_.candidate_values = 1;
}

void streaming_checker::flag(std::string why) {
    violation_ = true;
    detection_pos_ = stats_.events;
    diagnosis_ = std::move(why);
}

void streaming_checker::ingest(const event& e) {
    if (violation_) return;
    ++stats_.events;  // gamma position of e is stats_.events - 1
    if (is_real(e.kind)) return;  // external schedule only
    if (is_invocation(e.kind)) {
        on_invocation(e);
    } else {
        on_response(e);
    }
    if (violation_) return;
    if (++since_check_ >= cfg_.stride) {
        since_check_ = 0;
        run_check();
        if (!violation_) maybe_retire();
    }
}

void streaming_checker::declare_crashed(std::size_t i) {
    const operation& op = open_[i].op;
    crashed_ids_.push_back(op.id);
    if (op.kind == op_kind::write) {
        // Kept: a later read of this value decides the write DID take
        // effect (normalize keeps read-from pending writes).
        pending_.push_back(op);
    }
    open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
}

void streaming_checker::on_invocation(const event& e) {
    // A processor invoking while its previous operation never responded
    // crashed mid-operation and recovered (parse_history's reading): the
    // old operation becomes pending.
    for (std::size_t i = 0; i < open_.size(); ++i) {
        if (open_[i].op.id.processor == e.processor) {
            declare_crashed(i);
            break;
        }
    }
    open_op o;
    o.op.id = {e.processor, e.op};
    o.op.kind = e.kind == event_kind::sim_invoke_write ? op_kind::write
                                                       : op_kind::read;
    o.op.value = e.value;  // write argument; meaningless for reads until resp
    o.op.invoked = stats_.events - 1;
    o.op.responded = no_event;
    open_.push_back(std::move(o));
}

void streaming_checker::on_response(const event& e) {
    const op_id id{e.processor, e.op};
    auto it = std::find_if(open_.begin(), open_.end(), [&](const open_op& o) {
        return o.op.id.processor == e.processor;
    });
    if (it == open_.end() || it->op.id != id) {
        if (std::find(crashed_ids_.begin(), crashed_ids_.end(), id) !=
            crashed_ids_.end()) {
            flag("operation outlived pending_grace (" +
                 std::to_string(cfg_.pending_grace) +
                 " events) and then responded; raise the streaming window "
                 "or grace for this workload");
        } else {
            flag("malformed stream: response without a matching open "
                 "operation on processor " +
                 std::to_string(e.processor));
        }
        return;
    }
    const bool is_write = e.kind == event_kind::sim_respond_write;
    if ((it->op.kind == op_kind::write) != is_write) {
        flag("malformed stream: response kind does not match the open "
             "operation on processor " +
             std::to_string(e.processor));
        return;
    }
    operation op = std::move(it->op);
    open_.erase(it);
    op.responded = stats_.events - 1;
    if (op.kind == op_kind::read) op.value = e.value;
    retained_.push_back(std::move(op));
    ++stats_.ops_completed;
    stats_.retained_ops = retained_.size();
    if (retained_.size() > stats_.peak_retained_ops) {
        stats_.peak_retained_ops = retained_.size();
    }
}

void streaming_checker::run_check() {
    ++stats_.checkpoints;
    if (retained_.empty() && open_.empty() && pending_.empty()) return;
    std::vector<operation> ops;
    ops.reserve(retained_.size() + open_.size() + pending_.size());
    ops.insert(ops.end(), retained_.begin(), retained_.end());
    ops.insert(ops.end(), pending_.begin(), pending_.end());
    for (const open_op& o : open_) ops.push_back(o.op);

    std::string first_failure;
    if (last_pass_ >= candidates_.size()) last_pass_ = 0;
    for (std::size_t k = 0; k < candidates_.size(); ++k) {
        const std::size_t i = (last_pass_ + k) % candidates_.size();
        const fast_check_result res = check_fast(ops, candidates_[i]);
        if (res.ok() && res.linearizable) {
            last_pass_ = i;
            return;
        }
        if (first_failure.empty()) {
            first_failure = res.ok() ? res.diagnosis
                                     : "checker defect: " + *res.defect;
        }
    }
    flag("streaming window not linearizable against any candidate current "
         "value (|V|=" +
         std::to_string(candidates_.size()) + "): " + first_failure);
}

void streaming_checker::maybe_retire() {
    // Declare overdue open operations crashed so an eternally-pending op
    // (a crashed port) cannot pin the window forever.
    for (std::size_t i = 0; i < open_.size();) {
        if (open_[i].op.invoked + cfg_.pending_grace < stats_.events) {
            declare_crashed(i);
        } else {
            ++i;
        }
    }
    stats_.pending_carried = pending_.size();
    if (retained_.empty()) return;

    // The cut must not split any live operation, and keeps `window` events
    // of context behind the frontier.
    std::uint64_t upper =
        stats_.events > cfg_.window ? stats_.events - cfg_.window : 0;
    for (const open_op& o : open_) {
        upper = std::min(upper, static_cast<std::uint64_t>(o.op.invoked));
    }

    // retained_ is sorted by responded. Retire the longest prefix [0, k)
    // whose last response lands before `upper` and before every later
    // retained invocation -- a quiescent cut in stream position space.
    const std::size_t n = retained_.size();
    std::vector<std::uint64_t> suffix_min_inv(n + 1, no_event);
    for (std::size_t i = n; i > 0; --i) {
        suffix_min_inv[i - 1] =
            std::min(suffix_min_inv[i],
                     static_cast<std::uint64_t>(retained_[i - 1].invoked));
    }
    std::size_t best = 0;
    for (std::size_t k = n; k > 0; --k) {
        const std::uint64_t resp = retained_[k - 1].responded;
        if (resp >= upper) continue;
        if (suffix_min_inv[k] > resp) {
            best = k;
            break;
        }
    }
    if (best > 0) retire_prefix(best);
}

void streaming_checker::retire_prefix(std::size_t k) {
    std::vector<operation> batch(
        retained_.begin(), retained_.begin() + static_cast<std::ptrdiff_t>(k));
    retained_.erase(retained_.begin(),
                    retained_.begin() + static_cast<std::ptrdiff_t>(k));

    // A retiring read that observed a carried pending (crashed) write
    // decides that write: materialize it into the batch.
    for (std::size_t r = 0; r < k; ++r) {
        if (batch[r].kind != op_kind::read) continue;
        auto it = std::find_if(
            pending_.begin(), pending_.end(), [&](const operation& w) {
                return w.value == batch[r].value;
            });
        if (it != pending_.end()) {
            batch.push_back(std::move(*it));
            pending_.erase(it);
        }
    }

    // Recompute the candidate current values: u survives iff some
    // linearization of the batch (from some previous candidate) ends with
    // value u -- probed by appending a virtual read of u after the batch.
    //
    // The universe of possible u is pruned before probing (this is what
    // keeps retirement O(batch), not O(batch^2)): writes are totally
    // ordered among themselves, so a write real-time-followed by another
    // write (some write invoked after its response) can never linearize
    // last -- only the real-time-maximal writes are eligible, and there
    // are at most `writers` of those. And if the batch contains any write,
    // SOME write linearizes last, so the previous candidates (values no
    // batch write produced) cannot survive at all.
    std::vector<value_t> universe;
    std::uint64_t max_write_inv = 0;
    bool batch_has_write = false;
    for (const operation& op : batch) {
        if (op.kind != op_kind::write) continue;
        batch_has_write = true;
        max_write_inv = std::max(
            max_write_inv, static_cast<std::uint64_t>(op.invoked));
    }
    if (!batch_has_write) {
        universe = candidates_;
    } else {
        for (const operation& op : batch) {
            // A write's own invocation precedes its response, so the
            // global max works: followed iff some OTHER write was invoked
            // after this response.
            if (op.kind == op_kind::write &&
                max_write_inv <= static_cast<std::uint64_t>(op.responded)) {
                universe.push_back(op.value);
            }
        }
    }
    std::vector<value_t> next;
    for (const value_t u : universe) {
        operation vread;
        vread.id = {vread_processor, vread_seq_++};
        vread.kind = op_kind::read;
        vread.value = u;
        vread.invoked = stats_.events;
        vread.responded = stats_.events + 1;
        std::vector<operation> probe = batch;
        probe.push_back(vread);
        for (const value_t v : candidates_) {
            const fast_check_result res = check_fast(probe, v);
            if (res.ok() && res.linearizable) {
                next.push_back(u);
                break;
            }
        }
    }
    if (next.empty()) {
        // Unreachable when the pre-retirement check passed (its witness
        // restricted to the batch ends with SOME value); kept as a loud
        // guard rather than a silent soundness hole.
        flag("internal error: no candidate current value survived "
             "retirement");
        return;
    }
    candidates_ = std::move(next);
    last_pass_ = 0;

    stats_.ops_retired += k;
    ++stats_.retire_batches;
    stats_.retained_ops = retained_.size();
    stats_.candidate_values = candidates_.size();
    stats_.pending_carried = pending_.size();
}

bool streaming_checker::check_now() {
    if (violation_) return true;
    since_check_ = 0;
    run_check();
    if (!violation_) maybe_retire();
    return violation_;
}

bool streaming_checker::finish() {
    if (violation_) return true;
    run_check();
    return violation_;
}

}  // namespace bloom87
