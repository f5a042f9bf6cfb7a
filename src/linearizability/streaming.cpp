#include "linearizability/streaming.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace bloom87 {

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
        checkpoint();
    }
}

void streaming_checker::declare_crashed(std::size_t i) {
    const operation& op = open_[i].op;
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
    // old operation becomes pending. Neither it nor an earlier grace-expired
    // operation of this processor can respond any more.
    std::erase_if(overdue_, [&](const op_id& id) {
        return id.processor == e.processor;
    });
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
        if (std::find(overdue_.begin(), overdue_.end(), id) !=
            overdue_.end()) {
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

bool streaming_checker::judge_from_some_candidate(
    std::span<const operation> ops) {
    for (std::size_t k = 0; k < candidates_.size(); ++k) {
        const std::size_t i = (last_pass_ + k) % candidates_.size();
        stats_.ops_checked += ops.size();
        if (zones_.judge(ops, candidates_[i])) {
            last_pass_ = i;
            return true;
        }
    }
    return false;
}

bool streaming_checker::explain(std::span<const operation> ops,
                                std::string* first_failure) {
    for (std::size_t k = 0; k < candidates_.size(); ++k) {
        const std::size_t i = (last_pass_ + k) % candidates_.size();
        const fast_check_result res = fast_.check(ops, candidates_[i]);
        if (res.ok() && res.linearizable) return true;
        // A history defect is the violation itself: a read of a value no
        // write in the window produced is a stale read of a judged,
        // overwritten value (or a corrupted one).
        if (first_failure->empty()) *first_failure = res.failure();
    }
    return false;
}

void streaming_checker::run_check() {
    ++stats_.checkpoints;
    if (judged_ == retained_.size() && open_.empty() && pending_.empty()) {
        return;
    }
    std::vector<operation>& ops = check_ops_;
    ops.assign(retained_.begin() + static_cast<std::ptrdiff_t>(judged_),
               retained_.end());
    ops.insert(ops.end(), pending_.begin(), pending_.end());
    for (const open_op& o : open_) ops.push_back(o.op);

    if (judge_from_some_candidate(ops)) return;
    std::string why;
    if (explain(ops, &why)) {
        flag("internal error: the zones reject a window check_fast accepts");
        return;
    }
    flag("streaming window not linearizable against any candidate current "
         "value (|V|=" +
         std::to_string(candidates_.size()) + "): " + why);
}

void streaming_checker::checkpoint() {
    // Declare overdue open operations crashed so an eternally-pending op
    // (a crashed port) cannot pin either cut forever.
    for (std::size_t i = 0; i < open_.size();) {
        if (open_[i].op.invoked + cfg_.pending_grace < stats_.events) {
            // Only a grace-expired operation may still respond, and only
            // until its processor invokes again.
            overdue_.push_back(open_[i].op.id);
            declare_crashed(i);
        } else {
            ++i;
        }
    }
    stats_.pending_carried = pending_.size();

    // Neither cut may split an open operation.
    event_pos first_open = no_event;
    for (const open_op& o : open_) {
        first_open = std::min(first_open, o.op.invoked);
    }

    // Judge up to the frontier: V then accounts for everything before the
    // judged cut.
    const std::size_t judged =
        last_quiescent_cut(std::min(stats_.events, first_open));
    if (judged > judged_) {
        judge_through(judged);
        if (violation_) return;
    }

    // Retire what is `window` events old. Both cuts pass the same test and
    // this bound is never above the judge's, so only judged ops retire.
    const std::uint64_t lag =
        stats_.events > cfg_.window ? stats_.events - cfg_.window : 0;
    const std::size_t retire = last_quiescent_cut(std::min(lag, first_open));
    check(retire <= judged_, "the retirement cut passed the judged cut");
    if (retire > 0) {
        retained_.erase(
            retained_.begin(),
            retained_.begin() + static_cast<std::ptrdiff_t>(retire));
        judged_ -= retire;
        stats_.ops_retired += retire;
        ++stats_.retire_batches;
        stats_.retained_ops = retained_.size();
    }

    run_check();
}

std::size_t streaming_checker::last_quiescent_cut(event_pos upper) const {
    // retained_ is sorted by responded. The cut after retained_[k - 1] is
    // quiescent when that op responded before every later retained
    // invocation -- no retained op spans it.
    event_pos later_invoked = no_event;  // min over retained_[k, n)
    for (std::size_t k = retained_.size(); k > 0; --k) {
        const operation& op = retained_[k - 1];
        if (op.responded < upper && op.responded < later_invoked) return k;
        later_invoked = std::min(later_invoked, op.invoked);
    }
    return 0;
}

void streaming_checker::judge_through(std::size_t k) {
    const std::span<const operation> judged(retained_.data() + judged_,
                                            k - judged_);

    // A judged read that observed a carried pending (crashed) write
    // decides that write: materialize it into a copy of the batch.
    check_ops_.clear();
    for (const operation& r : judged) {
        if (pending_.empty()) break;
        if (r.kind != op_kind::read) continue;
        auto it = std::find_if(
            pending_.begin(), pending_.end(),
            [&](const operation& w) { return w.value == r.value; });
        if (it == pending_.end()) continue;
        if (check_ops_.empty()) check_ops_.assign(judged.begin(), judged.end());
        check_ops_.push_back(std::move(*it));
        pending_.erase(it);
    }
    const std::span<const operation> batch =
        check_ops_.empty() ? judged : std::span<const operation>(check_ops_);

    // The candidate current values at the judged cut: every value some
    // linearization of the batch, from some v in V, ends with, in batch
    // order of their writes (V's own order when the batch writes nothing).
    // A batch that writes is judged until one v passes: a value is written
    // once, so a passing v is not read in the batch, and every passing v
    // leaves the same clusters, none of them the initial one.
    const bool writes =
        std::any_of(batch.begin(), batch.end(), [](const operation& o) {
            return o.kind == op_kind::write;
        });
    std::vector<value_t>& next = next_candidates_;
    next.clear();
    for (const value_t v : candidates_) {
        stats_.ops_checked += batch.size();
        if (!zones_.judge(batch, v)) continue;
        for (const value_t u : zones_.last_values()) {
            if (std::find(next.begin(), next.end(), u) == next.end()) {
                next.push_back(u);
            }
        }
        if (writes) break;
    }
    if (next.empty()) {
        // The cut is quiescent, so any linearization of the window restricts
        // to one of the batch: no survivor means the window is not
        // linearizable, and check_fast over the batch says why. A batch it
        // passes is a checker defect.
        std::string why;
        if (explain(batch, &why)) {
            flag("internal error: no candidate current value survived the "
                 "judged batch");
        } else {
            flag("judged batch not linearizable against any candidate "
                 "current value (|V|=" +
                 std::to_string(candidates_.size()) + "): " + why);
        }
        return;
    }
    candidates_.swap(next);
    last_pass_ = 0;
    judged_ = k;
    stats_.candidate_values = candidates_.size();
    stats_.pending_carried = pending_.size();
}

bool streaming_checker::finish() {
    if (violation_) return true;
    run_check();
    return violation_;
}

}  // namespace bloom87
