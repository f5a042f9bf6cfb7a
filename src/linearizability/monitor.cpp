#include "linearizability/monitor.hpp"

#include "histories/history.hpp"
#include "linearizability/fast_register.hpp"
#include "util/check.hpp"

namespace bloom87 {

atomicity_monitor::port atomicity_monitor::make_port(processor_id processor) {
    const std::lock_guard<std::mutex> guard(ports_mu_);
    return port{*this, buffers_.emplace_back(), processor};
}

void atomicity_monitor::port::record(event_kind kind, value_t v) {
    event e;
    e.kind = kind;
    e.processor = processor_;
    e.op = open_op_;
    e.value = v;
    const std::uint64_t seq = owner_->seqs_.draw();
    if (seq < owner_->capacity_) buffer_->push_back({seq, e});
}

void atomicity_monitor::port::begin_write(value_t v) {
    check(!open_, "port already has an operation in flight");
    open_ = true;
    open_op_ = next_op_++;
    open_is_write_ = true;
    record(event_kind::sim_invoke_write, v);
}

void atomicity_monitor::port::end_write() {
    check(open_ && open_is_write_, "end_write needs an open write");
    record(event_kind::sim_respond_write, 0);
    open_ = false;
}

void atomicity_monitor::port::begin_read() {
    check(!open_, "port already has an operation in flight");
    open_ = true;
    open_op_ = next_op_++;
    open_is_write_ = false;
    record(event_kind::sim_invoke_read, 0);
}

void atomicity_monitor::port::end_read(value_t result) {
    check(open_ && !open_is_write_, "end_read needs an open read");
    record(event_kind::sim_respond_read, result);
    open_ = false;
}

void atomicity_monitor::port::abandon() { open_ = false; }

monitor_verdict atomicity_monitor::verify() const {
    monitor_verdict out;
    if (overflowed()) {
        out.diagnosis = "monitor capacity exceeded; history incomplete";
        return out;
    }
    std::vector<event> gamma(seqs_.issued());
    {
        const std::lock_guard<std::mutex> guard(ports_mu_);
        for (const std::vector<stamped_event>& b : buffers_) {
            scatter_by_stamp(b, gamma);
        }
    }
    const parse_result parsed = parse_history(gamma, initial_);
    if (!parsed.ok()) {
        out.diagnosis = "malformed history: " + parsed.error->message;
        return out;
    }
    out.operations = parsed.hist.ops.size();
    fast_checker checker;
    const fast_check_result res = checker.check(parsed.hist.ops, initial_);
    out.atomic = res.ok() && res.linearizable;
    if (!out.atomic) out.diagnosis = res.failure();
    return out;
}

namespace {

/// Checks events[0..n); fills `diagnosis` and returns true on violation.
[[nodiscard]] bool prefix_violates(fast_checker& checker,
                                   const std::vector<event>& events,
                                   std::size_t n, value_t initial,
                                   std::string* diagnosis) {
    const parse_result parsed = parse_history(
        {events.begin(), events.begin() + static_cast<std::ptrdiff_t>(n)},
        initial);
    if (!parsed.ok()) {
        *diagnosis = "malformed history: " + parsed.error->message;
        return true;
    }
    const fast_check_result res = checker.check(parsed.hist.ops, initial);
    if (res.ok() && res.linearizable) return false;
    *diagnosis = res.failure();
    return true;
}

}  // namespace

std::optional<violating_prefix> minimal_violating_prefix(
    const std::vector<event>& events, value_t initial) {
    violating_prefix out;
    fast_checker checker;
    if (!prefix_violates(checker, events, events.size(), initial,
                         &out.diagnosis)) {
        return std::nullopt;
    }
    // Invariant: prefix `hi` violates, prefix `lo` does not.
    std::size_t lo = 0;
    std::size_t hi = events.size();
    while (hi - lo > 1) {
        const std::size_t mid = lo + (hi - lo) / 2;
        std::string diagnosis;
        if (prefix_violates(checker, events, mid, initial, &diagnosis)) {
            hi = mid;
            out.diagnosis = std::move(diagnosis);
        } else {
            lo = mid;
        }
    }
    out.length = hi;
    out.culprit = op_id{events[hi - 1].processor, events[hi - 1].op};
    return out;
}

}  // namespace bloom87
