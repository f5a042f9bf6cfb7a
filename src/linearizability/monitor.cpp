#include "linearizability/monitor.hpp"

#include <cassert>

#include "histories/history.hpp"
#include "linearizability/fast_register.hpp"

namespace bloom87 {

atomicity_monitor::atomicity_monitor(value_t initial, std::size_t capacity)
    : initial_(initial), log_(capacity) {}

void atomicity_monitor::port::begin_write(value_t v) {
    assert(!open_ && "port already has an operation in flight");
    event e;
    e.kind = event_kind::sim_invoke_write;
    e.processor = processor_;
    e.op = next_op_;
    e.value = v;
    owner_->log_.append(e);
    open_ = true;
    open_op_ = next_op_++;
    open_is_write_ = true;
}

void atomicity_monitor::port::end_write() {
    assert(open_ && open_is_write_);
    event e;
    e.kind = event_kind::sim_respond_write;
    e.processor = processor_;
    e.op = open_op_;
    owner_->log_.append(e);
    open_ = false;
}

void atomicity_monitor::port::begin_read() {
    assert(!open_ && "port already has an operation in flight");
    event e;
    e.kind = event_kind::sim_invoke_read;
    e.processor = processor_;
    e.op = next_op_;
    owner_->log_.append(e);
    open_ = true;
    open_op_ = next_op_++;
    open_is_write_ = false;
}

void atomicity_monitor::port::end_read(value_t result) {
    assert(open_ && !open_is_write_);
    event e;
    e.kind = event_kind::sim_respond_read;
    e.processor = processor_;
    e.op = open_op_;
    e.value = result;
    owner_->log_.append(e);
    open_ = false;
}

void atomicity_monitor::port::abandon() { open_ = false; }

monitor_verdict atomicity_monitor::verify() const {
    monitor_verdict out;
    if (log_.overflowed()) {
        out.diagnosis = "monitor capacity exceeded; history incomplete";
        return out;
    }
    const parse_result parsed = parse_history(log_.snapshot(), initial_);
    if (!parsed.ok()) {
        out.diagnosis = "malformed history: " + parsed.error->message;
        return out;
    }
    out.operations = parsed.hist.ops.size();
    const fast_check_result res = check_fast(parsed.hist.ops, initial_);
    if (!res.ok()) {
        out.diagnosis = "checker defect: " + *res.defect;
        return out;
    }
    out.atomic = res.linearizable;
    if (!out.atomic) out.diagnosis = res.diagnosis;
    return out;
}

namespace {

/// Checks events[0..n); fills `diagnosis` and returns true on violation.
[[nodiscard]] bool prefix_violates(const std::vector<event>& events,
                                   std::size_t n, value_t initial,
                                   std::string* diagnosis) {
    const parse_result parsed = parse_history(
        {events.begin(), events.begin() + static_cast<std::ptrdiff_t>(n)},
        initial);
    if (!parsed.ok()) {
        *diagnosis = "malformed history: " + parsed.error->message;
        return true;
    }
    const fast_check_result res = check_fast(parsed.hist.ops, initial);
    if (!res.ok()) {
        *diagnosis = "checker defect: " + *res.defect;
        return true;
    }
    if (!res.linearizable) {
        *diagnosis = res.diagnosis;
        return true;
    }
    return false;
}

}  // namespace

std::optional<violating_prefix> minimal_violating_prefix(
    const std::vector<event>& events, value_t initial) {
    violating_prefix out;
    if (!prefix_violates(events, events.size(), initial, &out.diagnosis)) {
        return std::nullopt;
    }
    // Invariant: prefix `hi` violates, prefix `lo` does not.
    std::size_t lo = 0;
    std::size_t hi = events.size();
    while (hi - lo > 1) {
        const std::size_t mid = lo + (hi - lo) / 2;
        std::string diagnosis;
        if (prefix_violates(events, mid, initial, &diagnosis)) {
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
