#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>

#include "util/json.hpp"

namespace bench {

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double since_s(std::uint64_t t0_ns) {
    return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

summary summarize(std::vector<double> samples) {
    summary s;
    s.n = samples.size();
    if (samples.empty()) return s;
    std::sort(samples.begin(), samples.end());
    const auto at = [&](double q) {
        const double pos = q * static_cast<double>(samples.size() - 1);
        const auto lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, samples.size() - 1);
        const double frac = pos - static_cast<double>(lo);
        return samples[lo] + (samples[hi] - samples[lo]) * frac;
    };
    s.median = at(0.5);
    s.p25 = at(0.25);
    s.p75 = at(0.75);
    return s;
}

void result::add(const std::string& name, const std::string& unit,
                 std::vector<double> samples) {
    const bool finite = !samples.empty() &&
                        std::all_of(samples.begin(), samples.end(),
                                    [](double v) { return std::isfinite(v); });
    gate(finite, name + " has finite samples");
    if (!finite) samples.assign(1, 0.0);
    metrics.push_back({name, unit, summarize(std::move(samples))});
}

void result::add(const std::string& name, const std::string& unit,
                 double value) {
    add(name, unit, std::vector<double>{value});
}

void result::gate(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    gate_failures.push_back(what);
}

// ------------------------------------------------------------------ spans --

const char* layer_name(layer l) {
    switch (l) {
        case layer::registers: return "registers";
        case layer::core: return "core";
        case layer::harness: return "harness";
        case layer::histories: return "histories";
        case layer::linearizability: return "linearizability";
        case layer::net: return "net";
        case layer::modelcheck: return "modelcheck";
    }
    return "unknown";
}

std::uint32_t span_buffer::open(const char* name, layer lay,
                                std::uint64_t op) {
    span_record s;
    s.name = name;
    s.lay = lay;
    s.op = op;
    s.parent = stack_.empty() ? no_parent : stack_.back();
    const auto index = static_cast<std::uint32_t>(spans_.size());
    stack_.push_back(index);
    s.start_ns = now_ns();  // last, so the bookkeeping is not timed
    spans_.push_back(s);
    return index;
}

void span_buffer::close(std::uint32_t index) {
    spans_[index].end_ns = now_ns();
    stack_.pop_back();
}

span_buffer& tracer::new_buffer() {
    const std::scoped_lock lock(mu_);
    return buffers_.emplace_back(static_cast<std::uint32_t>(buffers_.size()));
}

std::array<double, layer_count> tracer::typical_self_ns() const {
    const std::scoped_lock lock(mu_);
    std::array<std::vector<double>, layer_count> self;
    for (const span_buffer& b : buffers_) {
        const std::vector<span_record>& spans = b.spans();
        std::vector<double> child(spans.size(), 0.0);
        for (const span_record& s : spans) {
            if (s.parent != span_buffer::no_parent) {
                child[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
            }
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            self[static_cast<std::size_t>(spans[i].lay)].push_back(
                static_cast<double>(spans[i].end_ns - spans[i].start_ns) -
                child[i]);
        }
    }
    std::array<double, layer_count> typical{};
    for (std::size_t l = 0; l < layer_count; ++l) {
        std::vector<double>& v = self[l];
        if (v.empty()) continue;
        std::sort(v.begin(), v.end());
        const std::size_t lo = v.size() / 4;
        const std::size_t hi = std::max(lo + 1, v.size() - v.size() / 4);
        double sum = 0;
        for (std::size_t i = lo; i < hi; ++i) sum += v[i];
        typical[l] = sum / static_cast<double>(hi - lo);
    }
    return typical;
}

std::array<std::uint64_t, layer_count> tracer::span_counts() const {
    const std::scoped_lock lock(mu_);
    std::array<std::uint64_t, layer_count> count{};
    for (const span_buffer& b : buffers_) {
        for (const span_record& s : b.spans()) {
            ++count[static_cast<std::size_t>(s.lay)];
        }
    }
    return count;
}

bool tracer::write_chrome_trace(const std::string& path) const {
    const std::scoped_lock lock(mu_);
    std::ofstream os(path);
    if (!os) return false;
    os << std::fixed << std::setprecision(3);
    std::uint64_t t0 = ~std::uint64_t{0};
    for (const span_buffer& b : buffers_) {
        for (const span_record& s : b.spans()) t0 = std::min(t0, s.start_ns);
    }
    bloom87::json_writer w(os);
    w.begin_object().key("traceEvents").begin_array();
    for (const span_buffer& b : buffers_) {
        const std::vector<span_record>& spans = b.spans();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const span_record& s = spans[i];
            w.begin_object()
                .field("name", s.name)
                .field("cat", layer_name(s.lay))
                .field("ph", "X")
                .field("ts", static_cast<double>(s.start_ns - t0) / 1e3)
                .field("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3)
                .field("pid", 1)
                .field("tid", b.tid())
                .key("args")
                .begin_object()
                .field("op", s.op)
                .field("span", static_cast<std::uint64_t>(i))
                .field("parent", s.parent == span_buffer::no_parent
                                     ? -1
                                     : static_cast<int>(s.parent))
                .end_object()
                .end_object();
        }
    }
    w.end_array().field("displayTimeUnit", "ns").end_object();
    os << "\n";
    return static_cast<bool>(os);
}

}  // namespace bench
