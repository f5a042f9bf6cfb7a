// bloom87_bench: shared pieces of the benchmark -- options, the result a
// workload reports, sample summaries, and the in-memory span tracer.
//
// The benchmark measures the library only from outside, through its public
// functions; the spans below are recorded in the benchmark's own loops,
// around the calls it makes into each layer.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace bench {

[[nodiscard]] std::uint64_t now_ns();

/// Seconds elapsed since `t0_ns`.
[[nodiscard]] double since_s(std::uint64_t t0_ns);

/// Keeps a computed value alive, so a timed loop's calls are not optimized
/// away, without storing it anywhere.
template <typename T>
void keep(const T& v) {
    asm volatile("" : : "m"(v) : "memory");
}

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

struct options {
    std::string workload{"all"};
    std::uint64_t seed{1};
    /// How long one workload measures; each workload fits its reps into it.
    unsigned seconds{10};
    bool trace{false};
    std::string trace_dir{"."};
    bool smoke{false};
    std::string json_path;
    std::string commit{"unknown"};
};

/// Median and quartiles of a sample set (linear interpolation between
/// order statistics); every field is 0 for an empty set.
struct summary {
    double median{0};
    double p25{0};
    double p75{0};
    std::size_t n{0};
};

[[nodiscard]] summary summarize(std::vector<double> samples);

struct metric {
    std::string name;
    std::string unit;
    summary s;
};

/// What one workload run reports. `failed` counts operations that were
/// attempted but not completed (ring drops and unavailable quorum ops).
struct result {
    std::string workload;
    bool correct{true};
    std::uint64_t attempted{0};
    std::uint64_t failed{0};
    std::vector<metric> metrics;
    std::vector<std::string> gate_failures;

    void add(const std::string& name, const std::string& unit,
             std::vector<double> samples);
    void add(const std::string& name, const std::string& unit, double value);
    /// A correctness gate: a false `ok` marks the run incorrect.
    void gate(bool ok, const std::string& what);
};

// ------------------------------------------------------------------ spans --

/// The library's modules, which name the benchmark's layers.
enum class layer : std::uint8_t {
    registers,
    core,
    harness,
    histories,
    linearizability,
    net,
    modelcheck,
};
inline constexpr std::size_t layer_count = 7;

[[nodiscard]] const char* layer_name(layer l);

/// Traced loops record 1 operation in this many.
inline constexpr std::uint64_t trace_sample_every = 64;

struct span_record {
    const char* name{""};  ///< "layer.function", a string literal
    layer lay{layer::harness};
    std::uint64_t start_ns{0};
    std::uint64_t end_ns{0};
    std::uint32_t parent{0};  ///< index in the same buffer, or no_parent
    std::uint64_t op{0};
};

/// One thread's spans. Only its owning thread touches it until the run ends.
class span_buffer {
public:
    static constexpr std::uint32_t no_parent = 0xffffffffu;

    explicit span_buffer(std::uint32_t tid) : tid_(tid) {
        spans_.reserve(std::size_t{1} << 14);
    }

    std::uint32_t open(const char* name, layer lay, std::uint64_t op);
    void close(std::uint32_t index);

    [[nodiscard]] std::uint32_t tid() const noexcept { return tid_; }
    [[nodiscard]] const std::vector<span_record>& spans() const noexcept {
        return spans_;
    }

private:
    std::uint32_t tid_;
    std::vector<span_record> spans_;
    std::vector<std::uint32_t> stack_;
};

/// Records a span for its lifetime; a null buffer records nothing, which is
/// how call sites skip the ops they do not sample.
class scoped_span {
public:
    scoped_span(span_buffer* b, const char* name, layer lay, std::uint64_t op)
        : b_(b), index_(b != nullptr ? b->open(name, lay, op) : 0) {}
    ~scoped_span() {
        if (b_ != nullptr) b_->close(index_);
    }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

private:
    span_buffer* b_;
    std::uint32_t index_;
};

/// The buffer for op `op` when it is sampled, else null.
[[nodiscard]] inline span_buffer* sampled(span_buffer* b, std::uint64_t op) {
    return b != nullptr && op % trace_sample_every == 0 ? b : nullptr;
}

/// Owns every thread's span buffer for one traced run.
class tracer {
public:
    /// A fresh buffer for the calling thread; stable for the tracer's life.
    span_buffer& new_buffer();

    /// A typical span's self time in each layer: the interquartile mean,
    /// over the layer's spans, of a span's duration minus the part its
    /// child spans cover. It discounts the few long spans (a whole
    /// harness::run) among the many per-op ones. Layers without spans
    /// read 0.
    [[nodiscard]] std::array<double, layer_count> typical_self_ns() const;
    [[nodiscard]] std::array<std::uint64_t, layer_count> span_counts() const;

    /// Writes Chrome trace-event JSON (opens in Perfetto). False when the
    /// file cannot be written.
    bool write_chrome_trace(const std::string& path) const;

private:
    mutable std::mutex mu_;
    std::deque<span_buffer> buffers_;  // guarded by mu_
};

// -------------------------------------------------------------- workloads --

/// The workload names, in presentation order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload untraced and returns its end-to-end metrics.
[[nodiscard]] result run_workload(const std::string& name, const options& opt);

/// The traced run of one workload: re-drives its load from the benchmark's
/// own loop, untraced and then traced, runs the per-layer ledger under the
/// same tracer, and returns the per-layer metrics.
[[nodiscard]] result run_traced(const std::string& name, const options& opt);

}  // namespace bench
