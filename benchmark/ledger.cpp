// The traced run: each workload's load re-driven from the benchmark's own
// loops (untraced, then traced, for trace.overhead), followed by the
// per-layer ledger, which times every layer in isolation through its
// public functions. Both record spans named "layer.function" around the
// calls they make, 1 op in 64, and the run writes them out as a Chrome
// trace. Per-layer metrics are printed for every workload; the ledger part
// does not depend on the workload.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "core/two_writer.hpp"
#include "harness/registry.hpp"
#include "histories/thread_log.hpp"
#include "histories/workload.hpp"
#include "linearizability/streaming.hpp"
#include "modelcheck/explorer.hpp"
#include "registers/instrumented.hpp"
#include "registers/packed_atomic.hpp"
#include "registers/seqlock.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace bench {
namespace {

using namespace bloom87;
using namespace bloom87::harness;

/// A 7-byte payload: the shape of the registry's bloom/packed values.
struct packed7 {
    unsigned char bytes[7];
};

packed7 to7(std::uint64_t v) {
    packed7 p{};
    for (int i = 0; i < 7; ++i) p.bytes[i] = static_cast<unsigned char>(v >> (8 * i));
    return p;
}

/// Best of 5 batches of `n` calls, in ns per call.
template <typename Body>
double best_ns(std::size_t n, Body&& body) {
    double best = 0;
    for (int b = 0; b < 5; ++b) {
        const std::uint64_t t0 = now_ns();
        for (std::size_t i = 0; i < n; ++i) body(i);
        const double ns =
            static_cast<double>(now_ns() - t0) / static_cast<double>(n);
        if (b == 0 || ns < best) best = ns;
    }
    return best;
}

/// A short traced pass over `body`, so the layer has spans in the trace.
template <typename Body>
void traced_pass(span_buffer& buf, const char* name, layer lay, Body&& body) {
    for (std::uint64_t i = 0; i < 4096; ++i) {
        const scoped_span s(sampled(&buf, i), name, lay, i);
        body(i);
    }
}

std::size_t batch(const options& opt) { return opt.smoke ? 50000 : 400000; }

register_args three_ports() {
    register_args args;
    args.writers = 2;
    args.readers = 1;
    return args;
}

// ------------------------------------------------------------- registers --

void ledger_registers(const options& opt, span_buffer& buf, result& out) {
    const std::size_t n = batch(opt) * 2;
    packed_atomic_register<std::int32_t> word(tagged<std::int32_t>{0, false});
    out.add("registers.packed_write_ns", "ns", best_ns(n, [&](std::size_t i) {
        word.write({static_cast<std::int32_t>(i), (i & 1) != 0});
    }));
    out.add("registers.packed_read_ns", "ns", best_ns(n, [&](std::size_t) {
        keep(word.read());
    }));

    packed_atomic_register<packed7> p7(tagged<packed7>{to7(0), false});
    out.add("registers.packed7_write_ns", "ns", best_ns(n, [&](std::size_t i) {
        p7.write({to7(i), (i & 1) != 0});
    }));
    out.add("registers.packed7_read_ns", "ns", best_ns(n, [&](std::size_t) {
        keep(p7.read());
    }));
    traced_pass(buf, "registers.packed7.write", layer::registers,
                [&](std::uint64_t i) { p7.write({to7(i), false}); });
    traced_pass(buf, "registers.packed7.read", layer::registers,
                [&](std::uint64_t) { keep(p7.read()); });

    seqlock_register<std::int64_t> seq(tagged<std::int64_t>{0, false});
    out.add("registers.seqlock_write_ns", "ns", best_ns(n, [&](std::size_t i) {
        seq.write({static_cast<std::int64_t>(i), (i & 1) != 0});
    }));
    out.add("registers.seqlock_read_ns", "ns", best_ns(n, [&](std::size_t) {
        keep(seq.read());
    }));
}

// ------------------------------------------------------------------ core --

struct core_times {
    double write_ns{0};
    double read_ns{0};
};

core_times ledger_core(const options& opt, span_buffer& buf, result& out) {
    const std::size_t n = batch(opt);
    two_writer_register<packed7, packed_atomic_register<packed7>> reg(to7(0));
    auto rd = reg.make_reader(2);
    core_times t;
    t.write_ns = best_ns(n, [&](std::size_t i) { reg.writer0().write(to7(i)); });
    t.read_ns = best_ns(n, [&](std::size_t) { keep(rd.read()); });
    out.add("core.write_ns", "ns", t.write_ns);
    out.add("core.read_ns", "ns", t.read_ns);
    out.add("core.cached_read_ns", "ns", best_ns(n, [&](std::size_t) {
        keep(reg.writer0().read_cached());
    }));
    traced_pass(buf, "core.writer.write", layer::core,
                [&](std::uint64_t i) { reg.writer1().write(to7(i)); });
    traced_pass(buf, "core.reader.read", layer::core,
                [&](std::uint64_t) { keep(rd.read()); });
    traced_pass(buf, "core.writer.read_cached", layer::core,
                [&](std::uint64_t) { keep(reg.writer0().read_cached()); });

    // The paper's price, counted exactly: 3 real reads per read, 1 real
    // read + 1 real write per write.
    using counted = instrumented_register<packed_atomic_register<std::int32_t>>;
    two_writer_register<std::int32_t, counted> cnt(0);
    auto crd = cnt.make_reader(2);
    constexpr std::uint32_t ops = 10000;
    for (std::uint32_t i = 0; i < ops; ++i) {
        (i & 1 ? cnt.writer1() : cnt.writer0()).write(static_cast<std::int32_t>(i));
    }
    const access_counts w = cnt.real_register(0).counts() + cnt.real_register(1).counts();
    cnt.real_register(0).reset_counts();
    cnt.real_register(1).reset_counts();
    for (std::uint32_t i = 0; i < ops; ++i) keep(crd.read());
    const access_counts r = cnt.real_register(0).counts() + cnt.real_register(1).counts();
    out.add("core.real_accesses_per_write", "count",
            static_cast<double>(w.total()) / ops);
    out.add("core.real_reads_per_read", "count",
            static_cast<double>(r.reads) / ops);
    return t;
}

// --------------------------------------------------------------- harness --

void ledger_harness(const options& opt, const core_times& core,
                    span_buffer& buf, result& out) {
    const std::size_t n = batch(opt);
    std::string err;
    std::unique_ptr<any_register> reg = make_register("bloom/packed", three_ports(), &err);
    out.gate(reg != nullptr, "make_register: " + err);
    if (reg == nullptr) return;
    auto w = reg->make_port(0, port_role::writer);
    auto r = reg->make_port(2, port_role::reader);
    const double write_ns = best_ns(n, [&](std::size_t i) {
        w->write(unique_value(0, static_cast<std::uint32_t>(i)));
    });
    const double read_ns = best_ns(n, [&](std::size_t) { keep(r->read()); });
    out.add("harness.port_write_self_ns", "ns", write_ns - core.write_ns);
    out.add("harness.port_read_self_ns", "ns", read_ns - core.read_ns);
    traced_pass(buf, "harness.port.write", layer::harness, [&](std::uint64_t i) {
        w->write(unique_value(0, static_cast<std::uint32_t>(i)));
    });
    traced_pass(buf, "harness.port.read", layer::harness,
                [&](std::uint64_t) { keep(r->read()); });

    // Set-up calls, each the mean of a block of calls.
    {
        constexpr int calls = 64;
        const std::uint64_t t0 = now_ns();
        for (int k = 0; k < calls; ++k) {
            const scoped_span s(sampled(&buf, k), "harness.make_register",
                                layer::harness, k);
            auto fresh = make_register("bloom/packed", three_ports(), &err);
            for (processor_id p = 0; p < 3; ++p) {
                keep(fresh->make_port(p, p < 2 ? port_role::writer : port_role::reader));
            }
        }
        out.add("harness.make_register_s", "s", since_s(t0) / calls);
    }
    {
        constexpr int calls = 5;
        const run_spec net = net_faulty_spec(opt.seed, net_ops_per_proc(opt));
        const std::uint64_t t0 = now_ns();
        for (int k = 0; k < calls; ++k) {
            const scoped_span s(&buf, "harness.make_workload", layer::harness, k);
            keep(make_workload(net.load, opt.seed + k).scripts.size());
        }
        out.add("harness.make_workload_s", "s", since_s(t0) / calls);
    }

    // A short contended run: per-role cost under contention, and the part
    // of run() outside its epochs.
    std::vector<double> overhead, reader_ns, writer_ns, slowdown;
    for (int k = 0; k < 3; ++k) {
        run_spec spec = contended_spec(opt.seed + k);
        spec.duration_ms = opt.smoke ? 100 : 300;
        const scoped_span s(&buf, "harness.run", layer::harness, k);
        const std::uint64_t t0 = now_ns();
        const run_result rr = run(spec);
        const double wall = since_s(t0);
        out.gate(rr.ok, "contended run: " + rr.error);
        if (!rr.ok) return;
        overhead.push_back(wall - spec.duration_ms / 1000.0);
        double rsum = 0, wsum = 0;
        for (const thread_result& tr : rr.threads) {
            const double ns = 1e9 / tr.ops_per_sec;
            (tr.role == port_role::reader ? rsum : wsum) += ns;
        }
        reader_ns.push_back(rsum);
        writer_ns.push_back(wsum / 2.0);
        const double ops = static_cast<double>(rr.total_reads + rr.total_writes);
        const double per_op = 3.0 * rr.measured_s * 1e9 / ops;
        slowdown.push_back(per_op / ((write_ns + read_ns) / 2.0));
    }
    out.add("harness.run_overhead_s", "s", overhead);
    out.add("harness.reader_ns_per_op", "ns", reader_ns);
    out.add("harness.writer_ns_per_op", "ns", writer_ns);
    out.add("harness.contention_slowdown", "ratio", slowdown);
}

// ------------------------------------------------------------- histories --

/// Three rings filled as three producers would fill them: seq stamps drawn
/// in a seeded random processor order.
void fill_rings(std::vector<std::unique_ptr<event_ring>>& rings,
                std::size_t per_ring, std::uint64_t seed) {
    seq_source seqs;
    rng gen(seed);
    std::vector<std::size_t> left(rings.size(), per_ring);
    std::size_t total = per_ring * rings.size();
    while (total > 0) {
        std::size_t p = gen.below(rings.size());
        while (left[p] == 0) p = (p + 1) % rings.size();
        event e;
        e.kind = event_kind::sim_invoke_read;
        e.processor = static_cast<processor_id>(p);
        rings[p]->push(seqs.draw(), e);
        --left[p];
        --total;
    }
    for (auto& r : rings) r->finish();
}

void ledger_histories(const options& opt, span_buffer& buf, result& out) {
    constexpr std::size_t cap = std::size_t{1} << 16;
    {
        seq_source seqs;
        event_ring ring(cap);
        event e;
        e.kind = event_kind::sim_invoke_write;
        double best = 0;
        for (int b = 0; b < 5; ++b) {
            const std::uint64_t t0 = now_ns();
            for (std::size_t i = 0; i < cap; ++i) ring.push(seqs.draw(), e);
            const double ns = static_cast<double>(now_ns() - t0) / cap;
            if (b == 0 || ns < best) best = ns;
            for (std::size_t i = 0; i < cap; ++i) ring.pop();
        }
        out.add("histories.record_ns_per_event", "ns", best);
        for (std::uint64_t i = 0; i < 4096; ++i) {
            const scoped_span s(sampled(&buf, i), "histories.ring.push",
                                layer::histories, i);
            ring.push(seqs.draw(), e);
        }
    }

    std::vector<double> merge_ns;
    for (int b = 0; b < 5; ++b) {
        std::vector<std::unique_ptr<event_ring>> rings;
        for (int p = 0; p < 3; ++p) rings.push_back(std::make_unique<event_ring>(cap / 4));
        fill_rings(rings, cap / 4, opt.seed + b);
        std::vector<event_ring*> rp;
        for (auto& r : rings) rp.push_back(r.get());
        ring_merger merger(rp);
        stamped_event se;
        std::uint64_t k = 0;
        const std::uint64_t t0 = now_ns();
        if (b == 0) {
            for (;; ++k) {
                const scoped_span s(sampled(&buf, k), "histories.merger.next",
                                    layer::histories, k);
                if (!merger.next(&se)) break;
            }
        } else {
            while (merger.next(&se)) ++k;
        }
        if (b > 0) merge_ns.push_back(static_cast<double>(now_ns() - t0) / k);
    }
    out.add("histories.merge_ns_per_event", "ns", merge_ns);

    run_spec spec = verified_spec(opt.seed);
    spec.duration_ms = opt.smoke ? 100 : 300;
    const run_result rr = run(spec);
    out.gate(rr.ok && !rr.stream.violation, "verified run: " + rr.error);
    const double ops = static_cast<double>(rr.total_reads + rr.total_writes);
    out.add("histories.producer_stalls_per_kop", "count",
            ops > 0 ? static_cast<double>(rr.stream.producer_stalls) * 1000 / ops : 0);
}

// ------------------------------------------------------- linearizability --

void ledger_linearizability(const options& opt, span_buffer& buf, result& out) {
    // A recorded 3-processor history with real overlap (paced ops on the
    // seeded schedule), fed to the checker with the `verified` settings.
    run_spec spec;
    spec.register_name = "bloom/packed";
    spec.seed = opt.seed;
    spec.schedule = schedule_mode::seeded;
    spec.collect = collect_mode::per_thread;
    spec.load.writers = 2;
    spec.load.readers = 1;
    spec.load.ops_per_writer = opt.smoke ? 5000 : 40000;
    spec.load.ops_per_reader = spec.load.ops_per_writer;
    spec.pace.writer_pace_num = 1;
    spec.pace.writer_pace_den = 8;
    spec.pace.reader_pace_num = 1;
    spec.pace.reader_pace_den = 8;
    spec.pace.pause_yields = 4;
    const run_result rr = run(spec);
    out.gate(rr.ok, "recording run: " + rr.error);
    if (!rr.ok) return;
    const run_spec verified = verified_spec(opt.seed);
    streaming_config cfg;
    cfg.window = verified.stream_window;
    cfg.stride = verified.stream_stride;

    std::vector<double> ingest_ns;
    streaming_stats stats;
    for (int pass = 0; pass < 3; ++pass) {
        streaming_checker chk(spec.initial, cfg);
        span_buffer* b = pass == 0 ? &buf : nullptr;
        const std::uint64_t t0 = now_ns();
        for (std::size_t i = 0; i < rr.events.size(); ++i) {
            const scoped_span s(sampled(b, i), "linearizability.ingest",
                                layer::linearizability, i);
            chk.ingest(rr.events[i]);
        }
        {
            const scoped_span s(b, "linearizability.finish",
                                layer::linearizability, rr.events.size());
            chk.finish();
        }
        ingest_ns.push_back(static_cast<double>(now_ns() - t0) /
                            static_cast<double>(rr.events.size()));
        out.gate(!chk.violation_found(),
                 "streaming checker flags a clean history: " + chk.diagnosis());
        stats = chk.stats();
    }
    out.add("linearizability.ingest_ns_per_event", "ns", ingest_ns);
    out.add("linearizability.checkpoints_per_kevent", "count",
            static_cast<double>(stats.checkpoints) * 1000 /
                static_cast<double>(stats.events));
    out.add("linearizability.retained_peak_ops", "count",
            static_cast<double>(stats.peak_retained_ops));
    out.add("linearizability.retire_ratio", "ratio",
            static_cast<double>(stats.ops_retired) /
                static_cast<double>(stats.ops_completed));
}

// ------------------------------------------------------------------- net --

/// net_faulty's register, built directly so its ops can be driven (and
/// traced) one by one.
std::unique_ptr<any_register> make_net_register(std::uint64_t seed,
                                                std::string* err) {
    const run_spec spec = net_faulty_spec(seed, 0);
    register_args args = three_ports();
    args.servers = spec.net_servers;
    args.fault = spec.fault;
    args.net_seed = seed;
    return make_register(spec.register_name, args, err);
}

void ledger_net(const options& opt, span_buffer& buf, result& out) {
    const run_spec spec = net_faulty_spec(opt.seed, opt.smoke ? 5000 : 50000);
    const run_result rr = run(spec);
    out.gate(rr.ok, "net run: " + rr.error);
    if (!rr.ok) return;
    const net_stats& ns = rr.net;
    const auto ops = static_cast<double>(ns.ops);
    out.add("net.msgs_per_op", "count", static_cast<double>(ns.sent) / ops);
    out.add("net.rounds_per_op", "count", static_cast<double>(ns.rounds) / ops);
    out.add("net.fast_path_rate", "ratio",
            static_cast<double>(ns.fast_path_ops) / ops);
    out.add("net.retransmissions_per_kop", "count",
            static_cast<double>(ns.retransmissions) * 1000 / ops);
    out.add("net.recoveries", "count", static_cast<double>(ns.recoveries));
    out.add("net.catchup_rounds", "count", static_cast<double>(ns.catchup_rounds));
    out.add("net.stale_inc_drops", "count", static_cast<double>(ns.stale_inc_drops));
    out.add("net.unavailable_ops", "count", static_cast<double>(ns.unavailable_ops));
    out.add("net.ns_per_msg", "ns",
            rr.measured_s * 1e9 / static_cast<double>(ns.sent));

    // Informational only: across processes its medians are bimodal (bus
    // lock contention), which is why no end-to-end metric uses it.
    run_spec threaded;
    threaded.register_name = "net/abd-mw";
    threaded.seed = opt.seed;
    threaded.load.writers = 2;
    threaded.load.readers = 1;
    threaded.duration_ms = opt.smoke ? 100 : 300;
    const run_result tr = run(threaded);
    out.gate(tr.ok, "threaded net run: " + tr.error);
    out.add("net.threaded_ops_per_s", "1/s",
            static_cast<double>(tr.total_reads + tr.total_writes) / tr.measured_s);

    std::string err;
    auto reg = make_net_register(opt.seed, &err);
    out.gate(reg != nullptr, "net make_register: " + err);
    if (reg == nullptr) return;
    auto w = reg->make_port(0, port_role::writer);
    auto r = reg->make_port(2, port_role::reader);
    traced_pass(buf, "net.port.write", layer::net, [&](std::uint64_t i) {
        w->write(unique_value(0, static_cast<std::uint32_t>(i)));
    });
    traced_pass(buf, "net.port.read", layer::net,
                [&](std::uint64_t) { keep(r->read()); });
}

// ------------------------------------------------------------ modelcheck --

void ledger_modelcheck(span_buffer& buf, result& out) {
    const mc::explore_config cfg = footnote5_config();
    const mc::sim_state s = footnote5_state();
    trim_heap();
    const std::uint64_t t0 = now_ns();
    mc::explore_result res;
    {
        const scoped_span span(&buf, "modelcheck.explore", layer::modelcheck, 0);
        res = mc::explore(s, cfg);
    }
    const double wall = since_s(t0);
    out.gate(res.property_holds &&
                 res.distinct_histories == footnote5_histories,
             "footnote 5 verdict");
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    out.add("modelcheck.states", "count", count(res.states_explored));
    out.add("modelcheck.core_states", "count", count(res.reduction.core_states));
    out.add("modelcheck.sleep_pruned", "count", count(res.reduction.sleep_pruned));
    out.add("modelcheck.enumerated_paths", "count",
            count(res.reduction.enumerated_paths));
    out.add("modelcheck.distinct_histories", "count", count(res.distinct_histories));
    out.add("modelcheck.memo_bytes", "B", count(res.memory.memo_bytes));
    out.add("modelcheck.graph_bytes", "B", count(res.memory.graph_bytes));
    out.add("modelcheck.states_per_s", "1/s", count(res.states_explored) / wall);
    out.add("modelcheck.paths_per_s", "1/s",
            count(res.reduction.enumerated_paths) / wall);
}

// --------------------------------------------------------------- re-drive --

/// Ops each re-drive thread runs at most: keeps the trace to ~8k spans per
/// thread.
constexpr std::uint64_t redrive_ops_cap = trace_sample_every * 8192;

/// Whether a re-drive thread that started at `t0_ns` runs op `i`: below
/// the op cap and, checked every 256 ops, inside the phase's time.
bool redrive_more(const options& opt, std::uint64_t i, std::uint64_t t0_ns) {
    const std::uint64_t phase_ns = opt.smoke ? 200000000ULL : 1500000000ULL;
    return i < redrive_ops_cap && ((i & 255) != 0 || now_ns() - t0_ns < phase_ns);
}

struct throughput {
    double ops{0};
    double secs{1};
};

/// `solo` re-driven: write, read and cached read through the registry.
throughput redrive_solo(const options& opt, tracer* tr, result& out) {
    std::string err;
    auto reg = make_register("bloom/packed", three_ports(), &err);
    out.gate(reg != nullptr, "make_register: " + err);
    if (reg == nullptr) return {};
    auto w = reg->make_port(static_cast<processor_id>(opt.seed & 1), port_role::writer);
    auto r = reg->make_port(2, port_role::reader);
    span_buffer* buf = tr != nullptr ? &tr->new_buffer() : nullptr;
    const std::uint64_t t0 = now_ns();
    std::uint64_t i = 0;
    for (; redrive_more(opt, i, t0); ++i) {
        span_buffer* b = sampled(buf, i);
        {
            const scoped_span s(b, "harness.port.write", layer::harness, i);
            w->write(unique_value(0, static_cast<std::uint32_t>(i)));
        }
        {
            const scoped_span s(b, "harness.port.read", layer::harness, i);
            keep(r->read());
        }
        {
            const scoped_span s(b, "harness.port.read_cached", layer::harness, i);
            value_t v = 0;
            (void)w->read_cached(v);
            keep(v);
        }
    }
    return {3.0 * static_cast<double>(i), since_s(t0)};
}

/// `contended` and `verified` re-driven: one thread per processor running
/// its script through the registry ports; `verified` also records every
/// op into per-thread rings that a fourth thread merges into the
/// streaming checker.
throughput redrive_threads(const options& opt, bool verified, tracer* tr,
                           result& out) {
    const run_spec spec = verified ? verified_spec(opt.seed) : contended_spec(opt.seed);
    const workload wl = make_workload(spec.load, spec.seed);
    std::string err;
    auto reg = make_register(spec.register_name, three_ports(), &err);
    out.gate(reg != nullptr, "make_register: " + err);
    if (reg == nullptr) return {};
    constexpr std::size_t procs = 3;
    std::vector<std::unique_ptr<any_port>> ports;
    std::vector<std::unique_ptr<event_ring>> rings;
    std::vector<span_buffer*> bufs(procs + 1, nullptr);
    for (std::size_t p = 0; p < procs; ++p) {
        ports.push_back(reg->make_port(static_cast<processor_id>(p),
                                       p < 2 ? port_role::writer : port_role::reader));
        if (verified) rings.push_back(std::make_unique<event_ring>(std::size_t{1} << 10));
    }
    if (tr != nullptr) {
        for (auto& b : bufs) b = &tr->new_buffer();
    }
    seq_source seqs;
    streaming_config cfg;
    cfg.window = spec.stream_window;
    cfg.stride = spec.stream_stride;
    streaming_checker chk(spec.initial, cfg);
    std::atomic<std::uint64_t> total{0};

    const auto producer = [&](std::size_t p) {
        any_port& port = *ports[p];
        const std::vector<workload_op>& script = wl.scripts[p];
        event_ring* ring = verified ? rings[p].get() : nullptr;
        const auto proc = static_cast<processor_id>(p);
        std::uint32_t fresh = 0;
        std::uint64_t i = 0;
        const std::uint64_t t0 = now_ns();
        for (; redrive_more(opt, i, t0); ++i) {
            const bool write = script[i % script.size()].kind == op_kind::write;
            const value_t v = write ? unique_value(proc, fresh++) : 0;
            span_buffer* b = sampled(bufs[p], i);
            event e;
            e.processor = proc;
            e.op = static_cast<op_index>(i);
            if (ring != nullptr) {
                ring->reserve(2);
                e.kind = write ? event_kind::sim_invoke_write : event_kind::sim_invoke_read;
                e.value = v;
                const scoped_span s(b, "histories.ring.push", layer::histories, i);
                ring->push(seqs.draw(), e);
            }
            value_t got = 0;
            {
                const scoped_span s(b, write ? "harness.port.write" : "harness.port.read",
                                    layer::harness, i);
                if (write) {
                    port.write(v);
                } else {
                    got = port.read();
                }
            }
            if (ring != nullptr) {
                e.kind = write ? event_kind::sim_respond_write : event_kind::sim_respond_read;
                e.value = got;
                const scoped_span s(b, "histories.ring.push", layer::histories, i);
                ring->push(seqs.draw(), e);
            }
        }
        if (ring != nullptr) ring->finish();
        total.fetch_add(i, std::memory_order_relaxed);
    };
    const auto merge = [&] {
        std::vector<event_ring*> rp;
        for (auto& r : rings) rp.push_back(r.get());
        ring_merger merger(rp);
        stamped_event se;
        for (std::uint64_t k = 0;; ++k) {
            span_buffer* b = sampled(bufs[procs], k);
            {
                const scoped_span s(b, "histories.merger.next", layer::histories, k);
                if (!merger.next(&se)) break;
            }
            const scoped_span s(b, "linearizability.ingest", layer::linearizability, k);
            chk.ingest(se.e);
        }
        const scoped_span s(bufs[procs], "linearizability.finish",
                            layer::linearizability, 0);
        chk.finish();
    };

    const std::uint64_t t0 = now_ns();
    {
        std::vector<std::jthread> pool;
        for (std::size_t p = 0; p < procs; ++p) pool.emplace_back(producer, p);
        if (verified) pool.emplace_back(merge);
    }
    const double secs = since_s(t0);
    if (verified) {
        out.gate(!chk.violation_found(), "streaming checker: " + chk.diagnosis());
        out.gate(chk.stats().ops_retired > 0, "streaming checker retired no ops");
    }
    return {static_cast<double>(total.load()), secs};
}

/// `net_faulty` re-driven: net_faulty's register and faults, its three
/// processors' scripts interleaved one op at a time in a seeded order.
throughput redrive_net(const options& opt, tracer* tr, result& out) {
    const run_spec spec = net_faulty_spec(opt.seed, 4096);
    const workload wl = make_workload(spec.load, spec.seed);
    std::string err;
    auto reg = make_net_register(opt.seed, &err);
    out.gate(reg != nullptr, "net make_register: " + err);
    if (reg == nullptr) return {};
    std::vector<std::unique_ptr<any_port>> ports;
    for (processor_id p = 0; p < 3; ++p) {
        ports.push_back(reg->make_port(p, p < 2 ? port_role::writer : port_role::reader));
    }
    span_buffer* buf = tr != nullptr ? &tr->new_buffer() : nullptr;
    rng order(opt.seed);
    std::uint32_t fresh = 0;
    std::uint64_t i = 0;
    const std::uint64_t t0 = now_ns();
    for (; redrive_more(opt, i, t0); ++i) {
        const std::size_t p = order.below(3);
        const workload_op& op = wl.scripts[p][i % wl.scripts[p].size()];
        span_buffer* b = sampled(buf, i);
        if (op.kind == op_kind::write) {
            const scoped_span s(b, "net.port.write", layer::net, i);
            ports[p]->write(unique_value(static_cast<processor_id>(p), fresh++));
        } else {
            const scoped_span s(b, "net.port.read", layer::net, i);
            keep(ports[p]->read());
        }
    }
    const double secs = since_s(t0);
    out.gate(reg->net().unavailable_ops == 0, "net re-drive had unavailable ops");
    return {static_cast<double>(i), secs};
}

/// `model_check` re-driven: one exploration.
throughput redrive_model_check(tracer* tr, result& out) {
    const mc::explore_config cfg = footnote5_config();
    const mc::sim_state s = footnote5_state();
    span_buffer* buf = tr != nullptr ? &tr->new_buffer() : nullptr;
    trim_heap();
    const std::uint64_t t0 = now_ns();
    mc::explore_result res;
    {
        const scoped_span span(buf, "modelcheck.explore", layer::modelcheck, 0);
        res = mc::explore(s, cfg);
    }
    const double secs = since_s(t0);
    out.gate(res.property_holds && res.distinct_histories == footnote5_histories,
             "footnote 5 verdict");
    return {1, secs};
}

throughput redrive(const std::string& name, const options& opt, tracer* tr,
                   result& out) {
    if (name == "solo") return redrive_solo(opt, tr, out);
    if (name == "contended") return redrive_threads(opt, false, tr, out);
    if (name == "verified") return redrive_threads(opt, true, tr, out);
    if (name == "net_faulty") return redrive_net(opt, tr, out);
    return redrive_model_check(tr, out);
}

}  // namespace

result run_traced(const std::string& name, const options& opt) {
    result out;
    out.workload = name;
    const throughput plain = redrive(name, opt, nullptr, out);
    tracer tr;
    const throughput traced = redrive(name, opt, &tr, out);
    out.attempted = static_cast<std::uint64_t>(plain.ops + traced.ops);
    out.add("trace.overhead", "ratio",
            (traced.ops / traced.secs) / (plain.ops / plain.secs));

    span_buffer& buf = tr.new_buffer();
    ledger_registers(opt, buf, out);
    const core_times core = ledger_core(opt, buf, out);
    ledger_harness(opt, core, buf, out);
    ledger_histories(opt, buf, out);
    ledger_linearizability(opt, buf, out);
    ledger_net(opt, buf, out);
    ledger_modelcheck(buf, out);

    const std::array<double, layer_count> self = tr.typical_self_ns();
    const std::array<std::uint64_t, layer_count> spans = tr.span_counts();
    for (std::size_t l = 0; l < layer_count; ++l) {
        const std::string lname = layer_name(static_cast<layer>(l));
        out.gate(spans[l] > 0, "no spans for layer " + lname);
        out.add("trace." + lname + ".self_ns", "ns", self[l]);
    }
    const std::string path = opt.trace_dir + "/trace_" + name + ".json";
    out.gate(tr.write_chrome_trace(path), "cannot write " + path);
    return out;
}

}  // namespace bench
