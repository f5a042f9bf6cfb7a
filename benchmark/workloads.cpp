// The untraced run of each workload: its end-to-end metrics and its
// correctness gates. Every workload reports the same five metrics; what
// counts as one operation is the workload's own (README.md, "Workloads").
#include "workloads.hpp"

#include <algorithm>
#include <memory>

#include "harness/checkers.hpp"
#include "harness/registry.hpp"
#include "histories/workload.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/processes.hpp"

namespace bench {

using namespace bloom87;
using namespace bloom87::harness;

run_spec contended_spec(std::uint64_t seed) {
    run_spec spec;
    spec.register_name = "bloom/packed";
    spec.seed = seed;
    spec.load.writers = 2;
    spec.load.readers = 1;
    spec.load.ops_per_writer = 4096;
    spec.load.ops_per_reader = 4096;
    spec.latency_sample_every = 16;
    return spec;
}

run_spec verified_spec(std::uint64_t seed) {
    run_spec spec = contended_spec(seed);
    spec.collect = collect_mode::per_thread;
    spec.streaming_monitor = true;
    spec.stream_window = 4096;
    spec.stream_stride = 4096;
    return spec;
}

run_spec net_faulty_spec(std::uint64_t seed, std::size_t ops_per_proc) {
    run_spec spec;
    spec.register_name = "net/abd-mw";
    spec.net_servers = 3;
    spec.seed = seed;
    spec.schedule = schedule_mode::seeded;
    spec.load.writers = 2;
    spec.load.readers = 1;
    spec.load.ops_per_writer = ops_per_proc;
    spec.load.ops_per_reader = ops_per_proc;
    // Paced ops run a burst of other processors' ops mid-operation, which
    // is what gives the single-thread schedule real overlap.
    spec.pace.writer_pace_num = 1;
    spec.pace.writer_pace_den = 8;
    spec.pace.reader_pace_num = 1;
    spec.pace.reader_pace_den = 8;
    spec.pace.pause_yields = 4;
    spec.fault.composed = {{fault_class::lost_write, 1, 100},
                           {fault_class::delayed_visibility, 1, 50},
                           {fault_class::port_crash, 1, 20000}};
    spec.fault.recover_after = 2000;
    spec.fault.seed = seed;
    return spec;
}

mc::explore_config footnote5_config() {
    mc::explore_config cfg;
    cfg.threads = 1;
    return cfg;
}

mc::sim_state footnote5_state() {
    const auto reg = [] {
        mc::mc_register r;
        r.level = mc::reg_level::atomic;
        r.domain = 12;
        r.committed = 0;
        return r;
    };
    mc::sim_state s;
    s.registers = {reg(), reg()};
    s.procs.push_back(mc::make_bloom_writer(0, {1, 2}));
    s.procs.push_back(mc::make_bloom_writer(1, {3, 4}));
    s.procs.push_back(mc::make_bloom_reader_reversed(2, 2));
    return s;
}

std::size_t net_ops_per_proc(const options& opt) {
    return opt.smoke ? 20000 : 200000;
}

std::uint64_t budget_ns(const options& opt) {
    return (opt.smoke ? 1ULL : opt.seconds) * 1000000000ULL;
}

namespace {

/// A scripted run of `spec` with 20k ops per processor, recorded per
/// thread, must pass the polynomial atomicity checker.
void gate_scripted(run_spec spec, result& out) {
    spec.duration_ms = 0;
    spec.warmup_ms = 0;
    spec.collect = collect_mode::per_thread;
    spec.streaming_monitor = false;
    spec.latency_sample_every = 0;
    spec.load.ops_per_writer = 20000;
    spec.load.ops_per_reader = 20000;
    const run_result rr = run(spec);
    out.gate(rr.ok, "scripted gate run: " + rr.error);
    if (!rr.ok) return;
    const pipeline_result pr = run_checkers(
        rr.events, spec.initial, {checker_kind::fast}, spec.register_name);
    const bool ran = !pr.verdicts.empty() && pr.verdicts.front().ran;
    out.gate(ran && pr.all_pass(),
             "scripted gate run fails the fast checker" +
                 (pr.verdicts.empty() ? std::string()
                                      : ": " + pr.verdicts.front().diagnosis));
    out.gate(rr.ops_dropped == 0, "scripted gate run dropped ops");
}

/// True once `reps` >= `min_reps` and one more rep, as long as the mean rep
/// so far, would overrun the budget of a workload that started at
/// `start_ns`.
bool budget_spent(const options& opt, std::uint64_t start_ns,
                  std::uint64_t reps, std::uint64_t min_reps) {
    const std::uint64_t elapsed = now_ns() - start_ns;
    return reps >= min_reps && elapsed + elapsed / reps > budget_ns(opt);
}

/// Reps of a timed harness run: as many `rep_ms` epochs (each with its
/// 50 ms warmup and ~10 ms of set-up) as fit the budget after a warmup
/// run, at least three.
unsigned timed_reps(const options& opt, unsigned rep_ms, unsigned warmup_ms) {
    const std::uint64_t per_rep = (rep_ms + 60ULL) * 1000000ULL;
    const std::uint64_t budget = budget_ns(opt) - warmup_ms * 1000000ULL;
    return std::max<unsigned>(3, static_cast<unsigned>(budget / per_rep));
}

/// The shared shape of `contended` and `verified`: a discarded warmup run,
/// then timed reps, rep r on seed+r.
result timed_workload(const char* name, const options& opt,
                      run_spec (*make_spec)(std::uint64_t)) {
    result out;
    out.workload = name;
    const bool verified = make_spec(opt.seed).streaming_monitor;
    const unsigned rep_ms = opt.smoke ? 200 : (verified ? 1400 : 1000);
    const unsigned warmup_ms = opt.smoke ? 50 : 300;
    const unsigned reps = timed_reps(opt, rep_ms, warmup_ms);

    {
        run_spec warm = make_spec(opt.seed);
        warm.duration_ms = warmup_ms;
        const run_result rr = run(warm);
        out.gate(rr.ok, "warmup run: " + rr.error);
        if (!rr.ok) return out;
    }

    std::vector<double> setup, ops_per_s, op_ns;
    for (unsigned r = 0; r < reps; ++r) {
        run_spec spec = make_spec(opt.seed + r);
        spec.warmup_ms = 50;
        spec.duration_ms = rep_ms;
        const std::uint64_t t0 = now_ns();
        const run_result rr = run(spec);
        const double wall = since_s(t0);
        out.gate(rr.ok, "timed run: " + rr.error);
        if (!rr.ok) return out;
        const auto ops = static_cast<double>(rr.total_reads + rr.total_writes);
        const double threads = static_cast<double>(rr.threads.size());
        setup.push_back(wall - (spec.warmup_ms + spec.duration_ms) / 1000.0);
        ops_per_s.push_back(ops / rr.measured_s);
        op_ns.push_back(threads * rr.measured_s * 1e9 / ops);
        out.attempted += rr.total_reads + rr.total_writes + rr.ops_dropped;
        out.failed += rr.ops_dropped;
        if (verified) {
            out.gate(rr.stream.ran && !rr.stream.violation,
                     "streaming checker violation: " + rr.stream.diagnosis);
            out.gate(rr.stream.ops_retired > 0,
                     "streaming checker retired no ops");
        }
    }
    out.add("setup_s", "s", setup);
    out.add("peak_rss_mb", "MB", peak_rss_mb());
    if (!verified) gate_scripted(make_spec(opt.seed), out);
    out.add("ops_per_s", "1/s", ops_per_s);
    out.add("op_ns", "ns", op_ns);
    return out;
}

/// `solo`: one thread through the registry's bloom/packed ports. Each rep
/// times writes (writer port), reads (reader port) and cached reads
/// (writer port) as the best of 5 batches each.
result solo(const options& opt) {
    result out;
    out.workload = "solo";
    const std::size_t batch = opt.smoke ? 50000 : 400000;
    workload_config cfg;
    cfg.writers = 2;
    cfg.readers = 1;
    cfg.ops_per_writer = batch;
    cfg.ops_per_reader = 0;
    cfg.writer_read_num = 0;

    // Set-up: the write script, the register, and its ports.
    std::vector<double> setup;
    std::unique_ptr<any_register> reg;
    std::unique_ptr<any_port> writers[2];
    std::unique_ptr<any_port> reader;
    workload wl;
    for (int k = 0; k < 5; ++k) {
        writers[0].reset();
        writers[1].reset();
        reader.reset();
        reg.reset();
        const std::uint64_t t0 = now_ns();
        wl = make_workload(cfg, opt.seed);
        register_args args;
        args.writers = 2;
        args.readers = 1;
        std::string err;
        reg = make_register("bloom/packed", args, &err);
        out.gate(reg != nullptr, "make_register: " + err);
        if (reg == nullptr) return out;
        writers[0] = reg->make_port(0, port_role::writer);
        writers[1] = reg->make_port(1, port_role::writer);
        reader = reg->make_port(2, port_role::reader);
        setup.push_back(since_s(t0));
    }

    std::vector<double> op_ns, ops_per_s;
    value_t sink = 0;
    const std::uint64_t start = now_ns();
    for (std::uint64_t r = 0;; ++r) {
        // Rep r writes through writer port (seed + r) mod 2.
        const std::size_t w = (opt.seed + r) & 1;
        any_port& wp = *writers[w];
        const std::vector<workload_op>& script = wl.scripts[w];
        const value_t last = script.back().value;
        const auto best_of_5 = [&](auto&& body) {
            double best = 0;
            for (int b = 0; b < 5; ++b) {
                const std::uint64_t t0 = now_ns();
                body();
                const double ns = static_cast<double>(now_ns() - t0) /
                                  static_cast<double>(batch);
                if (b == 0 || ns < best) best = ns;
                value_t cached = 0;
                const bool has_cache = wp.read_cached(cached);
                out.gate(reader->read() == last && has_cache && cached == last,
                         "a read after a batch did not return the last write");
            }
            out.attempted += 5 * batch;
            return best;
        };
        const double wns = best_of_5([&] {
            for (const workload_op& op : script) wp.write(op.value);
        });
        const double rns = best_of_5([&] {
            for (std::size_t i = 0; i < batch; ++i) sink += reader->read();
        });
        const double cns = best_of_5([&] {
            for (std::size_t i = 0; i < batch; ++i) {
                value_t v = 0;
                (void)wp.read_cached(v);
                sink += v;
            }
        });
        op_ns.push_back((wns + rns + cns) / 3.0);
        ops_per_s.push_back(1e9 / op_ns.back());
        if (budget_spent(opt, start, r + 1, 5)) break;
    }
    keep(sink);

    out.add("setup_s", "s", setup);
    out.add("peak_rss_mb", "MB", peak_rss_mb());
    out.add("ops_per_s", "1/s", ops_per_s);
    out.add("op_ns", "ns", op_ns);
    return out;
}

/// `net_faulty`: scripted reps on the seeded schedule, rep r on seed+r,
/// until the budget is spent (at least three).
result net_faulty(const options& opt) {
    result out;
    out.workload = "net_faulty";
    std::vector<double> setup, ops_per_s, op_ns;
    const std::uint64_t start = now_ns();
    for (std::uint64_t r = 0;; ++r) {
        const run_spec spec = net_faulty_spec(opt.seed + r, net_ops_per_proc(opt));
        const std::uint64_t t0 = now_ns();
        const run_result rr = run(spec);
        const double wall = since_s(t0);
        out.gate(rr.ok, "net run: " + rr.error);
        if (!rr.ok) return out;
        const auto ops = static_cast<double>(rr.total_reads + rr.total_writes);
        setup.push_back(wall - rr.measured_s);
        ops_per_s.push_back(ops / rr.measured_s);
        op_ns.push_back(rr.measured_s * 1e9 / ops);
        out.attempted += rr.total_reads + rr.total_writes;
        out.failed += rr.ops_dropped;
        if (budget_spent(opt, start, r + 1, 3)) break;
    }
    out.add("setup_s", "s", setup);
    out.add("peak_rss_mb", "MB", peak_rss_mb());
    gate_scripted(net_faulty_spec(opt.seed, 20000), out);
    out.add("ops_per_s", "1/s", ops_per_s);
    out.add("op_ns", "ns", op_ns);
    return out;
}

/// `model_check`: time to verdict of the footnote-5 exploration. The
/// configuration is fixed; the seed does not change it. Set-up is what a
/// rep does before exploring: returning the previous rep's heap to the
/// system and building the model's initial state.
result model_check(const options& opt) {
    result out;
    out.workload = "model_check";
    const mc::explore_config cfg = footnote5_config();
    std::vector<double> setup, ops_per_s, op_ns;
    const std::uint64_t start = now_ns();
    for (std::uint64_t r = 0;; ++r) {
        const std::uint64_t t0 = now_ns();
        trim_heap();
        const mc::sim_state s = footnote5_state();
        setup.push_back(since_s(t0));
        const std::uint64_t t1 = now_ns();
        const mc::explore_result res = mc::explore(s, cfg);
        const double wall = since_s(t1);
        ops_per_s.push_back(1.0 / wall);
        op_ns.push_back(wall * 1e9);
        ++out.attempted;
        out.gate(res.property_holds && !res.truncated,
                 "footnote 5 must hold untruncated");
        out.gate(res.distinct_histories == footnote5_histories,
                 "footnote 5 must have 247354 distinct histories, got " +
                     std::to_string(res.distinct_histories));
        if (budget_spent(opt, start, r + 1, opt.smoke ? 1 : 3)) break;
    }
    out.add("setup_s", "s", setup);
    out.add("peak_rss_mb", "MB", peak_rss_mb());
    out.add("ops_per_s", "1/s", ops_per_s);
    out.add("op_ns", "ns", op_ns);
    return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {
        "solo", "contended", "verified", "net_faulty", "model_check"};
    return names;
}

result run_workload(const std::string& name, const options& opt) {
    if (name == "solo") return solo(opt);
    if (name == "contended") return timed_workload("contended", opt, contended_spec);
    if (name == "verified") return timed_workload("verified", opt, verified_spec);
    if (name == "net_faulty") return net_faulty(opt);
    return model_check(opt);
}

}  // namespace bench
