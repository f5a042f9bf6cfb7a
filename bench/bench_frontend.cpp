// [FRONTEND] The high-throughput front end, measured end to end.
//
// Three experiments, one report (the committed BENCH_harness.json):
//
//  1. paced_clients -- timed runs multiplexing open-loop simulated clients
//     over the worker threads, below and beyond saturation, reporting the
//     merged p50/p99/p999 due-time latency (queueing included: no
//     coordinated omission) and the saturation ops/sec.
//  2. streaming_long_run -- a timed run watched by the bounded-memory
//     streaming checker until it has verified >= 10x the events the
//     post-hoc atomicity monitor can hold in memory (1<<20 events), with
//     the retained-operation peak proving the memory bound.
//  3. streaming_detection -- a seeded faulty/ run in which the streaming
//     checker flags the injected corruption mid-stream with a finite
//     first-violation latency in completed operations.
//
//   bench_frontend [--smoke] [--json BENCH_harness.json]
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "harness/checkers.hpp"
#include "harness/cli.hpp"
#include "harness/driver.hpp"
#include "harness/report.hpp"
#include "registers/faulty.hpp"
#include "util/table.hpp"

using namespace bloom87;
namespace harness = bloom87::harness;

namespace {

/// The post-hoc checkers' capacity reference: the atomicity monitor's
/// default capacity (1<<20 events). The streaming long run must verify at
/// least 10x this.
constexpr std::uint64_t posthoc_capacity_events = 1ULL << 20;

struct kept_run {
    harness::run_spec spec;
    harness::run_result result;
};

[[nodiscard]] double total_ops_per_sec(const harness::run_result& r) {
    return r.measured_s > 0
               ? static_cast<double>(r.total_reads + r.total_writes) /
                     r.measured_s
               : 0;
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::string json_path;
    harness::flag_parser parser(
        "bench_frontend", "paced-client latency and streaming checking");
    parser.add_flag("smoke",
                    "CI scale: small runs, same report structure", &smoke);
    parser.add_string("json", "write the run report (harness schema) to PATH",
                      &json_path);
    if (!parser.parse(argc, argv)) return 64;
    if (parser.help_requested()) return 0;

    print_banner(std::cout, "FRONTEND", "Paced clients, streaming checking");

    std::vector<kept_run> kept;
    bool ok = true;

    // ---- 1. open-loop paced clients: latency under and past saturation --
    table clients_t({"clients", "pace", "offered ops/s", "achieved ops/s",
                     "p50 us", "p99 us", "p999 us", "max us"});
    const unsigned duration_ms = smoke ? 150 : 600;
    struct client_cfg {
        unsigned clients;
        std::uint64_t pace_ns;
    };
    const std::vector<client_cfg> client_cfgs = {
        {smoke ? 64u : 512u, 1000000},   // offered load well under capacity
        {smoke ? 512u : 4096u, 250000},  // offered load past one core
    };
    for (const client_cfg& cc : client_cfgs) {
        harness::run_spec spec;
        spec.register_name = "bloom/packed";
        spec.load.writers = 2;
        spec.load.readers = 2;
        spec.seed = 2;
        spec.duration_ms = duration_ms;
        spec.warmup_ms = smoke ? 20 : 100;
        spec.collect = harness::collect_mode::none;
        spec.clients = cc.clients;
        spec.client_pace_ns = cc.pace_ns;
        const harness::run_result res = harness::run(spec);
        if (!res.ok) {
            std::cerr << "paced-client run failed: " << res.error << "\n";
            return 1;
        }
        const double offered = 1e9 / static_cast<double>(cc.pace_ns) *
                               static_cast<double>(cc.clients);
        clients_t.row({std::to_string(cc.clients),
                       std::to_string(cc.pace_ns / 1000) + " us",
                       fixed(offered, 0), fixed(total_ops_per_sec(res), 0),
                       fixed(res.latency.p50_us, 1),
                       fixed(res.latency.p99_us, 1),
                       fixed(res.latency.p999_us, 1),
                       fixed(res.latency.max_us, 1)});
        if (res.latency.samples == 0) {
            std::cerr << "paced-client run recorded no latency samples\n";
            ok = false;
        }
        kept.push_back({spec, res});
        harness::trim_heap();
    }
    clients_t.print(std::cout);
    std::cout << "\n(latency measured from each client's DUE time: queueing\n"
              << "delay past saturation is charged to the operation.)\n\n";

    // ---- 2. streaming long run: beyond post-hoc capacity ----------------
    const std::uint64_t target_events =
        smoke ? posthoc_capacity_events / 4 : 10 * posthoc_capacity_events;
    harness::run_spec long_spec;
    long_spec.register_name = "bloom/packed";
    long_spec.load.writers = 2;
    long_spec.load.readers = 2;
    long_spec.seed = 3;
    long_spec.collect = harness::collect_mode::per_thread;
    long_spec.schedule = harness::schedule_mode::threads;
    long_spec.streaming_monitor = true;
    long_spec.stream_window = 4096;
    long_spec.stream_stride = 4096;
    long_spec.duration_ms = smoke ? 500 : 2000;
    harness::run_result long_res;
    for (int attempt = 0; attempt < 5; ++attempt) {
        long_res = harness::run(long_spec);
        if (!long_res.ok) {
            std::cerr << "streaming long run failed: " << long_res.error
                      << "\n";
            return 1;
        }
        if (long_res.stream.events >= target_events) break;
        // Not enough events yet: scale the duration from the measured rate,
        // clamped so one attempt never runs away (the checker throttles the
        // producers, so the rate is the checker's, not the register's).
        const double rate = static_cast<double>(long_res.stream.events) /
                            std::max(0.001, long_res.measured_s);
        const double need_s =
            static_cast<double>(target_events) / std::max(1000.0, rate);
        long_spec.duration_ms = std::min<unsigned>(
            smoke ? 10000 : 120000,
            static_cast<unsigned>(need_s * 1200) + 500);
        harness::trim_heap();
    }
    const double capacity_ratio =
        static_cast<double>(long_res.stream.events) /
        static_cast<double>(posthoc_capacity_events);
    table stream_t({"events verified", "x post-hoc capacity", "ops retired",
                    "retained peak", "checkpoints", "violation"});
    stream_t.row({std::to_string(long_res.stream.events),
                  fixed(capacity_ratio, 1),
                  std::to_string(long_res.stream.ops_retired),
                  std::to_string(long_res.stream.retained_peak),
                  std::to_string(long_res.stream.checkpoints),
                  long_res.stream.violation ? "YES (unexpected)" : "none"});
    stream_t.print(std::cout);
    std::cout << "\n(post-hoc capacity reference: the atomicity monitor's\n"
              << "default 1<<20-event capacity; the streaming checker holds\n"
              << "only the retained window regardless of run length.)\n\n";
    if (long_res.stream.violation) {
        std::cerr << "clean streaming run flagged a violation: "
                  << long_res.stream.diagnosis << "\n";
        ok = false;
    }
    if (!smoke && long_res.stream.events < target_events) {
        std::cerr << "streaming long run fell short of "
                  << target_events << " events\n";
        ok = false;
    }
    kept.push_back({long_spec, long_res});
    harness::trim_heap();

    // ---- 3. streaming detection of injected corruption ------------------
    table detect_t({"fault", "injected", "violation", "detection pos",
                    "latency (ops)"});
    bool caught_all = true;
    for (const fault_class cls :
         {fault_class::stale_read, fault_class::lost_write,
          fault_class::torn_value}) {
        harness::run_spec spec;
        spec.register_name = "faulty/seqlock";
        spec.load.writers = 2;
        spec.load.readers = 2;
        spec.load.ops_per_writer = 160;
        spec.load.ops_per_reader = 160;
        spec.collect = harness::collect_mode::per_thread;
        spec.schedule = harness::schedule_mode::seeded;
        spec.fault.cls = cls;
        spec.fault.rate_num = 1;
        spec.fault.rate_den = 32;
        spec.streaming_monitor = true;
        spec.stream_window = 64;
        spec.stream_stride = 16;
        harness::run_result res;
        for (std::uint64_t seed = 3; seed < 9; ++seed) {
            spec.seed = seed;
            spec.fault.seed = seed;
            res = harness::run(spec);
            if (!res.ok) {
                std::cerr << "faulty streaming run failed: " << res.error
                          << "\n";
                return 1;
            }
            if (res.stream.violation) break;
        }
        detect_t.row({fault_class_name(cls),
                      std::to_string(res.faults_injected.total()),
                      res.stream.violation ? "detected" : "MISSED",
                      res.stream.violation
                          ? std::to_string(res.stream.detection_pos)
                          : "-",
                      res.stream.violation
                          ? std::to_string(res.stream.latency_ops)
                          : "-"});
        caught_all = caught_all && res.stream.violation;
        res.events.clear();
        res.events.shrink_to_fit();
        kept.push_back({spec, std::move(res)});
        harness::trim_heap();
    }
    detect_t.print(std::cout);
    if (!caught_all) {
        std::cerr << "\na corrupting fault class went unnoticed mid-stream\n";
        ok = false;
    }

    if (!json_path.empty()) {
        std::ofstream os(json_path);
        if (!os) {
            std::cerr << "cannot write " << json_path << "\n";
            return 66;
        }
        harness::report_writer rep(os, "frontend");
        for (const kept_run& kr : kept) {
            const bool is_long = &kr == &kept[kept.size() - 4];
            rep.add_run(kr.spec, kr.result, nullptr,
                        [&](json_writer& w) {
                            if (is_long) {
                                w.field("posthoc_capacity_events",
                                        posthoc_capacity_events);
                                w.field("capacity_ratio", capacity_ratio);
                            }
                        });
        }
        rep.add_table("paced_clients", clients_t);
        rep.add_table("streaming_long_run", stream_t);
        rep.add_table("streaming_detection", detect_t);
        rep.finish();
        std::cout << "wrote " << json_path << "\n";
    }
    return ok ? 0 : 1;
}
