// [TAB-A] Shared-memory cost accounting (paper, Section 5).
//
// The paper claims: a simulated write costs 1 real read + 1 real write; a
// simulated read costs 3 real reads; a writer that keeps a local copy of
// its own register reads only 1-2 real registers per simulated read. This
// bench measures those numbers exactly with instrumented substrates, per
// operation and amortized over a mixed workload.
//
//   bench_access_counts [--json BENCH_access_counts.json]
#include <fstream>
#include <iostream>

#include "core/two_writer.hpp"
#include "harness/cli.hpp"
#include "harness/report.hpp"
#include "histories/workload.hpp"
#include "registers/instrumented.hpp"
#include "registers/packed_atomic.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace bloom87;

using counted_reg =
    two_writer_register<std::int32_t,
                        instrumented_register<packed_atomic_register<std::int32_t>>>;

namespace {

access_counts totals(counted_reg& reg) {
    return reg.real_register(0).counts() + reg.real_register(1).counts();
}

void reset(counted_reg& reg) {
    reg.real_register(0).reset_counts();
    reg.real_register(1).reset_counts();
}

}  // namespace

int main(int argc, char** argv) {
    harness::flag_parser parser("bench_access_counts",
                                "real-register accesses per simulated op");
    std::string json_path;
    parser.add_string("json", "write a bloom87-harness report here",
                      &json_path);
    if (!parser.parse(argc, argv)) return 64;
    if (parser.help_requested()) return 0;

    print_banner(std::cout, "TAB-A",
                 "Real-register accesses per simulated operation");

    counted_reg reg(0);
    auto rd = reg.make_reader(2);

    table t({"operation", "real reads", "real writes", "paper claim"});

    // Warm both writer caches so the cached-read rows measure steady state.
    reg.writer1().write(1);
    reg.writer0().write(2);

    reset(reg);
    reg.writer0().write(3);
    auto c = totals(reg);
    t.row({"simulated write", std::to_string(c.reads), std::to_string(c.writes),
           "1 read + 1 write"});

    reset(reg);
    (void)rd.read();
    c = totals(reg);
    t.row({"simulated read (reader)", std::to_string(c.reads),
           std::to_string(c.writes), "3 reads"});

    reset(reg);
    (void)reg.writer0().read();
    c = totals(reg);
    t.row({"simulated read (writer, no cache)", std::to_string(c.reads),
           std::to_string(c.writes), "3 reads"});

    // Writer 0 wrote last, so the tag sum points at Reg0: its cached read
    // needs 1 real read; writer 1's needs 2.
    reset(reg);
    (void)reg.writer0().read_cached();
    c = totals(reg);
    t.row({"simulated read (writer cache, own reg current)",
           std::to_string(c.reads), std::to_string(c.writes), "1 read"});

    reset(reg);
    (void)reg.writer1().read_cached();
    c = totals(reg);
    t.row({"simulated read (writer cache, other reg current)",
           std::to_string(c.reads), std::to_string(c.writes), "2 reads"});
    t.print(std::cout);

    // Amortized over a mixed workload, including the distribution of
    // cached-read costs.
    std::cout << "\nAmortized over a mixed workload (10,000 ops/processor):\n\n";
    constexpr std::uint32_t n = 10000;
    rng gen(7);
    std::uint64_t writes = 0, writer_reads = 0, reader_reads = 0;
    reset(reg);
    std::uint32_t w0 = 100000, w1 = 200000;
    for (std::uint32_t i = 0; i < n; ++i) {
        switch (gen.below(4)) {
            case 0: reg.writer0().write(static_cast<std::int32_t>(w0++)); ++writes; break;
            case 1: reg.writer1().write(static_cast<std::int32_t>(w1++)); ++writes; break;
            case 2:
                (void)(gen.chance(1, 2) ? reg.writer0().read_cached()
                                        : reg.writer1().read_cached());
                ++writer_reads;
                break;
            default: (void)rd.read(); ++reader_reads; break;
        }
    }
    c = totals(reg);
    const double expected_min =
        static_cast<double>(writes + writer_reads + 3 * reader_reads);
    const double expected_max =
        static_cast<double>(writes + 2 * writer_reads + 3 * reader_reads);
    table a({"ops", "writes", "writer cached reads", "reader reads",
             "total real accesses", "bound from Section 5"});
    std::string bound = "[";
    bound += fixed(expected_min + writes, 0);
    bound += ", ";
    bound += fixed(expected_max + writes, 0);
    bound += "]";
    a.row({with_commas(n), with_commas(writes), with_commas(writer_reads),
           with_commas(reader_reads), with_commas(c.total()), bound});
    a.print(std::cout);
    std::cout << "\n(writes contribute 1 read + 1 write each; cached reads 1-2\n"
              << "reads; reader reads exactly 3 reads.)\n";

    if (!json_path.empty()) {
        std::ofstream os(json_path);
        if (!os) {
            std::cerr << "cannot write " << json_path << "\n";
            return 66;
        }
        harness::report_writer rep(os, "access_counts");
        rep.add_table("per_operation", t);
        rep.add_table("amortized", a);
        rep.finish();
        std::cout << "\nwrote " << json_path << "\n";
    }
    return 0;
}
