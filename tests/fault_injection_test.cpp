// The substrate fault-injection layer (registers/faulty.hpp) end to end:
// the plan's trigger discipline, the adapter's per-class semantics, the
// driver's faulty/ compositions, streaming detection and culprit
// localization of every value-corrupting class, port_crash staying atomic
// -- and the Section 4 wait-freedom claim under a stalled writer
// (measure_stall).
#include <gtest/gtest.h>

#include <string>

#include "harness/checkers.hpp"
#include "harness/driver.hpp"
#include "registers/faulty.hpp"
#include "registers/seqlock.hpp"

namespace bloom87 {
namespace {

using namespace bloom87::harness;

TEST(FaultPlan, ClassNamesRoundTrip) {
    for (fault_class c :
         {fault_class::none, fault_class::stale_read, fault_class::lost_write,
          fault_class::torn_value, fault_class::delayed_visibility,
          fault_class::port_crash}) {
        const auto parsed = parse_fault_class(fault_class_name(c));
        ASSERT_TRUE(parsed.has_value()) << fault_class_name(c);
        EXPECT_EQ(*parsed, c);
    }
    EXPECT_FALSE(parse_fault_class("bit_rot").has_value());
    EXPECT_FALSE(parse_fault_class("").has_value());
}

TEST(FaultPlan, ExactTriggerFiresExactlyOnce) {
    fault_spec spec;
    spec.cls = fault_class::lost_write;
    spec.at = 5;
    fault_plan plan(spec);
    for (std::uint64_t n = 1; n <= 12; ++n) {
        fault_plan::scoped_lock guard(plan);
        EXPECT_EQ(plan.trigger(), n == 5) << "access " << n;
    }
}

TEST(FaultPlan, InactiveSpecNeverTriggers) {
    fault_plan plan(fault_spec{});
    for (int n = 0; n < 100; ++n) {
        fault_plan::scoped_lock guard(plan);
        EXPECT_FALSE(plan.trigger());
    }
    EXPECT_EQ(plan.counts().total(), 0u);
}

// Direct adapter semantics over a real substrate, no harness: the third
// substrate access is a faulted read that must serve the PREVIOUS pair.
TEST(FaultyRegister, StaleReadServesThePreviousPair) {
    fault_spec spec;
    spec.cls = fault_class::stale_read;
    spec.at = 3;
    fault_plan plan(spec);
    faulty_register<seqlock_register<value_t>> reg(tagged<value_t>{7, false},
                                                   &plan);
    access_context ctx{};
    reg.write(tagged<value_t>{10, true}, ctx);   // access 1
    reg.write(tagged<value_t>{20, false}, ctx);  // access 2
    const tagged<value_t> stale = reg.read(ctx);  // access 3: faulted
    EXPECT_EQ(stale.value, 10);
    EXPECT_TRUE(stale.tag);
    const tagged<value_t> fresh = reg.read(ctx);  // access 4: clean again
    EXPECT_EQ(fresh.value, 20);
    EXPECT_FALSE(fresh.tag);
    EXPECT_EQ(plan.counts().stale_reads, 1u);
    EXPECT_EQ(plan.counts().total(), 1u);
}

TEST(FaultyRegister, LostWriteNeverLands) {
    fault_spec spec;
    spec.cls = fault_class::lost_write;
    spec.at = 2;
    fault_plan plan(spec);
    faulty_register<seqlock_register<value_t>> reg(tagged<value_t>{0, false},
                                                   &plan);
    access_context ctx{};
    reg.write(tagged<value_t>{10, true}, ctx);  // access 1: lands
    reg.write(tagged<value_t>{20, true}, ctx);  // access 2: lost
    EXPECT_EQ(reg.read(ctx).value, 10);
    EXPECT_EQ(plan.counts().lost_writes, 1u);
}

TEST(FaultyRegister, DelayedWriteLandsAfterKAccesses) {
    fault_spec spec;
    spec.cls = fault_class::delayed_visibility;
    spec.at = 2;
    spec.delay_accesses = 2;
    fault_plan plan(spec);
    faulty_register<seqlock_register<value_t>> reg(tagged<value_t>{0, false},
                                                   &plan);
    access_context ctx{};
    reg.write(tagged<value_t>{10, false}, ctx);  // access 1: lands
    reg.write(tagged<value_t>{20, false}, ctx);  // access 2: deferred
    EXPECT_EQ(reg.read(ctx).value, 10);  // ages the countdown (1 left)
    EXPECT_EQ(reg.read(ctx).value, 10);  // ages the countdown (0 left)
    EXPECT_EQ(reg.read(ctx).value, 20);  // pending write landed first
    EXPECT_EQ(plan.counts().delayed_writes, 1u);
}

TEST(FaultyRegister, CrashedPortDropsEverything) {
    fault_spec spec;
    spec.cls = fault_class::port_crash;
    spec.at = 2;
    fault_plan plan(spec);
    faulty_register<seqlock_register<value_t>> reg(tagged<value_t>{0, false},
                                                   &plan);
    access_context crasher{};
    crasher.processor = 1;
    reg.write(tagged<value_t>{10, false}, crasher);  // access 1: lands
    reg.write(tagged<value_t>{20, false}, crasher);  // access 2: crashes
    EXPECT_TRUE(plan.crashed(1));
    EXPECT_FALSE(plan.crashed(0));
    reg.write(tagged<value_t>{30, false}, crasher);  // dead port: dropped
    access_context alive{};
    EXPECT_EQ(reg.read(alive).value, 10);
    EXPECT_EQ(plan.counts().port_crashes, 1u);
}

// A faulty register dereferences its plan on every access, and a crash
// flag indexes the plan's per-processor array: both guards are check()s
// that hold in every build type.
TEST(FaultyRegisterDeathTest, MissingPlanAndUnflaggedProcessorAreRejected) {
    EXPECT_DEATH(faulty_register<seqlock_register<value_t>>(
                     tagged<value_t>{0, false}, nullptr),
                 "needs a fault_plan");
    fault_spec spec;
    spec.cls = fault_class::port_crash;
    spec.at = 1;
    fault_plan plan(spec);
    faulty_register<seqlock_register<value_t>> reg(tagged<value_t>{0, false},
                                                   &plan);
    access_context far{};
    far.processor = static_cast<processor_id>(fault_plan::max_processors);
    EXPECT_DEATH(reg.write(tagged<value_t>{1, false}, far),
                 "past the crash flags");
}

[[nodiscard]] run_spec faulty_spec(const std::string& reg, fault_class cls,
                                   std::uint64_t seed) {
    run_spec spec;
    spec.register_name = reg;
    spec.load.writers = 2;
    spec.load.readers = 2;
    spec.load.ops_per_writer = 160;
    spec.load.ops_per_reader = 160;
    spec.seed = seed;
    spec.collect = collect_mode::per_thread;
    spec.schedule = schedule_mode::seeded;
    spec.fault.cls = cls;
    spec.fault.rate_num = 1;
    spec.fault.rate_den = 32;
    spec.fault.seed = seed;
    spec.streaming_monitor = true;
    spec.stream_stride = 32;
    return spec;
}

// Every value-corrupting class must (a) be injected, (b) be flagged by the
// streaming checker, with the culprit localized to a minimal violating
// prefix no longer than the stream's detection position, and (c) fail the
// offline pipeline on the same history -- across all three compositions.
TEST(FaultyDriver, CorruptingClassesAreDetectedOnline) {
    for (const std::string reg :
         {"faulty/seqlock", "faulty/fourslot", "faulty/recording"}) {
        for (fault_class cls :
             {fault_class::stale_read, fault_class::lost_write,
              fault_class::torn_value, fault_class::delayed_visibility}) {
            const run_spec spec = faulty_spec(reg, cls, 3);
            const run_result res = run(spec);
            ASSERT_TRUE(res.ok) << reg << ": " << res.error;
            EXPECT_GT(res.faults_injected.total(), 0u)
                << reg << " " << fault_class_name(cls);
            const stream_outcome& so = res.stream;
            ASSERT_TRUE(so.ran);
            EXPECT_TRUE(so.violation)
                << reg << " " << fault_class_name(cls)
                << ": corruption went unnoticed";
            EXPECT_NE(res.faults_injected.first_injection, no_event);
            ASSERT_TRUE(so.culprit_known) << reg << ": " << so.diagnosis;
            EXPECT_GT(so.detection_prefix, 0u);
            EXPECT_LE(so.detection_prefix, so.detection_pos);
            EXPECT_LE(so.prefix_latency_ops, so.latency_ops);
            const event& closer = res.events[so.detection_prefix - 1];
            EXPECT_EQ(closer.processor, so.culprit.processor);
            EXPECT_EQ(closer.op, so.culprit.op);
            const pipeline_result checks = run_checkers(
                res.events, spec.initial,
                {checker_kind::fast, checker_kind::monitor});
            ASSERT_TRUE(checks.parsed) << checks.parse_error;
            EXPECT_FALSE(checks.all_pass())
                << reg << " " << fault_class_name(cls)
                << ": offline pipeline disagrees with the online verdict";
        }
    }
}

// The per-class counters attribute injections to the right class.
TEST(FaultyDriver, CountersMatchTheInjectedClass) {
    const run_result res =
        run(faulty_spec("faulty/seqlock", fault_class::delayed_visibility, 7));
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_GT(res.faults_injected.delayed_writes, 0u);
    EXPECT_EQ(res.faults_injected.stale_reads, 0u);
    EXPECT_EQ(res.faults_injected.lost_writes, 0u);
    EXPECT_EQ(res.faults_injected.torn_values, 0u);
    EXPECT_EQ(res.faults_injected.port_crashes, 0u);
}

// port_crash stays inside the paper's fault model (Section 7 treats pending
// operations first-class): ports die, their last op stays pending, and the
// surviving history still checks atomic.
TEST(FaultyDriver, PortCrashPreservesAtomicity) {
    for (const std::string reg :
         {"faulty/seqlock", "faulty/fourslot", "faulty/recording"}) {
        run_spec spec = faulty_spec(reg, fault_class::port_crash, 5);
        spec.fault.rate_den = 16;  // crash early and often
        const run_result res = run(spec);
        ASSERT_TRUE(res.ok) << reg << ": " << res.error;
        EXPECT_GT(res.faults_injected.port_crashes, 0u) << reg;
        EXPECT_FALSE(res.stream.violation) << reg << ": " << res.stream.diagnosis;
        const pipeline_result checks =
            run_checkers(res.events, spec.initial,
                         {checker_kind::fast, checker_kind::monitor});
        ASSERT_TRUE(checks.parsed) << reg << ": " << checks.parse_error;
        EXPECT_TRUE(checks.all_pass()) << reg;
    }
}

TEST(FaultyDriver, ActiveFaultNeedsAFaultyRegister) {
    run_spec spec = faulty_spec("bloom/packed", fault_class::stale_read, 1);
    const run_result res = run(spec);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("fault"), std::string::npos) << res.error;
}

// The Section 4 wait-freedom claim, as a pinned assertion rather than a
// bench table: a writer stalled for 120 ms must not push the reader's worst
// observed latency past half the stall on a wait-free composition, while
// the mutex baseline's reader inevitably eats (nearly) the whole stall.
// Thresholds are deliberately coarse -- half the stall either way -- and
// the wait-free half retries: a parallel ctest box can deschedule the
// reader THREAD for tens of milliseconds, which looks like a stall but is
// scheduler noise. Wait-freedom is refuted only if every attempt shows a
// stalled reader; the mutex bound needs no retry (blocking there is real
// and only grows under load).
TEST(FaultyDriver, StalledWriterBoundsWaitFreeReadersOnly) {
    constexpr unsigned stall_ms = 120;
    constexpr double threshold_us = (stall_ms / 2) * 1000.0;

    stall_spec wait_free;
    wait_free.register_name = "bloom/packed";
    wait_free.stalled_role = port_role::writer;
    wait_free.stall_ms = stall_ms;
    wait_free.run_ms = 3 * stall_ms;
    double best_max_us = 0.0;
    std::uint64_t reads = 0;
    for (int attempt = 0; attempt < 3; ++attempt) {
        const stall_result wf = measure_stall(wait_free);
        ASSERT_TRUE(wf.ok) << wf.error;
        best_max_us = wf.max_us;
        reads = wf.reads;
        if (reads > 0 && best_max_us < threshold_us) break;
    }
    EXPECT_GT(reads, 0u);
    EXPECT_LT(best_max_us, threshold_us)
        << "wait-free reader stalled behind a stalled writer";

    stall_spec blocking = wait_free;
    blocking.register_name = "baseline/mutex";
    const stall_result mx = measure_stall(blocking);
    ASSERT_TRUE(mx.ok) << mx.error;
    EXPECT_GE(mx.max_us, threshold_us)
        << "mutex reader was expected to block for the stall";
}

}  // namespace
}  // namespace bloom87
