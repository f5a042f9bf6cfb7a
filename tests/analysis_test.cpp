// The analysis subsystem: the FastTrack-style happens-before race detector,
// the memory-order contract lint, and their wiring into the harness checker
// pipeline, the instrumented registers, and the bounded model checker.
#include <gtest/gtest.h>

#include <string>

#include "analysis/contracts.hpp"
#include "analysis/lockset.hpp"
#include "analysis/mo_lint.hpp"
#include "analysis/race_detector.hpp"
#include "harness/checkers.hpp"
#include "harness/driver.hpp"
#include "harness/registry.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/processes.hpp"
#include "registers/instrumented.hpp"
#include "registers/plain.hpp"

namespace bloom87 {
namespace {

using namespace bloom87::analysis;

// --------------------------------------------------------------- detector --

TEST(RaceDetector, ConflictingPlainAccessesRace) {
    race_detector det(2, 1);
    det.on_access(0, 0, true, sync_class::plain);
    det.on_access(1, 0, false, sync_class::plain);
    ASSERT_TRUE(det.first_race().has_value());
    const race_report& r = *det.first_race();
    EXPECT_EQ(r.location, 0u);
    EXPECT_EQ(r.first_thread, 0);
    EXPECT_EQ(r.second_thread, 1);
    EXPECT_TRUE(r.first_is_write);
    EXPECT_FALSE(r.second_is_write);
    EXPECT_EQ(r.first_pos, 1u);
    EXPECT_EQ(r.second_pos, 2u);
    EXPECT_EQ(det.races(), 1u);
    EXPECT_EQ(det.accesses(), 2u);
}

TEST(RaceDetector, ReleaseAcquireOrdersPlainAccesses) {
    // t0: plain write x; release y.   t1: acquire y; plain read+write x.
    // The sync pair transfers t0's clock, so nothing races.
    race_detector det(2, 2);
    det.on_access(0, 0, true, sync_class::plain);
    det.on_access(0, 1, true, sync_class::sync);
    det.on_access(1, 1, false, sync_class::sync);
    det.on_access(1, 0, false, sync_class::plain);
    det.on_access(1, 0, true, sync_class::plain);
    EXPECT_EQ(det.races(), 0u);
    EXPECT_FALSE(det.first_race().has_value());
}

TEST(RaceDetector, WithoutTheJoinTheSamePairRaces) {
    // Same accesses minus t1's acquire load: the write is unordered.
    race_detector det(2, 2);
    det.on_access(0, 0, true, sync_class::plain);
    det.on_access(0, 1, true, sync_class::sync);
    det.on_access(1, 0, false, sync_class::plain);
    EXPECT_EQ(det.races(), 1u);
}

TEST(RaceDetector, RelaxedAccessesNeitherRaceNorOrder) {
    race_detector det(2, 1);
    // Relaxed accesses conflict-free by definition...
    det.on_access(0, 0, true, sync_class::relaxed);
    det.on_access(1, 0, false, sync_class::relaxed);
    EXPECT_EQ(det.races(), 0u);
    // ...and create no happens-before edge either: a later plain pair on
    // the same location still races.
    det.on_access(0, 0, true, sync_class::plain);
    det.on_access(1, 0, false, sync_class::plain);
    EXPECT_EQ(det.races(), 1u);
}

TEST(RaceDetector, WriteAfterUnjoinedReadRaces) {
    // The seqlock-weak shape: a reader that never publishes its clock; the
    // writer's next plain write cannot be ordered after the read.
    race_detector det(2, 1);
    det.on_access(1, 0, false, sync_class::plain);
    det.on_access(0, 0, true, sync_class::plain);
    ASSERT_TRUE(det.first_race().has_value());
    EXPECT_FALSE(det.first_race()->first_is_write);
    EXPECT_TRUE(det.first_race()->second_is_write);
}

TEST(RaceDetector, FingerprintTracksClocksNotAccessCounts) {
    // Re-joining the same release state changes nothing the detector's
    // future behavior depends on, so the fingerprint must not change --
    // this is what lets model-check retry loops reconverge.
    race_detector a(2, 1);
    race_detector b(2, 1);
    a.on_access(0, 0, true, sync_class::sync);
    b.on_access(0, 0, true, sync_class::sync);
    a.on_access(1, 0, false, sync_class::sync);
    b.on_access(1, 0, false, sync_class::sync);
    b.on_access(1, 0, false, sync_class::sync);  // idempotent extra join
    std::vector<std::uint64_t> fa, fb;
    a.fingerprint(fa);
    b.fingerprint(fb);
    EXPECT_EQ(fa, fb);
    EXPECT_NE(a.accesses(), b.accesses());
}

// ---------------------------------------------------------------- lockset --

TEST(Lockset, AcquireJoinsAndReleaseDropsPseudoLocks) {
    // The pseudo-lock mapping: an acquire-READ of sync location L takes its
    // baton (bit L joins the held set); a release-WRITE hands it on.
    lockset_detector det(2, 3);
    det.on_access(0, 1, false, sync_class::sync);
    EXPECT_EQ(det.held(0), 1ULL << 1);
    det.on_access(0, 2, false, sync_class::sync);
    EXPECT_EQ(det.held(0), (1ULL << 1) | (1ULL << 2));
    det.on_access(0, 1, true, sync_class::sync);
    EXPECT_EQ(det.held(0), 1ULL << 2);
    // Relaxed accesses neither hold nor constitute guards.
    det.on_access(0, 1, false, sync_class::relaxed);
    EXPECT_EQ(det.held(0), 1ULL << 2);
    EXPECT_EQ(det.held(1), 0u);
}

TEST(Lockset, BatonHandoffKeepsACommonGuard) {
    // Both threads touch plain location 0 only while holding sync location
    // 1's baton: the candidate set narrows to {1} and never empties.
    lockset_detector det(2, 2);
    det.on_access(0, 1, false, sync_class::sync);   // t0 acquires
    det.on_access(0, 0, true, sync_class::plain);
    det.on_access(0, 1, true, sync_class::sync);    // t0 releases
    det.on_access(1, 1, false, sync_class::sync);   // t1 acquires
    det.on_access(1, 0, true, sync_class::plain);
    det.on_access(1, 1, true, sync_class::sync);
    EXPECT_EQ(det.warnings(), 0u);
    EXPECT_EQ(det.divergences(), 0u);
    EXPECT_EQ(det.candidates(0), 1ULL << 1);
    EXPECT_FALSE(det.first_violation().has_value());
}

TEST(Lockset, UnguardedSharedModifiedWriteFlagsNoCommonGuard) {
    lockset_detector det(2, 1);
    det.on_access(0, 0, true, sync_class::plain);  // virgin -> exclusive(0)
    det.on_access(1, 0, true, sync_class::plain);  // -> shared_modified, C={}
    ASSERT_TRUE(det.first_violation().has_value());
    const lockset_report& r = *det.first_violation();
    EXPECT_EQ(r.why, lockset_report::reason::no_common_guard);
    EXPECT_EQ(r.location, 0u);
    EXPECT_EQ(r.thread, 1);
    EXPECT_TRUE(r.is_write);
    EXPECT_EQ(r.pos, 2u);
    EXPECT_EQ(det.warnings(), 1u);
    EXPECT_NE(r.describe("register").find("no common guard"),
              std::string::npos)
        << r.describe("register");
}

TEST(Lockset, OwningThreadMayKeepTouchingItsLocationLockFree) {
    // Eraser's initialization heuristic -- and the documented reason the
    // lockset misses first-access races the HB detector catches.
    lockset_detector det(2, 1);
    det.on_access(0, 0, true, sync_class::plain);
    det.on_access(0, 0, false, sync_class::plain);
    det.on_access(0, 0, true, sync_class::plain);
    EXPECT_EQ(det.warnings(), 0u);
}

TEST(Lockset, DroppingTheRegionLockFlags) {
    // Two threads share plain location 0 under the composition-wide lock
    // (net_lock discipline): clean. A later access OUTSIDE the region
    // empties the candidate set.
    lockset_detector det(2, 1);
    det.on_access(0, 0, true, sync_class::lock_region);
    det.on_access(1, 0, true, sync_class::lock_region);
    EXPECT_EQ(det.warnings(), 0u);
    EXPECT_EQ(det.candidates(0), lockset_region_bit);
    det.on_access(1, 0, true, sync_class::plain);
    ASSERT_TRUE(det.first_violation().has_value());
    EXPECT_EQ(det.first_violation()->why,
              lockset_report::reason::no_common_guard);
}

TEST(Lockset, FourslotDivergenceFixtureIsDocumentedNotFatal) {
    // The four-slot handshake in miniature: writer and reader each hold a
    // DIFFERENT declared guard (the slot-pair bits) while touching the same
    // data slot. Guard coverage passes every access -- so no violation --
    // but the raw candidate intersection {7} & {6} empties, which the
    // detector must report as the documented guarded divergence.
    lockset_detector det(2, 8);
    det.set_guards(0, (1ULL << 6) | (1ULL << 7));
    det.on_access(0, 7, false, sync_class::sync);  // writer holds {7}
    det.on_access(1, 6, false, sync_class::sync);  // reader holds {6}
    det.on_access(0, 0, true, sync_class::plain);  // exclusive(0), covered
    det.on_access(1, 0, true, sync_class::plain);  // shared_modified, C={6}
    EXPECT_EQ(det.divergences(), 0u);              // not empty yet
    det.on_access(0, 0, true, sync_class::plain);  // C = {6} & {7} = {}
    EXPECT_FALSE(det.first_violation().has_value());
    EXPECT_EQ(det.warnings(), 0u);
    ASSERT_TRUE(det.first_divergence().has_value());
    const lockset_report& d = *det.first_divergence();
    EXPECT_EQ(d.why, lockset_report::reason::guarded_divergence);
    EXPECT_EQ(d.location, 0u);
    EXPECT_EQ(d.candidates, 0u);
    EXPECT_NE(d.describe("register").find("divergence (documented)"),
              std::string::npos)
        << d.describe("register");
}

TEST(Lockset, GuardedSiteTouchedHoldingNoDeclaredGuardViolates) {
    lockset_detector det(2, 8);
    det.set_guards(0, (1ULL << 6) | (1ULL << 7));
    det.on_access(0, 0, true, sync_class::plain);  // holds neither guard
    ASSERT_TRUE(det.first_violation().has_value());
    EXPECT_EQ(det.first_violation()->why,
              lockset_report::reason::no_declared_guard);
}

TEST(Lockset, FingerprintLatchesVerdictBits) {
    // Two detectors with the same discipline state fingerprint equal;
    // latching a violation must change the tag word so violating model
    // states never alias clean ones.
    lockset_detector a(2, 1);
    lockset_detector b(2, 1);
    std::vector<std::uint64_t> fa, fb;
    a.fingerprint(fa);
    b.fingerprint(fb);
    EXPECT_EQ(fa, fb);
    b.on_access(0, 0, true, sync_class::plain);
    b.on_access(1, 0, true, sync_class::plain);
    fa.clear();
    fb.clear();
    a.fingerprint(fa);
    b.fingerprint(fb);
    EXPECT_NE(fa, fb);
}

// An out-of-range thread or location would index past the detectors'
// per-location tables (or shift past a 64-bit lock mask): an always-on
// check() rejects it in every build type.
TEST(DetectorDeathTest, OutOfRangeAccessesAreRejected) {
    race_detector race(2, 2);
    EXPECT_DEATH(race.on_access(2, 0, true, sync_class::plain),
                 "race_detector::on_access");
    EXPECT_DEATH(race.on_access(0, 2, false, sync_class::plain),
                 "race_detector::on_access");
    lockset_detector lock(2, 2);
    EXPECT_DEATH(lock.on_access(2, 0, true, sync_class::plain),
                 "lockset_detector::on_access");
    EXPECT_DEATH(lock.on_access(0, 2, false, sync_class::plain),
                 "lockset_detector::on_access");
    EXPECT_DEATH(lockset_detector(2, 64), "more than 63 locations");
}

// ------------------------------------------------------------------- lint --

TEST(MoLint, FlagsWeakenedOrder) {
    // packed_atomic.hpp declares word_ load/store at seq_cst only.
    const auto findings = lint_source(
        "packed_atomic.hpp",
        "v = word_.load(std::memory_order_relaxed);\n"
        "word_.store(x, std::memory_order_seq_cst);\n");
    ASSERT_EQ(findings.size(), 1u) << format_findings(findings);
    EXPECT_EQ(findings[0].object, "word_");
    EXPECT_EQ(findings[0].op, "load");
    EXPECT_EQ(findings[0].order, "relaxed");
    EXPECT_EQ(findings[0].line, 1u);
    EXPECT_NE(findings[0].message.find("WEAKENED"), std::string::npos)
        << findings[0].message;
}

TEST(MoLint, FlagsUndeclaredSitesAndStaleRows) {
    // Atomic calls on two undeclared receivers, one through a pointer, and
    // neither declared word_ site present: 2 undeclared + 2 stale-row
    // findings.
    const auto findings =
        lint_source("packed_atomic.hpp",
                    "other_.load(std::memory_order_seq_cst);\n"
                    "flag_->load(std::memory_order_relaxed);\n");
    ASSERT_EQ(findings.size(), 4u) << format_findings(findings);
    EXPECT_EQ(findings[0].object, "other_");
    EXPECT_EQ(findings[1].object, "flag_");
    EXPECT_EQ(findings[1].line, 2u);
    std::size_t stale = 0;
    for (const lint_finding& f : findings) {
        if (f.message.find("stale contract row") != std::string::npos) ++stale;
    }
    EXPECT_EQ(stale, 2u) << format_findings(findings);
}

TEST(MoLint, ImplicitOrderIsSeqCst) {
    EXPECT_TRUE(lint_source("packed_atomic.hpp",
                            "v = word_.load();\nword_.store(x);\n")
                    .empty());
    // ...but an implicit order where only relaxed is declared is flagged:
    // instrumented.hpp declares reads_ fetch_add at relaxed only.
    const auto findings =
        lint_source("instrumented.hpp",
                    "reads_.fetch_add(1);\n"
                    "writes_.fetch_add(1, std::memory_order_relaxed);\n"
                    "reads_.load(std::memory_order_relaxed);\n"
                    "writes_.load(std::memory_order_relaxed);\n"
                    "reads_.store(0, std::memory_order_relaxed);\n"
                    "writes_.store(0, std::memory_order_relaxed);\n");
    ASSERT_EQ(findings.size(), 1u) << format_findings(findings);
    EXPECT_EQ(findings[0].order, "seq_cst");
}

TEST(MoLint, PlainHeaderDeclaresNoAtomicCallSites) {
    EXPECT_TRUE(lint_source("plain.hpp", "value_ = v;\nreturn value_;\n")
                    .empty());
    const auto findings = lint_source("plain.hpp", "value_.load();\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("undeclared"), std::string::npos)
        << findings[0].message;
}

TEST(Contracts, RegistryClassesAndFileContractsResolve) {
    EXPECT_EQ(registry_sync_class("bloom/packed"), sync_class::sync);
    EXPECT_EQ(registry_sync_class("bloom/plain"), sync_class::plain);
    EXPECT_FALSE(registry_sync_class("no/such-register").has_value());
    EXPECT_NE(find_file_contract("seqlock.hpp"), nullptr);
    EXPECT_EQ(find_file_contract("nonexistent.hpp"), nullptr);
}

// ------------------------------------------------- instrumented registers --

TEST(ObserverFeed, InstrumentedRegisterStreamsIntoDetector) {
    instrumented_register<plain_register<value_t>> reg(0);
    race_detector det(2, 1);
    detector_feed feed(&det, sync_class::plain);
    reg.set_observer(&feed, /*location=*/0);
    reg.write(7, access_context{.processor = 0});
    EXPECT_EQ(reg.read(access_context{.processor = 1}), 7);
    EXPECT_EQ(det.accesses(), 2u);
    EXPECT_EQ(det.races(), 1u);  // declared plain, nothing synchronizes
}

// ------------------------------------------------------- harness pipeline --

harness::run_spec gamma_spec(const std::string& name) {
    harness::run_spec spec;
    spec.register_name = name;
    spec.load.writers = 2;
    spec.load.readers = 2;
    spec.load.ops_per_writer = 60;
    spec.load.ops_per_reader = 60;
    spec.seed = 11;
    spec.collect = harness::collect_mode::per_thread;
    return spec;
}

TEST(HarnessRace, RecordingRegisterIsRaceFree) {
    const harness::run_result res = harness::run(gamma_spec("bloom/recording"));
    ASSERT_TRUE(res.ok) << res.error;
    const harness::pipeline_result checks = harness::run_checkers(
        res.events, 0, {harness::checker_kind::race}, "bloom/recording");
    ASSERT_TRUE(checks.parsed) << checks.parse_error;
    const harness::check_verdict& v = checks.verdicts.at(0);
    ASSERT_TRUE(v.ran) << v.skip_reason;
    EXPECT_TRUE(v.pass) << v.diagnosis;
    EXPECT_EQ(v.races, 0u);
    EXPECT_GT(v.accesses_checked, 0u);
    EXPECT_EQ(v.contract, "sync");
}

TEST(HarnessRace, DeclaredPlainRegisterIsFlagged) {
    const harness::run_result res = harness::run(gamma_spec("bloom/plain"));
    ASSERT_TRUE(res.ok) << res.error;
    const harness::pipeline_result checks = harness::run_checkers(
        res.events, 0, {harness::checker_kind::race}, "bloom/plain");
    ASSERT_TRUE(checks.parsed) << checks.parse_error;
    const harness::check_verdict& v = checks.verdicts.at(0);
    ASSERT_TRUE(v.ran) << v.skip_reason;
    EXPECT_FALSE(v.pass);
    EXPECT_GT(v.races, 0u);
    EXPECT_EQ(v.contract, "plain");
    EXPECT_NE(v.diagnosis.find("data race"), std::string::npos) << v.diagnosis;
}

TEST(HarnessRace, SkipReasonsSayWhy) {
    const harness::run_result res = harness::run(gamma_spec("bloom/recording"));
    ASSERT_TRUE(res.ok) << res.error;

    // No register name: cannot pick a contract.
    harness::pipeline_result checks = harness::run_checkers(
        res.events, 0, {harness::checker_kind::race});
    ASSERT_TRUE(checks.parsed);
    EXPECT_FALSE(checks.verdicts.at(0).ran);
    EXPECT_NE(checks.verdicts.at(0).skip_reason.find("contract"),
              std::string::npos);

    // A name with no declared contract row.
    checks = harness::run_checkers(res.events, 0,
                                   {harness::checker_kind::race}, "no/contract");
    EXPECT_FALSE(checks.verdicts.at(0).ran);
    EXPECT_NE(checks.verdicts.at(0).skip_reason.find("no/contract"),
              std::string::npos);

    // A history without real accesses (bloom/packed's substrate records
    // nothing, so the run yields simulated events only).
    harness::run_spec spec = gamma_spec("bloom/packed");
    spec.collect = harness::collect_mode::per_thread;
    const harness::run_result packed = harness::run(spec);
    ASSERT_TRUE(packed.ok) << packed.error;
    checks = harness::run_checkers(packed.events, 0,
                                   {harness::checker_kind::race},
                                   "bloom/packed");
    EXPECT_FALSE(checks.verdicts.at(0).ran);
    EXPECT_NE(checks.verdicts.at(0).skip_reason.find("real-register"),
              std::string::npos);
}

TEST(HarnessRace, HybridVerdictsAgreeOnBothSides) {
    // Certified composition: both detectors pass and say so.
    harness::run_result res = harness::run(gamma_spec("bloom/recording"));
    ASSERT_TRUE(res.ok) << res.error;
    harness::pipeline_result checks = harness::run_checkers(
        res.events, 0, {harness::checker_kind::race}, "bloom/recording");
    ASSERT_TRUE(checks.parsed) << checks.parse_error;
    EXPECT_EQ(checks.verdicts.at(0).agreement, "both_certify");
    EXPECT_TRUE(checks.verdicts.at(0).lockset_pass);
    EXPECT_EQ(checks.verdicts.at(0).lockset_warnings, 0u);

    // Declared-plain composition: HB finds the unordered pair AND the
    // lockset finds the guardless shared-modified site.
    res = harness::run(gamma_spec("bloom/plain"));
    ASSERT_TRUE(res.ok) << res.error;
    checks = harness::run_checkers(res.events, 0,
                                   {harness::checker_kind::race},
                                   "bloom/plain");
    ASSERT_TRUE(checks.parsed) << checks.parse_error;
    const harness::check_verdict& v = checks.verdicts.at(0);
    EXPECT_EQ(v.agreement, "both_flag");
    EXPECT_FALSE(v.lockset_pass);
    EXPECT_GT(v.lockset_warnings, 0u);
    EXPECT_NE(v.lockset_diagnosis.find("lockset"), std::string::npos)
        << v.lockset_diagnosis;
}

TEST(HarnessRace, NetCompositionRecordsReplicaAccessesAndCertifies) {
    // net/ gamma runs log each server replica touch as a real access at
    // reg 2+server, attributed to the pumping client; the whole composition
    // runs under net_lock, so the hybrid checker must certify it -- and
    // must actually have accesses to check.
    const harness::run_result res = harness::run(gamma_spec("net/abd-mw"));
    ASSERT_TRUE(res.ok) << res.error;
    const harness::pipeline_result checks = harness::run_checkers(
        res.events, 0, {harness::checker_kind::race}, "net/abd-mw");
    ASSERT_TRUE(checks.parsed) << checks.parse_error;
    const harness::check_verdict& v = checks.verdicts.at(0);
    ASSERT_TRUE(v.ran) << v.skip_reason;
    EXPECT_TRUE(v.pass) << v.diagnosis;
    EXPECT_EQ(v.agreement, "both_certify");
    EXPECT_GT(v.accesses_checked, 0u);
    EXPECT_EQ(v.contract, "lock_region");
}

TEST(HarnessRace, RegistryEntriesCarryTheirContracts) {
    const harness::registry_entry* plain = harness::find_register("bloom/plain");
    ASSERT_NE(plain, nullptr);
    EXPECT_EQ(plain->info.access_contract, "plain");
    EXPECT_FALSE(plain->info.expected_atomic);
    EXPECT_TRUE(plain->info.records_real_accesses);
    EXPECT_TRUE(plain->info.requires_log);
    const harness::registry_entry* packed =
        harness::find_register("bloom/packed");
    ASSERT_NE(packed, nullptr);
    EXPECT_EQ(packed->info.access_contract, "sync");
}

// ------------------------------------------------------------ model check --

mc::mc_register race_reg(mc::mc_value domain, sync_class cls) {
    mc::mc_register r;
    r.level = mc::reg_level::atomic;
    r.domain = domain;
    r.sync = cls;
    return r;
}

mc::explore_result explore_bloom_race(sync_class cls) {
    mc::sim_state s;
    s.registers = {race_reg(6, cls), race_reg(6, cls)};
    s.procs.push_back(mc::make_bloom_writer(0, {1}));
    s.procs.push_back(mc::make_bloom_writer(1, {2}));
    s.procs.push_back(mc::make_bloom_reader(2, 1));
    s.enable_race_detection();
    return mc::explore(s, {});
}

TEST(ModelCheckRace, SyncBloomCertifiedRaceFreeOnEverySchedule) {
    const mc::explore_result res = explore_bloom_race(sync_class::sync);
    EXPECT_TRUE(res.property_holds);
    EXPECT_EQ(res.violations, 0u);
    EXPECT_FALSE(res.truncated);
}

TEST(ModelCheckRace, PlainBloomYieldsAConcreteRacySchedule) {
    const mc::explore_result res = explore_bloom_race(sync_class::plain);
    EXPECT_FALSE(res.property_holds);
    ASSERT_TRUE(res.first_violation.has_value());
    EXPECT_NE(res.first_violation->diagnosis.find("data race"),
              std::string::npos)
        << res.first_violation->diagnosis;
}

mc::explore_result explore_seqlock_race(sync_class payload_cls) {
    mc::sim_state s;
    s.registers = {race_reg(3, sync_class::sync), race_reg(2, payload_cls)};
    s.procs.push_back(mc::make_seqlock_writer(0, {1}));
    s.procs.push_back(mc::make_seqlock_reader(0, 1, 1));
    s.enable_race_detection();
    return mc::explore(s, {});
}

TEST(ModelCheckRace, SeqlockWithAtomicPayloadHolds) {
    const mc::explore_result res = explore_seqlock_race(sync_class::relaxed);
    EXPECT_TRUE(res.property_holds) << (res.first_violation.has_value()
                                            ? res.first_violation->diagnosis
                                            : "");
}

TEST(ModelCheckRace, SeqlockWithPlainPayloadRaces) {
    const mc::explore_result res = explore_seqlock_race(sync_class::plain);
    EXPECT_FALSE(res.property_holds);
    ASSERT_TRUE(res.first_violation.has_value());
    EXPECT_NE(res.first_violation->diagnosis.find("data race"),
              std::string::npos);
}

TEST(ModelCheckRace, FourslotPlainSlotsOrderedByControlBits) {
    // The strongest certification in the suite: the data slots are PLAIN,
    // yet Simpson's control-bit handshake orders every slot access -- on
    // every schedule within the bound.
    mc::sim_state s;
    for (int i = 0; i < 4; ++i) {
        s.registers.push_back(race_reg(2, sync_class::plain));
    }
    for (int i = 0; i < 4; ++i) {
        s.registers.push_back(race_reg(2, sync_class::sync));
    }
    s.procs.push_back(mc::make_fourslot_writer(0, {1}));
    s.procs.push_back(mc::make_fourslot_reader(0, 1, 1));
    s.enable_race_detection();
    const mc::explore_result res = mc::explore(s, {});
    EXPECT_TRUE(res.property_holds) << (res.first_violation.has_value()
                                            ? res.first_violation->diagnosis
                                            : "");
    EXPECT_FALSE(res.truncated);
}

TEST(ModelCheckRace, DetectorOffByDefaultKeepsPinnedStateCounts) {
    // Without enable_race_detection the detector must not perturb
    // fingerprints: the canonical 1-1-1 bloom exploration keeps the state
    // count the modelcheck tests pin.
    mc::sim_state s;
    s.registers = {race_reg(6, sync_class::sync), race_reg(6, sync_class::sync)};
    s.procs.push_back(mc::make_bloom_writer(0, {1}));
    s.procs.push_back(mc::make_bloom_writer(1, {2}));
    s.procs.push_back(mc::make_bloom_reader(2, 1));
    const mc::explore_result plainres = mc::explore(s, {});
    EXPECT_TRUE(plainres.property_holds);
}

}  // namespace
}  // namespace bloom87
