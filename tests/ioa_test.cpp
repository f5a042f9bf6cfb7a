// Tests for src/ioa: the register specification automaton, the protocol
// automata, composition/synchronization mechanics, and fair executions of
// the full Figure 2 system checked for atomicity.
#include <gtest/gtest.h>

#include "ioa/executor.hpp"
#include "ioa/protocol_automata.hpp"
#include "ioa/register_automaton.hpp"
#include "linearizability/bloom_linearizer.hpp"
#include "linearizability/fast_register.hpp"
#include "modelcheck/explorer.hpp"

namespace bloom87::ioa {
namespace {

TEST(RegisterAutomaton, ReadReturnsInitialValue) {
    register_automaton reg("Reg", 7, "w", {"r1"});
    reg.apply(action{act::read_request, "r1", 0});
    auto en = reg.enabled();
    ASSERT_EQ(en.size(), 1u);
    EXPECT_EQ(en[0].kind, act::star_read);
    reg.apply(en[0]);
    en = reg.enabled();
    ASSERT_EQ(en.size(), 1u);
    EXPECT_EQ(en[0].kind, act::read_ack);
    EXPECT_EQ(en[0].value, 7);
}

TEST(RegisterAutomaton, WriteTakesEffectAtStarAction) {
    register_automaton reg("Reg", 0, "w", {"r1"});
    reg.apply(action{act::write_request, "w", 42});
    EXPECT_EQ(reg.contents(), 0);  // not yet
    auto en = reg.enabled();
    ASSERT_EQ(en.size(), 1u);
    EXPECT_EQ(en[0].kind, act::star_write);
    reg.apply(en[0]);
    EXPECT_EQ(reg.contents(), 42);  // the instant of the *-action
    en = reg.enabled();
    ASSERT_EQ(en.size(), 1u);
    EXPECT_EQ(en[0].kind, act::write_ack);
}

TEST(RegisterAutomaton, ConcurrentReadersServedIndependently) {
    register_automaton reg("Reg", 3, "w", {"r1", "r2"});
    reg.apply(action{act::read_request, "r1", 0});
    reg.apply(action{act::read_request, "r2", 0});
    EXPECT_EQ(reg.enabled().size(), 2u);  // both stars enabled
}

TEST(RegisterAutomaton, ImproperInputIgnored) {
    // Input-enabledness: a second request on a busy channel must be
    // accepted (and may be ignored) -- the automaton must not wedge.
    register_automaton reg("Reg", 0, "w", {"r1"});
    reg.apply(action{act::read_request, "r1", 0});
    reg.apply(action{act::read_request, "r1", 0});  // improper
    auto en = reg.enabled();
    ASSERT_EQ(en.size(), 1u);
    reg.apply(en[0]);               // star
    reg.apply(reg.enabled()[0]);    // ack
    EXPECT_TRUE(reg.enabled().empty());
}

TEST(RegisterAutomaton, SignatureDisjoint) {
    register_automaton reg("Reg", 0, "w", {"r1"});
    for (auto k : {act::read_request, act::read_ack, act::star_read}) {
        const action a{k, "r1", 0};
        const int classes = int(reg.in_input(a)) + int(reg.in_output(a)) +
                            int(reg.in_internal(a));
        EXPECT_EQ(classes, 1) << to_string(a);
    }
    const action foreign{act::read_request, "other", 0};
    EXPECT_FALSE(reg.in_input(foreign) || reg.in_output(foreign) ||
                 reg.in_internal(foreign));
}

// ---------------------------------------------------------------------------
// Protocol automaton unit tests: step the writer and reader through their
// phases by hand.
// ---------------------------------------------------------------------------

TEST(WriterAutomaton, FollowsTheProtocolPhases) {
    auto wr = make_writer_automaton(0);
    EXPECT_TRUE(wr->enabled().empty());  // idle

    wr->apply(action{act::write_request, "ext:wr0", 42});
    auto en = wr->enabled();
    ASSERT_EQ(en.size(), 1u);
    EXPECT_EQ(en[0].kind, act::read_request);
    EXPECT_EQ(en[0].channel, "wr0->reg1");  // reads the OTHER register

    wr->apply(en[0]);  // sends the read request
    EXPECT_TRUE(wr->enabled().empty());  // awaiting the tag

    // Reg1 answers with tag 1 (encoded value*2+tag).
    wr->apply(action{act::read_ack, "wr0->reg1", encode_tagged_value(7, true)});
    en = wr->enabled();
    ASSERT_EQ(en.size(), 1u);
    EXPECT_EQ(en[0].kind, act::write_request);
    EXPECT_EQ(en[0].channel, "wr0->reg0");
    // t = 0 (+) 1 = 1; value 42 with tag 1.
    EXPECT_EQ(en[0].value, encode_tagged_value(42, true));

    wr->apply(en[0]);
    wr->apply(action{act::write_ack, "wr0->reg0", 0});
    en = wr->enabled();
    ASSERT_EQ(en.size(), 1u);
    EXPECT_EQ(en[0].kind, act::write_ack);
    EXPECT_EQ(en[0].channel, "ext:wr0");
    wr->apply(en[0]);
    EXPECT_TRUE(wr->enabled().empty());  // back to idle
}

TEST(WriterAutomaton, ImproperSecondRequestIgnored) {
    auto wr = make_writer_automaton(1);
    wr->apply(action{act::write_request, "ext:wr1", 5});
    const auto before = wr->enabled();
    wr->apply(action{act::write_request, "ext:wr1", 99});  // improper
    const auto after = wr->enabled();
    ASSERT_EQ(before.size(), after.size());
    EXPECT_EQ(before[0], after[0]);  // state unchanged: still writing 5
}

TEST(ReaderAutomaton, PicksRegisterFromTagSum) {
    auto rd = make_reader_automaton(1);
    rd->apply(action{act::read_request, "ext:rd1", 0});
    auto en = rd->enabled();
    ASSERT_EQ(en.size(), 1u);
    EXPECT_EQ(en[0].channel, "rd1->reg0");
    rd->apply(en[0]);
    rd->apply(action{act::read_ack, "rd1->reg0", encode_tagged_value(1, false)});
    en = rd->enabled();
    ASSERT_EQ(en[0].channel, "rd1->reg1");
    rd->apply(en[0]);
    rd->apply(action{act::read_ack, "rd1->reg1", encode_tagged_value(2, true)});
    // tags 0 (+) 1 = 1: third read goes to Reg1.
    en = rd->enabled();
    ASSERT_EQ(en.size(), 1u);
    EXPECT_EQ(en[0].channel, "rd1->reg1");
    rd->apply(en[0]);
    rd->apply(action{act::read_ack, "rd1->reg1", encode_tagged_value(3, true)});
    en = rd->enabled();
    ASSERT_EQ(en.size(), 1u);
    EXPECT_EQ(en[0].kind, act::read_ack);
    EXPECT_EQ(en[0].channel, "ext:rd1");
    EXPECT_EQ(en[0].value, 3);  // the decoded value of the third read
}

// ---------------------------------------------------------------------------
// Exhaustive schedule exploration (replay-based: automata are rebuilt and
// the prefix re-applied for every branch). Complements the random fair
// executor: at a tiny bound, EVERY I/O-automaton schedule is atomic.
// ---------------------------------------------------------------------------

struct ioa_explore_stats {
    std::size_t schedules{0};
    std::size_t truncated{0};
    bool all_atomic{true};
    std::string first_failure;
};

template <typename Factory>
void explore_ioa(const Factory& factory, schedule& prefix,
                 ioa_explore_stats& stats, std::size_t max_schedules) {
    if (stats.schedules >= max_schedules) {
        ++stats.truncated;
        return;
    }
    // Rebuild and replay.
    simulated_register_system sys = factory();
    for (const scheduled_action& sa : prefix) {
        sys.system->apply(sa.owner, sa.act_taken);
    }
    const auto options = sys.system->enabled();
    if (options.empty()) {
        ++stats.schedules;
        const auto hist = external_history(prefix);
        const auto res = bloom87::check_fast(hist, 0);
        if (!res.ok() || !res.linearizable) {
            if (stats.all_atomic) {
                stats.first_failure = bloom87::mc::format_operations(hist);
            }
            stats.all_atomic = false;
        }
        return;
    }
    for (const auto& [owner, a] : options) {
        prefix.push_back(scheduled_action{owner, a});
        explore_ioa(factory, prefix, stats, max_schedules);
        prefix.pop_back();
    }
}

TEST(IoaExhaustive, EveryScheduleOfTinySystemIsAtomic) {
    // One write racing one read: small enough to enumerate completely (the
    // two-writer interactions are exhaustively covered by the dedicated
    // model checker; this validates the I/O-automaton machinery itself).
    auto factory = [] {
        std::vector<env_port> ports;
        ports.push_back({"ext:wr0", {{true, 101}}});
        ports.push_back({"ext:rd1", {{false, 0}}});
        return make_simulated_register(0, 1, std::move(ports));
    };
    schedule prefix;
    ioa_explore_stats stats;
    explore_ioa(factory, prefix, stats, 400000);
    EXPECT_EQ(stats.truncated, 0u) << "bound too small for exhaustiveness";
    EXPECT_GT(stats.schedules, 100u);
    EXPECT_TRUE(stats.all_atomic) << stats.first_failure;
}

// ---------------------------------------------------------------------------
// Full Figure 2 system under fair random execution.
// ---------------------------------------------------------------------------

class FairExecution : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FairExecution, ExternalScheduleIsAtomic) {
    std::vector<env_port> ports;
    ports.push_back({"ext:wr0",
                     {{true, 101}, {true, 102}, {true, 103}, {true, 104}}});
    ports.push_back({"ext:wr1",
                     {{true, 201}, {true, 202}, {true, 203}, {true, 204}}});
    ports.push_back({"ext:rd1", std::vector<env_op>(6, env_op{false, 0})});
    ports.push_back({"ext:rd2", std::vector<env_op>(6, env_op{false, 0})});

    simulated_register_system sys =
        make_simulated_register(0, /*num_readers=*/2, std::move(ports));
    const schedule sched = run_fair(*sys.system, GetParam());

    const std::vector<operation> hist = external_history(sched);
    EXPECT_EQ(hist.size(), 4u + 4u + 6u + 6u);
    for (const operation& op : hist) EXPECT_TRUE(op.complete());

    const auto res = check_fast(hist, 0);
    ASSERT_TRUE(res.ok()) << *res.defect;
    EXPECT_TRUE(res.linearizable) << res.diagnosis;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FairExecution,
                         ::testing::Range<std::uint64_t>(0, 50));

TEST(FairExecutionDetail, EveryRequestAcknowledged) {
    std::vector<env_port> ports;
    ports.push_back({"ext:wr0", {{true, 101}}});
    ports.push_back({"ext:rd1", {{false, 0}, {false, 0}}});
    simulated_register_system sys = make_simulated_register(9, 1, std::move(ports));
    const schedule sched = run_fair(*sys.system, 7);

    int requests = 0, acks = 0;
    for (const action& a : external_schedule(sched)) {
        requests += is_request(a.kind);
        acks += is_ack(a.kind);
    }
    EXPECT_EQ(requests, 3);
    EXPECT_EQ(acks, 3);
}

TEST(FairExecutionDetail, SoloReaderSeesInitialValue) {
    std::vector<env_port> ports;
    ports.push_back({"ext:rd1", {{false, 0}}});
    simulated_register_system sys = make_simulated_register(55, 1, std::move(ports));
    const schedule sched = run_fair(*sys.system, 3);
    const auto hist = external_history(sched);
    ASSERT_EQ(hist.size(), 1u);
    EXPECT_EQ(hist[0].value, 55);
}

// The Section 7 proof, run on I/O-automaton executions: the schedule's star
// actions convert to a gamma sequence the constructive linearizer accepts.
class GammaBridge : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GammaBridge, ConstructiveLinearizerAcceptsIoaExecutions) {
    std::vector<env_port> ports;
    ports.push_back({"ext:wr0", {{true, 101}, {true, 102}, {true, 103}}});
    ports.push_back({"ext:wr1", {{true, 201}, {true, 202}, {true, 203}}});
    ports.push_back({"ext:rd1", std::vector<env_op>(5, env_op{false, 0})});
    ports.push_back({"ext:rd2", std::vector<env_op>(5, env_op{false, 0})});
    simulated_register_system sys = make_simulated_register(0, 2, std::move(ports));
    const schedule sched = run_fair(*sys.system, GetParam() + 5000);

    const std::vector<event> gamma = to_gamma(sched);
    parse_result parsed = parse_history(gamma, 0);
    ASSERT_TRUE(parsed.ok()) << parsed.error->message;
    EXPECT_EQ(parsed.hist.ops.size(), 3u + 3u + 5u + 5u);

    const bloom_result res = bloom_linearize(parsed.hist);
    ASSERT_TRUE(res.ok()) << *res.defect;
    EXPECT_TRUE(res.atomic) << res.diagnosis;
    EXPECT_EQ(res.potent_count + res.impotent_count, 6u);

    // And the generic checker agrees.
    const auto fast = check_fast(parsed.hist.ops, 0);
    ASSERT_TRUE(fast.ok()) << *fast.defect;
    EXPECT_TRUE(fast.linearizable);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GammaBridge,
                         ::testing::Range<std::uint64_t>(0, 30));

TEST(GammaBridgeDetail, ImpotentWritesAppearUnderIoaScheduling) {
    // The random fair executor explores far nastier interleavings than OS
    // threads do: impotent writes should appear within a few hundred seeds.
    std::size_t impotent = 0;
    for (std::uint64_t seed = 0; seed < 200 && impotent == 0; ++seed) {
        std::vector<env_port> ports;
        ports.push_back({"ext:wr0", {{true, 101}, {true, 102}}});
        ports.push_back({"ext:wr1", {{true, 201}, {true, 202}}});
        simulated_register_system sys =
            make_simulated_register(0, 1, std::move(ports));
        const schedule sched = run_fair(*sys.system, seed);
        parse_result parsed = parse_history(to_gamma(sched), 0);
        ASSERT_TRUE(parsed.ok());
        const bloom_result res = bloom_linearize(parsed.hist);
        ASSERT_TRUE(res.ok());
        ASSERT_TRUE(res.atomic) << res.diagnosis;
        impotent += res.impotent_count;
    }
    EXPECT_GT(impotent, 0u);
}

TEST(FairExecutionDetail, StarActionsAreInternal) {
    std::vector<env_port> ports;
    ports.push_back({"ext:wr0", {{true, 1}}});
    simulated_register_system sys = make_simulated_register(0, 1, std::move(ports));
    const schedule sched = run_fair(*sys.system, 11);
    for (const action& a : external_schedule(sched)) {
        EXPECT_FALSE(is_star(a.kind)) << to_string(a);
    }
    // But the register automata did take them.
    EXPECT_GT(sys.reg0->stars_taken() + sys.reg1->stars_taken(), 0u);
}

// A run that hits max_steps is not a quiescent execution, and an
// acknowledgment names the request it answers: both are check()s, so a
// release build cannot return a truncated schedule or read past the open
// operations.
TEST(ExecutorDeathTest, TruncatedRunsAndOrphanAcksAreRejected) {
    std::vector<env_port> ports;
    ports.push_back({"ext:wr0", {{true, 101}}});
    ports.push_back({"ext:rd1", {{false, 0}}});
    simulated_register_system sys =
        make_simulated_register(9, 1, std::move(ports));
    EXPECT_DEATH((void)run_fair(*sys.system, 7, 2), "does not quiesce");
    const schedule orphan{
        scheduled_action{0, action{act::read_ack, "ext:rd0", 0}}};
    EXPECT_DEATH((void)external_history(orphan), "follows its request");
}

// Channel names are parsed whole: a port number that is not one, or a
// register past the two real ones, fails a check() instead of reading
// garbage or indexing past the per-register tables.
TEST(ExecutorDeathTest, MalformedChannelsAreRejected) {
    const auto one = [](act kind, std::string channel) {
        return schedule{
            scheduled_action{0, action{kind, std::move(channel), 0}}};
    };
    EXPECT_DEATH((void)external_history(one(act::read_request, "ext:rdx")),
                 "wr<k> or rd<j> port");
    EXPECT_DEATH((void)to_gamma(one(act::write_request, "ext:wr1z")),
                 "wr<k> or rd<j> port");
    EXPECT_DEATH((void)to_gamma(one(act::star_write, "wr0->reg2")),
                 "reg0 or reg1");
    EXPECT_DEATH((void)to_gamma(one(act::star_read, "xx0->reg0")),
                 "wr<k> or rd<j> port");
    EXPECT_DEATH((void)external_history(one(act::read_request, "ext:")),
                 "wr<k> or rd<j> port");
    // Well-formed channels still parse.
    EXPECT_EQ(to_gamma(one(act::star_read, "rd3->reg1")).front().processor, 4);
}

}  // namespace
}  // namespace bloom87::ioa
