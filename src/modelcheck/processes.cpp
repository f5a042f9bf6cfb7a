#include "modelcheck/processes.hpp"

#include <array>
#include <cstdint>
#include <functional>
#include <utility>

#include "core/protocol.hpp"
#include "util/check.hpp"

namespace bloom87::mc {
namespace {

// ---------------------------------------------------------------------------
// Every protocol is one op body, run by one replaying process.
//
// A body is the protocol's operation written straight through, the way
// registers/*.hpp and the papers write it: it reads and writes base
// registers through an `op`, keeps what must outlive an access in four kept
// slots, and returns a read's result (a write's return value is ignored).
// The process runs it one action per explorer step: step 0 invokes; then
// come the body's actions in program order -- one for an access to an
// ATOMIC register, two (begin, end) for one to a SAFE or REGULAR register,
// the end of a read being where the explorer branches over candidate
// values, and one for a silent action that touches nothing; the last step
// responds.
//
// Each step re-runs the body from its start. Accesses the op already took
// are answered from its recorded read results without touching sim_state;
// the next action is performed; the body then runs on to the action after
// it, where the process parks, and every later call is inert. The parked
// action is all fanout() and footprint() read: an invocation or a response
// is visible, an atomic read reads its register, and an atomic write or
// either half of a split access writes it. A process's state is (script
// position, steps taken in the op, kept slots, and the fault rules' state
// below), and only that is fingerprinted. Hence the keep rule: a body keeps
// every value it uses after a later access. Kept slots are never reset between ops (a monotone
// filter or a last-written value carries over), and every re-run starts
// from the slots its attempt began with, so a body uses them like locals; a
// body that clears a slot before its first access spares the explorer
// states that differ only in what the previous op left there. A body may
// retry: restart the op without a new invocation, from the kept slots as
// they stand.
//
// Faults and crashes are rules of the process, the model-checked twin of
// registers/faulty.hpp, so a body never sees them. While a program's fault
// budget lasts, each action its class hits gets one more choice, "the fault
// fires here" (an atomic access then has fanout 2), so an exhaustive pass
// covers every placement of up to `max_faults` faults:
//   stale_read          an atomic read returns the register's previously
//                       committed value (registers need track_previous);
//   lost_write          an atomic write is silently dropped;
//   torn_value          an atomic write commits the register's OLD value
//                       bits under the NEW low (tag) bit -- the smallest
//                       torn mix the v*2+t encoding can express; the budget
//                       is spent only when the mix changes the value;
//   delayed_visibility  an atomic write lands only AFTER the op responded,
//                       as its own step other processes can interleave
//                       with;
//   port_crash          any action after the invocation, the response
//                       included, halts the process instead.
// A forced crash halts the process after action `crash_stage` of op
// `crash_op`, if that action comes before the response. Either way the op
// never responds: it stays pending.
// ---------------------------------------------------------------------------

/// The actions a replaying process can be parked at.
enum class act : std::uint8_t {
    invoke,
    read,   ///< an atomic read
    write,  ///< an atomic write
    begin_read,
    end_read,
    begin_write,
    end_write,
    silent,
    respond,
    land,  ///< a delayed write becomes visible, after the response
};

struct action {
    act kind{act::invoke};
    std::uint8_t reg{0};
};

/// What a replaying process carries between steps.
struct replay_state {
    std::size_t pos{0};  ///< script position
    int steps{0};        ///< actions taken in the current attempt
    std::array<mc_value, 4> kept{};
    std::array<mc_value, 4> start{};  ///< kept slots the attempt began with
    std::array<mc_value, 64> seen{};  ///< the attempt's read results
    std::uint8_t nseen{0};
    action next{};  ///< the action the process is parked at
    std::int16_t faults_left{0};
    bool crashed{false};
    bool delayed{false};  ///< a delayed write waits to land
    action delayed_write{act::land};
    mc_value delayed_value{0};
};

/// One run of an op body: the calls before action `perform` replay, that
/// action is performed on `s` (faulted per `fault`), and the next one parks
/// the run.
class op {
public:
    op(replay_state& st, sim_state& s, processor_id proc, mc_value arg,
       int perform, int choice, fault_class fault)
        : st_(st), s_(s), proc_(proc), arg_(arg), perform_(perform),
          choice_(choice), fault_(fault) {
        st_.kept = st_.start;
    }

    /// The op's index in the script, and the value a write op writes.
    [[nodiscard]] std::size_t index() const noexcept { return st_.pos; }
    [[nodiscard]] mc_value arg() const noexcept { return arg_; }

    mc_value read(std::size_t reg) {
        if (inert_) return 0;
        const auto [first, last] = claim(reg);
        if (last < perform_) {
            check(seen_ < st_.nseen, "a replayed read has a recorded result");
            return st_.seen[seen_++];
        }
        if (last == perform_) {
            mc_value v;
            if (first < last) {
                v = s_.end_read(reg, proc_, choice_);
            } else if (fault_ == fault_class::stale_read) {
                v = s_.read_previous(reg);  // traced: POR needs the dep
                --st_.faults_left;
            } else {
                v = s_.read_atomic(reg);
            }
            check(st_.nseen < st_.seen.size(), "an op reads at most 64 values");
            st_.seen[st_.nseen++] = v;
            ++seen_;
            return v;
        }
        if (first == perform_) {
            s_.begin_read(reg, proc_);
            return park(act::end_read, reg);
        }
        return park(first == last ? act::read : act::begin_read, reg);
    }

    void write(std::size_t reg, mc_value v) {
        if (inert_) return;
        const auto [first, last] = claim(reg);
        if (last < perform_) return;
        if (last == perform_) {
            if (first < last) {
                s_.end_write(reg);
            } else {
                write_atomic(reg, v);
            }
            return;
        }
        if (first == perform_) {
            s_.begin_write(reg, v);
            park(act::end_write, reg);
            return;
        }
        park(first == last ? act::write : act::begin_write, reg);
    }

    /// An action that touches nothing.
    void silent() {
        if (!inert_ && next_++ > perform_) park(act::silent, 0);
    }

    [[nodiscard]] mc_value kept(std::size_t slot) const {
        return st_.kept[slot];
    }
    void keep(std::size_t slot, mc_value v) {
        if (!inert_) st_.kept[slot] = v;
    }

    /// Restarts the op; the body returns right after (`return o.retry();`).
    mc_value retry() {
        if (inert_) return 0;
        check(next_ == perform_ + 1,
              "a body retries right after the access it performs");
        retried_ = true;
        inert_ = true;
        return 0;
    }

    [[nodiscard]] bool retried() const noexcept { return retried_; }
    [[nodiscard]] bool parked() const noexcept { return inert_ && !retried_; }
    /// The action after the body's last one: its response.
    [[nodiscard]] int response() const noexcept { return next_; }

private:
    /// Numbers the access's actions [first, last]: one for an atomic
    /// register, begin and end for a split one.
    std::pair<int, int> claim(std::size_t reg) {
        const int first = next_;
        next_ += s_.reg_at(reg).level == reg_level::atomic ? 1 : 2;
        return {first, next_ - 1};
    }

    mc_value park(act kind, std::size_t reg) {
        st_.next = action{kind, static_cast<std::uint8_t>(reg)};
        inert_ = true;
        return 0;
    }

    void write_atomic(std::size_t reg, mc_value v) {
        switch (fault_) {
            case fault_class::lost_write:
                --st_.faults_left;
                return;
            case fault_class::torn_value: {
                const auto torn = static_cast<mc_value>(
                    (s_.reg_at(reg).committed & ~mc_value{1}) | (v & 1));
                if (torn != v) --st_.faults_left;
                s_.write_atomic(reg, torn);
                return;
            }
            case fault_class::delayed_visibility:
                --st_.faults_left;
                st_.delayed = true;
                st_.delayed_write.reg = static_cast<std::uint8_t>(reg);
                st_.delayed_value = v;
                return;
            default:
                s_.write_atomic(reg, v);
        }
    }

    replay_state& st_;
    sim_state& s_;
    processor_id proc_;
    mc_value arg_;
    int perform_;
    int choice_;
    fault_class fault_;
    int next_{1};  ///< action 0 is the invocation
    std::uint8_t seen_{0};
    bool inert_{false};
    bool retried_{false};
};

using op_body = std::function<mc_value(op&)>;

/// One protocol role: its op body, the script it runs, and its fault rules,
/// shared by every clone of the process.
struct program {
    std::uint64_t type_id;  ///< fingerprint type word
    op_kind kind;
    std::vector<mc_value> script;  ///< a reader's holds one 0 per read
    op_body body;
    /// Non-zero for interchangeable twins (Bloom's fault-free readers).
    std::uint64_t symmetry_key{0};
    fault_class fault{fault_class::none};
    int max_faults{0};
    /// Forced crash after action `crash_stage` of op `crash_op` (one before
    /// its response); -1: none.
    std::size_t crash_op{0};
    int crash_stage{-1};
};

class replay_proc final : public process {
public:
    replay_proc(processor_id proc, std::shared_ptr<const program> prog)
        : proc_(proc), prog_(std::move(prog)) {
        check(prog_->max_faults >= 0 && prog_->max_faults <= INT16_MAX,
              "max_faults in [0, 32767]: the fault budget is 16 bits");
        st_.faults_left = static_cast<std::int16_t>(prog_->max_faults);
    }

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<replay_proc>(*this);
    }
    [[nodiscard]] bool done(const sim_state&) const override {
        return st_.crashed || st_.pos == prog_->script.size();
    }
    [[nodiscard]] int fanout(const sim_state& s) const override {
        return clean_fanout(s) + (may_fault() ? 1 : 0);
    }
    [[nodiscard]] processor_id id() const override { return proc_; }

    [[nodiscard]] step_footprint footprint(const sim_state&,
                                           std::size_t) const override {
        const std::uint64_t bit = 1ULL << st_.next.reg;
        switch (st_.next.kind) {
            case act::invoke:
            case act::respond: return {0, 0, true};
            case act::read: return {bit, 0, false};
            case act::silent: return {0, 0, false};
            default: return {0, bit, false};
        }
    }

    void step(sim_state& s, int choice) override {
        const program& pr = *prog_;
        // The last choice of a fault-eligible action fires the fault.
        const fault_class fault = may_fault() && choice == clean_fanout(s)
                                      ? pr.fault
                                      : fault_class::none;
        if (fault == fault_class::port_crash) {
            --st_.faults_left;
            st_.crashed = true;
            return;
        }
        if (st_.next.kind == act::land) {
            s.write_atomic(st_.delayed_write.reg, st_.delayed_value);
            st_.delayed = false;
            next_op();
            return;
        }
        const mc_value arg = pr.script[st_.pos];
        if (st_.steps == 0) {
            open_op_ = s.begin_op(proc_, static_cast<op_index>(st_.pos),
                                  pr.kind, pr.kind == op_kind::write ? arg : 0);
        }
        op o(st_, s, proc_, arg, st_.steps, choice, fault);
        const mc_value result = pr.body(o);
        if (st_.pos == pr.crash_op && st_.steps == pr.crash_stage &&
            o.response() != st_.steps) {
            st_.crashed = true;
            return;
        }
        if (o.retried()) {
            // A fresh attempt from the kept slots as they stand, parked at
            // its first action.
            st_.start = st_.kept;
            st_.nseen = 0;
            st_.steps = 1;
            op again(st_, s, proc_, arg, 0, 0, fault_class::none);
            (void)pr.body(again);
            check(!again.retried(), "a body retries only after an access");
            if (!again.parked()) st_.next = action{act::respond};
            return;
        }
        if (!o.parked()) {
            if (o.response() == st_.steps) {
                s.end_op(open_op_,
                         pr.kind == op_kind::read ? static_cast<value_t>(result)
                                                  : 0);
                if (!st_.delayed) {
                    next_op();
                    return;
                }
                st_.next = st_.delayed_write;
            } else {
                check(o.response() == st_.steps + 1,
                      "a replayed op retakes the path it recorded");
                st_.next = action{act::respond};
            }
        }
        ++st_.steps;
        check(st_.steps < 256, "an op takes fewer than 256 steps (its "
                               "fingerprint byte)");
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        fingerprint_as(out, proc_);
    }
    [[nodiscard]] std::uint64_t symmetry_key() const override {
        return prog_->symmetry_key;
    }
    void fingerprint_as(std::vector<std::uint64_t>& out,
                        processor_id as) const override {
        out.push_back(prog_->type_id);
        out.push_back(
            (static_cast<std::uint64_t>(static_cast<std::uint16_t>(as))
             << 32) |
            (static_cast<std::uint64_t>(st_.pos) << 8) |
            static_cast<std::uint64_t>(st_.steps));
        for (mc_value k : st_.kept) {
            out.push_back(
                static_cast<std::uint64_t>(static_cast<std::uint16_t>(k)));
        }
        if (prog_->fault != fault_class::none || prog_->crash_stage >= 0) {
            // The last delayed write stays in the word after it lands.
            out.push_back(
                (static_cast<std::uint64_t>(
                     static_cast<std::uint16_t>(st_.faults_left))
                 << 32) |
                (static_cast<std::uint64_t>(st_.delayed_write.reg) << 24) |
                (static_cast<std::uint64_t>(
                     static_cast<std::uint16_t>(st_.delayed_value))
                 << 8) |
                (st_.delayed ? 2ULL : 0ULL) | (st_.crashed ? 1ULL : 0ULL));
        }
    }

private:
    /// The parked action's outcomes without a fault: a split read's
    /// candidate values, else one.
    [[nodiscard]] int clean_fanout(const sim_state& s) const {
        return st_.next.kind == act::end_read
                   ? s.read_candidates(st_.next.reg, proc_)
                   : 1;
    }

    /// Whether the fault budget lasts and the class hits the parked action.
    [[nodiscard]] bool may_fault() const {
        if (st_.faults_left <= 0) return false;
        switch (prog_->fault) {
            case fault_class::stale_read: return st_.next.kind == act::read;
            case fault_class::lost_write:
            case fault_class::torn_value:
            case fault_class::delayed_visibility:
                return st_.next.kind == act::write;
            case fault_class::port_crash: return st_.next.kind != act::invoke;
            default: return false;
        }
    }

    void next_op() {
        st_.start = st_.kept;
        st_.nseen = 0;
        st_.steps = 0;
        st_.next = action{};
        ++st_.pos;
    }

    processor_id proc_;
    std::shared_ptr<const program> prog_;
    replay_state st_;
    std::size_t open_op_{0};
};

std::unique_ptr<process> run(processor_id proc, program p) {
    return std::make_unique<replay_proc>(
        proc, std::make_shared<const program>(std::move(p)));
}

std::unique_ptr<process> replayed_writer(processor_id proc,
                                         std::uint64_t type_id,
                                         std::vector<mc_value> values,
                                         op_body body) {
    return run(proc, program{type_id, op_kind::write, std::move(values),
                             std::move(body)});
}

std::vector<mc_value> reads(int num_reads) {
    return std::vector<mc_value>(static_cast<std::size_t>(num_reads), 0);
}

std::unique_ptr<process> replayed_reader(processor_id proc,
                                         std::uint64_t type_id, int num_reads,
                                         op_body body) {
    return run(proc, program{type_id, op_kind::read, reads(num_reads),
                             std::move(body)});
}

/// A read of one register, whatever its level (cells, bits).
op_body read_one(std::size_t reg) {
    return [reg](op& o) {
        const mc_value v = o.read(reg);
        o.keep(0, v);
        return v;
    };
}

// Bloom's protocol (paper, Section 5) over atomic registers 0 and 1, each
// holding an encoded tagged pair; every variant the explorer checks is a
// parameter of these two programs.

/// The writer owning register `own` (Bloom's writer i owns register i, the
/// tournament's writer id its pair's register id/2): read the other
/// register's tag t', write (v, writer_tag_choice(tag_index, t')) to its
/// own.
program bloom_writer(std::size_t own, int tag_index, std::uint64_t type_id,
                     std::vector<mc_value> values) {
    return program{type_id, op_kind::write, std::move(values),
                   [own, tag_index](op& o) {
                       const bool t = writer_tag_choice(
                           tag_index, decode_tag(o.read(1 - own)));
                       o.keep(0, encode_tagged(o.arg(), t));
                       o.write(own, o.kept(0));
                       return mc_value{0};
                   }};
}

enum class reader_variant : std::uint8_t { standard, reversed, no_reread };

/// The reader: read both tags (Reg1 first when `reversed`, footnote 5),
/// then re-read the register reader_pick names -- or, the no-reread
/// ablation, take one silent action and return the value read with its
/// tag. Slot i keeps what register i read, slot 2 the result.
program bloom_reader(reader_variant variant, int num_reads) {
    const auto v = static_cast<std::uint64_t>(variant);
    const std::size_t first = variant == reader_variant::reversed ? 1 : 0;
    const bool reread = variant != reader_variant::no_reread;
    return program{0x1002 + (v << 8), op_kind::read, reads(num_reads),
                   [first, reread](op& o) {
                       o.keep(first, o.read(first));
                       o.keep(1 - first, o.read(1 - first));
                       const auto pick = static_cast<std::size_t>(
                           reader_pick(decode_tag(o.kept(0)),
                                       decode_tag(o.kept(1))));
                       if (reread) {
                           o.keep(2, o.read(pick));
                       } else {
                           o.silent();
                           o.keep(2, o.kept(pick));
                       }
                       return decode_value(o.kept(2));
                   },
                   0xA11CE000ULL | (v << 8) |
                       static_cast<std::uint64_t>(num_reads)};
}

}  // namespace

std::unique_ptr<process> make_bloom_writer(int writer_index,
                                           std::vector<mc_value> values) {
    return run(static_cast<processor_id>(writer_index),
               bloom_writer(static_cast<std::size_t>(writer_index),
                            writer_index, 0x1001, std::move(values)));
}
std::unique_ptr<process> make_bloom_writer_crashing(
    int writer_index, std::vector<mc_value> values, std::size_t crash_op,
    int crash_stage) {
    program p = bloom_writer(static_cast<std::size_t>(writer_index),
                             writer_index, 0x101c, std::move(values));
    p.crash_op = crash_op;
    p.crash_stage = crash_stage;
    return run(static_cast<processor_id>(writer_index), std::move(p));
}
std::unique_ptr<process> make_bloom_writer_wrong_tag(
    int writer_index, std::vector<mc_value> values) {
    // The other writer's tag rule: t := (1-i) (+) t'.
    return run(static_cast<processor_id>(writer_index),
               bloom_writer(static_cast<std::size_t>(writer_index),
                            1 - writer_index, 0x1011, std::move(values)));
}
std::unique_ptr<process> make_bloom_reader(processor_id proc, int num_reads) {
    return run(proc, bloom_reader(reader_variant::standard, num_reads));
}
std::unique_ptr<process> make_bloom_reader_reversed(processor_id proc,
                                                    int num_reads) {
    return run(proc, bloom_reader(reader_variant::reversed, num_reads));
}
std::unique_ptr<process> make_bloom_reader_no_reread(processor_id proc,
                                                     int num_reads) {
    return run(proc, bloom_reader(reader_variant::no_reread, num_reads));
}
std::unique_ptr<process> make_faulty_bloom_writer(int writer_index,
                                                  std::vector<mc_value> values,
                                                  fault_class cls,
                                                  int max_faults) {
    program p = bloom_writer(static_cast<std::size_t>(writer_index),
                             writer_index,
                             0x1020 | (static_cast<std::uint64_t>(cls) << 8),
                             std::move(values));
    p.fault = cls;
    p.max_faults = max_faults;
    return run(static_cast<processor_id>(writer_index), std::move(p));
}
std::unique_ptr<process> make_faulty_bloom_reader(processor_id proc,
                                                  int num_reads, fault_class cls,
                                                  int max_faults) {
    program p = bloom_reader(reader_variant::standard, num_reads);
    p.type_id = 0x1021 | (static_cast<std::uint64_t>(cls) << 8);
    p.symmetry_key = 0;  // a faulty reader stays a singleton
    p.fault = cls;
    p.max_faults = max_faults;
    return run(proc, std::move(p));
}
std::unique_ptr<process> make_tournament_writer(int writer_id,
                                                std::vector<mc_value> values) {
    // Bloom's writer one level up: writer id owns its pair's register.
    const int pair = writer_id >> 1;
    return run(static_cast<processor_id>(writer_id),
               bloom_writer(static_cast<std::size_t>(pair), pair, 0x1003,
                            std::move(values)));
}
std::unique_ptr<process> make_tournament_reader(processor_id proc,
                                                int num_reads) {
    return make_bloom_reader(proc, num_reads);
}

// Simpson's four-slot register (registers/fourslot.hpp): the writer picks
// the pair the reader is not reading and, in it, the slot not last written,
// fills that slot, then publishes slot and pair; the reader announces the
// latest pair as the one it reads and takes that pair's last-written slot.
std::unique_ptr<process> make_fourslot_writer(std::size_t base,
                                              std::vector<mc_value> values) {
    return replayed_writer(0, 0x1004, std::move(values), [base](op& o) {
        const auto wp = static_cast<mc_value>(1 - o.read(base + 7));
        o.keep(0, wp);
        const auto wi = static_cast<mc_value>(
            1 - o.read(base + 4 + static_cast<std::size_t>(wp)));
        o.keep(1, wi);
        o.write(base + static_cast<std::size_t>(wp * 2 + wi), o.arg());
        o.write(base + 4 + static_cast<std::size_t>(wp), wi);
        o.write(base + 6, wp);
        return mc_value{0};
    });
}
std::unique_ptr<process> make_fourslot_reader(std::size_t base,
                                              processor_id proc, int num_reads) {
    return replayed_reader(proc, 0x1005, num_reads, [base](op& o) {
        const mc_value rp = o.read(base + 6);
        o.keep(0, rp);
        o.write(base + 7, rp);
        const mc_value ri = o.read(base + 4 + static_cast<std::size_t>(rp));
        o.keep(1, ri);
        const mc_value v = o.read(base + static_cast<std::size_t>(rp * 2 + ri));
        o.keep(2, v);
        return v;
    });
}

// Seqlock (registers/seqlock.hpp): the writer makes the sequence odd around
// the payload write; the reader retries while it is odd or moved.
std::unique_ptr<process> make_seqlock_writer(std::size_t base,
                                             std::vector<mc_value> values) {
    return replayed_writer(0, 0x101d, std::move(values), [base](op& o) {
        const mc_value seq = o.read(base);
        o.keep(0, seq);
        o.write(base, static_cast<mc_value>(seq + 1));
        o.write(base + 1, o.arg());
        o.write(base, static_cast<mc_value>(seq + 2));
        return mc_value{0};
    });
}
std::unique_ptr<process> make_seqlock_reader(std::size_t base,
                                             processor_id proc, int num_reads) {
    return replayed_reader(proc, 0x101e, num_reads, [base](op& o) {
        const mc_value before = o.read(base);
        o.keep(0, before);
        if ((before & 1) != 0) return o.retry();
        const mc_value v = o.read(base + 1);
        o.keep(1, v);
        if (o.read(base) != before) return o.retry();
        return v;
    });
}

// Lamport's unary register: writing v sets bit v, then clears the bits
// below it from the top; a read returns the first set bit from the bottom
// (-1 when the scan falls off the end: a protocol failure).
std::unique_ptr<process> make_unary_writer(std::size_t base, int /*k*/,
                                           std::vector<mc_value> values) {
    return replayed_writer(0, 0x1006, std::move(values), [base](op& o) {
        o.write(base + static_cast<std::size_t>(o.arg()), 1);
        for (auto j = static_cast<mc_value>(o.arg() - 1);; --j) {
            o.keep(0, j);  // the next bit to clear
            if (j < 0) break;
            o.write(base + static_cast<std::size_t>(j), 0);
        }
        return mc_value{0};
    });
}
std::unique_ptr<process> make_unary_reader(std::size_t base, int k,
                                           processor_id proc, int num_reads) {
    return replayed_reader(proc, 0x1007, num_reads, [base, k](op& o) {
        for (mc_value j = 0; j < k; ++j) {
            o.keep(0, j);
            if (o.read(base + static_cast<std::size_t>(j)) == 1) {
                o.keep(1, j);
                return j;
            }
        }
        o.keep(1, -1);
        return mc_value{-1};
    });
}

// Bloom's protocol with value and tag in separate registers (value_i at
// 2i, tag_i at 2i+1), written value first.
std::unique_ptr<process> make_split_bloom_writer(int writer_index,
                                                 std::vector<mc_value> values) {
    const auto w = static_cast<std::size_t>(writer_index);
    return replayed_writer(
        static_cast<processor_id>(writer_index), 0x1012, std::move(values),
        [w, writer_index](op& o) {
            const bool other_tag = o.read(2 * (1 - w) + 1) != 0;
            const mc_value tag = writer_tag_choice(writer_index, other_tag);
            o.keep(0, tag);
            o.write(2 * w, o.arg());
            o.write(2 * w + 1, tag);
            return mc_value{0};
        });
}
std::unique_ptr<process> make_split_bloom_reader(processor_id proc,
                                                 int num_reads) {
    return replayed_reader(proc, 0x1013, num_reads, [](op& o) {
        const mc_value t0 = o.read(1);
        o.keep(0, t0);
        const mc_value t1 = o.read(3);
        o.keep(1, t1);
        const mc_value v =
            o.read(static_cast<std::size_t>(2 * reader_pick(t0 != 0, t1 != 0)));
        o.keep(2, v);
        return v;
    });
}

// VA-style multi-writer register (registers/va_register.hpp): a writer
// stamps its value one past the largest timestamp it collects; a reader
// returns the value of the largest (ts, writer) stamp.
std::unique_ptr<process> make_va_writer(std::size_t base, int n_writers,
                                        int writer_id,
                                        std::vector<mc_value> values,
                                        mc_value value_domain) {
    return replayed_writer(
        static_cast<processor_id>(writer_id), 0x1014, std::move(values),
        [base, n_writers, writer_id, value_domain](op& o) {
            mc_value max_ts = 0;
            o.keep(0, max_ts);
            for (int i = 0; i < n_writers; ++i) {
                const auto ts = static_cast<mc_value>(
                    o.read(base + static_cast<std::size_t>(i)) /
                    (value_domain * n_writers));
                if (ts > max_ts) {
                    max_ts = ts;
                    o.keep(0, max_ts);
                }
            }
            o.write(base + static_cast<std::size_t>(writer_id),
                    encode_stamp(max_ts + 1, writer_id, o.arg(), n_writers,
                                 value_domain));
            return mc_value{0};
        });
}
std::unique_ptr<process> make_va_reader(std::size_t base, int n_writers,
                                        processor_id proc, int num_reads,
                                        mc_value value_domain) {
    return replayed_reader(
        proc, 0x1015, num_reads, [base, n_writers, value_domain](op& o) {
            // (ts, writer) order is the numeric order of stamp / domain.
            mc_value best = 0;
            o.keep(0, best);
            for (int i = 0; i < n_writers; ++i) {
                const mc_value stamp =
                    o.read(base + static_cast<std::size_t>(i));
                if (stamp / value_domain > best / value_domain) {
                    best = stamp;
                    o.keep(0, best);
                }
            }
            return static_cast<mc_value>(best % value_domain);
        });
}

// SWMR from SWSR (registers/swmr_from_swsr.hpp): the writer writes its
// sequence number to every reader's cell; a reader takes the largest of its
// cell and the reports addressed to it, then (the report round) tells
// every other reader what it returns.
std::unique_ptr<process> make_mr_writer(std::size_t base, int n,
                                        std::vector<mc_value> values) {
    return replayed_writer(0, 0x100a, std::move(values), [base, n](op& o) {
        for (int i = 0; i < n; ++i) {
            o.write(base + static_cast<std::size_t>(i),
                    static_cast<mc_value>(o.index() + 1));
        }
        return mc_value{0};
    });
}

namespace {

std::unique_ptr<process> mr_reader(std::size_t base, int n, int index,
                                   processor_id proc, int num_reads,
                                   std::vector<mc_value> writer_values,
                                   bool report) {
    const auto cell = [base, n](int from, int to) {
        return base + static_cast<std::size_t>(n + from * n + to);
    };
    return replayed_reader(
        proc, report ? 0x100b : 0x100c, num_reads,
        [base, n, index, cell, report,
         values = std::move(writer_values)](op& o) {
            o.keep(0, 0);
            mc_value best = o.read(base + static_cast<std::size_t>(index));
            o.keep(0, best);
            for (int j = 0; j < n; ++j) {
                if (j == index) continue;
                const mc_value seq = o.read(cell(j, index));
                if (seq > best) {
                    best = seq;
                    o.keep(0, best);
                }
            }
            for (int j = 0; report && j < n; ++j) {
                if (j != index) o.write(cell(index, j), best);
            }
            return best == 0 ? mc_value{0}
                             : values[static_cast<std::size_t>(best - 1)];
        });
}

}  // namespace

std::unique_ptr<process> make_mr_reader(std::size_t base, int n,
                                        int reader_index, processor_id proc,
                                        int num_reads,
                                        std::vector<mc_value> writer_values) {
    return mr_reader(base, n, reader_index, proc, num_reads,
                     std::move(writer_values), true);
}
std::unique_ptr<process> make_mr_reader_no_report(
    std::size_t base, int n, int reader_index, processor_id proc, int num_reads,
    std::vector<mc_value> writer_values) {
    return mr_reader(base, n, reader_index, proc, num_reads,
                     std::move(writer_values), false);
}

// Lamport's binary encoding: one write and one read per bit, low bit first.
std::unique_ptr<process> make_binary_writer(std::size_t base, int bits,
                                            std::vector<mc_value> values) {
    return replayed_writer(0, 0x101a, std::move(values), [base, bits](op& o) {
        for (int b = 0; b < bits; ++b) {
            o.write(base + static_cast<std::size_t>(b),
                    static_cast<mc_value>((o.arg() >> b) & 1));
        }
        return mc_value{0};
    });
}
std::unique_ptr<process> make_binary_reader(std::size_t base, int bits,
                                            processor_id proc, int num_reads) {
    return replayed_reader(proc, 0x101b, num_reads, [base, bits](op& o) {
        mc_value v = 0;
        o.keep(0, v);
        for (int b = 0; b < bits; ++b) {
            v = static_cast<mc_value>(
                v | (o.read(base + static_cast<std::size_t>(b)) << b));
            o.keep(0, v);
        }
        return v;
    });
}

// One base register used as the whole register.
std::unique_ptr<process> make_cell_writer(std::size_t reg,
                                          std::vector<mc_value> values) {
    return replayed_writer(0, 0x1016, std::move(values), [reg](op& o) {
        o.write(reg, o.arg());
        return mc_value{0};
    });
}
std::unique_ptr<process> make_cell_reader(std::size_t reg, processor_id proc,
                                          int num_reads) {
    return replayed_reader(proc, 0x1017, num_reads, read_one(reg));
}

// Monotone (seq, value) stamps over a regular cell: the reader keeps the
// freshest stamp it ever saw.
std::unique_ptr<process> make_stamped_cell_writer(std::size_t reg,
                                                  std::vector<mc_value> values,
                                                  mc_value value_domain) {
    return replayed_writer(
        0, 0x1018, std::move(values), [reg, value_domain](op& o) {
            const auto seq = static_cast<mc_value>(o.index() + 1);
            o.write(reg, static_cast<mc_value>(seq * value_domain + o.arg()));
            return mc_value{0};
        });
}
std::unique_ptr<process> make_stamped_cell_reader(std::size_t reg,
                                                  processor_id proc,
                                                  int num_reads,
                                                  mc_value value_domain) {
    return replayed_reader(proc, 0x1019, num_reads, [reg, value_domain](op& o) {
        const mc_value stamp = o.read(reg);
        if (stamp > o.kept(0)) o.keep(0, stamp);
        return static_cast<mc_value>(o.kept(0) % value_domain);
    });
}

// A safe bit; the disciplined writer skips a write of the value it last
// wrote (the bit starts at 0).
std::unique_ptr<process> make_bit_writer(std::size_t reg,
                                         std::vector<mc_value> values,
                                         bool only_write_changes) {
    return replayed_writer(
        0, 0x1008, std::move(values), [reg, only_write_changes](op& o) {
            if (!only_write_changes || o.arg() != o.kept(0)) {
                o.write(reg, o.arg());
                o.keep(0, o.arg());
            }
            return mc_value{0};
        });
}
std::unique_ptr<process> make_bit_reader(std::size_t reg, processor_id proc,
                                         int num_reads) {
    return replayed_reader(proc, 0x1009, num_reads, read_one(reg));
}

}  // namespace bloom87::mc
