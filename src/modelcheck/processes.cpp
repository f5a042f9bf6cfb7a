#include "modelcheck/processes.hpp"

#include <array>
#include <functional>
#include <utility>

#include "core/protocol.hpp"
#include "util/check.hpp"

namespace bloom87::mc {
namespace {

/// Immutable operation script, refcounted across process clones. The
/// explorer clones every process at every branch point; the script never
/// changes after construction, so sharing it turns a heap allocation plus
/// copy per clone into one atomic refcount bump (safe across the parallel
/// explorer's workers -- the payload is read-only).
class shared_script {
public:
    shared_script(std::vector<mc_value> values)
        : values_(std::make_shared<const std::vector<mc_value>>(
              std::move(values))) {}

    [[nodiscard]] std::size_t size() const noexcept { return values_->size(); }
    [[nodiscard]] mc_value operator[](std::size_t i) const {
        return (*values_)[i];
    }

private:
    std::shared_ptr<const std::vector<mc_value>> values_;
};

/// Shared boilerplate: a process driven by a script of operations.
class script_process : public process {
public:
    script_process(processor_id proc, std::vector<mc_value> script)
        : proc_(proc), script_(std::move(script)) {}

    [[nodiscard]] processor_id id() const override { return proc_; }

protected:
    void base_fingerprint(std::vector<std::uint64_t>& out,
                          std::uint64_t type_id) const {
        base_fingerprint_as(out, type_id, proc_);
    }

    /// base_fingerprint with the identity substituted: what the symmetry
    /// reduction calls (via fingerprint_as) to fingerprint this process as
    /// if it were the interchangeable twin `as`.
    void base_fingerprint_as(std::vector<std::uint64_t>& out,
                             std::uint64_t type_id, processor_id as) const {
        out.push_back(type_id);
        out.push_back((static_cast<std::uint64_t>(
                           static_cast<std::uint16_t>(as))
                       << 32) |
                      (static_cast<std::uint64_t>(pos_) << 8) |
                      static_cast<std::uint64_t>(static_cast<std::uint8_t>(pc_)));
        for (mc_value l : locals_) {
            out.push_back(static_cast<std::uint64_t>(static_cast<std::uint16_t>(l)));
        }
    }

    void advance_script() {
        ++opno_;
        ++pos_;
        pc_ = 0;
    }

    processor_id proc_;
    shared_script script_;
    std::size_t pos_{0};
    int pc_{0};
    op_index opno_{0};
    std::size_t open_op_{0};
    std::array<mc_value, 4> locals_{};
};

// ---------------------------------------------------------------------------
// Bloom's two-writer protocol over atomic base registers 0 and 1: one writer
// machine and one reader machine. Every variant the explorer checks -- the
// wrong-tag mutant, the forced crash, the faulty substrate, the Section 8
// tournament writer, the reversed and no-reread readers -- is a constructor
// option of these two, never a separate machine. Each variant keeps its own
// fingerprint type word, and only the variants that declared a footprint
// before (plain writers, fault-free readers) declare one; the rest use the
// exact probing default. So state counts stay what the tests pin.
//
// Faulty-substrate semantics (the model-checked twin of registers/
// faulty.hpp): each eligible real access may nondeterministically misbehave
// the way one fault class prescribes. The explorer branches over "fault
// fires here" vs "access is clean" at every eligible step, bounded by a
// per-process fault budget -- so a reported violation comes with a concrete
// schedule, and an exhaustive pass covers EVERY placement of up to
// `max_faults` faults:
//   stale_read          a real read returns the register's previously
//                       committed value (registers need track_previous);
//   lost_write          a real write is silently dropped;
//   torn_value          the write commits the OLD value bits under the
//                       NEW tag bit (the adapter's bit-mix, minimized);
//   delayed_visibility  the real write lands only AFTER the op responded,
//                       as a separate later step other processes can
//                       interleave with;
//   port_crash          the process halts mid-op; the op stays pending.
// ---------------------------------------------------------------------------

/// The options that make one writer variant.
struct writer_options {
    std::uint64_t type_id{0x1001};  ///< fingerprint type word
    int tag_index{0};               ///< index fed to writer_tag_choice
    bool declared_footprint{false};
    /// Forced crash: halt for good after `crash_stage` real accesses of
    /// script op `crash_op` (0 = right after invoking).
    bool forced_crash{false};
    std::size_t crash_op{0};
    int crash_stage{0};
    /// Faulty substrate: fault class and per-process budget.
    bool faulty{false};
    fault_class cls{fault_class::none};
    int max_faults{0};
};

/// Writer owning base register `reg`: for each scripted value: invoke; read
/// the other register; write (v, tag) to its own; respond. The Bloom writer
/// i owns register i; tournament writer id owns its pair's register id/2.
class bloom_writer_proc final : public script_process {
public:
    bloom_writer_proc(processor_id proc, int reg, std::vector<mc_value> values,
                      const writer_options& o)
        : script_process(proc, std::move(values)), reg_(reg), opt_(o),
          faults_left_(o.max_faults) {}

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<bloom_writer_proc>(*this);
    }
    [[nodiscard]] bool done(const sim_state&) const override {
        return crashed_ || pos_ == script_.size();
    }
    [[nodiscard]] int fanout(const sim_state&) const override {
        return fault_choice_here() ? 2 : 1;
    }

    void step(sim_state& s, int choice) override {
        const bool fire = choice == 1 && fault_choice_here();
        const auto reg = static_cast<std::size_t>(reg_);
        switch (pc_) {
            case 0:
                open_op_ = s.begin_op(proc_, opno_, op_kind::write,
                                      static_cast<value_t>(script_[pos_]));
                if (forced_crash_at(0)) return;
                pc_ = 1;
                break;
            case 1: {  // read the other writer's register
                if (fire && opt_.cls == fault_class::port_crash) {
                    fault_crash();
                    return;
                }
                mc_value other;
                if (fire) {  // stale_read (traced access: POR needs the dep)
                    other = s.read_previous(1 - reg);
                    --faults_left_;
                } else {
                    other = s.read_atomic(1 - reg);
                }
                const bool t = writer_tag_choice(opt_.tag_index, decode_tag(other));
                locals_[0] = encode_tagged(script_[pos_], t);
                if (forced_crash_at(1)) return;
                pc_ = 2;
                break;
            }
            case 2:  // write own register
                if (fire) {
                    switch (opt_.cls) {
                        case fault_class::port_crash: fault_crash(); return;
                        case fault_class::lost_write: --faults_left_; break;
                        case fault_class::torn_value: {
                            // Old value bits under the new tag bit: the
                            // smallest torn mix the encoding can express,
                            // and always within the register's domain.
                            const auto torn = static_cast<mc_value>(
                                (s.registers[reg].committed &
                                 ~static_cast<mc_value>(1)) |
                                (locals_[0] & 1));
                            if (torn != locals_[0]) --faults_left_;
                            s.write_atomic(reg, torn);
                            break;
                        }
                        case fault_class::delayed_visibility:
                            pending_ = locals_[0];
                            has_pending_ = true;
                            --faults_left_;
                            break;
                        default: s.write_atomic(reg, locals_[0]); break;
                    }
                } else {
                    s.write_atomic(reg, locals_[0]);
                }
                if (forced_crash_at(2)) return;
                pc_ = 3;
                break;
            case 3:  // respond
                if (fire) {  // port_crash: halt without responding
                    fault_crash();
                    return;
                }
                s.end_op(open_op_, 0);
                if (has_pending_) {
                    pc_ = 4;  // the delayed write lands as a later step
                } else {
                    advance_script();
                }
                break;
            case 4:  // delayed write becomes visible after the response
                s.write_atomic(reg, pending_);
                has_pending_ = false;
                advance_script();
                break;
        }
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        base_fingerprint(out, opt_.type_id);
        if (opt_.forced_crash) {
            out.push_back((opt_.crash_op << 8) |
                          static_cast<std::uint64_t>(opt_.crash_stage * 2 +
                                                     (crashed_ ? 1 : 0)));
        }
        if (opt_.faulty) {
            out.push_back((static_cast<std::uint64_t>(
                               static_cast<std::uint16_t>(faults_left_))
                           << 32) |
                          (static_cast<std::uint64_t>(
                               static_cast<std::uint16_t>(pending_))
                           << 8) |
                          (has_pending_ ? 2ULL : 0ULL) |
                          (crashed_ ? 1ULL : 0ULL));
        }
    }

    // Declared footprint (plain writers): begin/end are label-only, the tag
    // sample reads the OTHER writer's register, the install writes OURS.
    [[nodiscard]] step_footprint footprint(const sim_state& s,
                                           std::size_t self) const override {
        if (!opt_.declared_footprint) return process::footprint(s, self);
        switch (pc_) {
            case 1:
                return {1ULL << (1 - reg_), 0, false};
            case 2:
                return {0, 1ULL << reg_, false};
            default:
                return {0, 0, true};
        }
    }

private:
    [[nodiscard]] bool fault_choice_here() const {
        if (crashed_ || faults_left_ <= 0) return false;
        switch (opt_.cls) {
            case fault_class::port_crash:
                return pc_ == 1 || pc_ == 2 || pc_ == 3;
            case fault_class::stale_read: return pc_ == 1;
            case fault_class::lost_write:
            case fault_class::torn_value:
            case fault_class::delayed_visibility: return pc_ == 2;
            default: return false;
        }
    }

    bool forced_crash_at(int stage) {
        if (!opt_.forced_crash || pos_ != opt_.crash_op ||
            opt_.crash_stage != stage) {
            return false;
        }
        crashed_ = true;
        return true;
    }

    void fault_crash() {
        crashed_ = true;
        --faults_left_;
    }

    int reg_;
    writer_options opt_;
    int faults_left_;
    bool crashed_{false};
    bool has_pending_{false};
    mc_value pending_{0};
};

/// The tag reader, shared by Bloom and tournament configurations (identical
/// read protocol). `reversed` samples the tags in the opposite order (the
/// paper's footnote 5 says the proof tolerates reordering/parallelizing the
/// first two reads); `no_reread` skips the third real read and returns the
/// value captured with the chosen tag. A faulty reader applies the
/// read-side classes (stale_read, port_crash) of the section comment; for
/// write-side classes it behaves like the standard reader.
class tag_reader_proc final : public script_process {
public:
    enum class variant : std::uint8_t { standard, reversed, no_reread };

    tag_reader_proc(processor_id proc, int num_reads,
                    variant v = variant::standard, bool faulty = false,
                    fault_class cls = fault_class::none, int max_faults = 0)
        : script_process(proc, std::vector<mc_value>(
                                   static_cast<std::size_t>(num_reads), 0)),
          variant_(v), faulty_(faulty), cls_(cls), faults_left_(max_faults) {}

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<tag_reader_proc>(*this);
    }
    [[nodiscard]] bool done(const sim_state&) const override {
        return crashed_ || pos_ == script_.size();
    }
    [[nodiscard]] int fanout(const sim_state&) const override {
        return fault_choice_here() ? 2 : 1;
    }

    void step(sim_state& s, int choice) override {
        const bool fire = choice == 1 && fault_choice_here();
        if (fire && cls_ == fault_class::port_crash) {
            crashed_ = true;
            --faults_left_;
            return;
        }
        const bool rev = variant_ == variant::reversed;
        switch (pc_) {
            case 0:
                open_op_ = s.begin_op(proc_, opno_, op_kind::read, 0);
                pc_ = 1;
                break;
            case 1:
                locals_[rev ? 1 : 0] = read(s, rev ? 1 : 0, fire);
                pc_ = 2;
                break;
            case 2:
                locals_[rev ? 0 : 1] = read(s, rev ? 0 : 1, fire);
                pc_ = 3;
                break;
            case 3: {
                const int pick =
                    reader_pick(decode_tag(locals_[0]), decode_tag(locals_[1]));
                // no_reread responds on the next step anyway: the skipped
                // read keeps the step count uniform without touching
                // shared state.
                locals_[2] = variant_ == variant::no_reread
                                 ? locals_[pick]
                                 : read(s, static_cast<std::size_t>(pick), fire);
                pc_ = 4;
                break;
            }
            case 4:
                s.end_op(open_op_,
                         static_cast<value_t>(decode_value(locals_[2])));
                advance_script();
                break;
        }
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        fingerprint_as(out, proc_);
    }

    // Declared footprint (fault-free readers): only the three tag-protocol
    // reads touch shared state; no_reread's third "read" is local.
    [[nodiscard]] step_footprint footprint(const sim_state& s,
                                           std::size_t self) const override {
        if (faulty_) return process::footprint(s, self);
        const bool rev = variant_ == variant::reversed;
        switch (pc_) {
            case 1:
                return {1ULL << (rev ? 1 : 0), 0, false};
            case 2:
                return {1ULL << (rev ? 0 : 1), 0, false};
            case 3: {
                if (variant_ == variant::no_reread) return {0, 0, false};
                const int pick =
                    reader_pick(decode_tag(locals_[0]), decode_tag(locals_[1]));
                return {1ULL << pick, 0, false};
            }
            default:
                return {0, 0, true};
        }
    }

    // Fault-free tag readers with the same variant and script length are
    // fully interchangeable: identical program over registers 0/1, identity
    // only in the history labels. Faulty readers stay singletons.
    [[nodiscard]] std::uint64_t symmetry_key() const override {
        if (faulty_) return 0;
        return 0xA11CE000ULL | (static_cast<std::uint64_t>(variant_) << 8) |
               script_.size();
    }
    void fingerprint_as(std::vector<std::uint64_t>& out,
                        processor_id as_proc) const override {
        if (!faulty_) {
            base_fingerprint_as(
                out, 0x1002 + (static_cast<std::uint64_t>(variant_) << 8),
                as_proc);
            return;
        }
        base_fingerprint_as(out, 0x1021 | (static_cast<std::uint64_t>(cls_) << 8),
                            as_proc);
        out.push_back((static_cast<std::uint64_t>(
                           static_cast<std::uint16_t>(faults_left_))
                       << 8) |
                      (crashed_ ? 1ULL : 0ULL));
    }

private:
    [[nodiscard]] bool fault_choice_here() const {
        if (crashed_ || faults_left_ <= 0) return false;
        switch (cls_) {
            case fault_class::port_crash: return pc_ >= 1 && pc_ <= 4;
            case fault_class::stale_read: return pc_ >= 1 && pc_ <= 3;
            default: return false;
        }
    }

    [[nodiscard]] mc_value read(sim_state& s, std::size_t reg, bool fire) {
        if (fire) {  // stale_read (traced access: POR needs the dep)
            --faults_left_;
            return s.read_previous(reg);
        }
        return s.read_atomic(reg);
    }

    variant variant_;
    bool faulty_;
    fault_class cls_;
    int faults_left_;
    bool crashed_{false};
};

// ---------------------------------------------------------------------------
// Every other protocol is one op body, run by one replaying process.
//
// A body is the protocol's operation written straight through, the way
// registers/*.hpp and the papers write it: it reads and writes base
// registers through an `op`, keeps what must outlive an access in four kept
// slots, and returns a read's result (a write's return value is ignored).
// The process runs it one action per explorer step: step 0 invokes; then
// come the body's accesses in program order, one action for an ATOMIC
// register and two (begin, end) for a SAFE or REGULAR one, the end of a
// read being where the explorer branches over candidate values; the last
// step responds.
//
// Each step re-runs the body from its start. Accesses the op already took
// are answered from its recorded read results without touching sim_state;
// the next action is performed; the body then runs on to the action after
// it, where the process parks (fanout() reads it), and every later call is
// inert. A process's state is (script position, steps taken in the op,
// kept slots), and only that is fingerprinted. Hence the keep rule: a body
// keeps every value it uses after a later access. Kept slots are never
// reset between ops (a monotone filter or a last-written value carries
// over), and every re-run starts from the slots its attempt began with, so
// a body uses them like locals; a body that clears a slot before its first
// access spares the explorer states that differ only in what the previous
// op left there. A body may retry: restart the op without a new
// invocation, from the kept slots as they stand.
// ---------------------------------------------------------------------------

/// What a replaying process carries between steps.
struct replay_state {
    std::size_t pos{0};  ///< script position
    int steps{0};        ///< actions taken in the current attempt
    std::array<mc_value, 4> kept{};
    std::array<mc_value, 4> start{};  ///< kept slots the attempt began with
    std::array<mc_value, 64> seen{};  ///< the attempt's read results
    std::uint8_t nseen{0};
    /// The split read whose end the process is parked at, else -1.
    std::int16_t read_end{-1};
};

/// One run of an op body: the calls before action `perform` replay, that
/// action is performed on `s`, and the next one parks the run.
class op {
public:
    op(replay_state& st, sim_state& s, processor_id proc, mc_value arg,
       int perform, int choice)
        : st_(st), s_(s), proc_(proc), arg_(arg), perform_(perform),
          choice_(choice) {
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
            const mc_value v = first == last ? s_.read_atomic(reg)
                                             : s_.end_read(reg, proc_, choice_);
            check(st_.nseen < st_.seen.size(), "an op reads at most 64 values");
            st_.seen[st_.nseen++] = v;
            ++seen_;
            return v;
        }
        if (first == perform_) {
            s_.begin_read(reg, proc_);
            return park(static_cast<std::int16_t>(reg));
        }
        return park(-1);
    }

    void write(std::size_t reg, mc_value v) {
        if (inert_) return;
        const auto [first, last] = claim(reg);
        if (last < perform_) return;
        if (last == perform_) {
            if (first == last) {
                s_.write_atomic(reg, v);
            } else {
                s_.end_write(reg);
            }
            return;
        }
        if (first == perform_) s_.begin_write(reg, v);
        park(-1);
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
    /// The action after the body's last access: its response.
    [[nodiscard]] int response() const noexcept { return next_; }

private:
    /// Numbers the access's actions [first, last]: one for an atomic
    /// register, begin and end for a split one.
    std::pair<int, int> claim(std::size_t reg) {
        const int first = next_;
        next_ += s_.registers[reg].level == reg_level::atomic ? 1 : 2;
        return {first, next_ - 1};
    }

    mc_value park(std::int16_t read_end) {
        st_.read_end = read_end;
        inert_ = true;
        return 0;
    }

    replay_state& st_;
    sim_state& s_;
    processor_id proc_;
    mc_value arg_;
    int perform_;
    int choice_;
    int next_{1};  ///< action 0 is the invocation
    std::uint8_t seen_{0};
    bool inert_{false};
    bool retried_{false};
};

using op_body = std::function<mc_value(op&)>;

/// One protocol role: its op body and the script it runs, shared by every
/// clone of the process.
struct program {
    std::uint64_t type_id;  ///< fingerprint type word
    op_kind kind;
    std::vector<mc_value> script;  ///< a reader's holds one 0 per read
    op_body body;
};

class replay_proc final : public process {
public:
    replay_proc(processor_id proc, std::shared_ptr<const program> prog)
        : proc_(proc), prog_(std::move(prog)) {}

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<replay_proc>(*this);
    }
    [[nodiscard]] bool done(const sim_state&) const override {
        return st_.pos == prog_->script.size();
    }
    [[nodiscard]] int fanout(const sim_state& s) const override {
        return st_.read_end < 0
                   ? 1
                   : s.read_candidates(static_cast<std::size_t>(st_.read_end),
                                       proc_);
    }
    [[nodiscard]] processor_id id() const override { return proc_; }

    void step(sim_state& s, int choice) override {
        const program& pr = *prog_;
        const mc_value arg = pr.script[st_.pos];
        if (st_.steps == 0) {
            open_op_ = s.begin_op(proc_, static_cast<op_index>(st_.pos),
                                  pr.kind, pr.kind == op_kind::write ? arg : 0);
        }
        op o(st_, s, proc_, arg, st_.steps, choice);
        const mc_value result = pr.body(o);
        if (o.retried()) {
            // A fresh attempt from the kept slots as they stand, parked at
            // its first action.
            st_.start = st_.kept;
            st_.nseen = 0;
            st_.steps = 1;
            op again(st_, s, proc_, arg, 0, 0);
            (void)pr.body(again);
            check(!again.retried(), "a body retries only after an access");
            if (!again.parked()) st_.read_end = -1;
            return;
        }
        if (!o.parked()) {
            if (o.response() == st_.steps) {
                s.end_op(open_op_,
                         pr.kind == op_kind::read ? static_cast<value_t>(result)
                                                  : 0);
                st_.start = st_.kept;
                st_.nseen = 0;
                st_.steps = 0;
                st_.read_end = -1;
                ++st_.pos;
                return;
            }
            check(o.response() == st_.steps + 1,
                  "a replayed op retakes the path it recorded");
            st_.read_end = -1;
        }
        ++st_.steps;
        check(st_.steps < 256, "an op takes fewer than 256 steps (its "
                               "fingerprint byte)");
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        out.push_back(prog_->type_id);
        out.push_back(
            (static_cast<std::uint64_t>(static_cast<std::uint16_t>(proc_))
             << 32) |
            (static_cast<std::uint64_t>(st_.pos) << 8) |
            static_cast<std::uint64_t>(st_.steps));
        for (mc_value k : st_.kept) {
            out.push_back(
                static_cast<std::uint64_t>(static_cast<std::uint16_t>(k)));
        }
    }

private:
    processor_id proc_;
    std::shared_ptr<const program> prog_;
    replay_state st_;
    std::size_t open_op_{0};
};

std::unique_ptr<process> replayed_writer(processor_id proc,
                                         std::uint64_t type_id,
                                         std::vector<mc_value> values,
                                         op_body body) {
    return std::make_unique<replay_proc>(
        proc, std::make_shared<const program>(program{
                  type_id, op_kind::write, std::move(values),
                  std::move(body)}));
}

std::unique_ptr<process> replayed_reader(processor_id proc,
                                         std::uint64_t type_id, int num_reads,
                                         op_body body) {
    return std::make_unique<replay_proc>(
        proc, std::make_shared<const program>(program{
                  type_id, op_kind::read,
                  std::vector<mc_value>(static_cast<std::size_t>(num_reads), 0),
                  std::move(body)}));
}

/// A read of one register, whatever its level (cells, bits).
op_body read_one(std::size_t reg) {
    return [reg](op& o) {
        const mc_value v = o.read(reg);
        o.keep(0, v);
        return v;
    };
}

}  // namespace

// Bloom's variants are options of its two machines above.

std::unique_ptr<process> make_bloom_writer(int writer_index,
                                           std::vector<mc_value> values) {
    return std::make_unique<bloom_writer_proc>(
        static_cast<processor_id>(writer_index), writer_index,
        std::move(values),
        writer_options{.type_id = 0x1001,
                       .tag_index = writer_index,
                       .declared_footprint = true});
}
std::unique_ptr<process> make_bloom_writer_crashing(
    int writer_index, std::vector<mc_value> values, std::size_t crash_op,
    int crash_stage) {
    return std::make_unique<bloom_writer_proc>(
        static_cast<processor_id>(writer_index), writer_index,
        std::move(values),
        writer_options{.type_id = 0x101c,
                       .tag_index = writer_index,
                       .forced_crash = true,
                       .crash_op = crash_op,
                       .crash_stage = crash_stage});
}
std::unique_ptr<process> make_bloom_writer_wrong_tag(
    int writer_index, std::vector<mc_value> values) {
    // The other writer's tag rule: t := (1-i) (+) t'.
    return std::make_unique<bloom_writer_proc>(
        static_cast<processor_id>(writer_index), writer_index,
        std::move(values),
        writer_options{.type_id = 0x1011,
                       .tag_index = 1 - writer_index,
                       .declared_footprint = true});
}
std::unique_ptr<process> make_bloom_reader(processor_id proc, int num_reads) {
    return std::make_unique<tag_reader_proc>(proc, num_reads);
}
std::unique_ptr<process> make_bloom_reader_reversed(processor_id proc,
                                                    int num_reads) {
    return std::make_unique<tag_reader_proc>(proc, num_reads,
                                             tag_reader_proc::variant::reversed);
}
std::unique_ptr<process> make_bloom_reader_no_reread(processor_id proc,
                                                     int num_reads) {
    return std::make_unique<tag_reader_proc>(
        proc, num_reads, tag_reader_proc::variant::no_reread);
}
std::unique_ptr<process> make_faulty_bloom_writer(int writer_index,
                                                  std::vector<mc_value> values,
                                                  fault_class cls,
                                                  int max_faults) {
    return std::make_unique<bloom_writer_proc>(
        static_cast<processor_id>(writer_index), writer_index,
        std::move(values),
        writer_options{.type_id = 0x1020 | (static_cast<std::uint64_t>(cls) << 8),
                       .tag_index = writer_index,
                       .faulty = true,
                       .cls = cls,
                       .max_faults = max_faults});
}
std::unique_ptr<process> make_faulty_bloom_reader(processor_id proc,
                                                  int num_reads, fault_class cls,
                                                  int max_faults) {
    return std::make_unique<tag_reader_proc>(
        proc, num_reads, tag_reader_proc::variant::standard, true, cls,
        max_faults);
}
std::unique_ptr<process> make_tournament_writer(int writer_id,
                                                std::vector<mc_value> values) {
    // Bloom's writer one level up: writer id owns its pair's register.
    const int pair = writer_id >> 1;
    return std::make_unique<bloom_writer_proc>(
        static_cast<processor_id>(writer_id), pair, std::move(values),
        writer_options{.type_id = 0x1003, .tag_index = pair});
}
std::unique_ptr<process> make_tournament_reader(processor_id proc,
                                                int num_reads) {
    return std::make_unique<tag_reader_proc>(proc, num_reads);
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
