#include "modelcheck/processes.hpp"

#include <array>
#include <cassert>

#include "core/protocol.hpp"

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
// Simpson's four-slot register over safe/regular/atomic base registers.
//
// Both processes are written against an abstract access list and adapt to
// the level of each base register: an ATOMIC access is one indivisible
// step; SAFE/REGULAR accesses split into begin and end steps (the end step
// of a read is where the explorer branches over candidate values).
// ---------------------------------------------------------------------------

/// Helper mixin: executes one abstract access, splitting it when the target
/// register is weak. `mid` (stored by the caller) tracks a begun access.
struct level_aware_access {
    /// Performs (one step of) a read of `reg` for processor `proc`.
    /// Returns true when the read completed; `out` then holds the value.
    static bool read_step(sim_state& s, std::size_t reg, std::int16_t proc,
                          int choice, bool& mid, mc_value& out) {
        if (s.registers[reg].level == reg_level::atomic) {
            out = s.read_atomic(reg);
            return true;
        }
        if (!mid) {
            s.begin_read(reg, proc);
            mid = true;
            return false;
        }
        out = s.end_read(reg, proc, choice);
        mid = false;
        return true;
    }

    /// Performs (one step of) a write. Returns true when it completed.
    static bool write_step(sim_state& s, std::size_t reg, mc_value v,
                           bool& mid) {
        if (s.registers[reg].level == reg_level::atomic) {
            s.write_atomic(reg, v);
            return true;
        }
        if (!mid) {
            s.begin_write(reg, v);
            mid = true;
            return false;
        }
        s.end_write(reg);
        mid = false;
        return true;
    }

    /// Fanout of the NEXT step of a read of `reg`.
    static int read_fanout(const sim_state& s, std::size_t reg,
                           std::int16_t proc, bool mid) {
        if (!mid) return 1;  // begin steps and atomic reads are deterministic
        return s.read_candidates(reg, proc);
    }
};

class fourslot_writer_proc final : public script_process {
public:
    fourslot_writer_proc(std::size_t base, std::vector<mc_value> values)
        : script_process(/*proc=*/0, std::move(values)), base_(base) {}

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<fourslot_writer_proc>(*this);
    }
    [[nodiscard]] bool done(const sim_state&) const override {
        return pos_ == script_.size();
    }
    [[nodiscard]] int fanout(const sim_state& s) const override {
        if (pc_ == 1 || pc_ == 2) {
            return level_aware_access::read_fanout(s, read_target(), proc_, mid_);
        }
        return 1;
    }

    // Abstract steps: 0 inv; 1 read reading->wp; 2 read slot[wp]->wi;
    // 3 write data[wp][wi]; 4 write slot[wp]; 5 write latest; 6 resp.
    void step(sim_state& s, int choice) override {
        mc_value v{};
        switch (pc_) {
            case 0:
                open_op_ = s.begin_op(proc_, opno_, op_kind::write,
                                      static_cast<value_t>(script_[pos_]));
                pc_ = 1;
                break;
            case 1:
                if (level_aware_access::read_step(s, base_ + 7, proc_, choice,
                                                  mid_, v)) {
                    locals_[0] = static_cast<mc_value>(1 - v);  // wp
                    pc_ = 2;
                }
                break;
            case 2:
                if (level_aware_access::read_step(s, read_target(), proc_,
                                                  choice, mid_, v)) {
                    locals_[1] = static_cast<mc_value>(1 - v);  // wi
                    pc_ = 3;
                }
                break;
            case 3:
                if (level_aware_access::write_step(s, data_reg(), script_[pos_],
                                                   mid_)) {
                    pc_ = 4;
                }
                break;
            case 4:
                if (level_aware_access::write_step(
                        s, base_ + 4 + static_cast<std::size_t>(locals_[0]),
                        locals_[1], mid_)) {
                    pc_ = 5;
                }
                break;
            case 5:
                if (level_aware_access::write_step(s, base_ + 6, locals_[0],
                                                   mid_)) {
                    pc_ = 6;
                }
                break;
            case 6:
                s.end_op(open_op_, 0);
                advance_script();
                break;
        }
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        base_fingerprint(out, 0x1004);
        out.push_back(base_ * 2 + (mid_ ? 1 : 0));
    }

private:
    [[nodiscard]] std::size_t read_target() const {
        return pc_ == 1 ? base_ + 7
                        : base_ + 4 + static_cast<std::size_t>(locals_[0]);
    }
    [[nodiscard]] std::size_t data_reg() const {
        return base_ + static_cast<std::size_t>(locals_[0]) * 2 +
               static_cast<std::size_t>(locals_[1]);
    }

    std::size_t base_;
    bool mid_{false};
};

class fourslot_reader_proc final : public script_process {
public:
    fourslot_reader_proc(std::size_t base, processor_id proc, int num_reads)
        : script_process(proc, std::vector<mc_value>(
                                   static_cast<std::size_t>(num_reads), 0)),
          base_(base) {}

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<fourslot_reader_proc>(*this);
    }
    [[nodiscard]] bool done(const sim_state&) const override {
        return pos_ == script_.size();
    }
    [[nodiscard]] int fanout(const sim_state& s) const override {
        if (pc_ == 1 || pc_ == 3 || pc_ == 4) {
            return level_aware_access::read_fanout(s, read_target(), proc_, mid_);
        }
        return 1;
    }

    // Abstract steps: 0 inv; 1 read latest->rp; 2 write reading=rp;
    // 3 read slot[rp]->ri; 4 read data[rp][ri]->val; 5 resp.
    void step(sim_state& s, int choice) override {
        mc_value v{};
        switch (pc_) {
            case 0:
                open_op_ = s.begin_op(proc_, opno_, op_kind::read, 0);
                pc_ = 1;
                break;
            case 1:
                if (level_aware_access::read_step(s, base_ + 6, proc_, choice,
                                                  mid_, v)) {
                    locals_[0] = v;  // rp
                    pc_ = 2;
                }
                break;
            case 2:
                if (level_aware_access::write_step(s, base_ + 7, locals_[0],
                                                   mid_)) {
                    pc_ = 3;
                }
                break;
            case 3:
                if (level_aware_access::read_step(s, read_target(), proc_,
                                                  choice, mid_, v)) {
                    locals_[1] = v;  // ri
                    pc_ = 4;
                }
                break;
            case 4:
                if (level_aware_access::read_step(s, read_target(), proc_,
                                                  choice, mid_, v)) {
                    locals_[2] = v;  // the value
                    pc_ = 5;
                }
                break;
            case 5:
                s.end_op(open_op_, static_cast<value_t>(locals_[2]));
                advance_script();
                break;
        }
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        base_fingerprint(out, 0x1005);
        out.push_back(base_ * 2 + (mid_ ? 1 : 0));
    }

private:
    [[nodiscard]] std::size_t read_target() const {
        if (pc_ == 1) return base_ + 6;
        if (pc_ == 3) return base_ + 4 + static_cast<std::size_t>(locals_[0]);
        return base_ + static_cast<std::size_t>(locals_[0]) * 2 +
               static_cast<std::size_t>(locals_[1]);
    }

    std::size_t base_;
    bool mid_{false};
};

// ---------------------------------------------------------------------------
// Seqlock SWMR register over two atomic cells (race-certification model).
// Register base+0 = sequence number, base+1 = the payload word; both are
// single-step ATOMIC -- the race modes distinguish them by sync class
// (seq sync, payload relaxed or plain), not by consistency level.
// ---------------------------------------------------------------------------

class seqlock_writer_proc final : public script_process {
public:
    seqlock_writer_proc(std::size_t base, std::vector<mc_value> values)
        : script_process(/*proc=*/0, std::move(values)), base_(base) {}

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<seqlock_writer_proc>(*this);
    }
    [[nodiscard]] bool done(const sim_state&) const override {
        return pos_ == script_.size();
    }
    [[nodiscard]] int fanout(const sim_state&) const override { return 1; }

    // Abstract steps: 0 inv; 1 read seq -> s; 2 write seq = s+1 (odd);
    // 3 write payload; 4 write seq = s+2 (even); 5 resp.
    void step(sim_state& s, int) override {
        switch (pc_) {
            case 0:
                open_op_ = s.begin_op(proc_, opno_, op_kind::write,
                                      static_cast<value_t>(script_[pos_]));
                pc_ = 1;
                break;
            case 1:
                locals_[0] = s.read_atomic(base_);
                pc_ = 2;
                break;
            case 2:
                s.write_atomic(base_, static_cast<mc_value>(locals_[0] + 1));
                pc_ = 3;
                break;
            case 3:
                s.write_atomic(base_ + 1, script_[pos_]);
                pc_ = 4;
                break;
            case 4:
                s.write_atomic(base_, static_cast<mc_value>(locals_[0] + 2));
                pc_ = 5;
                break;
            case 5:
                s.end_op(open_op_, 0);
                advance_script();
                break;
        }
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        base_fingerprint(out, 0x101d);
        out.push_back(base_);
    }

private:
    std::size_t base_;
};

class seqlock_reader_proc final : public script_process {
public:
    seqlock_reader_proc(std::size_t base, processor_id proc, int num_reads)
        : script_process(proc, std::vector<mc_value>(
                                   static_cast<std::size_t>(num_reads), 0)),
          base_(base) {}

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<seqlock_reader_proc>(*this);
    }
    [[nodiscard]] bool done(const sim_state&) const override {
        return pos_ == script_.size();
    }
    [[nodiscard]] int fanout(const sim_state&) const override { return 1; }

    // Abstract steps: 0 inv; 1 read seq -> before (stays at 1 while odd);
    // 2 read payload -> v; 3 re-read seq (back to 1 on a change); 4 resp.
    // Retry states reconverge structurally, so the explorer's visited set
    // bounds the loop; retries never tick the history clock.
    void step(sim_state& s, int) override {
        switch (pc_) {
            case 0:
                open_op_ = s.begin_op(proc_, opno_, op_kind::read, 0);
                pc_ = 1;
                break;
            case 1:
                locals_[0] = s.read_atomic(base_);
                if ((locals_[0] & 1) == 0) pc_ = 2;
                break;
            case 2:
                locals_[1] = s.read_atomic(base_ + 1);
                pc_ = 3;
                break;
            case 3:
                pc_ = s.read_atomic(base_) == locals_[0] ? 4 : 1;
                break;
            case 4:
                s.end_op(open_op_, static_cast<value_t>(locals_[1]));
                advance_script();
                break;
        }
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        base_fingerprint(out, 0x101e);
        out.push_back(base_);
    }

private:
    std::size_t base_;
};

// ---------------------------------------------------------------------------
// Lamport's unary k-valued regular register from regular bits.
// ---------------------------------------------------------------------------

class unary_writer_proc final : public script_process {
public:
    unary_writer_proc(std::size_t base, int k, std::vector<mc_value> values)
        : script_process(/*proc=*/0, std::move(values)), base_(base), k_(k) {}

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<unary_writer_proc>(*this);
    }
    [[nodiscard]] bool done(const sim_state&) const override {
        return pos_ == script_.size();
    }
    [[nodiscard]] int fanout(const sim_state&) const override { return 1; }

    void step(sim_state& s, int) override {
        const mc_value v = pos_ < script_.size() ? script_[pos_] : 0;
        switch (pc_) {
            case 0:
                open_op_ = s.begin_op(proc_, opno_, op_kind::write,
                                      static_cast<value_t>(v));
                pc_ = 1;
                break;
            case 1:  // set bit v
                s.begin_write(base_ + static_cast<std::size_t>(v), 1);
                pc_ = 2;
                break;
            case 2:
                s.end_write(base_ + static_cast<std::size_t>(v));
                locals_[0] = static_cast<mc_value>(v - 1);  // next bit to clear
                pc_ = locals_[0] < 0 ? 5 : 3;
                break;
            case 3:  // clear bit j
                s.begin_write(base_ + static_cast<std::size_t>(locals_[0]), 0);
                pc_ = 4;
                break;
            case 4:
                s.end_write(base_ + static_cast<std::size_t>(locals_[0]));
                --locals_[0];
                pc_ = locals_[0] < 0 ? 5 : 3;
                break;
            case 5:
                s.end_op(open_op_, 0);
                advance_script();
                break;
        }
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        base_fingerprint(out, 0x1006);
        out.push_back(base_);
    }

private:
    std::size_t base_;
    int k_;
};

class unary_reader_proc final : public script_process {
public:
    unary_reader_proc(std::size_t base, int k, processor_id proc, int num_reads)
        : script_process(proc, std::vector<mc_value>(
                                   static_cast<std::size_t>(num_reads), 0)),
          base_(base), k_(k) {}

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<unary_reader_proc>(*this);
    }
    [[nodiscard]] bool done(const sim_state&) const override {
        return pos_ == script_.size();
    }
    [[nodiscard]] int fanout(const sim_state& s) const override {
        return pc_ == 2
                   ? s.read_candidates(base_ + static_cast<std::size_t>(locals_[0]),
                                       proc_)
                   : 1;
    }

    void step(sim_state& s, int choice) override {
        switch (pc_) {
            case 0:
                open_op_ = s.begin_op(proc_, opno_, op_kind::read, 0);
                locals_[0] = 0;  // scan index
                pc_ = 1;
                break;
            case 1:
                s.begin_read(base_ + static_cast<std::size_t>(locals_[0]), proc_);
                pc_ = 2;
                break;
            case 2: {
                const mc_value bit = s.end_read(
                    base_ + static_cast<std::size_t>(locals_[0]), proc_, choice);
                if (bit == 1) {
                    locals_[1] = locals_[0];  // found the value
                    pc_ = 3;
                } else if (locals_[0] + 1 >= k_) {
                    locals_[1] = -1;  // scan fell off the end: protocol failure
                    pc_ = 3;
                } else {
                    ++locals_[0];
                    pc_ = 1;
                }
                break;
            }
            case 3:
                s.end_op(open_op_, static_cast<value_t>(locals_[1]));
                advance_script();
                break;
        }
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        base_fingerprint(out, 0x1007);
        out.push_back(base_);
    }

private:
    std::size_t base_;
    int k_;
};

// ---------------------------------------------------------------------------
// Split-write Bloom mutant: value and tag in separate registers.
// ---------------------------------------------------------------------------

class split_bloom_writer_proc final : public script_process {
public:
    split_bloom_writer_proc(int writer_index, std::vector<mc_value> values)
        : script_process(static_cast<processor_id>(writer_index),
                         std::move(values)),
          writer_(writer_index) {}

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<split_bloom_writer_proc>(*this);
    }
    [[nodiscard]] bool done(const sim_state&) const override {
        return pos_ == script_.size();
    }
    [[nodiscard]] int fanout(const sim_state&) const override { return 1; }

    // Layout: value_i at 2*i, tag_i at 2*i+1.
    void step(sim_state& s, int) override {
        switch (pc_) {
            case 0:
                open_op_ = s.begin_op(proc_, opno_, op_kind::write,
                                      static_cast<value_t>(script_[pos_]));
                pc_ = 1;
                break;
            case 1: {  // read the other tag
                const mc_value t =
                    s.read_atomic(static_cast<std::size_t>(2 * (1 - writer_) + 1));
                locals_[0] = writer_tag_choice(writer_, t != 0) ? 1 : 0;
                pc_ = 2;
                break;
            }
            case 2:  // write the value cell (first half of the split write)
                s.write_atomic(static_cast<std::size_t>(2 * writer_),
                               script_[pos_]);
                pc_ = 3;
                break;
            case 3:  // write the tag cell (second half)
                s.write_atomic(static_cast<std::size_t>(2 * writer_ + 1),
                               locals_[0]);
                pc_ = 4;
                break;
            case 4:
                s.end_op(open_op_, 0);
                advance_script();
                break;
        }
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        base_fingerprint(out, 0x1012);
    }

private:
    int writer_;
};

class split_bloom_reader_proc final : public script_process {
public:
    split_bloom_reader_proc(processor_id proc, int num_reads)
        : script_process(proc, std::vector<mc_value>(
                                   static_cast<std::size_t>(num_reads), 0)) {}

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<split_bloom_reader_proc>(*this);
    }
    [[nodiscard]] bool done(const sim_state&) const override {
        return pos_ == script_.size();
    }
    [[nodiscard]] int fanout(const sim_state&) const override { return 1; }

    void step(sim_state& s, int) override {
        switch (pc_) {
            case 0:
                open_op_ = s.begin_op(proc_, opno_, op_kind::read, 0);
                pc_ = 1;
                break;
            case 1:
                locals_[0] = s.read_atomic(1);  // tag0
                pc_ = 2;
                break;
            case 2:
                locals_[1] = s.read_atomic(3);  // tag1
                pc_ = 3;
                break;
            case 3: {
                const int pick = reader_pick(locals_[0] != 0, locals_[1] != 0);
                locals_[2] = s.read_atomic(static_cast<std::size_t>(2 * pick));
                pc_ = 4;
                break;
            }
            case 4:
                s.end_op(open_op_, static_cast<value_t>(locals_[2]));
                advance_script();
                break;
        }
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        base_fingerprint(out, 0x1013);
    }
};

// ---------------------------------------------------------------------------
// VA-style multi-writer register over atomic stamp cells.
// ---------------------------------------------------------------------------

class va_writer_proc final : public script_process {
public:
    va_writer_proc(std::size_t base, int n, int writer_id,
                   std::vector<mc_value> values, mc_value vdom)
        : script_process(static_cast<processor_id>(writer_id),
                         std::move(values)),
          base_(base), n_(n), writer_(writer_id), vdom_(vdom) {}

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<va_writer_proc>(*this);
    }
    [[nodiscard]] bool done(const sim_state&) const override {
        return pos_ == script_.size();
    }
    [[nodiscard]] int fanout(const sim_state&) const override { return 1; }

    // pc 0: inv; pc 1..n: scan cell pc-1 tracking max ts; pc n+1: write own
    // cell with ts = max+1; pc n+2: resp.
    void step(sim_state& s, int) override {
        if (pc_ == 0) {
            open_op_ = s.begin_op(proc_, opno_, op_kind::write,
                                  static_cast<value_t>(script_[pos_]));
            locals_[0] = 0;  // max ts seen
            pc_ = 1;
        } else if (pc_ <= n_) {
            const mc_value stamp =
                s.read_atomic(base_ + static_cast<std::size_t>(pc_ - 1));
            const mc_value ts = static_cast<mc_value>(stamp / (vdom_ * n_));
            if (ts > locals_[0]) locals_[0] = ts;
            ++pc_;
        } else if (pc_ == n_ + 1) {
            s.write_atomic(base_ + static_cast<std::size_t>(writer_),
                           encode_stamp(locals_[0] + 1, writer_, script_[pos_],
                                        n_, vdom_));
            ++pc_;
        } else {
            s.end_op(open_op_, 0);
            advance_script();
        }
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        base_fingerprint(out, 0x1014);
        out.push_back(base_);
    }

private:
    std::size_t base_;
    int n_;
    int writer_;
    mc_value vdom_;
};

class va_reader_proc final : public script_process {
public:
    va_reader_proc(std::size_t base, int n, processor_id proc, int num_reads,
                   mc_value vdom)
        : script_process(proc, std::vector<mc_value>(
                                   static_cast<std::size_t>(num_reads), 0)),
          base_(base), n_(n), vdom_(vdom) {}

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<va_reader_proc>(*this);
    }
    [[nodiscard]] bool done(const sim_state&) const override {
        return pos_ == script_.size();
    }
    [[nodiscard]] int fanout(const sim_state&) const override { return 1; }

    void step(sim_state& s, int) override {
        if (pc_ == 0) {
            open_op_ = s.begin_op(proc_, opno_, op_kind::read, 0);
            locals_[0] = 0;  // best stamp (lexicographic (ts, writer) order
                             // IS numeric order of the encoding given writer
                             // < n and value stripped; compare by stamp/vdom)
            pc_ = 1;
        } else if (pc_ <= n_) {
            const mc_value stamp =
                s.read_atomic(base_ + static_cast<std::size_t>(pc_ - 1));
            if (stamp / vdom_ > locals_[0] / vdom_) locals_[0] = stamp;
            ++pc_;
        } else {
            s.end_op(open_op_, static_cast<value_t>(locals_[0] % vdom_));
            advance_script();
        }
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        base_fingerprint(out, 0x1015);
        out.push_back(base_);
    }

private:
    std::size_t base_;
    int n_;
    mc_value vdom_;
};

// ---------------------------------------------------------------------------
// SWMR-from-SWSR multi-reader construction over atomic seq cells.
// ---------------------------------------------------------------------------

class mr_writer_proc final : public script_process {
public:
    mr_writer_proc(std::size_t base, int n, std::vector<mc_value> values)
        : script_process(/*proc=*/0, std::move(values)), base_(base), n_(n) {}

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<mr_writer_proc>(*this);
    }
    [[nodiscard]] bool done(const sim_state&) const override {
        return pos_ == script_.size();
    }
    [[nodiscard]] int fanout(const sim_state&) const override { return 1; }

    // pc 0: inv; pc 1..n: write Value[pc-1] := seq; pc n+1: resp.
    void step(sim_state& s, int) override {
        if (pc_ == 0) {
            open_op_ = s.begin_op(proc_, opno_, op_kind::write,
                                  static_cast<value_t>(script_[pos_]));
            pc_ = 1;
        } else if (pc_ <= n_) {
            const auto seq = static_cast<mc_value>(pos_ + 1);
            s.write_atomic(base_ + static_cast<std::size_t>(pc_ - 1), seq);
            ++pc_;
        } else {
            s.end_op(open_op_, 0);
            advance_script();
        }
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        base_fingerprint(out, 0x100a);
        out.push_back(base_);
    }

private:
    std::size_t base_;
    int n_;
};

class mr_reader_proc final : public script_process {
public:
    mr_reader_proc(std::size_t base, int n, int index, processor_id proc,
                   int num_reads, std::vector<mc_value> writer_values,
                   bool report)
        : script_process(proc, std::vector<mc_value>(
                                   static_cast<std::size_t>(num_reads), 0)),
          base_(base), n_(n), index_(index),
          writer_values_(std::move(writer_values)), report_(report) {}

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<mr_reader_proc>(*this);
    }
    [[nodiscard]] bool done(const sim_state&) const override {
        return pos_ == script_.size();
    }
    [[nodiscard]] int fanout(const sim_state&) const override { return 1; }

    // pc 0: inv; pc 1: read Value[index]; pc 2..n: read Report[j][index]
    // for the j != index in ascending order; then (if reporting)
    // pc n+1..2n-1: write Report[index][j]; last pc: resp.
    void step(sim_state& s, int) override {
        const int read_stages = n_;            // 1 value read + (n-1) reports
        const int write_stages = report_ ? n_ - 1 : 0;
        if (pc_ == 0) {
            open_op_ = s.begin_op(proc_, opno_, op_kind::read, 0);
            locals_[0] = 0;  // best seq so far
            pc_ = 1;
        } else if (pc_ == 1) {
            locals_[0] = s.read_atomic(base_ + static_cast<std::size_t>(index_));
            pc_ = 2;
        } else if (pc_ <= read_stages) {
            const int j = nth_other(pc_ - 2);
            const mc_value seq = s.read_atomic(report_cell(j, index_));
            if (seq > locals_[0]) locals_[0] = seq;
            ++pc_;
        } else if (pc_ <= read_stages + write_stages) {
            const int j = nth_other(pc_ - read_stages - 1);
            s.write_atomic(report_cell(index_, j), locals_[0]);
            ++pc_;
        } else {
            const mc_value seq = locals_[0];
            const value_t v =
                seq == 0 ? 0
                         : static_cast<value_t>(
                               writer_values_[static_cast<std::size_t>(seq - 1)]);
            s.end_op(open_op_, v);
            advance_script();
        }
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        base_fingerprint(out, report_ ? 0x100b : 0x100c);
        out.push_back(base_ + static_cast<std::size_t>(index_) * 131);
    }

private:
    [[nodiscard]] int nth_other(int k) const {
        // The k-th reader index != index_, ascending.
        return k < index_ ? k : k + 1;
    }
    [[nodiscard]] std::size_t report_cell(int from, int to) const {
        return base_ + static_cast<std::size_t>(n_) +
               static_cast<std::size_t>(from) * static_cast<std::size_t>(n_) +
               static_cast<std::size_t>(to);
    }

    std::size_t base_;
    int n_;
    int index_;
    shared_script writer_values_;
    bool report_;
};

// ---------------------------------------------------------------------------
// Lamport's binary-encoded SAFE register from safe bits.
// ---------------------------------------------------------------------------

class binary_writer_proc final : public script_process {
public:
    binary_writer_proc(std::size_t base, int bits, std::vector<mc_value> values)
        : script_process(/*proc=*/0, std::move(values)), base_(base),
          bits_(bits) {}

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<binary_writer_proc>(*this);
    }
    [[nodiscard]] bool done(const sim_state&) const override {
        return pos_ == script_.size();
    }
    [[nodiscard]] int fanout(const sim_state&) const override { return 1; }

    // pc 0: inv; then per bit b: begin_write, end_write; finally resp.
    void step(sim_state& s, int) override {
        if (pc_ == 0) {
            open_op_ = s.begin_op(proc_, opno_, op_kind::write,
                                  static_cast<value_t>(script_[pos_]));
            pc_ = 1;
            return;
        }
        const int access = pc_ - 1;          // 0 .. 2*bits-1
        if (access < 2 * bits_) {
            const int bit = access / 2;
            const std::size_t reg = base_ + static_cast<std::size_t>(bit);
            if (access % 2 == 0) {
                s.begin_write(reg, (script_[pos_] >> bit) & 1);
            } else {
                s.end_write(reg);
            }
            ++pc_;
            return;
        }
        s.end_op(open_op_, 0);
        advance_script();
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        base_fingerprint(out, 0x101a);
        out.push_back(base_);
    }

private:
    std::size_t base_;
    int bits_;
};

class binary_reader_proc final : public script_process {
public:
    binary_reader_proc(std::size_t base, int bits, processor_id proc,
                       int num_reads)
        : script_process(proc, std::vector<mc_value>(
                                   static_cast<std::size_t>(num_reads), 0)),
          base_(base), bits_(bits) {}

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<binary_reader_proc>(*this);
    }
    [[nodiscard]] bool done(const sim_state&) const override {
        return pos_ == script_.size();
    }
    [[nodiscard]] int fanout(const sim_state& s) const override {
        const int access = pc_ - 1;
        if (pc_ >= 1 && access < 2 * bits_ && access % 2 == 1) {
            const int bit = access / 2;
            return s.read_candidates(base_ + static_cast<std::size_t>(bit),
                                     proc_);
        }
        return 1;
    }

    void step(sim_state& s, int choice) override {
        if (pc_ == 0) {
            open_op_ = s.begin_op(proc_, opno_, op_kind::read, 0);
            locals_[0] = 0;  // assembled value
            pc_ = 1;
            return;
        }
        const int access = pc_ - 1;
        if (access < 2 * bits_) {
            const int bit = access / 2;
            const std::size_t reg = base_ + static_cast<std::size_t>(bit);
            if (access % 2 == 0) {
                s.begin_read(reg, proc_);
            } else {
                const mc_value b = s.end_read(reg, proc_, choice);
                locals_[0] = static_cast<mc_value>(locals_[0] | (b << bit));
            }
            ++pc_;
            return;
        }
        s.end_op(open_op_, static_cast<value_t>(locals_[0]));
        advance_script();
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        base_fingerprint(out, 0x101b);
        out.push_back(base_);
    }

private:
    std::size_t base_;
    int bits_;
};

// ---------------------------------------------------------------------------
// Primitive cell processes: one base register used as the whole register.
// ---------------------------------------------------------------------------

class cell_writer_proc final : public script_process {
public:
    cell_writer_proc(std::size_t reg, std::vector<mc_value> values)
        : script_process(/*proc=*/0, std::move(values)), reg_(reg) {}

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<cell_writer_proc>(*this);
    }
    [[nodiscard]] bool done(const sim_state&) const override {
        return pos_ == script_.size();
    }
    [[nodiscard]] int fanout(const sim_state&) const override { return 1; }

    void step(sim_state& s, int) override {
        switch (pc_) {
            case 0:
                open_op_ = s.begin_op(proc_, opno_, op_kind::write,
                                      static_cast<value_t>(script_[pos_]));
                pc_ = 1;
                break;
            case 1:
                if (level_aware_access::write_step(s, reg_, script_[pos_],
                                                   mid_)) {
                    pc_ = 2;
                }
                break;
            case 2:
                s.end_op(open_op_, 0);
                advance_script();
                break;
        }
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        base_fingerprint(out, 0x1016);
        out.push_back(reg_ * 2 + (mid_ ? 1 : 0));
    }

private:
    std::size_t reg_;
    bool mid_{false};
};

class cell_reader_proc final : public script_process {
public:
    cell_reader_proc(std::size_t reg, processor_id proc, int num_reads)
        : script_process(proc, std::vector<mc_value>(
                                   static_cast<std::size_t>(num_reads), 0)),
          reg_(reg) {}

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<cell_reader_proc>(*this);
    }
    [[nodiscard]] bool done(const sim_state&) const override {
        return pos_ == script_.size();
    }
    [[nodiscard]] int fanout(const sim_state& s) const override {
        return pc_ == 1 ? level_aware_access::read_fanout(s, reg_, proc_, mid_)
                        : 1;
    }

    void step(sim_state& s, int choice) override {
        mc_value v{};
        switch (pc_) {
            case 0:
                open_op_ = s.begin_op(proc_, opno_, op_kind::read, 0);
                pc_ = 1;
                break;
            case 1:
                if (level_aware_access::read_step(s, reg_, proc_, choice, mid_,
                                                  v)) {
                    locals_[0] = v;
                    pc_ = 2;
                }
                break;
            case 2:
                s.end_op(open_op_, static_cast<value_t>(locals_[0]));
                advance_script();
                break;
        }
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        base_fingerprint(out, 0x1017);
        out.push_back(reg_ * 2 + (mid_ ? 1 : 0));
    }

private:
    std::size_t reg_;
    bool mid_{false};
};

class stamped_cell_writer_proc final : public script_process {
public:
    stamped_cell_writer_proc(std::size_t reg, std::vector<mc_value> values,
                             mc_value vdom)
        : script_process(/*proc=*/0, std::move(values)), reg_(reg), vdom_(vdom) {}

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<stamped_cell_writer_proc>(*this);
    }
    [[nodiscard]] bool done(const sim_state&) const override {
        return pos_ == script_.size();
    }
    [[nodiscard]] int fanout(const sim_state&) const override { return 1; }

    void step(sim_state& s, int) override {
        switch (pc_) {
            case 0:
                open_op_ = s.begin_op(proc_, opno_, op_kind::write,
                                      static_cast<value_t>(script_[pos_]));
                pc_ = 1;
                break;
            case 1: {
                const auto seq = static_cast<mc_value>(pos_ + 1);
                const auto stamp =
                    static_cast<mc_value>(seq * vdom_ + script_[pos_]);
                if (level_aware_access::write_step(s, reg_, stamp, mid_)) {
                    pc_ = 2;
                }
                break;
            }
            case 2:
                s.end_op(open_op_, 0);
                advance_script();
                break;
        }
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        base_fingerprint(out, 0x1018);
        out.push_back(reg_ * 2 + (mid_ ? 1 : 0));
    }

private:
    std::size_t reg_;
    mc_value vdom_;
    bool mid_{false};
};

class stamped_cell_reader_proc final : public script_process {
public:
    stamped_cell_reader_proc(std::size_t reg, processor_id proc, int num_reads,
                             mc_value vdom)
        : script_process(proc, std::vector<mc_value>(
                                   static_cast<std::size_t>(num_reads), 0)),
          reg_(reg), vdom_(vdom) {}

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<stamped_cell_reader_proc>(*this);
    }
    [[nodiscard]] bool done(const sim_state&) const override {
        return pos_ == script_.size();
    }
    [[nodiscard]] int fanout(const sim_state& s) const override {
        return pc_ == 1 ? level_aware_access::read_fanout(s, reg_, proc_, mid_)
                        : 1;
    }

    void step(sim_state& s, int choice) override {
        mc_value v{};
        switch (pc_) {
            case 0:
                open_op_ = s.begin_op(proc_, opno_, op_kind::read, 0);
                pc_ = 1;
                break;
            case 1:
                if (level_aware_access::read_step(s, reg_, proc_, choice, mid_,
                                                  v)) {
                    // Monotone filter: keep the freshest stamp ever seen
                    // (locals_[1] survives across operations).
                    if (v > locals_[1]) locals_[1] = v;
                    pc_ = 2;
                }
                break;
            case 2:
                s.end_op(open_op_, static_cast<value_t>(locals_[1] % vdom_));
                advance_script();
                break;
        }
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        base_fingerprint(out, 0x1019);
        out.push_back(reg_ * 2 + (mid_ ? 1 : 0));
    }

private:
    std::size_t reg_;
    mc_value vdom_;
    bool mid_{false};
};

// ---------------------------------------------------------------------------
// Safe bit with / without the write-only-changes discipline.
// ---------------------------------------------------------------------------

class bit_writer_proc final : public script_process {
public:
    bit_writer_proc(std::size_t reg, std::vector<mc_value> values,
                    bool only_write_changes)
        : script_process(/*proc=*/0, std::move(values)), reg_(reg),
          disciplined_(only_write_changes) {}

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<bit_writer_proc>(*this);
    }
    [[nodiscard]] bool done(const sim_state&) const override {
        return pos_ == script_.size();
    }
    [[nodiscard]] int fanout(const sim_state&) const override { return 1; }

    void step(sim_state& s, int) override {
        switch (pc_) {
            case 0:
                open_op_ = s.begin_op(proc_, opno_, op_kind::write,
                                      static_cast<value_t>(script_[pos_]));
                pc_ = disciplined_ && script_[pos_] == last_ ? 3 : 1;
                break;
            case 1:
                s.begin_write(reg_, script_[pos_]);
                pc_ = 2;
                break;
            case 2:
                s.end_write(reg_);
                last_ = script_[pos_];
                pc_ = 3;
                break;
            case 3:
                s.end_op(open_op_, 0);
                advance_script();
                break;
        }
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        base_fingerprint(out, 0x1008);
        out.push_back(static_cast<std::uint64_t>(static_cast<std::uint16_t>(last_)));
    }

private:
    std::size_t reg_;
    bool disciplined_;
    mc_value last_{0};  // matches the register's initial value
};

class bit_reader_proc final : public script_process {
public:
    bit_reader_proc(std::size_t reg, processor_id proc, int num_reads)
        : script_process(proc, std::vector<mc_value>(
                                   static_cast<std::size_t>(num_reads), 0)),
          reg_(reg) {}

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<bit_reader_proc>(*this);
    }
    [[nodiscard]] bool done(const sim_state&) const override {
        return pos_ == script_.size();
    }
    [[nodiscard]] int fanout(const sim_state& s) const override {
        return pc_ == 2 ? s.read_candidates(reg_, proc_) : 1;
    }

    void step(sim_state& s, int choice) override {
        switch (pc_) {
            case 0:
                open_op_ = s.begin_op(proc_, opno_, op_kind::read, 0);
                pc_ = 1;
                break;
            case 1:
                s.begin_read(reg_, proc_);
                pc_ = 2;
                break;
            case 2:
                locals_[0] = s.end_read(reg_, proc_, choice);
                pc_ = 3;
                break;
            case 3:
                s.end_op(open_op_, static_cast<value_t>(locals_[0]));
                advance_script();
                break;
        }
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        base_fingerprint(out, 0x1009);
    }

private:
    std::size_t reg_;
};

}  // namespace

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
std::unique_ptr<process> make_fourslot_writer(std::size_t base,
                                              std::vector<mc_value> values) {
    return std::make_unique<fourslot_writer_proc>(base, std::move(values));
}
std::unique_ptr<process> make_fourslot_reader(std::size_t base,
                                              processor_id proc, int num_reads) {
    return std::make_unique<fourslot_reader_proc>(base, proc, num_reads);
}
std::unique_ptr<process> make_seqlock_writer(std::size_t base,
                                             std::vector<mc_value> values) {
    return std::make_unique<seqlock_writer_proc>(base, std::move(values));
}
std::unique_ptr<process> make_seqlock_reader(std::size_t base,
                                             processor_id proc, int num_reads) {
    return std::make_unique<seqlock_reader_proc>(base, proc, num_reads);
}
std::unique_ptr<process> make_unary_writer(std::size_t base, int k,
                                           std::vector<mc_value> values) {
    return std::make_unique<unary_writer_proc>(base, k, std::move(values));
}
std::unique_ptr<process> make_unary_reader(std::size_t base, int k,
                                           processor_id proc, int num_reads) {
    return std::make_unique<unary_reader_proc>(base, k, proc, num_reads);
}
std::unique_ptr<process> make_split_bloom_writer(int writer_index,
                                                 std::vector<mc_value> values) {
    return std::make_unique<split_bloom_writer_proc>(writer_index,
                                                     std::move(values));
}
std::unique_ptr<process> make_split_bloom_reader(processor_id proc,
                                                 int num_reads) {
    return std::make_unique<split_bloom_reader_proc>(proc, num_reads);
}
std::unique_ptr<process> make_va_writer(std::size_t base, int n_writers,
                                        int writer_id,
                                        std::vector<mc_value> values,
                                        mc_value value_domain) {
    return std::make_unique<va_writer_proc>(base, n_writers, writer_id,
                                            std::move(values), value_domain);
}
std::unique_ptr<process> make_va_reader(std::size_t base, int n_writers,
                                        processor_id proc, int num_reads,
                                        mc_value value_domain) {
    return std::make_unique<va_reader_proc>(base, n_writers, proc, num_reads,
                                            value_domain);
}

std::unique_ptr<process> make_mr_writer(std::size_t base, int n,
                                        std::vector<mc_value> values) {
    return std::make_unique<mr_writer_proc>(base, n, std::move(values));
}
std::unique_ptr<process> make_mr_reader(std::size_t base, int n,
                                        int reader_index, processor_id proc,
                                        int num_reads,
                                        std::vector<mc_value> writer_values) {
    return std::make_unique<mr_reader_proc>(base, n, reader_index, proc,
                                            num_reads, std::move(writer_values),
                                            true);
}
std::unique_ptr<process> make_mr_reader_no_report(
    std::size_t base, int n, int reader_index, processor_id proc, int num_reads,
    std::vector<mc_value> writer_values) {
    return std::make_unique<mr_reader_proc>(base, n, reader_index, proc,
                                            num_reads, std::move(writer_values),
                                            false);
}

std::unique_ptr<process> make_binary_writer(std::size_t base, int bits,
                                            std::vector<mc_value> values) {
    return std::make_unique<binary_writer_proc>(base, bits, std::move(values));
}
std::unique_ptr<process> make_binary_reader(std::size_t base, int bits,
                                            processor_id proc, int num_reads) {
    return std::make_unique<binary_reader_proc>(base, bits, proc, num_reads);
}

std::unique_ptr<process> make_cell_writer(std::size_t reg,
                                          std::vector<mc_value> values) {
    return std::make_unique<cell_writer_proc>(reg, std::move(values));
}
std::unique_ptr<process> make_cell_reader(std::size_t reg, processor_id proc,
                                          int num_reads) {
    return std::make_unique<cell_reader_proc>(reg, proc, num_reads);
}
std::unique_ptr<process> make_stamped_cell_writer(std::size_t reg,
                                                  std::vector<mc_value> values,
                                                  mc_value value_domain) {
    return std::make_unique<stamped_cell_writer_proc>(reg, std::move(values),
                                                      value_domain);
}
std::unique_ptr<process> make_stamped_cell_reader(std::size_t reg,
                                                  processor_id proc,
                                                  int num_reads,
                                                  mc_value value_domain) {
    return std::make_unique<stamped_cell_reader_proc>(reg, proc, num_reads,
                                                      value_domain);
}

std::unique_ptr<process> make_bit_writer(std::size_t reg,
                                         std::vector<mc_value> values,
                                         bool only_write_changes) {
    return std::make_unique<bit_writer_proc>(reg, std::move(values),
                                             only_write_changes);
}
std::unique_ptr<process> make_bit_reader(std::size_t reg, processor_id proc,
                                         int num_reads) {
    return std::make_unique<bit_reader_proc>(reg, proc, num_reads);
}

}  // namespace bloom87::mc
