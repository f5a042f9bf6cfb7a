// bloom87: protocol processes for the model checker.
//
// Each factory returns a process running one protocol role over simulated
// base registers (see sim.hpp), one atomic action per explorer step.
// Invocations and responses are explicit steps, so operation intervals in
// the recorded external history are as loose as the real protocol allows
// -- important when hunting violations (shrunken intervals could
// manufacture false positives).
//
// Every protocol role is written once, as a straight-line op body, and run
// by one replaying process: each step re-runs the body from the op's
// start, answers the accesses already taken from the op's recorded read
// results, performs the next action (the invocation, one atomic access,
// one half of a split safe/regular access -- the form follows the
// register's level -- a silent action, or the response) and parks at the
// one after it. The parked action alone gives the step's fanout and its
// footprint. Only (script position, steps taken in the op, four kept
// slots) is fingerprinted, so a body keeps every value it uses after a
// later access. Bloom's writer and reader are two such bodies over the
// rules of core/protocol.hpp; the tournament, faulty, crashing and mutant
// variants are parameters of them. Faults, forced crashes and delayed
// writes are rules of the process, not of a body (processes.cpp).
//
// Value encoding: base registers hold small non-negative integers; a tagged
// pair (v, t) is encoded as v*2 + t.
#pragma once

#include <memory>
#include <vector>

#include "modelcheck/sim.hpp"
#include "registers/faulty.hpp"  // fault_class

namespace bloom87::mc {

[[nodiscard]] constexpr mc_value encode_tagged(mc_value v, bool tag) noexcept {
    return static_cast<mc_value>(v * 2 + (tag ? 1 : 0));
}
[[nodiscard]] constexpr mc_value decode_value(mc_value enc) noexcept {
    return static_cast<mc_value>(enc / 2);
}
[[nodiscard]] constexpr bool decode_tag(mc_value enc) noexcept {
    return (enc & 1) != 0;
}

/// --- Bloom's two-writer protocol (paper, Section 5) -----------------------
/// Base registers 0 and 1: ATOMIC, holding encoded tagged values.

/// Writer i: for each scripted value: invoke; read Reg_{1-i}; write Reg_i
/// with tag i (+) t'; respond.
[[nodiscard]] std::unique_ptr<process> make_bloom_writer(
    int writer_index, std::vector<mc_value> values_to_write);

/// Reader: for `num_reads` operations: invoke; read Reg0; read Reg1; read
/// Reg_{t0 (+) t1}; respond with its value.
[[nodiscard]] std::unique_ptr<process> make_bloom_reader(processor_id proc,
                                                         int num_reads);

/// Reader variant sampling the tags in the OPPOSITE order (Reg1 then Reg0).
/// The paper's footnote 5 notes the proof tolerates reordering the first
/// two reads; the explorer confirms atomicity is preserved.
[[nodiscard]] std::unique_ptr<process> make_bloom_reader_reversed(
    processor_id proc, int num_reads);

/// Reader variant that SKIPS the third real read, returning the value it
/// captured together with the chosen tag. An ablation probing whether the
/// paper's re-read is necessary; see tests/bench for the verdict.
[[nodiscard]] std::unique_ptr<process> make_bloom_reader_no_reread(
    processor_id proc, int num_reads);

/// Writer that CRASHES at a chosen point: it runs its script normally
/// until op `crash_op`, performs that op up to `crash_stage` real accesses
/// (0 = right after invoking, 1 = after its real read, 2 = after its real
/// write), and then halts forever. The op stays pending in the history;
/// the explorer thereby verifies crash tolerance over ALL schedules, not
/// just the thread-level injection tests.
[[nodiscard]] std::unique_ptr<process> make_bloom_writer_crashing(
    int writer_index, std::vector<mc_value> values_to_write,
    std::size_t crash_op, int crash_stage);

/// --- Faulty-substrate Bloom processes (fault model of registers/faulty.hpp)
/// The same programs over base registers whose accesses may misbehave:
/// the explorer branches over "this access faults" vs "this access is
/// clean" at every eligible step, bounded by `max_faults` faults per
/// process. Value-corrupting classes (stale_read, lost_write, torn_value,
/// delayed_visibility) should exhibit a reachable atomicity violation;
/// port_crash (halt mid-op, op left pending) should not -- the explorer
/// proves both, schedule-exhaustively. stale_read needs the base
/// registers constructed with track_previous = true.
[[nodiscard]] std::unique_ptr<process> make_faulty_bloom_writer(
    int writer_index, std::vector<mc_value> values_to_write, fault_class cls,
    int max_faults);
[[nodiscard]] std::unique_ptr<process> make_faulty_bloom_reader(
    processor_id proc, int num_reads, fault_class cls, int max_faults);

/// Deliberately BROKEN writer applying the other writer's tag rule
/// (t := (1-i) (+) t'). Exists to prove the explorer catches tag-protocol
/// bugs -- a mutation-testing fixture.
[[nodiscard]] std::unique_ptr<process> make_bloom_writer_wrong_tag(
    int writer_index, std::vector<mc_value> values_to_write);

/// --- The four-writer tournament (paper, Section 8; BROKEN) ---------------
/// Base registers 0 and 1: ATOMIC multi-writer words (hardware-strength,
/// per the paper's footnote 6). Writer ids 0..3; pair = id/2.
[[nodiscard]] std::unique_ptr<process> make_tournament_writer(
    int writer_id, std::vector<mc_value> values_to_write);
[[nodiscard]] std::unique_ptr<process> make_tournament_reader(processor_id proc,
                                                              int num_reads);

/// --- Simpson's four-slot SWSR register (substrate verification) ----------
/// Base register layout (pass as `base`): base+0..base+3 = data slots
/// data[pair][index] (any level, domain = num distinct values);
/// base+4, base+5 = slot[pair] bits; base+6 = latest; base+7 = reading
/// (control bits: any level, domain 2). As in every replayed protocol, an
/// access to an atomic register takes one step and one to a weaker register
/// a begin and an end step.
/// The writer/reader processes record external read/write operations so the
/// explorer can check the register they jointly implement is ATOMIC.
[[nodiscard]] std::unique_ptr<process> make_fourslot_writer(
    std::size_t base, std::vector<mc_value> values_to_write);
[[nodiscard]] std::unique_ptr<process> make_fourslot_reader(std::size_t base,
                                                            processor_id proc,
                                                            int num_reads);

/// --- Seqlock SWMR register (race-certification substrate model) ----------
/// Base register layout: base+0 = sequence number (needs domain >=
/// 2*total_writes+1), base+1 = the payload word (domain >= max value + 1);
/// both level ATOMIC -- race modes distinguish them by sync class instead.
/// Writer: s = seq; seq = s+1; payload = v; seq = s+2. Reader: retry while
/// seq is odd or changed across the payload read (registers/seqlock.hpp).
[[nodiscard]] std::unique_ptr<process> make_seqlock_writer(
    std::size_t base, std::vector<mc_value> values_to_write);
[[nodiscard]] std::unique_ptr<process> make_seqlock_reader(std::size_t base,
                                                           processor_id proc,
                                                           int num_reads);

/// --- Lamport's unary construction: k-valued REGULAR from regular bits ----
/// Base registers base+0 .. base+k-1: one bit per value (level regular;
/// over atomic bits each access is one step).
/// Initially bit 0 is 1 (register holds 0). Writer writing v sets bit v,
/// then clears bits v-1 .. 0; reader scans upward from 0 and returns the
/// first set bit. Provides regularity but NOT atomicity -- the explorer
/// demonstrates both.
[[nodiscard]] std::unique_ptr<process> make_unary_writer(
    std::size_t base, int k, std::vector<mc_value> values_to_write);
[[nodiscard]] std::unique_ptr<process> make_unary_reader(std::size_t base, int k,
                                                         processor_id proc,
                                                         int num_reads);

/// --- Split-write Bloom mutant (tag-packing ablation) ----------------------
/// Base register layout: 0 = value0, 1 = tag0, 2 = value1, 3 = tag1 (all
/// ATOMIC). The writer performs the paper's protocol but stores value and
/// tag with TWO separate real writes (value first); the reader reads both
/// tag cells, then the chosen value cell. Demonstrates that "enough space
/// to hold one value and a single tag bit" (Section 5) means one
/// INDIVISIBLE register: splitting it is not atomic, and the explorer
/// finds the violation.
[[nodiscard]] std::unique_ptr<process> make_split_bloom_writer(
    int writer_index, std::vector<mc_value> values_to_write);
[[nodiscard]] std::unique_ptr<process> make_split_bloom_reader(processor_id proc,
                                                               int num_reads);

/// --- VA-style multi-writer register (unbounded timestamps) ---------------
/// Base registers base .. base+n_writers-1: ATOMIC cells, each holding an
/// encoded stamp ((ts * n_writers) + writer) * value_domain + value.
/// Registers need domain >= (max_ts+1) * n_writers * value_domain where
/// max_ts is the total number of writes in the exploration.
[[nodiscard]] constexpr mc_value encode_stamp(int ts, int writer, mc_value value,
                                              int n_writers,
                                              mc_value value_domain) noexcept {
    return static_cast<mc_value>(
        (ts * n_writers + writer) * value_domain + value);
}
[[nodiscard]] std::unique_ptr<process> make_va_writer(
    std::size_t base, int n_writers, int writer_id,
    std::vector<mc_value> values_to_write, mc_value value_domain);
[[nodiscard]] std::unique_ptr<process> make_va_reader(std::size_t base,
                                                      int n_writers,
                                                      processor_id proc,
                                                      int num_reads,
                                                      mc_value value_domain);

/// --- SWMR-from-SWSR multi-reader construction (swmr_from_swsr.hpp) -------
/// Base register layout (pass as `base`), all ATOMIC single-step cells
/// holding sequence numbers (0 = initial; seq s = the writer's s-th write):
///   base + i            : Value[i], writer -> reader i        (i in [0,n))
///   base + n + j*n + i   : Report[j][i], reader j -> reader i
/// The external value of seq s is `values[s-1]`; 0 maps to the initial
/// value. Registers need domain >= values.size()+1.
[[nodiscard]] std::unique_ptr<process> make_mr_writer(
    std::size_t base, int n, std::vector<mc_value> values_to_write);
[[nodiscard]] std::unique_ptr<process> make_mr_reader(
    std::size_t base, int n, int reader_index, processor_id proc,
    int num_reads, std::vector<mc_value> writer_values);

/// Deliberately BROKEN multi-reader variant: the reader skips the report
/// round (returns without telling the other readers). Exhibits cross-reader
/// new-old inversion -- the mutation fixture proving the report round is
/// load-bearing.
[[nodiscard]] std::unique_ptr<process> make_mr_reader_no_report(
    std::size_t base, int n, int reader_index, processor_id proc,
    int num_reads, std::vector<mc_value> writer_values);

/// --- Lamport's binary-encoded SAFE register from safe bits ----------------
/// Base registers base .. base+bits-1: one SAFE bit per binary digit.
/// Writer stores the value's binary representation bit by bit; reader
/// assembles it bit by bit. The result is SAFE for values in [0, 2^bits)
/// but NOT regular: a read overlapping a write may assemble a mixture that
/// is neither the old nor the new value.
[[nodiscard]] std::unique_ptr<process> make_binary_writer(
    std::size_t base, int bits, std::vector<mc_value> values_to_write);
[[nodiscard]] std::unique_ptr<process> make_binary_reader(std::size_t base,
                                                          int bits,
                                                          processor_id proc,
                                                          int num_reads);

/// --- Primitive cell processes (Lamport's hierarchy, directly) -------------
/// A writer/reader pair accessing ONE base register (whatever its level) as
/// the whole register: the external history directly reflects the cell's
/// consistency level. Used to verify the hierarchy itself: an atomic cell
/// checks atomic; a regular cell checks regular but NOT atomic (new-old
/// inversion); a safe cell is not even regular under same-value rewrites.
[[nodiscard]] std::unique_ptr<process> make_cell_writer(
    std::size_t reg, std::vector<mc_value> values_to_write);
[[nodiscard]] std::unique_ptr<process> make_cell_reader(std::size_t reg,
                                                        processor_id proc,
                                                        int num_reads);

/// Reader over a REGULAR cell holding monotone (seq, value) stamps, keeping
/// a local maximum: the classic upgrade "regular + monotone timestamps =
/// atomic for a single reader". The cell stores seq*value_domain+value; the
/// matching writer is make_stamped_cell_writer. The explorer verifies the
/// pair is ATOMIC even though the cell is only regular.
[[nodiscard]] std::unique_ptr<process> make_stamped_cell_writer(
    std::size_t reg, std::vector<mc_value> values_to_write,
    mc_value value_domain);
[[nodiscard]] std::unique_ptr<process> make_stamped_cell_reader(
    std::size_t reg, processor_id proc, int num_reads, mc_value value_domain);

/// --- Safe bit -> regular bit discipline (Lamport) -------------------------
/// A writer over a single SAFE bit (register `reg`). With `only_write_changes`
/// it skips writes that would rewrite the current value -- Lamport's
/// observation that this discipline upgrades a safe bit to a regular one.
/// Without it, rewriting the same value lets overlapping reads flicker.
[[nodiscard]] std::unique_ptr<process> make_bit_writer(
    std::size_t reg, std::vector<mc_value> values_to_write,
    bool only_write_changes);
[[nodiscard]] std::unique_ptr<process> make_bit_reader(std::size_t reg,
                                                       processor_id proc,
                                                       int num_reads);

}  // namespace bloom87::mc
