// bloom87: the two decision rules of Bloom's protocol, as pure functions.
//
// Paper, Section 5. Writer i reads the other register's tag t' and writes
// tag t = i (+) t' with its value, trying to make the mod-2 sum of the tag
// bits equal its own index. A reader reads both tags and re-reads register
// r = t0 (+) t1. These two lines are the entire algorithm; everything else
// in this repository is substrate, harness, or proof.
//
// Shared by the threaded implementation (two_writer.hpp), the model
// checker's writer and reader op bodies (modelcheck/processes.cpp), and the
// I/O-automaton processes, so the protocol logic exists in exactly one
// place.
#pragma once

namespace bloom87 {

/// Tag bit writer `writer_index` must write after reading `other_tag` from
/// the other register: t := i (+) t'.
[[nodiscard]] constexpr bool writer_tag_choice(int writer_index,
                                               bool other_tag) noexcept {
    return (writer_index == 1) != other_tag;
}

/// Register a reader must re-read after seeing tags (t0, t1): r := t0 (+) t1.
[[nodiscard]] constexpr int reader_pick(bool t0, bool t1) noexcept {
    return (t0 != t1) ? 1 : 0;
}

/// A write by writer i is POTENT when the mod-2 sum of the tag bits
/// immediately after its real write equals i (paper, Section 7).
[[nodiscard]] constexpr bool write_is_potent(int writer_index, bool tag0,
                                             bool tag1) noexcept {
    return ((tag0 != tag1) ? 1 : 0) == writer_index;
}

// The initial state has both tag bits 0, so their sum is 0: an initial read
// with no writes picks register 0, whose initial value is v0. (This is why
// the paper notes Reg1's initial VALUE is irrelevant but its tag is not.)
static_assert(reader_pick(false, false) == 0);

// A solo write by writer i lands potent: it reads the other tag t' and
// writes i(+)t', making the sum i(+)t'(+)t' = i.
static_assert(write_is_potent(0, writer_tag_choice(0, false), false));
static_assert(write_is_potent(0, writer_tag_choice(0, true), true));
static_assert(write_is_potent(1, writer_tag_choice(1, false), false));
static_assert(write_is_potent(1, writer_tag_choice(1, true), true));

}  // namespace bloom87
