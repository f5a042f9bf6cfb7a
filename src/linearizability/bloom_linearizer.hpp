// bloom87: the paper's correctness proof (Section 7), executable.
//
// Given a recorded gamma sequence -- the external schedule of the simulated
// register interleaved with the *-actions of every real-register access --
// this module re-runs Bloom's constructive argument:
//
//   * classify every simulated write as POTENT (tag-bit sum equals the
//     writer's index immediately after its real write) or IMPOTENT;
//   * find each impotent write's unique PREFINISHER (the last real write by
//     the other writer falling between the impotent write's real read and
//     real write) -- Lemma 1 says it exists and Lemma 2 says it is potent;
//   * insert linearization points (*-actions) in the paper's four steps:
//       Step 1: potent writes just after their real write; impotent writes
//               just before their prefinisher's *-action;
//       Step 2: reads of potent writes just after the later of their first
//               real read and the source write's *-action;
//       Step 3: reads of impotent writes just after the source's *-action;
//       Step 4: reads of the initial value just after their second real read;
//   * verify the resulting sequence: every *-action inside its operation's
//     interval, per-processor program order preserved, and the register
//     property satisfied.
//
// On histories produced by a correct implementation over an atomic recording
// substrate this always succeeds -- that is the theorem. Any failure is
// reported with which lemma or step broke, which makes this module double as
// a protocol-bug detector (tests deliberately break the protocol and watch
// the right lemma fail).
//
// Unlike the generic checkers this runs in O(n log n) and needs no search.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "histories/history.hpp"

namespace bloom87 {

/// Section 7 classification of one simulated write.
struct write_analysis {
    op_id id{};
    int writer{0};                      ///< 0 or 1
    event_pos real_read{no_event};      ///< gamma position of its real read
    event_pos real_write{no_event};     ///< gamma position of its real write
    bool took_effect{false};            ///< real write happened (crash-aware)
    bool potent{false};                 ///< meaningful when took_effect
    bool has_prefinisher{false};
    op_id prefinisher{};                ///< meaningful when has_prefinisher
};

/// Which of the paper's three read categories a read falls into.
enum class read_class : std::uint8_t { of_potent, of_impotent, of_initial };

/// Section 7 classification of one simulated read.
struct read_analysis {
    op_id id{};
    /// The three real reads. On a writer's cached read the own-register
    /// reads are virtual, placed where the linearizer anchors them.
    event_pos r0{no_event}, r1{no_event}, r2{no_event};
    read_class cls{read_class::of_initial};
    op_id source{};          ///< the write it read from (when not initial)
};

/// One inserted linearization point. Ordering: by (anchor, layer, then the
/// operation's invocation position). Layers encode "immediately before /
/// after" at the same backbone event:
///   2 = impotent write, 3 = reads of that impotent write,
///   4 = potent write,   5 = reads anchored after this event.
struct star_action {
    op_id id{};
    event_pos anchor{no_event};
    int layer{0};
    event_pos tiebreak{no_event};
};

struct bloom_result {
    bool atomic{false};
    std::string diagnosis;              ///< which lemma/step failed, if any
    std::optional<std::string> defect;  ///< gamma is structurally malformed

    std::vector<write_analysis> writes;
    std::vector<read_analysis> reads;
    std::vector<star_action> linearization;  ///< sorted; only when atomic

    // Statistics for benches/EXPERIMENTS.md.
    std::size_t potent_count{0};
    std::size_t impotent_count{0};
    std::size_t reads_of_potent{0};
    std::size_t reads_of_impotent{0};
    std::size_t reads_of_initial{0};

    [[nodiscard]] bool ok() const noexcept { return !defect.has_value(); }
};

/// Runs the constructive proof on a parsed history (which must have been
/// recorded through the recording substrate so real accesses are present).
[[nodiscard]] bloom_result bloom_linearize(const history& h);

}  // namespace bloom87
