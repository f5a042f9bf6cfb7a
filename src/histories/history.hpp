// bloom87: structured views over a recorded gamma sequence.
//
// A raw event vector (a run's recorded gamma, run_log::merge) is parsed
// into a `history`: per-operation records with invocation/response gamma
// positions and the real-register accesses each operation performed. Both
// checkers consume this form: the generic linearizability checker uses only
// the simulated operations; the Bloom constructive linearizer also uses the
// real accesses.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "histories/events.hpp"

namespace bloom87 {

/// Kind of a simulated operation.
enum class op_kind : std::uint8_t { read, write };

/// One simulated operation reconstructed from gamma.
struct operation {
    op_id id{};
    op_kind kind{op_kind::read};
    value_t value{0};          ///< write: argument; read: returned value
    event_pos invoked{no_event};
    event_pos responded{no_event};  ///< no_event if the op never finished (crash/pending)
    std::vector<event_pos> real_accesses;  ///< gamma positions, in program order

    [[nodiscard]] bool complete() const noexcept { return responded != no_event; }
};

/// A parsed execution: the gamma backbone plus per-operation records.
struct history {
    std::vector<event> gamma;        ///< the raw recorded sequence
    std::vector<operation> ops;      ///< all simulated operations
    value_t initial_value{0};        ///< v0 of the simulated register

    /// Index of each op in `ops`, keyed by its identity.
    std::map<op_id, std::size_t> index;

    [[nodiscard]] const operation* find(op_id id) const {
        auto it = index.find(id);
        return it == index.end() ? nullptr : &ops[it->second];
    }
};

/// Errors found while parsing a raw event sequence into a history.
struct parse_error {
    std::string message;
    event_pos position{no_event};
};

/// Builds a history from a raw gamma sequence.
///
/// Enforces well-formedness of the recording itself (not atomicity!):
///  * each (processor, op) has at most one invocation and one response,
///    response after invocation, matching kinds;
///  * real accesses fall inside their operation's interval;
///  * per-processor operations do not overlap (input-correctness, paper §3);
///  * real_read events cite an `observed_write` that is a real_write to the
///    same register at an earlier position (or no_event), and that write is
///    the *last* write to that register before the read.
///
/// Returns the history, or the first violation found.
struct parse_result {
    history hist;
    std::optional<parse_error> error;

    [[nodiscard]] bool ok() const noexcept { return !error.has_value(); }
};

[[nodiscard]] parse_result parse_history(std::vector<event> gamma,
                                         value_t initial_value);

/// Renders a history as one event per line (for diagnostics and goldens).
[[nodiscard]] std::string format_history(const history& h);

/// Renders only the external schedule (simulated invocations/responses).
[[nodiscard]] std::string format_external_schedule(const history& h);

}  // namespace bloom87
