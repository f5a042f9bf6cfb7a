// bloom87: the shared command-line parser for every bench/example binary.
//
// One flag grammar across the whole repository: `--flag value`,
// `--flag=value`, bare boolean flags, optional positionals, and a built-in
// `--help` that prints every registered flag with its default. The common
// harness flags (--register/--writers/--readers/--ops/--seed/--json/
// --check/--duration-ms/--threads) come pre-bundled as `common_flags`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "harness/driver.hpp"

namespace bloom87::harness {

class flag_parser {
public:
    flag_parser(std::string program, std::string description)
        : program_(std::move(program)), description_(std::move(description)) {}

    /// Bare boolean flag: present -> *out = true.
    void add_flag(std::string name, std::string help, bool* out) {
        opts_.push_back({std::move(name), std::move(help), kind::flag, out});
    }
    void add_string(std::string name, std::string help, std::string* out) {
        opts_.push_back({std::move(name), std::move(help), kind::string, out});
    }
    void add_int(std::string name, std::string help, int* out) {
        opts_.push_back({std::move(name), std::move(help), kind::int32, out});
    }
    void add_unsigned(std::string name, std::string help, unsigned* out) {
        opts_.push_back({std::move(name), std::move(help), kind::uint32, out});
    }
    void add_size(std::string name, std::string help, std::size_t* out) {
        opts_.push_back({std::move(name), std::move(help), kind::size, out});
    }
    void add_uint64(std::string name, std::string help, std::uint64_t* out) {
        opts_.push_back({std::move(name), std::move(help), kind::uint64, out});
    }
    /// Optional positional argument (consumed in registration order).
    void add_positional(std::string name, std::string help,
                        std::uint64_t* out) {
        positionals_.push_back({std::move(name), std::move(help), out});
    }

    /// Parses argv. On error prints the problem + usage to stderr and
    /// returns false. `--help` prints usage to stdout, sets
    /// help_requested(), and returns true.
    [[nodiscard]] bool parse(int argc, char** argv);

    [[nodiscard]] bool help_requested() const noexcept { return help_; }

    void print_usage(std::ostream& os) const;

private:
    enum class kind : std::uint8_t { flag, string, int32, uint32, size, uint64 };

    struct option {
        std::string name;  ///< without the leading "--"
        std::string help;
        kind k;
        void* out;
    };
    struct positional {
        std::string name;
        std::string help;
        std::uint64_t* out;
    };

    [[nodiscard]] bool assign(const option& o, const std::string& text);

    std::string program_;
    std::string description_;
    std::vector<option> opts_;
    std::vector<positional> positionals_;
    bool help_{false};
};

/// The flags shared by every harness-driven binary, with the repo-standard
/// defaults. Call add_to() to register them (binaries may register extra
/// flags of their own), then to_spec() for a ready run_spec.
struct common_flags {
    std::string register_name{"bloom/packed"};
    std::string json_path;
    std::string check{"fast"};
    std::size_t writers{2};
    std::size_t readers{2};
    std::size_t ops{64};
    std::uint64_t seed{1};
    unsigned duration_ms{0};
    unsigned threads{0};  ///< explorer/worker thread count (0 = auto)
    bool list{false};     ///< print registered register names and exit

    /// Substrate fault injection (faulty/, repair/ and net/ registers): one
    /// class name, or a comma-separated list for a COMPOSED multi-class
    /// plan ("loss,server_crash,delay"); the trigger rate as "num/den" (or
    /// "den", meaning 1/den), one per class on composed plans; the plan's
    /// private seed; and the optional exact access trigger (--fault-at,
    /// single-class plans only).
    std::string fault{"none"};
    std::string fault_rate{"1/64"};
    std::uint64_t fault_seed{1};
    std::uint64_t fault_at{0};
    /// Crash-recovery (net/ compositions): crashed servers rejoin after
    /// this many further deliveries (0 = crash-stop forever), and the
    /// optional override of the protocol's crash budget f.
    std::uint64_t recover_after{0};
    unsigned crash_budget{0};
    /// Timed runs: grace window before the driver's global op deadline
    /// trips (run_spec::grace_ms).
    unsigned grace_ms{1000};

    /// Streaming checker (bounded-memory, may watch timed runs) and the
    /// open-loop client multiplexer.
    bool streaming{false};
    unsigned stream_window{4096};
    unsigned stream_stride{256};
    unsigned clients{0};
    std::uint64_t client_pace_ns{1000000};

    /// Replica count for net/ compositions.
    std::size_t net_servers{3};

    void add_to(flag_parser& p);

    /// A scripted, per-thread-collected run of the named register. Callers
    /// adjust collect/schedule/pacing as needed.
    [[nodiscard]] run_spec to_spec() const;
};

/// Prints the registry (name, writer range, one-line description); the
/// handler for --list.
void print_register_list(std::ostream& os);

}  // namespace bloom87::harness
