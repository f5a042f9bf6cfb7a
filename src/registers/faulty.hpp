// bloom87: deterministic substrate fault injection.
//
// Bloom's construction (paper, Sections 4 and 7) is proven wait-free and
// atomic *assuming the two real registers are atomic*. This header makes
// that assumption dialable: `faulty_register<Inner>` wraps any tagged
// substrate and, driven by a seeded `fault_plan`, makes it misbehave in one
// of five ways:
//
//   * stale_read         -- a read returns the previously committed pair
//                           instead of the latest one (a non-atomic window);
//   * lost_write         -- a write is acknowledged but never lands;
//   * torn_value         -- a write lands with the old value's bits mixed
//                           into the new ones (a non-atomic word);
//   * delayed_visibility -- a write is acknowledged now but becomes visible
//                           only k substrate accesses later;
//   * port_crash         -- one processor halts mid-access; every later
//                           operation on that port is a no-op (the crash
//                           model of Section 7's pending operations).
//
// The first four violate the substrate-atomicity assumption, so the
// construction above them is EXPECTED to produce non-linearizable histories
// (which the checkers must catch). port_crash stays inside the paper's
// fault model, so atomicity must survive it. docs/FAULTS.md tabulates both.
//
// Determinism: every decision comes from one seeded rng inside the plan, and
// one plan-wide spinlock serializes all substrate accesses of the wrapped
// composition. The lock removes real substrate-level races -- acceptable
// here because fault experiments study *value* corruption, not data races,
// and it is what makes `--fault-seed` reproduce a run exactly under the
// seeded schedule.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "histories/events.hpp"
#include "histories/thread_log.hpp"
#include "registers/concepts.hpp"
#include "registers/tagged.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace bloom87 {

enum class fault_class : std::uint8_t {
    none,
    stale_read,
    lost_write,
    torn_value,
    delayed_visibility,
    port_crash,
};

[[nodiscard]] constexpr const char* fault_class_name(fault_class c) noexcept {
    switch (c) {
        case fault_class::none: return "none";
        case fault_class::stale_read: return "stale_read";
        case fault_class::lost_write: return "lost_write";
        case fault_class::torn_value: return "torn_value";
        case fault_class::delayed_visibility: return "delayed_visibility";
        case fault_class::port_crash: return "port_crash";
    }
    return "none";
}

/// True for the classes that break the substrate-atomicity assumption (the
/// construction is expected to produce detectable violations under them);
/// false for crash-class faults the paper's proof tolerates.
[[nodiscard]] constexpr bool corrupts_values(fault_class c) noexcept {
    return c != fault_class::none && c != fault_class::port_crash;
}

[[nodiscard]] inline std::optional<fault_class> parse_fault_class(
    std::string_view name) {
    for (fault_class c :
         {fault_class::none, fault_class::stale_read, fault_class::lost_write,
          fault_class::torn_value, fault_class::delayed_visibility,
          fault_class::port_crash}) {
        if (name == fault_class_name(c)) return c;
    }
    return std::nullopt;
}

/// One class of a COMPOSED plan, with its own probabilistic rate. Composed
/// entries have no exact-access trigger: `at` scripting stays a
/// single-class affair.
struct fault_entry {
    fault_class cls{fault_class::none};
    std::uint64_t rate_num{1};
    std::uint64_t rate_den{64};
};

/// When and how to inject. Triggers count SUBSTRATE accesses (real reads +
/// real writes across both real registers), not simulated operations.
struct fault_spec {
    fault_class cls{fault_class::none};
    /// Probabilistic trigger: each access faults with probability num/den.
    std::uint64_t rate_num{1};
    std::uint64_t rate_den{64};
    /// Seed of the plan's private rng (independent of the workload seed).
    std::uint64_t seed{1};
    /// Scripted trigger: > 0 injects at exactly the at-th access (1-based)
    /// and nowhere else; the rate is then ignored.
    std::uint64_t at{0};
    /// delayed_visibility: the write lands after this many further accesses.
    unsigned delay_accesses{3};
    /// Multi-class plan: when non-empty, each access rolls every entry in
    /// order (first hit wins) and the single-class cls/rate/at knobs above
    /// are ignored.
    std::vector<fault_entry> composed{};
    /// Crash-recovery: > 0 means a crashed server rejoins after this many
    /// further deliveries (bus compositions only; 0 = crash-stop forever).
    std::uint64_t recover_after{0};
    /// Override of the protocol's crash budget f (0 = protocol default).
    /// Only meaningful with recovery: letting MORE than f servers be down
    /// simultaneously forfeits quorum liveness, which the driver's op
    /// deadline then converts into `unavailable` outcomes, not a hang.
    unsigned crash_budget{0};

    [[nodiscard]] bool active() const noexcept {
        return cls != fault_class::none || !composed.empty();
    }
};

/// What was actually injected, per class.
struct fault_counts {
    std::uint64_t stale_reads{0};
    std::uint64_t lost_writes{0};
    std::uint64_t torn_values{0};
    std::uint64_t delayed_writes{0};
    std::uint64_t port_crashes{0};
    /// Gamma position at the moment of the first injection (the recorder's
    /// next stamp right then), or no_event when nothing was injected / no
    /// recorder attached.
    event_pos first_injection{no_event};

    [[nodiscard]] std::uint64_t total() const noexcept {
        return stale_reads + lost_writes + torn_values + delayed_writes +
               port_crashes;
    }
};

/// One plan drives every faulty_register of a composition: a shared access
/// counter (so --fault-at means "the nth substrate access of the run"), a
/// shared seeded rng, the injection counters, and the per-processor crash
/// flags. All mutation happens under the plan's spinlock; the crash flags
/// are additionally readable lock-free (the driver polls them per step).
class fault_plan {
public:
    /// Processors a plan can crash: one flag each.
    static constexpr std::size_t max_processors = 64;

    explicit fault_plan(const fault_spec& spec, const run_log* log = nullptr)
        : spec_(spec), log_(log), gen_(spec.seed) {
        for (std::size_t i = 0; i < crashed_.size(); ++i) {
            crashed_[i].store(false, std::memory_order_relaxed);
        }
    }

    fault_plan(const fault_plan&) = delete;
    fault_plan& operator=(const fault_plan&) = delete;

    [[nodiscard]] const fault_spec& spec() const noexcept { return spec_; }

    void lock() noexcept {
        while (locked_.exchange(true, std::memory_order_acquire)) {}
    }
    void unlock() noexcept { locked_.store(false, std::memory_order_release); }

    struct scoped_lock {
        explicit scoped_lock(fault_plan& p) noexcept : p_(p) { p_.lock(); }
        ~scoped_lock() { p_.unlock(); }
        scoped_lock(const scoped_lock&) = delete;
        scoped_lock& operator=(const scoped_lock&) = delete;
        fault_plan& p_;  // NOLINT(misc-non-private-member-variables-in-classes)
    };

    /// Under the lock: counts this substrate access and decides whether it
    /// faults (spec.at exact trigger, else the probabilistic rate).
    [[nodiscard]] bool trigger() noexcept {
        return trigger_any() != fault_class::none;
    }

    /// Under the lock: counts this substrate access and returns the class
    /// that fires on it (none when nothing fires). Composed plans roll every
    /// entry in declaration order and the first hit wins, so each entry sees
    /// an independent stream of the one shared rng and co-armed classes
    /// interleave deterministically.
    [[nodiscard]] fault_class trigger_any() noexcept {
        const std::uint64_t n = ++accesses_;
        if (!spec_.active()) return fault_class::none;
        if (!spec_.composed.empty()) {
            fault_class hit = fault_class::none;
            for (const fault_entry& e : spec_.composed) {
                const bool fires = e.rate_num != 0 &&
                                   gen_.chance(e.rate_num, e.rate_den);
                // Every entry consumes its roll even after a hit, so adding
                // a class never perturbs the other classes' streams.
                if (fires && hit == fault_class::none) hit = e.cls;
            }
            return hit;
        }
        if (spec_.at > 0) {
            return n == spec_.at ? spec_.cls : fault_class::none;
        }
        const bool fires = spec_.rate_num != 0 &&
                           gen_.chance(spec_.rate_num, spec_.rate_den);
        return fires ? spec_.cls : fault_class::none;
    }

    /// Under the lock: the plan's rng (torn-value bit masks).
    [[nodiscard]] rng& generator() noexcept { return gen_; }

    /// Under the lock: bump one class counter and stamp the first injection.
    void note(fault_class cls) noexcept {
        if (counts_.total() == 0) {
            counts_.first_injection =
                log_ != nullptr ? log_->next_pos() : no_event;
        }
        switch (cls) {
            case fault_class::stale_read: ++counts_.stale_reads; break;
            case fault_class::lost_write: ++counts_.lost_writes; break;
            case fault_class::torn_value: ++counts_.torn_values; break;
            case fault_class::delayed_visibility:
                ++counts_.delayed_writes;
                break;
            case fault_class::port_crash: ++counts_.port_crashes; break;
            case fault_class::none: break;
        }
    }

    /// Lock-free: has processor p's port been crashed?
    [[nodiscard]] bool crashed(processor_id p) const noexcept {
        const auto i = static_cast<std::size_t>(p);
        return i < crashed_.size() &&
               crashed_[i].load(std::memory_order_acquire);
    }

    void crash_port(processor_id p) noexcept {
        const auto i = static_cast<std::size_t>(p);
        check(i < crashed_.size(),
              "fault_plan::crash_port: processor past the crash flags");
        crashed_[i].store(true, std::memory_order_release);
    }

    /// Takes the lock; callable any time (benches read it after the run).
    [[nodiscard]] fault_counts counts() {
        scoped_lock guard(*this);
        return counts_;
    }

    /// Under the lock: total substrate accesses seen so far.
    [[nodiscard]] std::uint64_t accesses() const noexcept { return accesses_; }

private:
    fault_spec spec_;
    const run_log* log_;
    std::atomic<bool> locked_{false};
    rng gen_;
    std::uint64_t accesses_{0};
    fault_counts counts_{};
    std::array<std::atomic<bool>, max_processors> crashed_{};
};

/// Wraps a tagged substrate register with the plan's fault model. Satisfies
/// the same concept as the wrapped register, so it drops into
/// two_writer_register<value_t, faulty_register<Inner>> unchanged.
///
/// A shadow copy of the committed pair (current_/previous_) powers
/// stale_read and torn_value without trusting the (possibly lying) inner
/// register; under the plan's serializing lock the shadow is exact.
template <typename Inner>
class faulty_register {
public:
    /// `args...` go to Inner's constructor after the initial value, so one
    /// adapter covers seqlock_register (no extras), recording_register
    /// (log, reg_index) and ported_substrate (sim_readers, reg_index).
    template <typename... Args>
    explicit faulty_register(tagged<value_t> initial, fault_plan* plan,
                             Args&&... args)
        : inner_(initial, std::forward<Args>(args)...),
          plan_(plan),
          current_(initial),
          previous_(initial) {
        check(plan_ != nullptr, "faulty_register needs a fault_plan");
    }

    faulty_register(const faulty_register&) = delete;
    faulty_register& operator=(const faulty_register&) = delete;

    [[nodiscard]] tagged<value_t> read(access_context ctx) {
        fault_plan::scoped_lock guard(*plan_);
        service_pending(ctx);
        if (plan_->crashed(ctx.processor)) {
            // Dead port: the operation never completes (its response is
            // suppressed upstream), so the value is immaterial.
            return current_;
        }
        const fault_class cls = plan_->trigger_any();
        if (cls == fault_class::port_crash) {
            plan_->note(cls);
            plan_->crash_port(ctx.processor);
            return current_;
        }
        if (cls == fault_class::stale_read) {
            // Perform the real read anyway (the recording substrate then
            // logs a well-formed gamma) but hand back the PREVIOUS pair.
            (void)inner_.read(ctx);
            plan_->note(cls);
            return previous_;
        }
        return inner_.read(ctx);
    }

    void write(tagged<value_t> v, access_context ctx = {}) {
        fault_plan::scoped_lock guard(*plan_);
        service_pending(ctx);
        if (plan_->crashed(ctx.processor)) return;  // dead port: dropped
        const fault_class cls = plan_->trigger_any();
        if (cls == fault_class::port_crash) {
            plan_->note(cls);
            plan_->crash_port(ctx.processor);
            return;  // the crashing access itself never lands
        }
        if (cls == fault_class::lost_write) {
            plan_->note(cls);
            return;  // acknowledged upstream, never applied
        }
        if (cls == fault_class::torn_value) {
            const value_t mixed = tear(current_.value, v.value);
            if (mixed != v.value) {
                plan_->note(cls);
                v.value = mixed;  // lands torn; tag bits stay the new ones
            }
            commit(v, ctx);
            return;
        }
        if (cls == fault_class::delayed_visibility) {
            plan_->note(cls);
            // At most one write in flight per substrate register (the SWMR
            // model); a second delayed write flushes the first.
            if (pending_.has_value()) commit(*pending_, ctx);
            pending_ = v;
            countdown_ = plan_->spec().delay_accesses;
            return;
        }
        commit(v, ctx);
    }

    /// Forwards substrate-specific probes (seqlock retries, fourslot round
    /// reports) for tests that want them.
    [[nodiscard]] Inner& inner() noexcept { return inner_; }

private:
    /// Ages and, when due, lands the delayed write -- using the CURRENT
    /// accessor's context, which is legal: its simulated operation is open,
    /// and real writes may appear inside any open operation.
    void service_pending(access_context ctx) {
        if (!pending_.has_value()) return;
        if (countdown_ > 0) {
            --countdown_;
            return;
        }
        commit(*pending_, ctx);
        pending_.reset();
    }

    void commit(tagged<value_t> v, access_context ctx) {
        inner_.write(v, ctx);
        previous_ = current_;
        current_ = v;
    }

    /// Mixes old and new value bits under a random mask; returns something
    /// different from the new value whenever old != new.
    [[nodiscard]] value_t tear(value_t oldv, value_t newv) noexcept {
        if (oldv == newv) return newv;
        rng& gen = plan_->generator();
        for (int tries = 0; tries < 8; ++tries) {
            const auto mask = static_cast<value_t>(gen());
            const value_t mixed = (oldv & mask) | (newv & ~mask);
            if (mixed != newv) return mixed;
        }
        return oldv;  // degenerate masks: the whole old word is "torn in"
    }

    Inner inner_;
    fault_plan* plan_;
    tagged<value_t> current_;
    tagged<value_t> previous_;
    std::optional<tagged<value_t>> pending_;
    unsigned countdown_{0};
};

}  // namespace bloom87
