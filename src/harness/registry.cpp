#include "harness/registry.hpp"

#include <utility>

#include "analysis/contracts.hpp"
#include "baselines/mutex_register.hpp"
#include "baselines/native_atomic.hpp"
#include "baselines/rwlock_register.hpp"
#include "baselines/tournament.hpp"
#include "histories/workload.hpp"
#include "net/abd.hpp"
#include "net/twobit.hpp"
#include "registers/fourslot.hpp"
#include "registers/packed_atomic.hpp"
#include "registers/recording.hpp"
#include "registers/repair.hpp"
#include "registers/seqlock.hpp"
#include "registers/swmr_from_swsr.hpp"
#include "registers/va_register.hpp"
#include "util/bits.hpp"

namespace bloom87::harness {
namespace {

// Adapters never record simulated operations: the driver's script runner
// records every invocation/response, so the only events a register writes
// into the run's recorder are its real accesses (recording substrate, net/
// replica observer).

// ---------------------------------------------------------------- bloom/* --

/// The write/read ports of every composition over two_writer_register:
/// bloom/*, and the fault-plan-driven faulty/* and repair/*. The latter pass
/// their plan and set `Injected`. A port killed by a port_crash fault then
/// reports crashed(): the driver leaves the operation that triggered it
/// PENDING (invocation without response) -- the external trace of a
/// processor that died mid-operation, exactly what the checkers must
/// tolerate -- and stops stepping the port. bloom/* entries pass a null
/// plan with `Injected` false, which compiles the crash test out of their
/// per-operation path.
template <typename RegT, bool Injected>
class bloom_wport final : public any_port {
public:
    bloom_wport(RegT& r, int index, fault_plan* plan)
        : w_(index == 0 ? &r.writer0() : &r.writer1()), plan_(plan),
          proc_(static_cast<processor_id>(index)) {}

    value_t read() override { return crashed() ? 0 : w_->read(); }
    void write(value_t v) override {
        if (!crashed()) w_->write(v);
    }
    void write_paced(value_t v, const pause_fn& pause) override {
        if (!crashed()) w_->write_paced(v, pause);
    }
    bool write_crashed(value_t v, crash_point cp) override {
        if (!crashed()) w_->write_crashed(v, cp);
        return true;
    }
    bool read_cached(value_t& out) override {
        out = crashed() ? 0 : w_->read_cached();
        return true;
    }
    bool stall(const pause_fn& during) override {
        // Counter offset keeps staller values disjoint from any scripted
        // workload value (those counters stay < 2^31).
        if (!crashed()) {
            w_->write_paced(unique_value(proc_, 0x80000000u + stall_count_++),
                            during);
        }
        return true;
    }
    [[nodiscard]] bool crashed() const override {
        if constexpr (Injected) return plan_->crashed(proc_);
        return false;
    }

private:
    typename RegT::writer* w_;
    fault_plan* plan_;
    processor_id proc_;
    std::uint32_t stall_count_{0};
};

template <typename RegT, bool Injected>
class bloom_rport final : public any_port {
public:
    bloom_rport(typename RegT::reader rd, fault_plan* plan)
        : rd_(std::move(rd)), plan_(plan) {}

    value_t read() override { return crashed() ? 0 : rd_.read(); }
    void write(value_t) override {}  // reader ports never write
    value_t read_paced(const pause_fn& pause) override {
        return crashed() ? 0 : rd_.read_paced(pause);
    }
    bool stall(const pause_fn& during) override {
        (void)read_paced(during);
        return true;
    }
    [[nodiscard]] bool crashed() const override {
        if constexpr (Injected) return plan_->crashed(rd_.processor());
        return false;
    }

private:
    typename RegT::reader rd_;
    fault_plan* plan_;
};

template <bool Injected, typename RegT>
std::unique_ptr<any_port> make_bloom_port(RegT& reg, processor_id processor,
                                          port_role role, fault_plan* plan) {
    if (role == port_role::writer) {
        return std::make_unique<bloom_wport<RegT, Injected>>(reg, processor,
                                                             plan);
    }
    return std::make_unique<bloom_rport<RegT, Injected>>(
        reg.make_reader(processor), plan);
}

/// Adapter over two_writer_register<value_t, Reg>.
template <typename Reg>
class bloom_any final : public any_register {
    using reg_t = two_writer_register<value_t, Reg>;

public:
    explicit bloom_any(std::unique_ptr<reg_t> reg) : reg_(std::move(reg)) {}

    std::unique_ptr<any_port> make_port(processor_id processor,
                                        port_role role) override {
        return make_bloom_port<false>(*reg_, processor, role, nullptr);
    }

private:
    std::unique_ptr<reg_t> reg_;
};

// ------------------------------------------------------------- baseline/* --

/// Adapter over the blocking baselines (mutex / rw-lock).
template <typename Reg>
class lock_any final : public any_register {
public:
    explicit lock_any(value_t initial) : reg_(initial) {}

    class port final : public any_port {
    public:
        port(Reg& r, port_role role) : reg_(&r), role_(role) {}

        value_t read() override { return reg_->read(); }
        void write(value_t v) override { reg_->write(v); }
        bool stall(const pause_fn& during) override {
            if (role_ != port_role::writer) return false;
            auto lock = take_lock(*reg_);
            during();
            return true;
        }

    private:
        static auto take_lock(mutex_register<value_t>& r) { return r.stall(); }
        static auto take_lock(rwlock_register<value_t>& r) {
            return r.stall_writer();
        }

        Reg* reg_;
        port_role role_;
    };

    std::unique_ptr<any_port> make_port(processor_id,
                                        port_role role) override {
        return std::make_unique<port>(reg_, role);
    }

private:
    Reg reg_;
};

/// Adapter over the native MRMW atomic word.
class native_any final : public any_register {
    using reg_t = native_atomic_register<value_t>;

public:
    explicit native_any(value_t initial) : reg_(initial) {}

    class port final : public any_port {
    public:
        port(reg_t& r, processor_id proc) : reg_(&r), proc_(proc) {}

        value_t read() override { return reg_->read(proc_); }
        void write(value_t v) override { reg_->write(v, proc_); }

    private:
        reg_t* reg_;
        processor_id proc_;
    };

    std::unique_ptr<any_port> make_port(processor_id processor,
                                        port_role) override {
        return std::make_unique<port>(reg_, processor);
    }

private:
    reg_t reg_;
};

// ------------------------------------------------------------------- va/* --

class va_any final : public any_register {
    using reg_t = va_register<value_t>;

public:
    va_any(value_t initial, std::size_t writers) : reg_(initial, writers) {}

    class wport final : public any_port {
    public:
        explicit wport(reg_t::writer_port p) : p_(std::move(p)) {}

        value_t read() override { return p_.read(); }
        void write(value_t v) override { p_.write(v); }

    private:
        reg_t::writer_port p_;
    };

    class rport final : public any_port {
    public:
        explicit rport(reg_t& r) : reg_(&r) {}

        value_t read() override { return reg_->read(); }
        void write(value_t) override {}

    private:
        reg_t* reg_;
    };

    std::unique_ptr<any_port> make_port(processor_id processor,
                                        port_role role) override {
        if (role == port_role::writer) {
            return std::make_unique<wport>(
                reg_.make_writer_port(static_cast<std::size_t>(processor)));
        }
        return std::make_unique<rport>(reg_);
    }

private:
    reg_t reg_;
};

// ----------------------------------------------------------------- swmr/* --

/// The SWMR-from-SWSR ladder as a 1-writer register in its own right.
/// The ladder gets readers + 1 ports: reader processor p (>= 1) maps to
/// port p - 1, and the writer (whose scripted reads must go through a real
/// port too) owns the extra port `readers`.
class swmr_any final : public any_register {
    using reg_t = swmr_from_swsr<value_t>;

public:
    swmr_any(value_t initial, std::size_t readers)
        : reg_(tagged<value_t>{initial, false}, readers + 1),
          writer_read_port_(readers) {}

    class wport final : public any_port {
    public:
        wport(reg_t& r, std::size_t read_port)
            : reg_(&r), rd_(r.make_reader_port(read_port)) {}

        value_t read() override { return rd_.read().value; }
        void write(value_t v) override {
            reg_->write(tagged<value_t>{v, false});
        }

    private:
        reg_t* reg_;
        reg_t::reader_port rd_;
    };

    class rport final : public any_port {
    public:
        explicit rport(reg_t::reader_port p) : p_(std::move(p)) {}

        value_t read() override { return p_.read().value; }
        void write(value_t) override {}

    private:
        reg_t::reader_port p_;
    };

    std::unique_ptr<any_port> make_port(processor_id processor,
                                        port_role role) override {
        if (role == port_role::writer) {
            return std::make_unique<wport>(reg_, writer_read_port_);
        }
        return std::make_unique<rport>(
            reg_.make_reader_port(static_cast<std::size_t>(processor) - 1));
    }

private:
    reg_t reg_;
    std::size_t writer_read_port_;
};

// ----------------------------------------------------------- tournament/* --

/// The BROKEN Section 8 tournament (4 writers over native atomic words).
/// Registered so the harness can demonstrate the failure: checkers are
/// expected to reject its histories (info.expected_atomic = false). A
/// writer's scripted reads are served by an internal reader handle.
class tournament_any final : public any_register {
    using reg_t = tournament_four_writer<value_t>;

public:
    explicit tournament_any(value_t initial) : reg_(initial) {}

    class wport final : public any_port {
    public:
        wport(reg_t& r, processor_id proc)
            : w_(r.make_writer(proc)), rd_(r.make_reader(proc)),
              proc_(proc) {}

        value_t read() override { return rd_.read(); }
        void write(value_t v) override { w_.write(v); }
        void write_paced(value_t v, const pause_fn& pause) override {
            w_.begin_write(v);
            pause();
            w_.finish_write();
        }
        bool stall(const pause_fn& during) override {
            write_paced(unique_value(proc_, 0x80000000u + stall_count_++),
                        during);
            return true;
        }

    private:
        reg_t::writer w_;
        reg_t::reader rd_;
        processor_id proc_;
        std::uint32_t stall_count_{0};
    };

    class rport final : public any_port {
    public:
        explicit rport(reg_t::reader rd) : rd_(std::move(rd)) {}

        value_t read() override { return rd_.read(); }
        void write(value_t) override {}

    private:
        reg_t::reader rd_;
    };

    std::unique_ptr<any_port> make_port(processor_id processor,
                                        port_role role) override {
        if (role == port_role::writer) {
            return std::make_unique<wport>(reg_, processor);
        }
        return std::make_unique<rport>(reg_.make_reader(processor));
    }

private:
    reg_t reg_;
};

// ----------------------------------------------------------------- faulty/* --

/// Bloom's construction over substrates wrapped in the fault injector
/// (registers/faulty.hpp).
template <typename Inner>
class faulty_any final : public any_register {
    using reg_t = two_writer_register<value_t, faulty_register<Inner>>;

public:
    /// `make_inner(init, plan, reg_index)` builds one wrapped substrate.
    template <typename MakeInner>
    faulty_any(const register_args& a, MakeInner&& make_inner)
        : plan_(a.fault, a.log),
          reg_(a.initial, [&](tagged<value_t> init, int reg_index) {
              return make_inner(init, &plan_, reg_index);
          }) {}

    [[nodiscard]] fault_counts faults() override { return plan_.counts(); }

    std::unique_ptr<any_port> make_port(processor_id processor,
                                        port_role role) override {
        return make_bloom_port<true>(reg_, processor, role, &plan_);
    }

private:
    fault_plan plan_;  // before reg_: the factory lambda takes its address
    reg_t reg_;
};

// ----------------------------------------------------------------- repair/* --

/// The self-healing wrapper (registers/repair.hpp) around the fault
/// injector: same plan, same crash semantics, same ports as faulty_any --
/// plus the
/// repair-overhead counters surfaced through repair().
template <typename Inner>
class repair_any final : public any_register {
    using reg_t =
        two_writer_register<value_t, repair_register<Inner>>;

public:
    explicit repair_any(const register_args& a)
        : plan_(a.fault, a.log),
          reg_(a.initial, [&](tagged<value_t> init, int) {
              return repair_register<Inner>(init, &plan_, &counts_);
          }) {}

    [[nodiscard]] fault_counts faults() override { return plan_.counts(); }
    [[nodiscard]] repair_stats repair() override {
        repair_stats s;
        s.ran = true;
        s.verify_reads =
            counts_.verify_reads.load(std::memory_order_relaxed);
        s.rereads = counts_.rereads.load(std::memory_order_relaxed);
        s.rewrites = counts_.rewrites.load(std::memory_order_relaxed);
        s.repaired = counts_.repaired.load(std::memory_order_relaxed);
        return s;
    }

    std::unique_ptr<any_port> make_port(processor_id processor,
                                        port_role role) override {
        return make_bloom_port<true>(reg_, processor, role, &plan_);
    }

private:
    fault_plan plan_;       // before reg_: the factory lambda takes both
    repair_counts counts_;  // addresses
    reg_t reg_;
};

// ------------------------------------------------------------------- net/* --

[[nodiscard]] net_stats to_net_stats(const net::net_counters& c,
                                     std::size_t servers,
                                     std::size_t quorum) {
    net_stats s;
    s.ran = true;
    s.servers = servers;
    s.quorum = quorum;
    s.sent = c.sent;
    s.delivered = c.delivered;
    s.lost = c.lost;
    s.duplicated = c.duplicated;
    s.delayed = c.delayed;
    s.retransmissions = c.retransmissions;
    s.server_crashes = c.server_crashes;
    s.ops = c.ops;
    s.rounds = c.rounds;
    s.fast_path_ops = c.fast_path_ops;
    s.recoveries = c.recoveries;
    s.catchup_rounds = c.catchup_rounds;
    s.stale_inc_drops = c.stale_inc_drops;
    s.unavailable_ops = c.unavailable_ops;
    return s;
}

/// Recorder bridge for the net/ replica observer (abd.hpp): each server
/// replica is real register 2 + server (reg 0/1 stay the Bloom base
/// registers), recorded into the PUMPING client's buffer -- the processor
/// whose thread executed the touch under the composition's net_lock. That
/// is the feed the hybrid race checker replays against the net/ contracts
/// (blanket lock_region, src/analysis/contracts.cpp); history parsing
/// exempts reg >= 2 from base-register validation.
[[nodiscard]] net::replica_observer make_net_observer(run_log* log) {
    if (log == nullptr) return {};
    return [log](std::size_t client, std::size_t server, bool is_write,
                 value_t v) {
        event e;
        e.kind = is_write ? event_kind::real_write : event_kind::real_read;
        e.reg = static_cast<std::uint8_t>(2 + server);
        e.processor = static_cast<processor_id>(client);
        e.value = v;
        log->record(e.processor, e);
    };
}

/// ABD quorum replication behind the type-erased interface. Client index ==
/// processor id (writers first). The paced variants hand the harness's
/// pause to the protocol's round boundary -- which is where the driver's
/// seeded schedule interleaves other processors' bus activity.
class abd_any final : public any_register {
public:
    explicit abd_any(const register_args& a)
        : plan_(a.fault, a.log), observer_(make_net_observer(a.log)) {
        net::abd_config cfg;
        cfg.servers = a.servers;
        cfg.clients = a.writers + a.readers;
        cfg.writers = a.writers;
        cfg.multi_writer = a.writers > 1;
        cfg.initial = a.initial;
        cfg.bus.seed = a.net_seed;
        cfg.abort_flag = a.abort;
        cfg.observer = &observer_;
        sys_ = std::make_unique<net::abd_system>(cfg, &plan_);
    }

    [[nodiscard]] fault_counts faults() override { return plan_.counts(); }
    [[nodiscard]] net_stats net() override {
        return to_net_stats(sys_->counters(), sys_->servers(), sys_->quorum());
    }

    class port final : public any_port {
    public:
        port(net::abd_system& s, processor_id proc, port_role role)
            : sys_(&s), proc_(proc), role_(role) {}

        value_t read() override { return do_read(nullptr); }
        void write(value_t v) override { do_write(v, nullptr); }
        value_t read_paced(const pause_fn& pause) override {
            return do_read(&pause);
        }
        void write_paced(value_t v, const pause_fn& pause) override {
            do_write(v, &pause);
        }
        /// Parked after an UNAVAILABLE outcome: the op stays pending (the
        /// same external trace as a crashed port -- an incomplete op may or
        /// may not take effect, which is exactly what a sub-quorum install
        /// means) and the driver stops stepping the processor.
        [[nodiscard]] bool crashed() const override { return parked_; }

    private:
        value_t do_read(const pause_fn* pause) {
            if (parked_) return 0;
            const std::optional<value_t> out =
                sys_->read(static_cast<std::size_t>(proc_), pause);
            parked_ = !out.has_value();  // pending forever, like a crash
            return out.value_or(0);
        }
        void do_write(value_t v, const pause_fn* pause) {
            if (role_ != port_role::writer || parked_) return;
            parked_ = !sys_->write(static_cast<std::size_t>(proc_), v, pause);
        }

        net::abd_system* sys_;
        processor_id proc_;
        port_role role_;
        bool parked_{false};
    };

    std::unique_ptr<any_port> make_port(processor_id processor,
                                        port_role role) override {
        return std::make_unique<port>(*sys_, processor, role);
    }

private:
    fault_plan plan_;  // before sys_: the bus keeps its address
    net::replica_observer observer_;  // before sys_: cfg keeps its address
    std::unique_ptr<net::abd_system> sys_;
};

/// The Mostefaoui-Raynal two-bit-message construction behind the same
/// interface. Processor 0 is THE writer (SWMR); its scripted reads run the
/// reader protocol on client 0.
class twobit_any final : public any_register {
public:
    explicit twobit_any(const register_args& a)
        : plan_(a.fault, a.log),
          observer_(make_net_observer(a.log)),
          cfg_servers_(a.servers) {
        net::twobit_config cfg;
        cfg.servers = a.servers;
        cfg.clients = 1 + a.readers;
        cfg.initial = a.initial;
        cfg.bus.seed = a.net_seed;
        cfg.abort_flag = a.abort;
        cfg.observer = &observer_;
        sys_ = std::make_unique<net::twobit_system>(cfg, &plan_);
    }

    [[nodiscard]] fault_counts faults() override { return plan_.counts(); }
    [[nodiscard]] net_stats net() override {
        return to_net_stats(sys_->counters(), cfg_servers_, sys_->quorum());
    }

    class port final : public any_port {
    public:
        port(net::twobit_system& s, processor_id proc)
            : sys_(&s), proc_(proc) {}

        value_t read() override { return do_read(nullptr); }
        void write(value_t v) override { do_write(v, nullptr); }
        value_t read_paced(const pause_fn& pause) override {
            return do_read(&pause);
        }
        void write_paced(value_t v, const pause_fn& pause) override {
            do_write(v, &pause);
        }
        /// Same UNAVAILABLE parking convention as abd_any::port.
        [[nodiscard]] bool crashed() const override { return parked_; }

    private:
        value_t do_read(const pause_fn* pause) {
            if (parked_) return 0;
            const std::optional<value_t> out =
                sys_->read(static_cast<std::size_t>(proc_), pause);
            parked_ = !out.has_value();
            return out.value_or(0);
        }
        void do_write(value_t v, const pause_fn* pause) {
            if (proc_ != 0 || parked_) return;
            parked_ = !sys_->write(v, pause);
        }

        net::twobit_system* sys_;
        processor_id proc_;
        bool parked_{false};
    };

    std::unique_ptr<any_port> make_port(processor_id processor,
                                        port_role) override {
        return std::make_unique<port>(*sys_, processor);
    }

private:
    fault_plan plan_;  // before sys_: the bus keeps its address
    net::replica_observer observer_;  // before sys_: cfg keeps its address
    std::unique_ptr<net::twobit_system> sys_;
    std::size_t cfg_servers_{3};
};

// --------------------------------------------------------------- registry --

register_info info(std::string name, std::string description,
                   std::size_t min_writers, std::size_t max_writers,
                   bool wait_free) {
    register_info i;
    i.name = name;
    i.family = name.substr(0, name.find('/'));
    i.description = std::move(description);
    i.min_writers = min_writers;
    i.max_writers = max_writers;
    i.wait_free = wait_free;
    return i;
}

/// bloom/recording and bloom/plain: Bloom over the recording substrate,
/// built through the factory constructor, so only the real accesses reach
/// the recorder from inside the register.
std::unique_ptr<any_register> make_recording(const register_args& a) {
    run_log* log = a.log;
    return std::make_unique<bloom_any<recording_register>>(
        std::make_unique<two_writer_register<value_t, recording_register>>(
            a.initial, [log](tagged<value_t> init, int reg_index) {
                return recording_register(
                    init, log, static_cast<std::uint8_t>(reg_index));
            }));
}

std::vector<registry_entry> build_registry() {
    std::vector<registry_entry> r;

    {
        register_info i =
            info("bloom/packed",
                 "Bloom two-writer over one packed atomic word per real "
                 "register (production substrate)",
                 2, 2, true);
        i.packed_values = true;
        r.push_back(
            {std::move(i),
             [](const register_args& a) -> std::unique_ptr<any_register> {
                 using substrate = packed_atomic_register<value_t>;
                 return std::make_unique<bloom_any<substrate>>(
                     std::make_unique<two_writer_register<value_t, substrate>>(
                         a.initial));
             }});
    }

    r.push_back({info("bloom/seqlock",
                      "Bloom two-writer over seqlock registers "
                      "(arbitrary-size values; readers retry during writes)",
                      2, 2, true),
                 [](const register_args& a) -> std::unique_ptr<any_register> {
                     using reg_t =
                         two_writer_register<value_t, seqlock_register<value_t>>;
                     return std::make_unique<
                         bloom_any<seqlock_register<value_t>>>(
                         std::make_unique<reg_t>(a.initial));
                 }});

    r.push_back({info("bloom/fourslot",
                      "Bloom two-writer over the depth-2 ladder: SWMR from "
                      "SWSR four-slot registers (footnote 3)",
                      2, 2, true),
                 [](const register_args& a) -> std::unique_ptr<any_register> {
                     using reg_t =
                         two_writer_register<value_t, ported_substrate<value_t>>;
                     const std::size_t n = a.readers;
                     auto reg = std::make_unique<reg_t>(
                         a.initial, [n](tagged<value_t> init, int reg_index) {
                             return ported_substrate<value_t>(init, n, reg_index);
                         });
                     return std::make_unique<
                         bloom_any<ported_substrate<value_t>>>(
                         std::move(reg));
                 }});

    {
        register_info i =
            info("bloom/recording",
                 "Bloom two-writer over the recording substrate (gamma "
                 "with real accesses; input to the Section 7 checker)",
                 2, 2, true);
        i.records_real_accesses = true;
        i.requires_log = true;
        r.push_back({std::move(i), make_recording});
    }

    {
        // The race-checker's live negative fixture: physically it is the
        // recording substrate (serialized, safe to run on real threads), but
        // it DECLARES the plain synchronization contract of registers/
        // plain.hpp -- so the race checker must flag its recorded histories.
        // Not expected to pass atomicity checking ceremony either: reports
        // should show the race verdict, not certify the composition.
        register_info i =
            info("bloom/plain",
                 "Bloom two-writer DECLARED over plain (unsynchronized) "
                 "registers -- the race checker's expected-fail fixture",
                 2, 2, true);
        i.records_real_accesses = true;
        i.requires_log = true;
        i.expected_atomic = false;
        r.push_back({std::move(i), make_recording});
    }

    r.push_back({info("faulty/seqlock",
                      "Bloom two-writer over seqlock substrates wrapped in "
                      "the fault injector (--fault picks the class; "
                      "docs/FAULTS.md)",
                      2, 2, true),
                 [](const register_args& a) -> std::unique_ptr<any_register> {
                     return std::make_unique<
                         faulty_any<seqlock_register<value_t>>>(
                         a, [](tagged<value_t> init, fault_plan* plan, int) {
                             return faulty_register<seqlock_register<value_t>>(
                                 init, plan);
                         });
                 }});

    r.push_back({info("faulty/fourslot",
                      "Bloom two-writer over the fault-injected SWMR-from-"
                      "SWSR ladder (substrate faults under the deepest stack)",
                      2, 2, true),
                 [](const register_args& a) -> std::unique_ptr<any_register> {
                     const std::size_t n = a.readers;
                     return std::make_unique<
                         faulty_any<ported_substrate<value_t>>>(
                         a, [n](tagged<value_t> init, fault_plan* plan,
                                int reg_index) {
                             return faulty_register<ported_substrate<value_t>>(
                                 init, plan, n, reg_index);
                         });
                 }});

    {
        register_info i =
            info("faulty/recording",
                 "fault-injected recording substrate: corrupted runs keep a "
                 "full gamma for forensics and culprit localization",
                 2, 2, true);
        i.records_real_accesses = true;
        i.requires_log = true;
        r.push_back(
            {std::move(i),
             [](const register_args& a) -> std::unique_ptr<any_register> {
                 run_log* log = a.log;
                 return std::make_unique<faulty_any<recording_register>>(
                     a, [log](tagged<value_t> init, fault_plan* plan,
                              int reg_index) {
                         return faulty_register<recording_register>(
                             init, plan, log,
                             static_cast<std::uint8_t>(reg_index));
                     });
             }});
    }

    r.push_back({info("repair/seqlock",
                      "fault-injected seqlock substrates behind the self-"
                      "healing repair wrapper: majority-vote reads and "
                      "verify-rewrite writes mask injected faults at a "
                      "measured access-count cost (docs/FAULTS.md)",
                      2, 2, true),
                 [](const register_args& a) -> std::unique_ptr<any_register> {
                     return std::make_unique<
                         repair_any<seqlock_register<value_t>>>(a);
                 }});

    r.push_back({info("swmr/fourslot",
                      "the SWMR-from-SWSR ladder alone: 1 writer, n readers "
                      "over Simpson four-slot registers",
                      1, 1, true),
                 [](const register_args& a) -> std::unique_ptr<any_register> {
                     return std::make_unique<swmr_any>(a.initial, a.readers);
                 }});

    r.push_back({info("va/seqlock",
                      "n-writer timestamp register (Vitanyi-Awerbuch style, "
                      "Section 8's way forward) over seqlock cells",
                      1, 16, true),
                 [](const register_args& a) -> std::unique_ptr<any_register> {
                     return std::make_unique<va_any>(a.initial, a.writers);
                 }});

    {
        register_info i =
            info("tournament/native",
                 "the BROKEN four-writer tournament (Section 8) over native "
                 "atomic words -- checkers are expected to reject it",
                 4, 4, true);
        i.expected_atomic = false;
        i.packed_values = true;
        r.push_back({std::move(i),
                     [](const register_args& a) -> std::unique_ptr<any_register> {
                         return std::make_unique<tournament_any>(a.initial);
                     }});
    }

    {
        register_info i =
            info("net/abd-swmr",
                 "ABD quorum replication over the in-process message bus, "
                 "single writer: 1-round writes, fast-path reads",
                 1, 1, true);
        // Gamma-collecting runs log per-replica touches at reg 2+server
        // (make_net_observer), so the race checker can replay them.
        i.records_real_accesses = true;
        r.push_back({std::move(i),
                     [](const register_args& a) -> std::unique_ptr<any_register> {
                         return std::make_unique<abd_any>(a);
                     }});
    }

    {
        register_info i =
            info("net/abd-mw",
                 "two-writer ABD: quorum timestamp replication -- the "
                 "paper's two-writer register, distributed",
                 2, 2, true);
        i.records_real_accesses = true;
        r.push_back({std::move(i),
                     [](const register_args& a) -> std::unique_ptr<any_register> {
                         return std::make_unique<abd_any>(a);
                     }});
    }

    {
        register_info i =
            info("net/twobit",
                 "Mostefaoui-Raynal bounded-control replication: only "
                 "two-bit version codes cross the wire (single writer; "
                 "reads obstruction-free)",
                 1, 1, false);
        i.records_real_accesses = true;
        r.push_back({std::move(i),
                     [](const register_args& a) -> std::unique_ptr<any_register> {
                         return std::make_unique<twobit_any>(a);
                     }});
    }

    r.push_back({info("baseline/mutex",
                      "blocking MRMW register via one mutex (the Section 4 "
                      "anti-pattern)",
                      1, 16, false),
                 [](const register_args& a) -> std::unique_ptr<any_register> {
                     return std::make_unique<lock_any<mutex_register<value_t>>>(
                         a.initial);
                 }});

    r.push_back({info("baseline/rwlock",
                      "blocking MRMW register via a readers-writers lock "
                      "([CHP])",
                      1, 16, false),
                 [](const register_args& a) -> std::unique_ptr<any_register> {
                     return std::make_unique<
                         lock_any<rwlock_register<value_t>>>(a.initial);
                 }});

    {
        register_info i = info("baseline/native",
                               "one native MRMW atomic word (the hardware "
                               "upper baseline)",
                               1, 16, true);
        i.packed_values = true;
        r.push_back({std::move(i),
                     [](const register_args& a) -> std::unique_ptr<any_register> {
                         return std::make_unique<native_any>(a.initial);
                     }});
    }

    // Stamp each entry with its declared synchronization contract (the race
    // checker and the report writer surface it); entries without a row in
    // src/analysis/contracts.cpp stay "".
    for (registry_entry& e : r) {
        const std::optional<analysis::sync_class> cls =
            analysis::registry_sync_class(e.info.name);
        if (cls.has_value()) {
            e.info.access_contract = analysis::sync_class_name(*cls);
        }
    }

    return r;
}

}  // namespace

const std::vector<registry_entry>& registry() {
    static const std::vector<registry_entry> r = build_registry();
    return r;
}

const registry_entry* find_register(std::string_view name) {
    for (const registry_entry& e : registry()) {
        if (e.info.name == name) return &e;
    }
    return nullptr;
}

std::vector<std::string> register_names() {
    std::vector<std::string> names;
    names.reserve(registry().size());
    for (const registry_entry& e : registry()) names.push_back(e.info.name);
    return names;
}

std::unique_ptr<any_register> make_register(std::string_view name,
                                            const register_args& args,
                                            std::string* error) {
    const registry_entry* e = find_register(name);
    if (e == nullptr) {
        if (error != nullptr) {
            *error = "unknown register '" + std::string(name) +
                     "' (see --list for registered names)";
        }
        return nullptr;
    }
    if (args.writers < e->info.min_writers ||
        args.writers > e->info.max_writers) {
        if (error != nullptr) {
            *error = e->info.name + " supports " +
                     std::to_string(e->info.min_writers) + ".." +
                     std::to_string(e->info.max_writers) + " writers, got " +
                     std::to_string(args.writers);
        }
        return nullptr;
    }
    if (e->info.requires_log && args.log == nullptr) {
        if (error != nullptr) {
            *error = e->info.name +
                     " records real accesses into the run's recorder (run "
                     "it scripted, with collect=per_thread)";
        }
        return nullptr;
    }
    if (e->info.packed_values && !fits_packed_int64(args.initial)) {
        if (error != nullptr) {
            *error = e->info.name + " packs values into 63 bits: initial " +
                     std::to_string(args.initial) + " is outside [" +
                     std::to_string(packed_int64_min) + ", " +
                     std::to_string(packed_int64_max) + "]";
        }
        return nullptr;
    }
    return e->make(args);
}

}  // namespace bloom87::harness
