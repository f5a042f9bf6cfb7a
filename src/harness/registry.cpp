#include "harness/registry.hpp"

#include <optional>
#include <tuple>
#include <type_traits>
#include <utility>

#include "analysis/contracts.hpp"
#include "baselines/mutex_register.hpp"
#include "baselines/native_atomic.hpp"
#include "baselines/rwlock_register.hpp"
#include "baselines/tournament.hpp"
#include "histories/workload.hpp"
#include "net/abd.hpp"
#include "net/twobit.hpp"
#include "registers/packed_atomic.hpp"
#include "registers/recording.hpp"
#include "registers/repair.hpp"
#include "registers/seqlock.hpp"
#include "registers/swmr_from_swsr.hpp"
#include "registers/va_register.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"

namespace bloom87::harness {
namespace {

template <typename Substrate>
using bloom = two_writer_register<value_t, Substrate>;
using swmr = swmr_from_swsr<value_t>;

/// Replicas of a net/ composition: 50x the most in use, and the bus keeps
/// one counter per (node, node) channel, (servers + processors)^2 of them.
constexpr std::size_t max_net_servers = 256;

/// abd_system and twobit_system (net/servers.hpp).
template <typename Sys>
concept net_system = requires(Sys& s) { s.server_incarnation(0); };

// -------------------------------------------------------------- handles --
// handle<role>(r, p) is what processor p's port forwards to: the register's
// own writer or reader object where it has one, else the register itself,
// else (for a register that does not speak the port vocabulary) a few-line
// handle here.

template <port_role Role, typename R>
R* handle(R& r, processor_id) { return &r; }
template <port_role Role, typename S>
auto handle(bloom<S>& r, processor_id p) {
    if constexpr (Role == port_role::reader) return r.make_reader(p);
    else return p == 0 ? &r.writer0() : &r.writer1();
}
template <port_role Role>
auto handle(tournament_four_writer<value_t>& r, processor_id p) {
    if constexpr (Role == port_role::reader) return r.make_reader(p);
    else return r.make_writer(p);
}
template <port_role Role>
auto handle(va_register<value_t>& r, processor_id p) {
    if constexpr (Role == port_role::reader) return &r;
    else return r.make_writer_port(static_cast<std::size_t>(p));
}

/// The SWMR-from-SWSR ladder holds tagged values; reader p reads through
/// port p - 1, and the writer through the extra port `readers`.
struct swmr_reader {
    swmr::reader_port port;
    value_t read() { return port.read().value; }
};
struct swmr_writer : swmr_reader {
    swmr* reg;
    void write(value_t v) { reg->write(tagged<value_t>{v, false}); }
};
template <port_role Role>
auto handle(swmr& r, processor_id p) {
    if constexpr (Role == port_role::reader) {
        return swmr_reader{r.make_reader_port(static_cast<std::size_t>(p) - 1)};
    } else {
        return swmr_writer{{r.make_reader_port(r.readers() - 1)}, &r};
    }
}

/// A net/ client (only a writer's writes run). An UNAVAILABLE outcome parks
/// it: the op stays pending, like a crashed port's (a sub-quorum install
/// may or may not take effect), and the driver stops stepping it. A paced
/// op pauses at the protocol's round boundary.
template <typename Sys>
struct net_client {
    Sys* sys;
    std::size_t client;
    bool writes;
    bool parked{false};

    value_t read() { return read_at(nullptr); }
    value_t read_paced(const pause_fn& pause) { return read_at(&pause); }
    void write(value_t v) { write_at(v, nullptr); }
    void write_paced(value_t v, const pause_fn& pause) { write_at(v, &pause); }
    [[nodiscard]] bool crashed() const { return parked; }

    value_t read_at(const pause_fn* pause) {
        const std::optional<value_t> out = sys->read(client, pause);
        parked = !out.has_value();
        return out.value_or(0);
    }
    void write_at(value_t v, const pause_fn* pause) {
        if (writes) parked = !sys->write(client, v, pause);
    }
};
template <port_role Role, net_system Sys>
net_client<Sys> handle(Sys& s, processor_id p) {
    return {&s, static_cast<std::size_t>(p), Role == port_role::writer};
}

// ----------------------------------------------------------------- port --

/// The one port: processor `proc_`'s handle `H` (an object, or a pointer to
/// one). read and write forward to it, and so does each optional operation
/// of any_port that the handle has; the others keep any_port's default.
/// Ports record nothing: the driver records every invocation and response.
/// An `Injected` port's register runs over fault-injecting substrates: a
/// port_crash fault kills the port, crashed() asks the plan, and every
/// later operation is a no-op (the driver leaves the killing operation
/// pending and stops stepping the port). Other ports compile that test
/// out, unless the handle answers crashed() itself (a parked net/ client).
template <typename H, bool Injected>
class port final : public any_port {
    using T = std::remove_pointer_t<H>;
    static constexpr bool paces_reads =
        requires(T& t, const pause_fn& p) { t.read_paced(p); };
    static constexpr bool paces_writes =
        requires(T& t, const pause_fn& p) { t.write_paced(0, p); };
    static constexpr bool crashes_writes =
        requires(T& t) { t.write_crashed(0, crash_point::after_read); };
    static constexpr bool caches_reads = requires(T& t) { t.read_cached(); };
    static constexpr bool parks = requires(const H& h) { h.crashed(); };

public:
    port(H h, processor_id proc, port_role role, std::size_t writers,
         std::size_t processors, const fault_plan* plan)
        : h_(std::move(h)), plan_(plan), proc_(proc), role_(role) {
        const auto p = static_cast<std::size_t>(proc);
        check(p < processors, "make_port: processor outside the register");
        check((role == port_role::writer) == (p < writers),
              "make_port: the role does not match the processor "
              "(writers first)");
    }

    value_t read() override { return crashed() ? 0 : get(h_).read(); }
    void write(value_t v) override {
        if constexpr (requires { get(h_).write(v); }) {
            if (!crashed()) get(h_).write(v);
        }
    }
    value_t read_paced(const pause_fn& pause) override {
        if constexpr (!paces_reads) return any_port::read_paced(pause);
        else return crashed() ? 0 : get(h_).read_paced(pause);
    }
    void write_paced(value_t v, const pause_fn& pause) override {
        if constexpr (!paces_writes) any_port::write_paced(v, pause);
        else if (!crashed()) get(h_).write_paced(v, pause);
    }
    bool write_crashed(value_t v, crash_point cp) override {
        if constexpr (crashes_writes) {
            if (!crashed()) get(h_).write_crashed(v, cp);
        }
        return crashes_writes;
    }
    bool read_cached(value_t& out) override {
        if constexpr (caches_reads) out = crashed() ? 0 : get(h_).read_cached();
        return caches_reads;
    }
    /// A lock's writer stalls holding the lock, a Bloom or tournament
    /// writer between its real read and its real write, a Bloom reader
    /// before its final real read. A net/ client, which may park instead
    /// of finishing, has nothing to stall.
    bool stall(const pause_fn& during) override {
        if constexpr (requires { get(h_).stall(); }) {
            if (role_ != port_role::writer) return false;
            const auto lock = get(h_).stall();
            during();
        } else if constexpr (!parks && paces_writes) {
            // The counter offset keeps staller values disjoint from any
            // scripted workload value (those counters stay < 2^31).
            write_paced(unique_value(proc_, 0x80000000u + stalls_++), during);
        } else if constexpr (!parks && paces_reads) {
            (void)read_paced(during);
        } else {
            return false;
        }
        return true;
    }
    [[nodiscard]] bool crashed() const override {
        if constexpr (Injected) return plan_->crashed(proc_);
        else if constexpr (parks) return h_.crashed();
        else return false;
    }

private:
    static T& get(T& t) { return t; }
    static T& get(T* t) { return *t; }

    H h_;
    const fault_plan* plan_;
    processor_id proc_;
    port_role role_;
    std::uint32_t stalls_{0};
};

// ------------------------------------------------------------- register --

/// What an entry builds besides its register, and before it: the fault plan
/// its substrates or bus read, a repair/ stack's counters, and a net/
/// system's replica observer. The register keeps their addresses.
struct parts {
    std::optional<fault_plan> plan;
    std::optional<repair_counts> repairs;
    net::replica_observer observer;
};

/// Bloom stacks over fault-injecting substrates, whose ports a port_crash
/// fault kills (faulty/, repair/).
template <typename Reg>
constexpr bool crashes_ports = false;
template <typename Inner>
constexpr bool crashes_ports<bloom<faulty_register<Inner>>> = true;
template <typename Inner>
constexpr bool crashes_ports<bloom<repair_register<Inner>>> = true;

/// The one register: an entry's `Reg`, built in place by the entry's
/// factory, and the parts the factory built for it.
template <typename Reg>
class owned final : public any_register {
public:
    template <typename Build>
    owned(const register_args& a, Build build)
        : reg_(new Reg(build(a, parts_))), writers_(a.writers),
          processors_(a.writers + a.readers) {}

    std::unique_ptr<any_port> make_port(processor_id p,
                                        port_role role) override {
        if (role == port_role::reader) {
            return wrap(handle<port_role::reader>(*reg_, p), p, role);
        }
        return wrap(handle<port_role::writer>(*reg_, p), p, role);
    }
    [[nodiscard]] fault_counts faults() override {
        return parts_.plan ? parts_.plan->counts() : fault_counts{};
    }
    [[nodiscard]] net_stats net() override {
        if constexpr (!net_system<Reg>) return {};
        else return {reg_->counters(), true, reg_->servers(), reg_->quorum()};
    }
    [[nodiscard]] repair_stats repair() override {
        if (!parts_.repairs) return {};
        const repair_counts& c = *parts_.repairs;
        return {true, c.verify_reads.load(std::memory_order_relaxed),
                c.rereads.load(std::memory_order_relaxed),
                c.rewrites.load(std::memory_order_relaxed),
                c.repaired.load(std::memory_order_relaxed)};
    }

private:
    template <typename H>
    std::unique_ptr<any_port> wrap(H h, processor_id p, port_role role) {
        return std::make_unique<port<H, crashes_ports<Reg>>>(
            std::move(h), p, role, writers_, processors_,
            parts_.plan ? &*parts_.plan : nullptr);
    }

    parts parts_;  // before reg_: the factory fills it first
    // Its own allocation: glibc serves cacheline-aligned blocks outside its
    // thread cache, so every make_register carves a fresh one; keep it no
    // larger than the register.
    std::unique_ptr<Reg> reg_;
    std::size_t writers_;
    std::size_t processors_;
};

// ------------------------------------------------------------ factories --
// A factory `build(args, parts)` fills the parts it needs and returns the
// entry's register by value, built in place.

template <typename Reg>
constexpr auto from_initial = [](const register_args& a, parts&) {
    return Reg(a.initial);
};

/// The entry's one fault plan, made on first use.
fault_plan* plan_of(const register_args& a, parts& p) {
    return p.plan ? &*p.plan : &p.plan.emplace(a.fault, a.log);
}

/// Real register i of a Bloom stack over substrate S is
/// S(init, real<S>::args(a, p, i)...); a wrapping substrate's own
/// arguments come before its inner one's.
template <typename S>
struct real {
    static auto args(const register_args& a, parts&, int i) {
        if constexpr (std::is_same_v<S, ported_substrate<value_t>>) {
            return std::tuple(a.readers, i);
        } else if constexpr (std::is_same_v<S, recording_register>) {
            return std::tuple(a.log, static_cast<std::uint8_t>(i));
        } else {
            return std::tuple();
        }
    }
};
template <typename Inner>
struct real<faulty_register<Inner>> {
    static auto args(const register_args& a, parts& p, int i) {
        return std::tuple_cat(std::tuple(plan_of(a, p)),
                              real<Inner>::args(a, p, i));
    }
};
template <typename Inner>
struct real<repair_register<Inner>> {
    static auto args(const register_args& a, parts& p, int i) {
        if (!p.repairs) p.repairs.emplace();
        return std::tuple_cat(std::tuple(plan_of(a, p), &*p.repairs),
                              real<Inner>::args(a, p, i));
    }
};

template <typename S>
constexpr auto bloom_of = [](const register_args& a, parts& p) {
    return bloom<S>(a.initial, [&](tagged<value_t> init, int i) {
        return std::apply([&](auto... x) { return S(init, x...); },
                          real<S>::args(a, p, i));
    });
};

/// A net/ system: client index == processor id (writers first), the bus
/// seeded from the run and faulted by the entry's plan. A recorded run logs
/// each replica touch as real register 2 + server (0 and 1 stay the Bloom
/// base registers) in the PUMPING client's buffer -- the processor whose
/// thread made the touch under the net_lock, which the race checker
/// replays against the net/ contracts (src/analysis/contracts.cpp).
template <typename Sys>
constexpr auto net_of = [](const register_args& a, parts& p) {
    net::net_config cfg;
    cfg.servers = a.servers;
    cfg.clients = a.writers + a.readers;
    cfg.writers = a.writers;
    cfg.initial = a.initial;
    cfg.bus.seed = a.net_seed;
    cfg.abort_flag = a.abort;
    if (run_log* log = a.log) {
        p.observer = [log](std::size_t client, std::size_t server,
                           bool is_write, value_t v) {
            event e;
            e.kind = is_write ? event_kind::real_write : event_kind::real_read;
            e.reg = static_cast<std::uint8_t>(2 + server);
            e.processor = static_cast<processor_id>(client);
            e.value = v;
            log->record(e.processor, e);
        };
    }
    cfg.observer = &p.observer;
    return Sys(cfg, plan_of(a, p));
};

// ---------------------------------------------------------------- table --

/// register_info flags: an entry is wait-free and atomic, records nothing
/// and packs nothing unless it is `blocking`, `records` real accesses,
/// `needs_log` (a recorder), is `not_atomic` or `packs` values.
enum entry_flags : unsigned {
    blocking = 1U, records = 2U, needs_log = 4U, not_atomic = 8U, packs = 16U
};

/// One row of the table. The family is the name up to its '/', and the
/// declared synchronization contract comes from src/analysis/contracts.cpp
/// ("" for an entry without a row there).
template <typename Build>
registry_entry row(std::string name, std::size_t min_writers,
                   std::size_t max_writers, unsigned flags, Build,
                   std::string description) {
    const auto cls = analysis::registry_sync_class(name);
    register_info i{name, name.substr(0, name.find('/')),
                    std::move(description), min_writers, max_writers,
                    (flags & blocking) == 0, (flags & records) != 0,
                    (flags & needs_log) != 0, (flags & not_atomic) == 0,
                    (flags & packs) != 0,
                    cls ? analysis::sync_class_name(*cls) : ""};
    using reg_t = std::invoke_result_t<Build, const register_args&, parts&>;
    return {std::move(i),
            [](const register_args& a) -> std::unique_ptr<any_register> {
                return std::make_unique<owned<reg_t>>(a, Build{});
            }};
}

std::vector<registry_entry> build_registry() {
    using seqlock = seqlock_register<value_t>;
    using ported = ported_substrate<value_t>;
    using recording = recording_register;
    using abd = net::abd_system;
    using twobit = net::twobit_system;
    std::vector<registry_entry> r;
    r.push_back(row("bloom/packed", 2, 2, packs,
                    bloom_of<packed_atomic_register<value_t>>,
                    "Bloom two-writer over one packed atomic word per real "
                    "register (production substrate)"));
    r.push_back(row("bloom/seqlock", 2, 2, 0, bloom_of<seqlock>,
                    "Bloom two-writer over seqlock registers (arbitrary-size "
                    "values; readers retry during writes)"));
    r.push_back(row("bloom/fourslot", 2, 2, 0, bloom_of<ported>,
                    "Bloom two-writer over the depth-2 ladder: SWMR from SWSR "
                    "four-slot registers (footnote 3)"));
    r.push_back(row("bloom/recording", 2, 2, records | needs_log,
                    bloom_of<recording>,
                    "Bloom two-writer over the recording substrate (gamma with "
                    "real accesses; input to the Section 7 checker)"));
    // The race checker's negative fixture: the recording substrate,
    // DECLARED plain, so the race checker must flag its histories.
    r.push_back(row("bloom/plain", 2, 2, records | needs_log | not_atomic,
                    bloom_of<recording>,
                    "Bloom two-writer DECLARED over plain (unsynchronized) "
                    "registers -- the race checker's expected-fail fixture"));
    r.push_back(row("faulty/seqlock", 2, 2, 0,
                    bloom_of<faulty_register<seqlock>>,
                    "Bloom two-writer over seqlock substrates wrapped in the "
                    "fault injector (--fault picks the class; "
                    "docs/FAULTS.md)"));
    r.push_back(row("faulty/fourslot", 2, 2, 0,
                    bloom_of<faulty_register<ported>>,
                    "Bloom two-writer over the fault-injected SWMR-from-SWSR "
                    "ladder (substrate faults under the deepest stack)"));
    r.push_back(row("faulty/recording", 2, 2, records | needs_log,
                    bloom_of<faulty_register<recording>>,
                    "fault-injected recording substrate: corrupted runs keep a "
                    "full gamma for forensics and culprit localization"));
    r.push_back(row("repair/seqlock", 2, 2, 0,
                    bloom_of<repair_register<seqlock>>,
                    "fault-injected seqlock substrates behind the self-healing "
                    "repair wrapper: majority-vote reads and verify-rewrite "
                    "writes mask injected faults at a measured access-count "
                    "cost (docs/FAULTS.md)"));
    r.push_back(row("swmr/fourslot", 1, 1, 0,
                    [](const register_args& a, parts&) {
                        return swmr(tagged<value_t>{a.initial, false},
                                    a.readers + 1);
                    },
                    "the SWMR-from-SWSR ladder alone: 1 writer, n readers "
                    "over Simpson four-slot registers"));
    r.push_back(row("va/seqlock", 1, 16, 0,
                    [](const register_args& a, parts&) {
                        return va_register<value_t>(a.initial, a.writers);
                    },
                    "n-writer timestamp register (Vitanyi-Awerbuch style, "
                    "Section 8's way forward) over seqlock cells"));
    r.push_back(row("tournament/native", 4, 4, not_atomic | packs,
                    from_initial<tournament_four_writer<value_t>>,
                    "the BROKEN four-writer tournament (Section 8) over native "
                    "atomic words -- checkers are expected to reject it"));
    r.push_back(row("net/abd-swmr", 1, 1, records,
                    net_of<abd>,
                    "ABD quorum replication over the in-process message bus, "
                    "single writer: 1-round writes, fast-path reads"));
    r.push_back(row("net/abd-mw", 2, 2, records,
                    net_of<abd>,
                    "two-writer ABD: quorum timestamp replication -- the "
                    "paper's two-writer register, distributed"));
    r.push_back(row("net/twobit", 1, 1, blocking | records,
                    net_of<twobit>,
                    "Mostefaoui-Raynal bounded-control replication: only "
                    "two-bit version codes cross the wire (single writer; "
                    "reads obstruction-free)"));
    r.push_back(row("baseline/mutex", 1, 16, blocking,
                    from_initial<mutex_register<value_t>>,
                    "blocking MRMW register via one mutex (the Section 4 "
                    "anti-pattern)"));
    r.push_back(row("baseline/rwlock", 1, 16, blocking,
                    from_initial<rwlock_register<value_t>>,
                    "blocking MRMW register via a readers-writers lock "
                    "([CHP])"));
    r.push_back(row("baseline/native", 1, 16, packs,
                    from_initial<native_atomic_register<value_t>>,
                    "one native MRMW atomic word (the hardware upper "
                    "baseline)"));
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

std::string register_args_error(const register_info& info,
                                const register_args& args) {
    const auto str = [](auto n) { return std::to_string(n); };
    if (args.writers < info.min_writers || args.writers > info.max_writers) {
        return info.name + " supports " + str(info.min_writers) + ".." +
               str(info.max_writers) + " writers, got " + str(args.writers);
    }
    // One OS thread and one fault-plan crash flag per processor (the sum
    // cannot wrap: the writer range above is at most 16).
    const std::size_t processors = args.writers + args.readers;
    constexpr std::size_t max_processors = fault_plan::max_processors;
    if (args.readers > max_processors || processors > max_processors) {
        return "at most " + str(max_processors) +
               " processors (writers + readers), got " + str(processors);
    }
    if (args.servers > max_net_servers) {
        return "at most " + str(max_net_servers) + " net servers, got " +
               str(args.servers);
    }
    const bool net = info.family == "net";
    if (net && args.servers == 0) {
        return info.name +
               " replicates over servers; net_servers must be at least 1";
    }
    if (info.requires_log && args.log == nullptr) {
        return info.name + " records real accesses into the run's recorder "
                           "(run it scripted, with collect=per_thread)";
    }
    if (args.fault.active() && !net && info.family != "faulty" &&
        info.family != "repair") {
        return info.name + " has no fault plan; --fault needs a faulty/, "
                           "repair/ or net/ register";
    }
    if (info.packed_values && !fits_packed_int64(args.initial)) {
        return info.name + " packs values into 63 bits: initial " +
               str(args.initial) + " is outside [" + str(packed_int64_min) +
               ", " + str(packed_int64_max) + "]";
    }
    return {};
}

std::unique_ptr<any_register> make_register(std::string_view name,
                                            const register_args& args,
                                            std::string* error) {
    const registry_entry* e = find_register(name);
    std::string why = e == nullptr ? "unknown register '" + std::string(name) +
                                         "' (see --list for registered names)"
                                   : register_args_error(e->info, args);
    if (why.empty()) return e->make(args);
    if (error != nullptr) *error = std::move(why);
    return nullptr;
}

}  // namespace bloom87::harness
