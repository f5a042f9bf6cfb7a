#include "modelcheck/net_processes.hpp"

#include <array>
#include <bit>
#include <memory>

#include "modelcheck/processes.hpp"  // encode_stamp
#include "util/check.hpp"

namespace bloom87::mc {
namespace {

/// Number of servers already visited in the current phase.
[[nodiscard]] int visit_count(mc_value visited) noexcept {
    return std::popcount(static_cast<unsigned>(
        static_cast<std::uint16_t>(visited)));
}

/// The choice-th (ascending) server not yet in `visited`.
[[nodiscard]] std::size_t pick_server(int n, mc_value visited, int choice) {
    for (int j = 0; j < n; ++j) {
        if ((static_cast<unsigned>(visited) >> j & 1U) != 0) continue;
        if (choice-- == 0) return static_cast<std::size_t>(j);
    }
    check_failed("pick_server: choice exceeds the unvisited servers",
                 std::source_location::current());
}

[[nodiscard]] std::uint64_t unvisited_mask(int n, mc_value visited) noexcept {
    return ((1ULL << n) - 1) & ~static_cast<std::uint64_t>(
                                   static_cast<std::uint16_t>(visited));
}

/// Shared boilerplate of the two client machines: an immutable refcounted
/// script, a (pos, pc, locals) machine state, and a fingerprint that packs
/// identity + position + locals. locals_ layout:
///   [0] = working stamp (phase 1: max seen; phase 2: stamp to install)
///   [1] = visited-server bitmask of the CURRENT phase
///   [2] = reader only: 1 while every phase-1 reply carried the same stamp
/// pc layout: 0 = invoke, 1 = query visit, 2 = install visit, 3 = respond.
class abd_client_proc : public process {
public:
    abd_client_proc(int n_servers, int quorum, int n_writers,
                    processor_id proc, std::vector<mc_value> script,
                    mc_value vdom)
        : proc_(proc),
          script_(std::make_shared<const std::vector<mc_value>>(
              std::move(script))),
          n_(n_servers), q_(quorum), nw_(n_writers), vdom_(vdom) {}

    [[nodiscard]] processor_id id() const override { return proc_; }

    [[nodiscard]] bool done(const sim_state&) const override {
        return pos_ == script_->size();
    }
    [[nodiscard]] int fanout(const sim_state&) const override {
        return pc_ == 1 || pc_ == 2 ? n_ - visit_count(locals_[1]) : 1;
    }

    // Declared footprint: a visit touches exactly one unvisited server; the
    // union over choices is the unvisited set. Install visits may adopt
    // (write); query visits only read. Invoke/respond are label-only.
    [[nodiscard]] step_footprint footprint(const sim_state&,
                                           std::size_t) const override {
        switch (pc_) {
            case 1:
                return {unvisited_mask(n_, locals_[1]), 0, false};
            case 2: {
                const std::uint64_t m = unvisited_mask(n_, locals_[1]);
                return {m, m, false};
            }
            default:
                return {0, 0, true};
        }
    }

public:
    /// Incarnation-based ack invalidation (the crash_rejoin environment
    /// step calls this on every client): an INSTALL-phase visit to server j
    /// was erased by j's rebirth, so it must stop counting toward the
    /// quorum -- the client will re-visit. The base (writer) version leaves
    /// QUERY-phase visits alone: a stale query ack only over-approximates
    /// the max stamp, and seq = max + 1 stays unique and large enough, so
    /// writer-query invalidation is provably unnecessary (the
    /// implementation voids those acks anyway; that is subsumed here
    /// because a voided-then-re-served query visit is just a visit the
    /// scheduler placed later). Readers override: their fast path DOES
    /// hang durability on query unanimity.
    virtual void invalidate_visits(int j) {
        if (pc_ == 2) {
            locals_[1] = static_cast<mc_value>(
                locals_[1] & ~static_cast<mc_value>(1 << j));
        }
    }

    /// Registers this client's upcoming steps READ but do not write, in a
    /// phase where losing the j visit changes the outcome -- the set the
    /// crash_rejoin step must declare as written to stay POR-dependent on
    /// them (see its footprint). Base: none. A writer mid-install already
    /// conflicts through registers (its steps WRITE its unvisited set,
    /// which the crash step reads -- the set excludes visited j, so it is
    /// all peers the crash queries), and a writer's query phase is
    /// invalidation-exempt, so losing nothing means racing nothing.
    [[nodiscard]] virtual std::uint64_t rebirth_racing_reads(int) const {
        return 0;
    }

protected:
    /// One install visit: conditional adopt at the chosen server. Returns
    /// true when this visit completed the quorum.
    bool install_visit(sim_state& s, int choice) {
        const std::size_t j = pick_server(n_, locals_[1], choice);
        if (locals_[0] / vdom_ > s.read_atomic(j) / vdom_) {
            s.write_atomic(j, locals_[0]);
        }
        locals_[1] = static_cast<mc_value>(locals_[1] | (1 << j));
        return visit_count(locals_[1]) == q_;
    }

    void base_fingerprint_as(std::vector<std::uint64_t>& out,
                             std::uint64_t type_id, processor_id as) const {
        out.push_back(type_id);
        out.push_back(
            (static_cast<std::uint64_t>(static_cast<std::uint16_t>(as))
             << 32) |
            (static_cast<std::uint64_t>(pos_) << 8) |
            static_cast<std::uint64_t>(static_cast<std::uint8_t>(pc_)));
        for (mc_value l : locals_) {
            out.push_back(
                static_cast<std::uint64_t>(static_cast<std::uint16_t>(l)));
        }
    }

    void advance_script() {
        ++opno_;
        ++pos_;
        pc_ = 0;
    }

    processor_id proc_;
    std::shared_ptr<const std::vector<mc_value>> script_;
    std::size_t pos_{0};
    int pc_{0};
    op_index opno_{0};
    std::size_t open_op_{0};
    std::array<mc_value, 3> locals_{};
    int n_;
    int q_;
    int nw_;
    mc_value vdom_;
};

class abd_writer_proc final : public abd_client_proc {
public:
    abd_writer_proc(int n_servers, int quorum, int n_writers, int writer_id,
                    std::vector<mc_value> values, mc_value vdom, bool multi)
        : abd_client_proc(n_servers, quorum, n_writers,
                          static_cast<processor_id>(writer_id),
                          std::move(values), vdom),
          wid_(writer_id), multi_(multi) {}

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<abd_writer_proc>(*this);
    }

    void step(sim_state& s, int choice) override {
        switch (pc_) {
            case 0:
                open_op_ = s.begin_op(proc_, opno_, op_kind::write,
                                      static_cast<value_t>((*script_)[pos_]));
                locals_[1] = 0;
                if (multi_) {
                    locals_[0] = 0;  // max stamp seen in the query
                    pc_ = 1;
                } else {
                    // SWMR fast path: the sole writer knows its own next
                    // seq; no query round.
                    locals_[0] = encode_stamp(static_cast<int>(pos_) + 1,
                                              wid_, (*script_)[pos_], nw_, vdom_);
                    pc_ = 2;
                }
                break;
            case 1: {
                const std::size_t j = pick_server(n_, locals_[1], choice);
                const mc_value enc = s.read_atomic(j);
                if (enc / vdom_ > locals_[0] / vdom_) locals_[0] = enc;
                locals_[1] = static_cast<mc_value>(locals_[1] | (1 << j));
                if (visit_count(locals_[1]) == q_) {
                    const int max_seq = locals_[0] / vdom_ / nw_;
                    locals_[0] = encode_stamp(max_seq + 1, wid_,
                                              (*script_)[pos_], nw_, vdom_);
                    locals_[1] = 0;
                    pc_ = 2;
                }
                break;
            }
            case 2:
                if (install_visit(s, choice)) pc_ = 3;
                break;
            default:
                s.end_op(open_op_, 0);
                advance_script();
                break;
        }
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        base_fingerprint_as(out, multi_ ? 0x1021 : 0x1020, proc_);
    }

private:
    int wid_;
    bool multi_;
};

class abd_reader_proc final : public abd_client_proc {
public:
    abd_reader_proc(int n_servers, int quorum, int n_writers,
                    processor_id proc, int num_reads, mc_value vdom)
        : abd_client_proc(n_servers, quorum, n_writers, proc,
                          std::vector<mc_value>(
                              static_cast<std::size_t>(num_reads), 0),
                          vdom) {}

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<abd_reader_proc>(*this);
    }

    void step(sim_state& s, int choice) override {
        switch (pc_) {
            case 0:
                open_op_ = s.begin_op(proc_, opno_, op_kind::read, 0);
                locals_[0] = 0;
                locals_[1] = 0;
                locals_[2] = 2;  // 2 = no reply yet, 1 = unanimous, 0 = mixed
                pc_ = 1;
                break;
            case 1: {
                const std::size_t j = pick_server(n_, locals_[1], choice);
                const mc_value enc = s.read_atomic(j);
                // "First reply" is tracked in the flag, NOT as an empty
                // visited mask: invalidation can empty the mask mid-phase,
                // and the forced re-visit must compare against the kept max
                // (abd_system::phase's fold keeps the stamp of a voided
                // ack), not reset it.
                if (locals_[2] == 2) {
                    locals_[0] = enc;
                    locals_[2] = 1;
                } else {
                    if (enc != locals_[0]) locals_[2] = 0;
                    if (enc / vdom_ > locals_[0] / vdom_) locals_[0] = enc;
                }
                locals_[1] = static_cast<mc_value>(locals_[1] | (1 << j));
                if (visit_count(locals_[1]) == q_) {
                    if (locals_[2] != 0) {
                        pc_ = 3;  // fast path: unanimous quorum, no write-back
                    } else {
                        locals_[1] = 0;
                        pc_ = 2;
                    }
                }
                break;
            }
            case 2:
                if (install_visit(s, choice)) pc_ = 3;
                break;
            default:
                s.end_op(open_op_,
                         static_cast<value_t>(locals_[0] % vdom_));
                advance_script();
                break;
        }
    }

    /// Readers invalidate QUERY visits too: the fast path concludes "this
    /// stamp sits at a whole quorum" from unanimous replies, and a stale
    /// reply from an erased incarnation can pair with a fresh re-install
    /// elsewhere into a unanimity whose q copies never coexisted (writer
    /// lands T at j only; j reborn empty; retransmission lands T at a peer;
    /// the reader's stale j reply + fresh peer reply read unanimous-T while
    /// j holds the old value -- a later reader through j then returns old:
    /// new/old inversion). Scoping invalidation to installs makes this
    /// model FIND that trace at servers=3. The max and the unanimity flag
    /// keep the stale reply's contribution (as abd_system::phase does); the
    /// forced re-visit reads j's CURRENT stamp against them, which is what
    /// breaks the false unanimity.
    void invalidate_visits(int j) override {
        if (pc_ == 1 || pc_ == 2) {
            locals_[1] = static_cast<mc_value>(
                locals_[1] & ~static_cast<mc_value>(1 << j));
        }
    }

    /// A reader mid-QUERY holding a j visit: its next visits only READ its
    /// unvisited servers (no register conflict with the crash step's
    /// peer-reads/j-write), yet whether the phase completes before or
    /// after losing the j visit changes the outcome -- the crash step must
    /// declare these registers written to keep both orders explored.
    [[nodiscard]] std::uint64_t rebirth_racing_reads(int j) const override {
        if (pc_ == 1 && (static_cast<unsigned>(locals_[1]) >> j & 1U) != 0) {
            return unvisited_mask(n_, locals_[1]);
        }
        return 0;
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        base_fingerprint_as(out, 0x1022, proc_);
    }

    // Readers with the same wiring and script length are fully
    // interchangeable: identical program over registers 0..n-1, identity
    // only in the history labels.
    [[nodiscard]] std::uint64_t symmetry_key() const override {
        return 0xABDE0000ULL | (static_cast<std::uint64_t>(n_) << 12) |
               (static_cast<std::uint64_t>(q_) << 8) | script_->size();
    }
    void fingerprint_as(std::vector<std::uint64_t>& out,
                        processor_id as_proc) const override {
        base_fingerprint_as(out, 0x1022, as_proc);
    }
};

/// Environment process of the crash_rejoin config: ONE step, placed
/// anywhere by the scheduler, that crashes server j and rejoins it.
/// Atomically: j's register is overwritten -- unconditionally, even
/// downward; that is the amnesia -- with the max stamp of its peers (the
/// catch-up over live peers), and every client loses its invalidatable
/// visits to j (install visits for all clients, query visits for readers
/// -- see invalidate_visits). Collapsing crash + catch-up to one step
/// is sound for safety: a recovering replica serves no client in the real
/// system, so no client observes the erased intermediate state, and any op
/// completing during the real catch-up window commutes to one side of the
/// step (its quorum excludes j then).
class crash_rejoin_proc final : public process {
public:
    crash_rejoin_proc(int n_servers, int crash_id, processor_id proc)
        : n_(n_servers), j_(crash_id), proc_(proc) {}

    [[nodiscard]] processor_id id() const override { return proc_; }
    [[nodiscard]] bool done(const sim_state&) const override {
        return fired_;
    }
    [[nodiscard]] int fanout(const sim_state&) const override { return 1; }

    // Reads every peer (the catch-up query), writes the reborn register --
    // PLUS, declared as written, the registers a j-visit-holding reader's
    // query steps are about to read (rebirth_racing_reads): the
    // ack-invalidation side effect mutates such a reader's private visited
    // mask, and its read-only query steps would otherwise count as
    // POR-independent of this step although the two orders differ (the
    // phase completes before vs after losing the j visit). Every other
    // client step either conflicts through registers already (installs
    // write what this step reads or writes) or commutes (writer queries
    // and label-only invoke/respond steps are untouched by
    // invalidate_visits). The footprint is state-dependent; the engine
    // re-queries it at every expansion, and the debug assert in por.cpp
    // checks it covers the traced register truth ({peers, jbit}).
    [[nodiscard]] step_footprint footprint(const sim_state& s,
                                           std::size_t) const override {
        const std::uint64_t all = (1ULL << n_) - 1;
        const std::uint64_t jbit = 1ULL << j_;
        std::uint64_t writes = jbit;
        for (const std::unique_ptr<process>& p : s.procs) {
            if (const auto* c =
                    dynamic_cast<const abd_client_proc*>(p.get())) {
                writes |= c->rebirth_racing_reads(j_);
            }
        }
        return {all & ~jbit, writes, false};
    }

    void step(sim_state& s, int /*choice*/) override {
        mc_value best = 0;  // rebirth floor: the empty (initial) state
        for (int k = 0; k < n_; ++k) {
            if (k == j_) continue;
            const mc_value enc = s.read_atomic(static_cast<std::size_t>(k));
            if (enc > best) best = enc;  // numeric order = stamp order
        }
        s.write_atomic(static_cast<std::size_t>(j_), best);
        for (const std::unique_ptr<process>& p : s.procs) {
            if (auto* c = dynamic_cast<abd_client_proc*>(p.get())) {
                c->invalidate_visits(j_);
            }
        }
        fired_ = true;
    }

    [[nodiscard]] std::unique_ptr<process> clone() const override {
        return std::make_unique<crash_rejoin_proc>(*this);
    }

    void fingerprint(std::vector<std::uint64_t>& out) const override {
        out.push_back(0x1023);
        out.push_back(
            (static_cast<std::uint64_t>(static_cast<std::uint16_t>(proc_))
             << 32) |
            (static_cast<std::uint64_t>(j_) << 8) |
            static_cast<std::uint64_t>(fired_ ? 1 : 0));
    }

private:
    int n_;
    int j_;
    processor_id proc_;
    bool fired_{false};
};

}  // namespace

std::unique_ptr<process> make_abd_writer(int n_servers, int quorum,
                                         int n_writers, int writer_id,
                                         std::vector<mc_value> values_to_write,
                                         mc_value value_domain,
                                         bool multi_writer) {
    return std::make_unique<abd_writer_proc>(n_servers, quorum, n_writers,
                                             writer_id,
                                             std::move(values_to_write),
                                             value_domain, multi_writer);
}

std::unique_ptr<process> make_abd_reader(int n_servers, int quorum,
                                         int n_writers, processor_id proc,
                                         int num_reads,
                                         mc_value value_domain) {
    return std::make_unique<abd_reader_proc>(n_servers, quorum, n_writers,
                                             proc, num_reads, value_domain);
}

sim_state make_abd_state(const abd_model_config& cfg) {
    // Writer w writes the distinct values 1 + w*writes_each .. upward, so
    // every install is distinguishable and 0 stays the initial value.
    const auto vdom = static_cast<mc_value>(
        cfg.writers * cfg.writes_each + 1);
    const int max_seq = cfg.writers * cfg.writes_each;
    const mc_value domain = static_cast<mc_value>(
        encode_stamp(max_seq, cfg.writers - 1,
                     static_cast<mc_value>(vdom - 1), cfg.writers, vdom) +
        1);
    sim_state s;
    for (int j = 0; j < cfg.servers; ++j) {
        mc_register r;
        r.level = reg_level::atomic;
        r.domain = domain;
        r.committed = 0;
        s.registers.push_back(r);
    }
    for (int w = 0; w < cfg.writers; ++w) {
        std::vector<mc_value> script;
        for (int i = 0; i < cfg.writes_each; ++i) {
            script.push_back(
                static_cast<mc_value>(1 + w * cfg.writes_each + i));
        }
        s.procs.push_back(make_abd_writer(cfg.servers, cfg.quorum,
                                          cfg.writers, w, std::move(script),
                                          vdom, cfg.multi_writer));
    }
    for (int r = 0; r < cfg.readers; ++r) {
        s.procs.push_back(make_abd_reader(
            cfg.servers, cfg.quorum, cfg.writers,
            static_cast<processor_id>(cfg.writers + r), cfg.reads_each,
            vdom));
    }
    if (cfg.crash_rejoin) {
        s.procs.push_back(std::make_unique<crash_rejoin_proc>(
            cfg.servers, cfg.crash_server_id,
            static_cast<processor_id>(cfg.writers + cfg.readers)));
    }
    return s;
}

}  // namespace bloom87::mc
