#include "analysis/contracts.hpp"

namespace bloom87::analysis {
namespace {

// ----------------------------------------------------- per-file contracts --
//
// One row per (receiver, operation) pair; `orders` lists every order the
// contract allows at such sites and `discipline` names the synchronization
// idiom the site belongs to. The lint also fails on rows that match NO
// call site -- and on rows whose discipline is inconsistent with the
// allowed orders -- so the table cannot silently rot when a header changes.

constexpr site_contract packed_atomic_sites[] = {
    // The packed word IS the register: both operations are the
    // linearization point and must stay seq_cst.
    {"word_", "load", "seq_cst", site_discipline::acq_rel},
    {"word_", "store", "seq_cst", site_discipline::acq_rel},
};

constexpr site_contract seqlock_sites[] = {
    // Readers enter with an acquire load and re-check relaxed behind an
    // acquire fence; the writer's odd/even bumps are relaxed+release
    // around the fence-published payload.
    {"seq_", "load", "acquire,relaxed", site_discipline::seqlock_phase},
    {"seq_", "store", "relaxed,release", site_discipline::seqlock_phase},
    {"words_", "load", "relaxed", site_discipline::relaxed_stat},
    {"words_", "store", "relaxed", site_discipline::relaxed_stat},
    {"retries_", "fetch_add", "relaxed", site_discipline::relaxed_stat},
    {"retries_", "load", "relaxed", site_discipline::relaxed_stat},
    {"", "fence", "acquire,release", site_discipline::seqlock_phase},
};

constexpr site_contract fourslot_sites[] = {
    // Control bits carry the reader/writer handshake: seq_cst only. The
    // data slots are relaxed words published by the release fence in
    // store_slot (receiver `slots` inside the static helpers) -- the
    // handshake set {reading_, slot_, latest_} is their declared guard.
    {"reading_", "load", "seq_cst", site_discipline::acq_rel},
    {"reading_", "store", "seq_cst", site_discipline::acq_rel},
    {"slot_", "load", "seq_cst", site_discipline::acq_rel},
    {"slot_", "store", "seq_cst", site_discipline::acq_rel},
    {"latest_", "load", "seq_cst", site_discipline::acq_rel},
    {"latest_", "store", "seq_cst", site_discipline::acq_rel},
    {"slots", "load", "relaxed", site_discipline::guarded},
    {"slots", "store", "relaxed", site_discipline::guarded},
    {"", "fence", "acquire,release", site_discipline::acq_rel},
};

constexpr site_contract recording_sites[] = {
    // The spinlock serializing every access: classic acquire/release.
    {"locked_", "exchange", "acquire", site_discipline::acq_rel},
    {"locked_", "store", "release", site_discipline::acq_rel},
};

constexpr site_contract faulty_sites[] = {
    // The fault plan's own spinlock plus the sticky crash flags (set with
    // release so a crashed port's last write is visible to observers).
    {"locked_", "exchange", "acquire", site_discipline::acq_rel},
    {"locked_", "store", "release", site_discipline::acq_rel},
    {"crashed_", "load", "acquire", site_discipline::acq_rel},
    {"crashed_", "store", "relaxed,release", site_discipline::acq_rel},
};

constexpr site_contract instrumented_sites[] = {
    // Pure statistics counters; never used for synchronization.
    {"reads_", "fetch_add", "relaxed", site_discipline::relaxed_stat},
    {"reads_", "load", "relaxed", site_discipline::relaxed_stat},
    {"reads_", "store", "relaxed", site_discipline::relaxed_stat},
    {"writes_", "fetch_add", "relaxed", site_discipline::relaxed_stat},
    {"writes_", "load", "relaxed", site_discipline::relaxed_stat},
    {"writes_", "store", "relaxed", site_discipline::relaxed_stat},
};

constexpr site_contract repair_sites[] = {
    // The self-healing wrapper's repair statistics (repair_counts::bump):
    // relaxed counters read after the run, never synchronization.
    {"c", "fetch_add", "relaxed", site_discipline::relaxed_stat},
};

constexpr site_contract thread_log_sites[] = {
    // Per-thread SPSC rings: the producer publishes records with one
    // release store of head_ (acquired by the merger's peek); the merger
    // hands slots back with one release store of tail_ per batch (and
    // before it waits), which the backpressure check acquires. The global
    // seq stamp is a relaxed fetch_add -- the only cross-thread write on
    // the record path.
    {"next_", "fetch_add", "relaxed", site_discipline::relaxed_stat},
    {"next_", "load", "relaxed", site_discipline::relaxed_stat},
    {"head_", "load", "acquire,relaxed", site_discipline::acq_rel},
    {"head_", "store", "release", site_discipline::acq_rel},
    {"tail_", "load", "acquire,relaxed", site_discipline::acq_rel},
    {"tail_", "store", "release", site_discipline::acq_rel},
    {"done_", "load", "acquire", site_discipline::acq_rel},
    {"done_", "store", "release", site_discipline::acq_rel},
};

constexpr site_contract net_bus_sites[] = {
    // The composition-wide bus spinlock (net_lock): classic
    // acquire/release. Every server handler and client phase runs under
    // it, so message payloads and server state need no per-field ordering
    // -- this one lock carries the whole net/ composition's visibility.
    {"locked_", "exchange", "acquire", site_discipline::net_lock},
    {"locked_", "store", "release", site_discipline::net_lock},
};

constexpr file_contract contracts[] = {
    {"packed_atomic.hpp", packed_atomic_sites},
    {"seqlock.hpp", seqlock_sites},
    {"fourslot.hpp", fourslot_sites},
    {"recording.hpp", recording_sites},
    {"faulty.hpp", faulty_sites},
    {"instrumented.hpp", instrumented_sites},
    // plain.hpp is audited as having NO atomic call sites: it is the
    // intentionally unsynchronized register the race checker must flag.
    {"plain.hpp", {}},
    // The self-healing repair wrapper: relaxed statistics only; every data
    // access goes through its wrapped faulty/recording substrate.
    {"repair.hpp", repair_sites},
    // The harness's own collection structures are audited like any
    // register: their memory orders carry the recorded history's validity.
    {"thread_log.hpp", thread_log_sites, "histories"},
    // The message bus under the net/ compositions: one spinlock, no other
    // atomics anywhere in src/net. The protocol .cpp files are audited as
    // zero-site lock regions: every replica/bus touch they make runs under
    // the composition's net_lock, and any atomic call site appearing in
    // them would bypass that discipline.
    {"bus.hpp", net_bus_sites, "net"},
    {"abd.cpp", {}, "net"},
    {"twobit.cpp", {}, "net"},
};

// Real-access contracts per harness registry composition. Everything
// production-grade synchronizes its real accesses; bloom/plain is the
// declared-unsynchronized fixture, and the net/ compositions run every
// replica access under the bus lock (per-server locations are logged at
// reg = 2 + server index, all lock_region -- the blanket covers them).
constexpr registry_contract registry_contracts_table[] = {
    {"bloom/packed", sync_class::sync},
    {"bloom/seqlock", sync_class::sync},
    {"bloom/fourslot", sync_class::sync},
    {"bloom/recording", sync_class::sync},
    {"bloom/plain", sync_class::plain},
    {"faulty/seqlock", sync_class::sync},
    {"faulty/fourslot", sync_class::sync},
    {"faulty/recording", sync_class::sync},
    {"swmr/fourslot", sync_class::sync},
    {"va/seqlock", sync_class::sync},
    {"tournament/native", sync_class::sync},
    {"baseline/mutex", sync_class::sync},
    {"baseline/rwlock", sync_class::sync},
    {"baseline/native", sync_class::sync},
    {"repair/seqlock", sync_class::sync},
    {"net/abd-swmr", sync_class::lock_region},
    {"net/abd-mw", sync_class::lock_region},
    {"net/twobit", sync_class::lock_region},
};

}  // namespace

const char* sync_class_name(sync_class c) noexcept {
    switch (c) {
        case sync_class::plain: return "plain";
        case sync_class::relaxed: return "relaxed";
        case sync_class::sync: return "sync";
        case sync_class::lock_region: return "lock_region";
    }
    return "?";
}

const char* site_discipline_name(site_discipline d) noexcept {
    switch (d) {
        case site_discipline::plain_data: return "plain_data";
        case site_discipline::relaxed_stat: return "relaxed_stat";
        case site_discipline::acq_rel: return "acq_rel";
        case site_discipline::seqlock_phase: return "seqlock_phase";
        case site_discipline::net_lock: return "net_lock";
        case site_discipline::guarded: return "guarded";
    }
    return "?";
}

sync_class discipline_sync_class(site_discipline d) noexcept {
    switch (d) {
        case site_discipline::plain_data: return sync_class::plain;
        case site_discipline::relaxed_stat: return sync_class::relaxed;
        case site_discipline::acq_rel: return sync_class::sync;
        case site_discipline::seqlock_phase: return sync_class::sync;
        case site_discipline::net_lock: return sync_class::lock_region;
        // Guarded sites are plain data to the happens-before detector;
        // their guard set only means something to the lockset detector.
        case site_discipline::guarded: return sync_class::plain;
    }
    return sync_class::plain;
}

std::span<const file_contract> register_contracts() noexcept {
    return contracts;
}

const file_contract* find_file_contract(std::string_view file) noexcept {
    for (const file_contract& fc : contracts) {
        if (fc.file == file) return &fc;
    }
    return nullptr;
}

sync_class registry_contract::class_of(std::uint8_t location) const noexcept {
    for (const registry_site& s : sites) {
        if (s.location == location) return s.cls;
    }
    return blanket;
}

std::uint64_t registry_contract::guards_of(
    std::uint8_t location) const noexcept {
    for (const registry_site& s : sites) {
        if (s.location == location) return s.guards;
    }
    return 0;
}

const registry_contract* find_registry_contract(
    std::string_view register_name) noexcept {
    for (const registry_contract& rc : registry_contracts_table) {
        if (rc.name == register_name) return &rc;
    }
    return nullptr;
}

std::optional<sync_class> registry_sync_class(
    std::string_view register_name) noexcept {
    const registry_contract* rc = find_registry_contract(register_name);
    if (rc == nullptr) return std::nullopt;
    return rc->blanket;
}

}  // namespace bloom87::analysis
