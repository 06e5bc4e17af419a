#pragma once

// Process-wide metrics: the counted evidence behind the paper's evaluation
// (Table 2 operation counts, §4.3 hint hit rates, the contention events that
// shape Figs. 3-5) gathered in one registry instead of scattered ad-hoc
// counters. Every layer increments named counters through the DTREE_METRIC_*
// macros below; benches and the soufflette CLI snapshot the registry and dump
// it as JSON (util/json.h) next to their throughput numbers, which is what
// fills BENCH_*.json and gives the repo a PR-over-PR perf trajectory.
//
// Cost model — the same folding-to-constants discipline as util/failpoint.h:
// when DATATREE_METRICS is NOT defined the macros expand to `(void)0` and the
// instruction stream of every hot loop is bit-identical to an uninstrumented
// build (verified by objdump diff of bench/fig4_parallel_insert, like the
// failpoint acceptance check). When it IS defined, a counter bump is one
// relaxed fetch_add on a per-thread shard.
//
// Sharding: threads are scattered over a fixed pool of cache-line-aligned
// shards (thread-local claim, round-robin), so concurrent increments from
// different threads hit different cache lines in the common case — the same
// reason the tree keeps no global element counter. Aggregation walks all
// shards; it is O(shards x counters) and meant for end-of-run reporting, not
// hot paths.
//
// Timers ride on the counter machinery: a DTREE_METRIC_TIMER(site) scope
// accumulates elapsed nanoseconds into the site's counter (sites named *_ns
// by convention), so snapshots carry both event counts and time totals in
// one shape.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ostream>

#include "util/json.h"

namespace dtree::metrics {

/// Every counter the system maintains. Keep in sync with counter_name();
/// hint_* blocks must stay in HintKind order (insert, contains, lower,
/// upper) — core/hints.h indexes into them.
enum class Counter : unsigned {
    // core/optimistic_lock.h
    lock_validations_failed = 0, ///< validate()/end_read() lease mismatches
    lock_upgrades_lost,          ///< try_upgrade_to_write lost the CAS race
    lock_write_spins,            ///< failed acquisition attempts in start_write
    lock_write_backoffs,         ///< start_write backoff rounds while the
                                 ///< version word was observed odd (writer held)
    // core/btree.h
    btree_leaf_retries,       ///< leaf_insert returned Retry (Alg. 1 restart)
    btree_restarts,           ///< full descents abandoned on a stale lease
    btree_leaf_splits,        ///< leaf-level node splits
    btree_inner_splits,       ///< inner-node splits (incl. recursive)
    btree_root_replacements,  ///< tree grew a level (new root published)
    btree_leaf_redistributions, ///< leaf overflows resolved by rotating keys
                                ///< into a same-parent sibling (no split)
    btree_redistribute_busy,  ///< rotations given up because the sibling's
                              ///< try-lock failed (the split ran instead)
    btree_bulk_runs,          ///< insert_sorted_run calls (sorted bulk merges)
    btree_bulk_keys,          ///< keys consumed by bulk leaf fills (incl. dups)
    alloc_leaf_nodes,         ///< leaf nodes allocated
    alloc_inner_nodes,        ///< inner nodes allocated
    // core/hints.h (HintStats mirrors its per-object tallies here)
    hint_hits_insert,
    hint_hits_contains,
    hint_hits_lower,
    hint_hits_upper,
    hint_misses_insert,
    hint_misses_contains,
    hint_misses_lower,
    hint_misses_upper,
    // datalog/evaluator.h
    datalog_rule_eval_ns,        ///< wall time inside rule evaluations
    datalog_merge_ns,            ///< wall time merging NEW into FULL
    datalog_fixpoint_iterations, ///< fixpoint loop iterations across strata
    datalog_tuples_derived,      ///< genuinely new head tuples inserted
    datalog_merge_fastpath,      ///< empty-destination packed builds (per index)
                                 ///< in the merge / delta-rotation paths
    datalog_ingest_batches,      ///< Engine::ingest() batches accepted
    datalog_ingest_tuples,       ///< genuinely new tuples buffered by ingest()
    datalog_refixpoint_iterations, ///< fixpoint iterations run by refixpoint()
    // core/btree.h snapshot layer (DESIGN.md §11)
    epoch_advances,      ///< advance_epoch() calls (delta rotations, mostly)
    snapshot_pins,       ///< Snapshot handles pinned
    snapshot_cow_images, ///< copy-on-write node images retained
    snapshot_cow_bytes,  ///< bytes served out of the retain arena
    // core/btree_detail.h + core/btree.h leaf layout v2 (DESIGN.md §15)
    fp_probes,           ///< fingerprint membership probes issued (v2 leaves)
    fp_skips,            ///< probes with zero byte candidates (no key loads)
    fp_false_hits,       ///< byte candidates rejected by key verification
    append_inserts,      ///< in-leaf inserts taking the append-zone path
    leaf_consolidations, ///< append-zone tails merged into the sorted prefix
    // net/server.h (wire protocol, DESIGN.md §13)
    net_connections,    ///< TCP connections accepted
    net_frames_in,      ///< complete frames decoded from clients
    net_frames_out,     ///< frames queued for send to clients
    net_bytes_in,       ///< payload bytes received (post-framing)
    net_bytes_out,      ///< frame bytes sent
    net_timeouts,       ///< read deadlines expired (session closed)
    net_sessions_shed,  ///< slow clients dropped by output backpressure
    net_commits_queued, ///< COMMIT requests enqueued to the writer thread
    count
};

inline constexpr unsigned counter_count = static_cast<unsigned>(Counter::count);

inline const char* counter_name(Counter c) {
    switch (c) {
        case Counter::lock_validations_failed: return "lock_validations_failed";
        case Counter::lock_upgrades_lost: return "lock_upgrades_lost";
        case Counter::lock_write_spins: return "lock_write_spins";
        case Counter::lock_write_backoffs: return "lock_write_backoffs";
        case Counter::btree_leaf_retries: return "btree_leaf_retries";
        case Counter::btree_restarts: return "btree_restarts";
        case Counter::btree_leaf_splits: return "btree_leaf_splits";
        case Counter::btree_inner_splits: return "btree_inner_splits";
        case Counter::btree_root_replacements: return "btree_root_replacements";
        case Counter::btree_leaf_redistributions: return "btree_leaf_redistributions";
        case Counter::btree_redistribute_busy: return "btree_redistribute_busy";
        case Counter::btree_bulk_runs: return "btree_bulk_runs";
        case Counter::btree_bulk_keys: return "btree_bulk_keys";
        case Counter::alloc_leaf_nodes: return "alloc_leaf_nodes";
        case Counter::alloc_inner_nodes: return "alloc_inner_nodes";
        case Counter::hint_hits_insert: return "hint_hits_insert";
        case Counter::hint_hits_contains: return "hint_hits_contains";
        case Counter::hint_hits_lower: return "hint_hits_lower";
        case Counter::hint_hits_upper: return "hint_hits_upper";
        case Counter::hint_misses_insert: return "hint_misses_insert";
        case Counter::hint_misses_contains: return "hint_misses_contains";
        case Counter::hint_misses_lower: return "hint_misses_lower";
        case Counter::hint_misses_upper: return "hint_misses_upper";
        case Counter::datalog_rule_eval_ns: return "datalog_rule_eval_ns";
        case Counter::datalog_merge_ns: return "datalog_merge_ns";
        case Counter::datalog_fixpoint_iterations: return "datalog_fixpoint_iterations";
        case Counter::datalog_tuples_derived: return "datalog_tuples_derived";
        case Counter::datalog_merge_fastpath: return "datalog_merge_fastpath";
        case Counter::datalog_ingest_batches: return "datalog_ingest_batches";
        case Counter::datalog_ingest_tuples: return "datalog_ingest_tuples";
        case Counter::datalog_refixpoint_iterations: return "datalog_refixpoint_iterations";
        case Counter::epoch_advances: return "epoch_advances";
        case Counter::snapshot_pins: return "snapshot_pins";
        case Counter::snapshot_cow_images: return "snapshot_cow_images";
        case Counter::snapshot_cow_bytes: return "snapshot_cow_bytes";
        case Counter::fp_probes: return "fp_probes";
        case Counter::fp_skips: return "fp_skips";
        case Counter::fp_false_hits: return "fp_false_hits";
        case Counter::append_inserts: return "append_inserts";
        case Counter::leaf_consolidations: return "leaf_consolidations";
        case Counter::net_connections: return "net_connections";
        case Counter::net_frames_in: return "net_frames_in";
        case Counter::net_frames_out: return "net_frames_out";
        case Counter::net_bytes_in: return "net_bytes_in";
        case Counter::net_bytes_out: return "net_bytes_out";
        case Counter::net_timeouts: return "net_timeouts";
        case Counter::net_sessions_shed: return "net_sessions_shed";
        case Counter::net_commits_queued: return "net_commits_queued";
        default: return "?";
    }
}

/// Aggregated registry state at one point in time. Always a plain value —
/// identical shape whether metrics are compiled in or not (all-zero then).
struct Snapshot {
    std::uint64_t values[counter_count] = {};

    std::uint64_t operator[](Counter c) const {
        return values[static_cast<unsigned>(c)];
    }

    /// Emits {"name": value, ...} — one flat object, the `metrics` section
    /// of every BENCH_*.json record.
    void write_json(json::Writer& w) const {
        w.begin_object();
        for (unsigned i = 0; i < counter_count; ++i) {
            w.kv(counter_name(static_cast<Counter>(i)), values[i]);
        }
        w.end_object();
    }

    friend std::ostream& operator<<(std::ostream& os, const Snapshot& s) {
        for (unsigned i = 0; i < counter_count; ++i) {
            os << counter_name(static_cast<Counter>(i)) << ": " << s.values[i]
               << "\n";
        }
        return os;
    }
};

#if defined(DATATREE_METRICS)

namespace detail {

inline constexpr unsigned kShards = 64;

/// One cache line per shard row start; counters within a shard are only
/// touched by the threads mapped to it.
struct alignas(64) Shard {
    std::atomic<std::uint64_t> values[counter_count];
};

struct Registry {
    Shard shards[kShards] = {};
    std::atomic<std::uint32_t> next_ordinal{0};
};

inline Registry& registry() {
    static Registry r;
    return r;
}

/// The calling thread's shard, claimed round-robin on first use. Threads
/// outliving their shard is a non-issue: shards live in the process-lifetime
/// registry and are only ever summed.
inline Shard& shard() {
    thread_local Shard* s = &registry().shards[
        registry().next_ordinal.fetch_add(1, std::memory_order_relaxed) % kShards];
    return *s;
}

} // namespace detail

inline bool enabled() { return true; }

inline void inc(Counter c) {
    detail::shard().values[static_cast<unsigned>(c)].fetch_add(
        1, std::memory_order_relaxed);
}

inline void add(Counter c, std::uint64_t n) {
    detail::shard().values[static_cast<unsigned>(c)].fetch_add(
        n, std::memory_order_relaxed);
}

/// Sums all shards. Relaxed reads: counters racing with in-flight increments
/// are approximate by nature; reports run after the measured phase anyway.
inline Snapshot snapshot() {
    Snapshot s;
    for (const auto& shard : detail::registry().shards) {
        for (unsigned i = 0; i < counter_count; ++i) {
            s.values[i] += shard.values[i].load(std::memory_order_relaxed);
        }
    }
    return s;
}

inline std::uint64_t value(Counter c) {
    std::uint64_t total = 0;
    for (const auto& shard : detail::registry().shards) {
        total += shard.values[static_cast<unsigned>(c)].load(std::memory_order_relaxed);
    }
    return total;
}

/// Zeroes every counter in every shard (tests, between bench sections).
inline void reset() {
    for (auto& shard : detail::registry().shards) {
        for (auto& v : shard.values) v.store(0, std::memory_order_relaxed);
    }
}

/// RAII scope accumulating elapsed nanoseconds into a *_ns counter.
class ScopedTimer {
public:
    explicit ScopedTimer(Counter c)
        : counter_(c), start_(std::chrono::steady_clock::now()) {}
    ~ScopedTimer() {
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
        add(counter_, static_cast<std::uint64_t>(ns));
    }
    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

private:
    Counter counter_;
    std::chrono::steady_clock::time_point start_;
};

#else // !DATATREE_METRICS — same API, all no-ops, callers fold away

inline bool enabled() { return false; }
inline void inc(Counter) {}
inline void add(Counter, std::uint64_t) {}
inline Snapshot snapshot() { return {}; }
inline std::uint64_t value(Counter) { return 0; }
inline void reset() {}

#endif

inline void report(std::ostream& os) { os << snapshot(); }

} // namespace dtree::metrics

// Instrumentation macros compiled into core/datalog headers. They must
// expand to `(void)0` when metrics are compiled out so the enclosing code
// folds to exactly the uninstrumented instruction stream (acceptance:
// objdump diff of fig4_parallel_insert's hot loop, as for failpoints).
#if defined(DATATREE_METRICS)
#define DTREE_METRIC_INC(site) \
    (::dtree::metrics::inc(::dtree::metrics::Counter::site))
#define DTREE_METRIC_ADD(site, n) \
    (::dtree::metrics::add(::dtree::metrics::Counter::site, (n)))
#define DTREE_METRIC_TIMER(site)                        \
    ::dtree::metrics::ScopedTimer dtree_metric_timer_##site { \
        ::dtree::metrics::Counter::site                 \
    }
#else
#define DTREE_METRIC_INC(site) ((void)0)
#define DTREE_METRIC_ADD(site, n) ((void)0)
#define DTREE_METRIC_TIMER(site) ((void)0)
#endif
