#pragma once

// Deterministic fault injection for the optimistic lock protocol.
//
// The correctness of the concurrent B-tree lives in its *rare* interleavings:
// lease validation failures, lost try_upgrade_to_write races, stale-parent
// aborts in the bottom-up split (Alg. 2). Under normal execution those paths
// only run when the OS scheduler happens to produce the race, so a regression
// there passes the test suite silently. Failpoints make the rare paths
// common: each named site can be armed with a firing probability (and, for
// delay sites, a spin count that widens a race window), driven by a seeded
// per-thread PRNG so a failing run is reproducible from its seed.
//
// Cost model: when DATATREE_FAILPOINTS is NOT defined, the injection macros
// below expand to the constants `false` / `(void)0` — the compiler removes
// the branch entirely and production builds pay nothing. When it IS defined,
// a disarmed site costs one relaxed atomic load of its probability.
//
// Every injection site is *failure-safe by protocol*: a spuriously failing
// validate/upgrade only sends the caller down its existing retry path, and a
// delay only widens a window the protocol already tolerates. Injection can
// therefore never make a correct tree produce a wrong answer — it can only
// expose bugs in the retry paths themselves. That is what makes it sound to
// compile the sites directly into core/optimistic_lock.h and core/btree.h.
//
// Usage (tests):
//   dtree::fail::reset();
//   dtree::fail::set_seed(42);
//   dtree::fail::set_probability(dtree::fail::Site::validate_fail, 0.02);
//   dtree::fail::set_delay(dtree::fail::Site::split_delay, 400); // spins
//   dtree::fail::set_probability(dtree::fail::Site::split_delay, 0.25);
//   ... run workload ...
//   dtree::fail::fires(dtree::fail::Site::validate_fail); // how often it hit
//
// Worker threads should call set_thread_ordinal(tid) on entry so the
// per-thread random streams are stable run-to-run (otherwise ordinals are
// handed out in first-come order, which is scheduler-dependent).

#include <atomic>
#include <cstdint>
#include <ostream>
#include <thread>

namespace dtree::fail {

/// Named injection sites. Keep in sync with site_name() below.
enum class Site : unsigned {
    validate_fail = 0, ///< OptimisticReadWriteLock::validate -> force false
    upgrade_fail,      ///< try_upgrade_to_write -> force false (no CAS)
    leaf_retry,        ///< btree::leaf_insert -> force LeafResult::Retry
    split_delay,       ///< spin inside the Alg. 2 split window (locks held)
    upgrade_delay,     ///< widen leaf_insert's snapshot -> upgrade window
    sched_steal_delay, ///< spin before each steal probe (runtime/scheduler.h)
    sched_worker_stall,///< stall a worker entering a region (forces imbalance)
    redistribute_delay,///< spin between a leaf's parent lock and its sibling
                       ///< try-lock (btree::try_redistribute)
    sibling_busy,      ///< that sibling try-lock fails without a CAS
    count
};

inline constexpr unsigned site_count = static_cast<unsigned>(Site::count);

inline const char* site_name(Site s) {
    switch (s) {
        case Site::validate_fail: return "validate_fail";
        case Site::upgrade_fail: return "upgrade_fail";
        case Site::leaf_retry: return "leaf_retry";
        case Site::split_delay: return "split_delay";
        case Site::upgrade_delay: return "upgrade_delay";
        case Site::sched_steal_delay: return "sched_steal_delay";
        case Site::sched_worker_stall: return "sched_worker_stall";
        case Site::redistribute_delay: return "redistribute_delay";
        case Site::sibling_busy: return "sibling_busy";
        default: return "?";
    }
}

#if defined(DATATREE_FAILPOINTS)

namespace detail {

/// Spin hint, duplicated from optimistic_lock.h (which includes this header —
/// the dependency must point this way).
inline void relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

struct SiteState {
    std::atomic<double> probability{0.0};
    std::atomic<std::uint32_t> delay_spins{0};
    std::atomic<std::uint64_t> evals{0}; ///< armed evaluations
    std::atomic<std::uint64_t> fires{0}; ///< injections performed
};

struct Registry {
    SiteState sites[site_count];
    std::atomic<std::uint64_t> seed{0x9e3779b97f4a7c15ull};
    /// Bumped on set_seed()/reset(); threads lazily reseed when they notice.
    std::atomic<std::uint64_t> epoch{1};
    std::atomic<std::uint32_t> next_ordinal{0};
};

inline Registry& registry() {
    static Registry r;
    return r;
}

inline std::uint64_t splitmix64(std::uint64_t& x) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

struct ThreadStream {
    std::uint64_t state = 0;
    std::uint64_t epoch = 0;             // 0 = needs (re)seeding
    std::uint32_t ordinal = 0xffffffffu; // unset: claimed on first use
};

inline ThreadStream& thread_stream() {
    thread_local ThreadStream t;
    return t;
}

inline std::uint64_t next_u64() {
    Registry& reg = registry();
    ThreadStream& t = thread_stream();
    const std::uint64_t e = reg.epoch.load(std::memory_order_relaxed);
    if (t.epoch != e) {
        if (t.ordinal == 0xffffffffu) {
            t.ordinal = reg.next_ordinal.fetch_add(1, std::memory_order_relaxed);
        }
        t.state = reg.seed.load(std::memory_order_relaxed) ^
                  (0x517cc1b727220a95ull * (t.ordinal + 1));
        t.epoch = e;
    }
    return splitmix64(t.state);
}

} // namespace detail

inline bool enabled() { return true; }

/// Arms `s` to fire with probability p in [0, 1]; p <= 0 disarms.
inline void set_probability(Site s, double p) {
    detail::registry().sites[static_cast<unsigned>(s)].probability.store(
        p, std::memory_order_relaxed);
}

/// Spin count for delay sites (how far the race window is widened).
inline void set_delay(Site s, std::uint32_t spins) {
    detail::registry().sites[static_cast<unsigned>(s)].delay_spins.store(
        spins, std::memory_order_relaxed);
}

/// Reseeds every thread's random stream (lazily, on its next evaluation).
inline void set_seed(std::uint64_t seed) {
    auto& reg = detail::registry();
    reg.seed.store(seed, std::memory_order_relaxed);
    reg.epoch.fetch_add(1, std::memory_order_relaxed);
}

/// Pins the calling thread's random-stream ordinal (call with the harness
/// thread id for run-to-run determinism) and forces a reseed on next use.
inline void set_thread_ordinal(std::uint32_t ordinal) {
    auto& t = detail::thread_stream();
    t.ordinal = ordinal;
    t.epoch = 0;
}

/// Disarms all sites and zeroes all counters.
inline void reset() {
    auto& reg = detail::registry();
    for (auto& site : reg.sites) {
        site.probability.store(0.0, std::memory_order_relaxed);
        site.delay_spins.store(0, std::memory_order_relaxed);
        site.evals.store(0, std::memory_order_relaxed);
        site.fires.store(0, std::memory_order_relaxed);
    }
    reg.epoch.fetch_add(1, std::memory_order_relaxed);
}

/// True with the site's configured probability. Counts evaluations and
/// fires; a disarmed site costs one relaxed load.
inline bool should_fire(Site s) {
    auto& site = detail::registry().sites[static_cast<unsigned>(s)];
    const double p = site.probability.load(std::memory_order_relaxed);
    if (p <= 0.0) return false;
    site.evals.fetch_add(1, std::memory_order_relaxed);
    if (p < 1.0) {
        // 53-bit uniform in [0, 1).
        const double u =
            static_cast<double>(detail::next_u64() >> 11) * 0x1.0p-53;
        if (u >= p) return false;
    }
    site.fires.fetch_add(1, std::memory_order_relaxed);
    return true;
}

/// Spins set_delay(s) iterations with the site's configured probability.
/// Every 64th iteration yields the CPU: pure pause-spinning never forces a
/// context switch, so on few-core machines the widened window would still
/// never overlap a peer thread — the whole point of a delay site.
inline void maybe_delay(Site s) {
    auto& site = detail::registry().sites[static_cast<unsigned>(s)];
    const std::uint32_t spins =
        site.delay_spins.load(std::memory_order_relaxed);
    if (spins == 0 || !should_fire(s)) return;
    for (std::uint32_t i = 0; i < spins; ++i) {
        if (i % 64 == 63) std::this_thread::yield();
        detail::relax();
    }
}

inline std::uint64_t evals(Site s) {
    return detail::registry()
        .sites[static_cast<unsigned>(s)]
        .evals.load(std::memory_order_relaxed);
}

inline std::uint64_t fires(Site s) {
    return detail::registry()
        .sites[static_cast<unsigned>(s)]
        .fires.load(std::memory_order_relaxed);
}

/// One line per site: armed evaluations and performed injections.
inline void report(std::ostream& os) {
    for (unsigned i = 0; i < site_count; ++i) {
        const Site s = static_cast<Site>(i);
        os << site_name(s) << ": " << fires(s) << " fires / " << evals(s)
           << " armed evaluations\n";
    }
}

#else // !DATATREE_FAILPOINTS — same API, all no-ops

inline bool enabled() { return false; }
inline void set_probability(Site, double) {}
inline void set_delay(Site, std::uint32_t) {}
inline void set_seed(std::uint64_t) {}
inline void set_thread_ordinal(std::uint32_t) {}
inline void reset() {}
inline bool should_fire(Site) { return false; }
inline void maybe_delay(Site) {}
inline std::uint64_t evals(Site) { return 0; }
inline std::uint64_t fires(Site) { return 0; }
inline void report(std::ostream&) {}

#endif

} // namespace dtree::fail

// Injection macros used inside core headers. They must expand to literal
// constants when failpoints are compiled out so the enclosing branch folds
// away (acceptance: fig4_parallel_insert throughput within noise of seed).
#if defined(DATATREE_FAILPOINTS)
#define DTREE_FAILPOINT(site) \
    (::dtree::fail::should_fire(::dtree::fail::Site::site))
#define DTREE_FAILPOINT_DELAY(site) \
    (::dtree::fail::maybe_delay(::dtree::fail::Site::site))
#else
#define DTREE_FAILPOINT(site) (false)
#define DTREE_FAILPOINT_DELAY(site) ((void)0)
#endif
