#pragma once

// Persistent work-stealing runtime for the Datalog engine (and every other
// thread-team consumer in the repo, via util/parallel.h).
//
// The paper's end-to-end numbers (Fig. 5, Table 2) run rule evaluations under
// Soufflé's OpenMP runtime with dynamic scheduling: one long-lived thread
// team, work handed out in chunks, idle threads picking up the slack of
// skewed join fanout. The seed reproduction instead spawned and joined a
// fresh std::thread team for every rule evaluation and every NEW->FULL merge,
// with static block partitioning. This header replaces that with a real
// runtime:
//
//  * A process-wide pool of workers, created once (first region that needs
//    them) and parked on a condition variable between parallel regions. The
//    caller participates as worker 0; pool threads hold stable ids 1..N.
//    After startup the pool never spawns again — `threads_spawned` in
//    SchedulerStats stays flat, which the acceptance criteria assert.
//
//  * A chunked work-stealing scheduler, the only schedule parallel_for
//    has: [0, n) is cut into grain-sized chunks, pre-partitioned
//    contiguously over the team into per-worker bounded deques. Owners pop
//    LIFO from the back — chunks are pushed in descending order, so the
//    owner walks its range in ascending index order, which keeps B-tree
//    operation hints (§3 of the paper) hot for sorted inserts. Thieves pop
//    FIFO from the front, i.e. the far end of the owner's remaining range,
//    so owner and thief touch disjoint ends until the deque drains. Deques
//    never refill within a region, so a thief can retire a victim
//    permanently the first time it sees it empty: one round-robin sweep
//    with retry-on-success terminates.
//
//  * A shared chunk-claiming fallback for small regions (chunk count within
//    2x the team): per-worker deques would hold a chunk or two each and the
//    steal protocol would be pure overhead; a single shared fetch_add
//    balances perfectly at one atomic op per chunk.
//
// Benches that need the paper's static contiguous partition (one call per
// thread with its block) use util::parallel_blocks, which runs on run_team.
//
// Regions are synchronous: parallel_for/run_team return only after every
// task has executed, and the completion handshake (mutex + condvar) gives
// the caller a happens-before edge over all worker writes — the same
// guarantee the engine used to get from std::thread::join, so the
// phase-concurrency story (writes to NEW, unsynchronised reads of
// FULL/DELTA) is unchanged. One region runs at a time; concurrent callers
// serialise. Regions launched from inside a region run inline on the calling
// worker (the pool is deliberately single-level).
//
// Work that fits one grain runs inline on the caller without touching the
// pool — this grain-based decision replaces the engine's old hard-coded
// "under 256 tuples -> 1 thread" cutoff. The grain is per call
// (Options::grain): merge partitions pass 1, tuple fanout the default 64.
//
// Exceptions escaping a task terminate the process (tasks run under a
// noexcept trampoline), matching the old raw-std::thread contract.
//
// Observability: the pool keeps always-on native counters (SchedulerStats —
// cheap relaxed increments on the worker's own cache-line-padded slot);
// bench records and soufflette's --stats/--profile read them directly.
// util/failpoint.h gains two sites: `sched_worker_stall` stalls
// pool workers (never worker 0) at region entry so tests can force the
// imbalance that makes stealing observable on any core count, and
// `sched_steal_delay` widens the window before each steal probe so TSan can
// chew on owner/thief interleavings.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/failpoint.h"
#include "util/json.h"
#include "util/spinlock.h"

namespace dtree::runtime {

/// One-value tag kept only so existing `{SchedMode::Steal, grain}` Options
/// initialisers (perfbench/runner.cpp) still compile: work stealing is the
/// only schedule. New callers write `{.grain = g}`.
enum class SchedMode { Steal };

/// Contiguous [begin, end) piece i of k over n items; sizes differ by at
/// most one (remainder spread over the leading pieces). util::block_range
/// forwards here so the two layers can never drift apart.
inline std::pair<std::size_t, std::size_t> split_range(std::size_t n,
                                                       unsigned i,
                                                       unsigned k) {
    if (k == 0) k = 1;
    const std::size_t base = n / k;
    const std::size_t rem = n % k;
    const std::size_t begin =
        static_cast<std::size_t>(i) * base + std::min<std::size_t>(i, rem);
    return {begin, begin + base + (i < rem ? 1 : 0)};
}

/// Aggregated pool counters, always available (no DATATREE_METRICS needed):
/// the zero-respawn acceptance check and the scheduler tests read these.
struct SchedulerStats {
    std::uint64_t threads_spawned = 0; ///< pool threads ever created
    std::uint64_t regions = 0;         ///< regions dispatched to the pool
    std::uint64_t tasks = 0;           ///< chunks executed
    std::uint64_t steals = 0;          ///< chunks taken from another deque
    std::uint64_t steal_failures = 0;  ///< probes that found a victim empty
    std::uint64_t idle_ns = 0;         ///< parked / waiting-at-barrier time

    void write_json(json::Writer& w) const {
        w.begin_object();
        w.kv("threads_spawned", threads_spawned);
        w.kv("regions", regions);
        w.kv("tasks", tasks);
        w.kv("steals", steals);
        w.kv("steal_failures", steal_failures);
        w.kv("idle_ns", idle_ns);
        w.end_object();
    }
};

/// The process-wide worker pool + scheduler. One instance per process
/// (instance()); workers are lazily spawned the first time a region needs
/// them and parked between regions.
class Scheduler {
public:
    static constexpr std::size_t kDefaultGrain = 64;
    /// Per-worker deque bound; larger regions coarsen their grain to fit.
    static constexpr std::size_t kDequeCapacity = 1024;

    /// Per-region knobs. grain == 0 means kDefaultGrain.
    struct Options {
        SchedMode mode = SchedMode::Steal; ///< the one-value tag above
        std::size_t grain = kDefaultGrain;
    };

    static Scheduler& instance() {
        static Scheduler s;
        return s;
    }

    /// Pre-spawns the pool threads a team of `team` needs (team - 1 of them;
    /// the caller is worker 0). Optional — regions grow the pool on demand —
    /// but calling it once up front (Engine::run does) pins all thread
    /// creation to startup.
    void reserve(unsigned team) {
        if (team <= 1) return;
        std::lock_guard<std::mutex> lk(mu_);
        ensure_workers_locked(team - 1);
    }

    /// Parallel for over [0, n): fn(worker, begin, end) with worker ids in
    /// [0, team) mapping to distinct threads (0 = the caller). fn is called
    /// once per grain-sized chunk, possibly many times per worker.
    /// Runs inline on the caller when the work fits one grain, the team is
    /// 1, or the caller is already inside a region.
    template <typename Fn>
    void parallel_for(std::size_t n, unsigned team, Options opt, Fn&& fn) {
        if (n == 0) return;
        std::size_t g = opt.grain ? opt.grain : kDefaultGrain;
        if (team <= 1 || n <= g || tl_in_region_) {
            fn(0u, std::size_t{0}, n);
            return;
        }
        std::lock_guard<std::mutex> serial(region_serial_);
        std::size_t chunks = (n + g - 1) / g;
        // n > g guarantees chunks >= 2, so t >= 2.
        const unsigned t =
            static_cast<unsigned>(std::min<std::size_t>(team, chunks));
        if (chunks <= 2 * static_cast<std::size_t>(t)) {
            // Small region: deques would hold a chunk or two each. A shared
            // claim counter balances perfectly at one fetch_add per chunk.
            std::atomic<std::size_t> next{0};
            auto body = [&](unsigned slot) {
                if (slot != 0) DTREE_FAILPOINT_DELAY(sched_worker_stall);
                for (;;) {
                    const std::size_t c =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (c >= chunks) break;
                    note_task(slots_[slot]);
                    fn(slot, c * g, std::min(n, c * g + g));
                }
            };
            dispatch(t, body);
            return;
        }
        if (chunks > static_cast<std::size_t>(t) * kDequeCapacity) {
            // Bound the deques: coarsen the grain until the chunks fit.
            g = (n + static_cast<std::size_t>(t) * kDequeCapacity - 1) /
                (static_cast<std::size_t>(t) * kDequeCapacity);
            chunks = (n + g - 1) / g;
        }
        {
            // The deques below live in the workers' slots, so the slots must
            // exist before the fill — on a cold pool only slot 0 does.
            std::lock_guard<std::mutex> lk(mu_);
            ensure_workers_locked(t - 1);
        }
        for (unsigned s = 0; s < t; ++s) {
            const auto [cb, ce] = split_range(chunks, s, t);
            WorkerSlot& ws = slots_[s];
            ws.buf.clear();
            ws.buf.reserve(ce - cb);
            // Descending push order: the owner pops the back (LIFO) and so
            // walks its range front to back — ascending keys keep the tree's
            // operation hints hot — while thieves take the front (FIFO), the
            // far end of the owner's remaining range.
            for (std::size_t c = ce; c-- > cb;) {
                ws.buf.push_back({c * g, std::min(n, c * g + g)});
            }
            ws.head = 0;
            ws.tail = ws.buf.size();
        }
        auto body = [&](unsigned slot) {
            if (slot != 0) DTREE_FAILPOINT_DELAY(sched_worker_stall);
            WorkerSlot& me = slots_[slot];
            Chunk c;
            while (pop_back(me, c)) {
                note_task(me);
                fn(slot, c.begin, c.end);
            }
            // Own deque drained; it never refills, so sweep the others.
            // Advance past a victim only once it is seen empty — empty
            // deques stay empty, so one sweep is complete.
            for (unsigned d = 1; d < t;) {
                WorkerSlot& victim = slots_[(slot + d) % t];
                DTREE_FAILPOINT_DELAY(sched_steal_delay);
                if (pop_front(victim, c)) {
                    me.steals.fetch_add(1, std::memory_order_relaxed);
                    note_task(me);
                    fn(slot, c.begin, c.end);
                } else {
                    me.steal_failures.fetch_add(1, std::memory_order_relaxed);
                    ++d;
                }
            }
        };
        dispatch(t, body);
    }

    /// Runs fn(slot) exactly once per slot in [0, team), each slot on a
    /// distinct thread (0 = the caller) — the pooled replacement for
    /// util::run_threads' spawn-and-join teams. team <= 1 (and nested calls,
    /// which run every slot sequentially on the caller) stay inline.
    template <typename Fn>
    void run_team(unsigned team, Fn&& fn) {
        if (team == 0) team = 1;
        if (team == 1 || tl_in_region_) {
            for (unsigned s = 0; s < team; ++s) fn(s);
            return;
        }
        std::lock_guard<std::mutex> serial(region_serial_);
        auto body = [&](unsigned slot) { fn(slot); };
        dispatch(team, body);
    }

    /// Pool threads currently alive.
    unsigned workers() const {
        std::lock_guard<std::mutex> lk(mu_);
        return static_cast<unsigned>(threads_.size());
    }

    SchedulerStats stats() const {
        std::lock_guard<std::mutex> lk(mu_);
        SchedulerStats s;
        s.threads_spawned = spawned_.load(std::memory_order_relaxed);
        s.regions = region_count_.load(std::memory_order_relaxed);
        for (const auto& w : slots_) {
            s.tasks += w.tasks.load(std::memory_order_relaxed);
            s.steals += w.steals.load(std::memory_order_relaxed);
            s.steal_failures +=
                w.steal_failures.load(std::memory_order_relaxed);
            s.idle_ns += w.idle_ns.load(std::memory_order_relaxed);
        }
        return s;
    }

    ~Scheduler() {
        {
            std::lock_guard<std::mutex> lk(mu_);
            stop_ = true;
        }
        cv_work_.notify_all();
        for (auto& th : threads_) th.join();
    }

    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

private:
    Scheduler() { slots_.emplace_back(); } // slot 0: the caller

    struct Chunk {
        std::size_t begin;
        std::size_t end;
    };

    /// One per worker id. Padded so the owner's counter bumps and deque ops
    /// never false-share with a neighbour's.
    struct alignas(64) WorkerSlot {
        util::Spinlock mu;          ///< guards buf/head/tail
        std::vector<Chunk> buf;     ///< live chunks are buf[head, tail)
        std::size_t head = 0;
        std::size_t tail = 0;
        std::atomic<std::uint64_t> tasks{0};
        std::atomic<std::uint64_t> steals{0};
        std::atomic<std::uint64_t> steal_failures{0};
        std::atomic<std::uint64_t> idle_ns{0};
    };

    using RegionFn = void (*)(void*, unsigned);

    /// Noexcept trampoline: an exception escaping a task terminates, as with
    /// the raw std::thread teams this pool replaces.
    template <typename Body>
    static void invoke_body(void* ctx, unsigned slot) noexcept {
        (*static_cast<Body*>(ctx))(slot);
    }

    static bool pop_back(WorkerSlot& s, Chunk& out) {
        std::lock_guard<util::Spinlock> g(s.mu);
        if (s.head == s.tail) return false;
        out = s.buf[--s.tail];
        return true;
    }

    static bool pop_front(WorkerSlot& s, Chunk& out) {
        std::lock_guard<util::Spinlock> g(s.mu);
        if (s.head == s.tail) return false;
        out = s.buf[s.head++];
        return true;
    }

    static void note_task(WorkerSlot& s) {
        s.tasks.fetch_add(1, std::memory_order_relaxed);
    }

    static void note_idle(WorkerSlot& s,
                          std::chrono::steady_clock::time_point since) {
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - since)
                            .count();
        s.idle_ns.fetch_add(static_cast<std::uint64_t>(ns),
                            std::memory_order_relaxed);
    }

    /// Publishes one region to workers 1..team-1, runs slot 0 on the caller,
    /// and waits for everyone. Caller must hold region_serial_.
    template <typename Body>
    void dispatch(unsigned team, Body& body) {
        std::unique_lock<std::mutex> lk(mu_);
        ensure_workers_locked(team - 1);
        region_count_.fetch_add(1, std::memory_order_relaxed);
        region_.fn = &invoke_body<Body>;
        region_.ctx = &body;
        region_.team = team;
        remaining_ = team - 1;
        ++epoch_;
        cv_work_.notify_all();
        lk.unlock();

        tl_in_region_ = true;
        invoke_body<Body>(&body, 0);
        tl_in_region_ = false;

        lk.lock();
        if (remaining_ != 0) {
            const auto t0 = std::chrono::steady_clock::now();
            cv_done_.wait(lk, [&] { return remaining_ == 0; });
            note_idle(slots_[0], t0); // imbalance tail, charged to worker 0
        }
    }

    void ensure_workers_locked(unsigned pool_workers) {
        while (threads_.size() < pool_workers) {
            const unsigned wid = static_cast<unsigned>(threads_.size()) + 1;
            if (slots_.size() <= wid) slots_.emplace_back();
            spawned_.fetch_add(1, std::memory_order_relaxed);
            threads_.emplace_back([this, wid] { worker_main(wid); });
        }
    }

    void worker_main(unsigned wid) noexcept {
        std::uint64_t seen = 0;
        std::unique_lock<std::mutex> lk(mu_);
        for (;;) {
            if (!stop_ && epoch_ == seen) {
                const auto t0 = std::chrono::steady_clock::now();
                cv_work_.wait(lk, [&] { return stop_ || epoch_ != seen; });
                note_idle(slots_[wid], t0);
            }
            if (stop_) return;
            seen = epoch_;
            if (wid >= region_.team) continue; // not on this region's team
            const RegionFn fn = region_.fn;
            void* const ctx = region_.ctx;
            lk.unlock();
            tl_in_region_ = true;
            fn(ctx, wid);
            tl_in_region_ = false;
            lk.lock();
            if (--remaining_ == 0) cv_done_.notify_all();
        }
    }

    struct RegionState {
        RegionFn fn = nullptr;
        void* ctx = nullptr;
        unsigned team = 0;
    };

    static inline thread_local bool tl_in_region_ = false;

    /// Serialises whole regions across caller threads: one region at a time.
    std::mutex region_serial_;

    mutable std::mutex mu_; ///< guards everything below
    std::condition_variable cv_work_;
    std::condition_variable cv_done_;
    RegionState region_;
    std::uint64_t epoch_ = 0;
    unsigned remaining_ = 0;
    bool stop_ = false;
    std::vector<std::thread> threads_;
    std::deque<WorkerSlot> slots_; ///< deque: stable refs across growth
    std::atomic<std::uint64_t> spawned_{0};
    std::atomic<std::uint64_t> region_count_{0};
};

} // namespace dtree::runtime
