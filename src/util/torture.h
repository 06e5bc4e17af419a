#pragma once

// Seeded torture harness for the concurrent B-tree.
//
// Runs rounds of the paper's phase-concurrent discipline against a
// mutex-guarded std::set oracle:
//
//   write phase  N threads insert random keys (tree insert OUTSIDE the
//                oracle mutex, so tree-internal races still happen at full
//                frequency), logging every operation per thread;
//   barrier      check_invariants(), size / content equality vs the oracle,
//                and "successful inserts == distinct new keys" accounting;
//   read phase   N threads run contains / lower_bound / upper_bound / short
//                scans against the now-immutable oracle (reads are
//                unsynchronised by the tree's contract, so no locks);
//   barrier      check_invariants() again.
//
// Everything is driven by one seed: per-thread PRNGs derive from
// (seed, round, tid), and worker threads pin their failpoint random-stream
// ordinal to tid, so a failing configuration is reproducible by rerunning
// with the same TortureOptions. On the first mismatch the harness captures a
// description (seed, round, thread, op index, expected/actual), then REPLAYS
// the accumulated per-thread insert logs sequentially into a fresh tree: if
// the sequential replay diverges from the oracle too, the bug is
// deterministic; if not, it only manifests under the concurrent
// interleaving. The verdict is part of the failure string.

#include "util/failpoint.h"
#include "util/parallel.h"
#include "util/random.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace dtree::util {

struct TortureOptions {
    /// Writer team size. Defaults to DATATREE_TEST_THREADS when set (see
    /// EXPERIMENTS.md "Test thread counts"), else 4.
    unsigned threads = env_threads(4);
    std::size_t rounds = 3;
    std::size_t inserts_per_thread = 6000; ///< per write phase
    std::size_t reads_per_thread = 6000;   ///< per read phase
    std::uint64_t seed = 1;
    std::uint64_t key_space = 30000; ///< keys drawn uniformly from [0, key_space)
    unsigned scan_len = 24;          ///< elements compared per range scan
    /// Drive the write phase through the scheduler's chunked work-stealing
    /// regions (runtime/scheduler.h) instead of one static range per thread,
    /// so the phase-concurrent oracle also exercises pool workers executing
    /// stolen chunks. Determinism note: which worker runs which chunk then
    /// depends on stealing, so per-op RNG streams derive from the chunk
    /// begin index, not the thread id.
    bool steal_regions = false;
    std::size_t steal_grain = 64; ///< chunk grain when steal_regions is set
};

struct TortureResult {
    bool ok = true;
    std::string failure; ///< empty when ok; else seed/round/thread/op detail
    std::uint64_t inserts = 0;  ///< insert calls issued
    std::uint64_t new_keys = 0; ///< distinct keys (final oracle size)
    std::uint64_t reads = 0;    ///< point queries issued
    std::uint64_t scans = 0;    ///< range scans issued

    explicit operator bool() const { return ok; }
};

namespace torture_detail {

struct Op {
    std::uint64_t key;
    bool inserted; // return value observed from tree.insert
};

} // namespace torture_detail

/// Runs the torture mix against `tree` (must be empty and default-semantics:
/// a fresh instance of the same type is built for the sequential replay).
/// Returns on the first detected divergence; tree state is left as-is for
/// post-mortem inspection.
template <typename Tree>
TortureResult torture_run(Tree& tree, const TortureOptions& opt) {
    using torture_detail::Op;

    TortureResult res;
    std::set<std::uint64_t> oracle;
    std::mutex oracle_mu;

    // Cumulative per-thread insert logs, kept across rounds for replay.
    std::vector<std::vector<Op>> logs(opt.threads);

    std::mutex failure_mu;
    std::atomic<bool> failed{false};
    auto record_failure = [&](const std::string& what) {
        bool expected = false;
        if (!failed.compare_exchange_strong(expected, true)) return;
        std::lock_guard<std::mutex> g(failure_mu);
        res.ok = false;
        res.failure = what;
    };
    auto describe = [&](std::size_t round, unsigned tid, std::size_t op_index,
                        const char* what, std::uint64_t key) {
        std::ostringstream os;
        os << "torture divergence: " << what << " (key " << key << ", seed "
           << opt.seed << ", round " << round << ", thread " << tid << ", op "
           << op_index << ", threads " << opt.threads << ")";
        return os.str();
    };

    auto thread_rng = [&](std::size_t round, unsigned tid, bool read_phase) {
        return Rng(opt.seed * 1000003 + round * 8191 + tid * 131 +
                   (read_phase ? 7 : 0));
    };

    std::atomic<std::uint64_t> inserts{0}, reads{0}, scans{0};

    for (std::size_t round = 0; round < opt.rounds && !failed.load(); ++round) {
        const std::size_t oracle_before = oracle.size();
        std::atomic<std::uint64_t> successes{0};

        // -- write phase ----------------------------------------------------
        if (opt.steal_regions) {
            // Pool-driven variant: one steal region over all inserts of the
            // round. A chunk's ops always replay identically (RNG keyed by
            // chunk begin) no matter which worker stole it; logs stay
            // per-worker because worker ids are stable and exclusive.
            const std::size_t total = opt.threads * opt.inserts_per_thread;
            runtime::Scheduler::instance().parallel_for(
                total, opt.threads,
                {.grain = opt.steal_grain},
                [&](unsigned wid, std::size_t b, std::size_t e) {
                    fail::set_thread_ordinal(wid);
                    Rng rng(opt.seed * 1000003 + round * 8191 + b * 131 + 3);
                    auto hints = tree.create_hints();
                    std::uint64_t mine = 0;
                    for (std::size_t i = b; i < e; ++i) {
                        if (failed.load(std::memory_order_relaxed)) break;
                        const std::uint64_t k =
                            uniform_int<std::uint64_t>(rng, 0, opt.key_space - 1);
                        const bool inserted = tree.insert(k, hints);
                        if (inserted) ++mine;
                        logs[wid].push_back(Op{k, inserted});
                        {
                            std::lock_guard<std::mutex> g(oracle_mu);
                            oracle.insert(k);
                        }
                    }
                    successes.fetch_add(mine, std::memory_order_relaxed);
                    inserts.fetch_add(e - b, std::memory_order_relaxed);
                });
        } else {
            run_threads(opt.threads, [&](unsigned tid) {
                fail::set_thread_ordinal(tid);
                Rng rng = thread_rng(round, tid, false);
                auto hints = tree.create_hints();
                std::uint64_t mine = 0;
                for (std::size_t i = 0; i < opt.inserts_per_thread; ++i) {
                    if (failed.load(std::memory_order_relaxed)) break;
                    const std::uint64_t k =
                        uniform_int<std::uint64_t>(rng, 0, opt.key_space - 1);
                    const bool inserted = tree.insert(k, hints);
                    if (inserted) ++mine;
                    logs[tid].push_back(Op{k, inserted});
                    {
                        std::lock_guard<std::mutex> g(oracle_mu);
                        oracle.insert(k);
                    }
                }
                successes.fetch_add(mine, std::memory_order_relaxed);
                inserts.fetch_add(opt.inserts_per_thread, std::memory_order_relaxed);
            });
        }
        if (failed.load()) break;

        // -- barrier checks -------------------------------------------------
        if (auto err = tree.check_invariants(); !err.empty()) {
            record_failure("invariant violation after write phase: " + err +
                           " (seed " + std::to_string(opt.seed) + ", round " +
                           std::to_string(round) + ")");
            break;
        }
        const std::uint64_t distinct_new = oracle.size() - oracle_before;
        if (successes.load() != distinct_new) {
            record_failure(
                "insert accounting mismatch: " + std::to_string(successes.load()) +
                " successful inserts vs " + std::to_string(distinct_new) +
                " distinct new keys (seed " + std::to_string(opt.seed) +
                ", round " + std::to_string(round) + ")");
            break;
        }
        if (tree.size() != oracle.size() ||
            !std::equal(tree.begin(), tree.end(), oracle.begin(), oracle.end())) {
            record_failure("tree contents diverge from oracle after write phase"
                           " (tree size " + std::to_string(tree.size()) +
                           ", oracle size " + std::to_string(oracle.size()) +
                           ", seed " + std::to_string(opt.seed) + ", round " +
                           std::to_string(round) + ")");
            break;
        }

        // -- read phase (oracle immutable: lock-free comparisons) -----------
        run_threads(opt.threads, [&](unsigned tid) {
            fail::set_thread_ordinal(tid);
            Rng rng = thread_rng(round, tid, true);
            auto hints = tree.create_hints();
            std::uint64_t my_reads = 0, my_scans = 0;
            for (std::size_t i = 0; i < opt.reads_per_thread; ++i) {
                if (failed.load(std::memory_order_relaxed)) break;
                const std::uint64_t k =
                    uniform_int<std::uint64_t>(rng, 0, opt.key_space - 1);
                switch (i % 4) {
                    case 0: { // membership
                        const bool got = tree.contains(k, hints);
                        const bool want = oracle.count(k) != 0;
                        if (got != want) {
                            record_failure(describe(round, tid, i,
                                                    got ? "contains returned true for absent key"
                                                        : "contains returned false for present key",
                                                    k));
                            return;
                        }
                        ++my_reads;
                        break;
                    }
                    case 1: { // lower_bound
                        auto it = tree.lower_bound(k, hints);
                        auto ref = oracle.lower_bound(k);
                        const bool got_end = (it == tree.end());
                        const bool want_end = (ref == oracle.end());
                        if (got_end != want_end ||
                            (!got_end && *it != *ref)) {
                            record_failure(describe(round, tid, i,
                                                    "lower_bound diverges from oracle", k));
                            return;
                        }
                        ++my_reads;
                        break;
                    }
                    case 2: { // upper_bound
                        auto it = tree.upper_bound(k, hints);
                        auto ref = oracle.upper_bound(k);
                        const bool got_end = (it == tree.end());
                        const bool want_end = (ref == oracle.end());
                        if (got_end != want_end ||
                            (!got_end && *it != *ref)) {
                            record_failure(describe(round, tid, i,
                                                    "upper_bound diverges from oracle", k));
                            return;
                        }
                        ++my_reads;
                        break;
                    }
                    case 3: { // short ordered scan
                        auto it = tree.lower_bound(k, hints);
                        auto ref = oracle.lower_bound(k);
                        for (unsigned s = 0; s < opt.scan_len; ++s) {
                            const bool got_end = (it == tree.end());
                            const bool want_end = (ref == oracle.end());
                            if (got_end != want_end ||
                                (!got_end && *it != *ref)) {
                                record_failure(describe(round, tid, i,
                                                        "scan diverges from oracle", k));
                                return;
                            }
                            if (got_end) break;
                            ++it;
                            ++ref;
                        }
                        ++my_scans;
                        break;
                    }
                }
            }
            reads.fetch_add(my_reads, std::memory_order_relaxed);
            scans.fetch_add(my_scans, std::memory_order_relaxed);
        });
        if (failed.load()) break;

        if (auto err = tree.check_invariants(); !err.empty()) {
            record_failure("invariant violation after read phase: " + err +
                           " (seed " + std::to_string(opt.seed) + ", round " +
                           std::to_string(round) + ")");
            break;
        }
    }

    res.inserts = inserts.load();
    res.new_keys = oracle.size();
    res.reads = reads.load();
    res.scans = scans.load();

    // -- replay diagnosis ---------------------------------------------------
    // Re-run every logged insert sequentially (thread-major) into a fresh
    // tree. Divergence here too => the bug is deterministic, not a race.
    if (!res.ok) {
        Tree replay_tree;
        auto hints = replay_tree.create_hints();
        for (const auto& log : logs) {
            for (const Op& op : log) replay_tree.insert(op.key, hints);
        }
        const bool replay_matches =
            replay_tree.check_invariants().empty() &&
            replay_tree.size() == oracle.size() &&
            std::equal(replay_tree.begin(), replay_tree.end(), oracle.begin(),
                       oracle.end());
        res.failure += replay_matches
                           ? "; sequential replay of the op logs matches the "
                             "oracle — concurrency-only bug"
                           : "; sequential replay of the op logs ALSO diverges "
                             "— deterministic bug";
    }
    return res;
}

// -- reader-during-writes variant (DESIGN.md §11) ----------------------------

struct TortureSnapshotResult : TortureResult {
    std::uint64_t pins = 0;     ///< snapshots pinned by reader threads
    std::uint64_t advances = 0; ///< epoch advances by the ticker thread
};

/// Snapshot torture: the write phase of torture_run, but with a live reader
/// side. Per round, a snapshot is pinned at a quiescent boundary and HELD
/// while writer threads insert, an epoch-ticker thread advances the epoch,
/// and reader threads continuously pin fresh snapshots — all under whatever
/// failpoint injection the caller armed (validate_fail stresses the reader's
/// lease-retry loop, split_delay widens the CoW windows readers race with).
///
/// Checks, all against the mutex-guarded oracle:
///   readers   every fresh pin must iterate strictly sorted, replay
///             byte-identically, and be a superset of the round's pinned
///             oracle (epochs are monotonic; keys only grow);
///   barrier   every snapshot held so far — including ones pinned rounds ago
///             and carried across many epoch advances — must still equal its
///             own pin-time oracle exactly; tree invariants + live equality
///             as in torture_run.
template <typename Tree>
TortureSnapshotResult torture_snapshot_run(Tree& tree,
                                           const TortureOptions& opt) {
    static_assert(Tree::with_snapshots,
                  "torture_snapshot_run needs a WithSnapshots tree");
    using Key = typename Tree::key_type;

    TortureSnapshotResult res;
    std::set<Key> oracle;
    std::mutex oracle_mu;

    std::mutex failure_mu;
    std::atomic<bool> failed{false};
    auto record_failure = [&](const std::string& what) {
        bool expected = false;
        if (!failed.compare_exchange_strong(expected, true)) return;
        std::lock_guard<std::mutex> g(failure_mu);
        res.ok = false;
        res.failure = what + " (seed " + std::to_string(opt.seed) +
                      ", threads " + std::to_string(opt.threads) + ")";
    };

    auto drain = [](const typename Tree::Snapshot& s) {
        std::vector<Key> out;
        s.for_each([&](const Key& k) { out.push_back(k); });
        return out;
    };

    // Snapshots pinned at each round's start, with their pin-time oracles;
    // every one is re-verified at every later barrier.
    std::vector<std::pair<typename Tree::Snapshot, std::vector<Key>>> held;

    std::atomic<std::uint64_t> inserts{0}, pins{0}, advances{0}, reads{0};
    const unsigned readers = opt.threads / 2 ? opt.threads / 2 : 1;

    for (std::size_t round = 0; round < opt.rounds && !failed.load(); ++round) {
        // Quiescent pin: the boundary sees exactly the rounds before this one.
        tree.advance_epoch();
        advances.fetch_add(1, std::memory_order_relaxed);
        held.emplace_back(tree.snapshot(),
                          std::vector<Key>(oracle.begin(), oracle.end()));
        pins.fetch_add(1, std::memory_order_relaxed);
        const std::vector<Key>& round_oracle = held.back().second;

        std::atomic<bool> phase_done{false};
        std::thread ticker([&] {
            while (!phase_done.load(std::memory_order_acquire)) {
                tree.advance_epoch();
                advances.fetch_add(1, std::memory_order_relaxed);
                std::this_thread::yield();
            }
        });
        std::vector<std::thread> reader_team;
        for (unsigned r = 0; r < readers; ++r) {
            reader_team.emplace_back([&, r] {
                fail::set_thread_ordinal(opt.threads + 1 + r);
                while (!phase_done.load(std::memory_order_acquire) &&
                       !failed.load(std::memory_order_relaxed)) {
                    const auto fresh = tree.snapshot();
                    pins.fetch_add(1, std::memory_order_relaxed);
                    const auto a = drain(fresh);
                    for (std::size_t i = 1; i < a.size(); ++i) {
                        if (!(a[i - 1] < a[i])) {
                            record_failure(
                                "fresh snapshot not strictly sorted at index " +
                                std::to_string(i) + ", round " +
                                std::to_string(round));
                            return;
                        }
                    }
                    if (drain(fresh) != a) {
                        record_failure("fresh snapshot replay differs, round " +
                                       std::to_string(round));
                        return;
                    }
                    if (!std::includes(a.begin(), a.end(), round_oracle.begin(),
                                       round_oracle.end())) {
                        record_failure(
                            "fresh snapshot lost keys of an older epoch, round " +
                            std::to_string(round));
                        return;
                    }
                    reads.fetch_add(a.size(), std::memory_order_relaxed);
                }
            });
        }

        // -- write phase (same mix as torture_run's static variant) ---------
        run_threads(opt.threads, [&](unsigned tid) {
            fail::set_thread_ordinal(tid);
            Rng rng(opt.seed * 1000003 + round * 8191 + tid * 131);
            auto hints = tree.create_hints();
            for (std::size_t i = 0; i < opt.inserts_per_thread; ++i) {
                if (failed.load(std::memory_order_relaxed)) break;
                const std::uint64_t k =
                    uniform_int<std::uint64_t>(rng, 0, opt.key_space - 1);
                tree.insert(static_cast<Key>(k), hints);
                {
                    std::lock_guard<std::mutex> g(oracle_mu);
                    oracle.insert(static_cast<Key>(k));
                }
            }
            inserts.fetch_add(opt.inserts_per_thread,
                              std::memory_order_relaxed);
        });
        phase_done.store(true, std::memory_order_release);
        ticker.join();
        for (auto& t : reader_team) t.join();
        if (failed.load()) break;

        // -- barrier: every held snapshot still equals its pin-time oracle --
        if (auto err = tree.check_invariants(); !err.empty()) {
            record_failure("invariant violation after write phase: " + err);
            break;
        }
        for (std::size_t h = 0; h < held.size(); ++h) {
            if (drain(held[h].first) != held[h].second) {
                record_failure("held snapshot of round " + std::to_string(h) +
                               " diverged from its pin-time oracle at round " +
                               std::to_string(round));
                break;
            }
        }
        if (failed.load()) break;
        if (tree.size() != oracle.size() ||
            !std::equal(tree.begin(), tree.end(), oracle.begin(),
                        oracle.end())) {
            record_failure("live tree diverges from oracle after write phase, "
                           "round " + std::to_string(round));
            break;
        }
    }

    res.inserts = inserts.load();
    res.new_keys = oracle.size();
    res.reads = reads.load();
    res.pins = pins.load();
    res.advances = advances.load();
    return res;
}

} // namespace dtree::util
