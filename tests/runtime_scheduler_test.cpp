// Unit tests for the persistent work-stealing scheduler
// (runtime/scheduler.h). Compiled with DATATREE_FAILPOINTS so the
// sched_worker_stall site can force the imbalance that makes stealing
// deterministic regardless of core count.
//
// What must hold:
//  * every index in [0, n) is executed exactly once across the inline /
//    shared-claim / deque regimes and the grain-coarsening path;
//  * util::parallel_blocks calls fn exactly once per thread with its
//    block_range, empty blocks included;
//  * worker ids are stable across regions and map to distinct threads, with
//    id 0 always the calling thread;
//  * the pool never spawns a thread after startup (region reuse);
//  * work that fits one grain runs inline without a region;
//  * forced imbalance produces steals;
//  * an exception escaping a task terminates the process.

#include "runtime/scheduler.h"
#include "util/failpoint.h"
#include "util/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace {

namespace fail = dtree::fail;
using dtree::runtime::Scheduler;

Scheduler& sched() { return Scheduler::instance(); }

// -- exact coverage ---------------------------------------------------------

void check_coverage(std::size_t n, unsigned team, std::size_t grain) {
    std::vector<std::atomic<std::uint32_t>> hits(n);
    sched().parallel_for(n, team, {.grain = grain},
                         [&](unsigned, std::size_t b, std::size_t e) {
                             for (std::size_t i = b; i < e; ++i) {
                                 hits[i].fetch_add(1, std::memory_order_relaxed);
                             }
                         });
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1u)
            << "index " << i << " (n=" << n << ", team=" << team
            << ", grain=" << grain << ")";
    }
}

TEST(SchedulerCoverage, EveryIndexExactlyOnce) {
    check_coverage(0, 4, 64);      // empty region
    check_coverage(1, 4, 64);      // single item (inline)
    check_coverage(64, 4, 64);     // exactly one grain (inline)
    check_coverage(65, 4, 64);     // barely two chunks
    check_coverage(130, 4, 64);    // chunk count < team possible
    check_coverage(1000, 4, 64);   // shared-claim regime
    check_coverage(10000, 4, 64);  // deque regime
    check_coverage(10000, 3, 7);   // odd team, odd grain
    check_coverage(777, 16, 1);    // more workers than some chunks
}

TEST(SchedulerCoverage, GrainCoarseningKeepsCoverage) {
    // grain 1 over 1M items with 4 workers wants 1M chunks; the deque bound
    // (kDequeCapacity per worker) forces coarsening. Coverage must survive.
    check_coverage(1'000'000, 4, 1);
}

TEST(SchedulerCoverage, ParallelBlocksStillCoversUnderBothDefaults) {
    // util::parallel_blocks rides the pool (run_team) now.
    std::vector<std::atomic<std::uint32_t>> hits(5000);
    dtree::util::parallel_blocks(
        hits.size(), 4, [&](unsigned, std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
            }
        });
    for (std::size_t i = 0; i < hits.size(); ++i) {
        ASSERT_EQ(hits[i].load(), 1u) << i;
    }
}

// -- worker identity --------------------------------------------------------

TEST(SchedulerIdentity, WorkerIdsAreStableAndDistinct) {
    constexpr unsigned kTeam = 4;
    std::array<std::thread::id, kTeam> first{};
    for (int round = 0; round < 8; ++round) {
        std::array<std::thread::id, kTeam> ids{};
        sched().run_team(kTeam, [&](unsigned slot) {
            ids[slot] = std::this_thread::get_id();
        });
        EXPECT_EQ(ids[0], std::this_thread::get_id())
            << "worker 0 must be the caller";
        for (unsigned i = 0; i < kTeam; ++i) {
            for (unsigned j = i + 1; j < kTeam; ++j) {
                EXPECT_NE(ids[i], ids[j]) << "slots " << i << "/" << j;
            }
        }
        if (round == 0) {
            first = ids;
        } else {
            EXPECT_EQ(first, ids)
                << "worker id -> thread mapping changed between regions";
        }
    }
}

TEST(SchedulerIdentity, RunTeamSlotsRunConcurrently) {
    // All slots must be alive at once to pass this rendezvous; a pool that
    // secretly serialises slots would time out.
    constexpr unsigned kTeam = 3;
    std::atomic<unsigned> arrived{0};
    std::atomic<bool> timed_out{false};
    sched().run_team(kTeam, [&](unsigned) {
        arrived.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (arrived.load() < kTeam && !timed_out.load()) {
            if (std::chrono::steady_clock::now() > deadline) {
                timed_out.store(true);
            }
            std::this_thread::yield();
        }
    });
    EXPECT_FALSE(timed_out.load());
    EXPECT_EQ(arrived.load(), kTeam);
}

// -- pool reuse -------------------------------------------------------------

TEST(SchedulerPool, NoThreadSpawnsAfterStartup) {
    auto& s = sched();
    s.reserve(8);
    const std::uint64_t spawned = s.stats().threads_spawned;
    EXPECT_GE(spawned, 7u) << "reserve(8) must have brought up 7 pool threads";
    for (int i = 0; i < 40; ++i) {
        s.parallel_for(5000, 8, {.grain = 64},
                       [](unsigned, std::size_t, std::size_t) {});
        dtree::util::parallel_blocks(
            5000, 8, [](unsigned, std::size_t, std::size_t) {});
        s.run_team(8, [](unsigned) {});
    }
    EXPECT_EQ(s.stats().threads_spawned, spawned)
        << "regions after startup must not create threads";
}

TEST(SchedulerPool, GrainDecisionRunsSmallWorkInline) {
    auto& s = sched();
    const std::uint64_t regions_before = s.stats().regions;
    unsigned calls = 0, wid = 99;
    std::size_t begin = 99, end = 0;
    s.parallel_for(50, 8, {.grain = 64},
                   [&](unsigned w, std::size_t b, std::size_t e) {
                       ++calls;
                       wid = w;
                       begin = b;
                       end = e;
                   });
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(wid, 0u);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 50u);
    EXPECT_EQ(s.stats().regions, regions_before)
        << "sub-grain work must not dispatch a region";
}

TEST(SchedulerPool, BlocksModeMatchesBlockRange) {
    // util::parallel_blocks is the static partition the benches use: exactly
    // one call per thread id in [0, T) with its block_range — empty blocks
    // included when n < T.
    constexpr unsigned kTeam = 4;
    for (const std::size_t n : {std::size_t{101}, std::size_t{2}}) {
        std::mutex mu;
        std::vector<std::array<std::size_t, 3>> seen; // (slot, b, e)
        dtree::util::parallel_blocks(
            n, kTeam, [&](unsigned w, std::size_t b, std::size_t e) {
                std::lock_guard<std::mutex> g(mu);
                seen.push_back({w, b, e});
            });
        ASSERT_EQ(seen.size(), kTeam) << "one call per thread (n=" << n << ")";
        std::sort(seen.begin(), seen.end());
        for (unsigned t = 0; t < kTeam; ++t) {
            const auto [w, b, e] = seen[t];
            const auto [eb, ee] = dtree::util::block_range(n, t, kTeam);
            EXPECT_EQ(w, t) << "slot ids must be 0..T-1 (n=" << n << ")";
            EXPECT_EQ(b, eb) << "slot " << t << " n=" << n;
            EXPECT_EQ(e, ee) << "slot " << t << " n=" << n;
        }
    }
}

TEST(SchedulerPool, NestedRegionsRunInline) {
    // A region launched from inside a region must execute inline on that
    // worker (single-level pool, no deadlock).
    constexpr unsigned kTeam = 2;
    std::array<std::atomic<std::size_t>, kTeam> covered{};
    std::array<std::atomic<unsigned>, kTeam> inner_wid_max{};
    sched().run_team(kTeam, [&](unsigned slot) {
        sched().parallel_for(
            1000, kTeam, {.grain = 8},
            [&, slot](unsigned w, std::size_t b, std::size_t e) {
                covered[slot].fetch_add(e - b);
                unsigned prev = inner_wid_max[slot].load();
                while (prev < w && !inner_wid_max[slot].compare_exchange_weak(prev, w)) {
                }
            });
    });
    for (unsigned slot = 0; slot < kTeam; ++slot) {
        EXPECT_EQ(covered[slot].load(), 1000u) << "slot " << slot;
        EXPECT_EQ(inner_wid_max[slot].load(), 0u)
            << "nested region must stay on worker 0 of the inner (inline) run";
    }
}

// -- stealing ---------------------------------------------------------------

TEST(SchedulerStealing, StallForcedImbalanceProducesSteals) {
    ASSERT_TRUE(fail::enabled())
        << "this binary must be built with DATATREE_FAILPOINTS";
    fail::reset();
    fail::set_seed(9);
    // Stall every pool worker (the site is skipped for worker 0) long enough
    // that the caller drains its own deque and has to steal the rest.
    fail::set_probability(fail::Site::sched_worker_stall, 1.0);
    fail::set_delay(fail::Site::sched_worker_stall, 50'000);
    auto& s = sched();
    const auto before = s.stats();
    std::atomic<std::uint64_t> sum{0};
    s.parallel_for(4096, 4, {.grain = 8},
                   [&](unsigned, std::size_t b, std::size_t e) {
                       sum.fetch_add(e - b, std::memory_order_relaxed);
                   });
    fail::reset();
    const auto after = s.stats();
    EXPECT_EQ(sum.load(), 4096u);
    EXPECT_GT(after.steals, before.steals)
        << "the unstalled caller should have stolen from stalled workers";
    EXPECT_GT(after.tasks, before.tasks);
}

TEST(SchedulerStealing, SmallRegionSharedClaimDoesNotSteal) {
    auto& s = sched();
    const auto before = s.stats();
    // 6 chunks over team 4 -> chunks <= 2 * team -> shared-claim fallback.
    std::atomic<std::uint64_t> sum{0};
    s.parallel_for(6 * 64, 4, {.grain = 64},
                   [&](unsigned, std::size_t b, std::size_t e) {
                       sum.fetch_add(e - b, std::memory_order_relaxed);
                   });
    const auto after = s.stats();
    EXPECT_EQ(sum.load(), 6u * 64u);
    EXPECT_EQ(after.steals, before.steals)
        << "shared-claim fallback has no deques to steal from";
    EXPECT_EQ(after.tasks - before.tasks, 6u);
}

TEST(SchedulerStealing, StealDelaySiteIsExercised) {
    ASSERT_TRUE(fail::enabled());
    fail::reset();
    fail::set_seed(11);
    fail::set_probability(fail::Site::sched_steal_delay, 1.0);
    fail::set_delay(fail::Site::sched_steal_delay, 64);
    std::atomic<std::uint64_t> sum{0};
    sched().parallel_for(8192, 4, {.grain = 8},
                         [&](unsigned, std::size_t b, std::size_t e) {
                             sum.fetch_add(e - b, std::memory_order_relaxed);
                         });
    EXPECT_EQ(sum.load(), 8192u);
    // Every worker ends its region with a full failed sweep, so the probe
    // site must have been evaluated.
    EXPECT_GT(fail::fires(fail::Site::sched_steal_delay), 0u);
    fail::reset();
}

// -- exception contract -----------------------------------------------------

TEST(SchedulerDeathTest, ExceptionEscapingTaskTerminates) {
    // threadsafe style re-execs the binary for the death statement: the
    // forked child would otherwise inherit an empty pool but live bookkeeping.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            Scheduler::instance().parallel_for(
                1000, 2, {.grain = 8},
                [](unsigned, std::size_t b, std::size_t) {
                    if (b == 0) throw std::runtime_error("task failed");
                });
        },
        "");
}

} // namespace
