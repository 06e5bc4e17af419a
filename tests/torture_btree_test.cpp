// Fault-injection torture tests (compiled with DATATREE_FAILPOINTS).
//
// The failpoint layer forces the rare protocol paths of Alg. 1/2 — lease
// validation failures, lost upgrades, leaf retries, stretched split windows —
// to fire constantly, and the torture harness cross-checks every result
// against a mutex-guarded std::set oracle. Small node sizes maximise split
// frequency. A final suite feeds the harness a deliberately broken tree to
// prove the oracle actually detects divergence (a torture harness that can't
// fail is worthless).

#include "core/btree.h"
#include "core/tuple.h"
#include "runtime/scheduler.h"
#include "util/failpoint.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/torture.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

namespace {

namespace fail = dtree::fail;
using dtree::util::TortureOptions;
using dtree::util::torture_run;

template <unsigned B>
using Tree = dtree::btree_set<std::uint64_t,
                              dtree::ThreeWayComparator<std::uint64_t>, B>;

class TortureTest : public ::testing::Test {
public:
    void SetUp() override { fail::reset(); }
    void TearDown() override { fail::reset(); }

    static TortureOptions options(std::uint64_t seed) {
        TortureOptions opt;
        // Scalable via DATATREE_TEST_THREADS (EXPERIMENTS.md).
        opt.threads = dtree::util::env_threads(4);
        opt.rounds = 2;
        opt.inserts_per_thread = 4000;
        opt.reads_per_thread = 4000;
        opt.key_space = 12000;
        opt.seed = seed;
        return opt;
    }

    /// Arms every injection site at rates high enough that each fires
    /// thousands of times per run yet progress is still overwhelmingly
    /// probable (all sites sit on retry loops).
    static void arm_failpoints(std::uint64_t seed) {
        fail::set_seed(seed);
        fail::set_probability(fail::Site::validate_fail, 0.02);
        fail::set_probability(fail::Site::upgrade_fail, 0.05);
        fail::set_probability(fail::Site::leaf_retry, 0.02);
        fail::set_probability(fail::Site::split_delay, 0.25);
        fail::set_delay(fail::Site::split_delay, 300);
        fail::set_probability(fail::Site::upgrade_delay, 0.25);
        fail::set_delay(fail::Site::upgrade_delay, 300);
    }
};

// -- failpoint layer unit tests ---------------------------------------------

TEST_F(TortureTest, FailpointsAreCompiledIn) {
    ASSERT_TRUE(fail::enabled())
        << "this binary must be built with DATATREE_FAILPOINTS";
}

TEST_F(TortureTest, DisarmedSiteNeverFires) {
    for (int i = 0; i < 1000; ++i) {
        EXPECT_FALSE(fail::should_fire(fail::Site::validate_fail));
    }
    EXPECT_EQ(fail::fires(fail::Site::validate_fail), 0u);
    EXPECT_EQ(fail::evals(fail::Site::validate_fail), 0u)
        << "disarmed evaluations must not even be counted";
}

TEST_F(TortureTest, CertainSiteAlwaysFires) {
    fail::set_probability(fail::Site::leaf_retry, 1.0);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(fail::should_fire(fail::Site::leaf_retry));
    }
    EXPECT_EQ(fail::fires(fail::Site::leaf_retry), 100u);
    EXPECT_EQ(fail::evals(fail::Site::leaf_retry), 100u);
}

TEST_F(TortureTest, SameSeedSameDecisionSequence) {
    fail::set_probability(fail::Site::upgrade_fail, 0.5);
    auto draw = [&] {
        fail::set_seed(123);
        fail::set_thread_ordinal(0);
        std::vector<bool> out;
        for (int i = 0; i < 256; ++i) {
            out.push_back(fail::should_fire(fail::Site::upgrade_fail));
        }
        return out;
    };
    const auto a = draw();
    const auto b = draw();
    EXPECT_EQ(a, b) << "failpoint decisions must be reproducible from the seed";
    // Sanity: p=0.5 over 256 draws is neither all-true nor all-false.
    EXPECT_GT(std::count(a.begin(), a.end(), true), 0);
    EXPECT_GT(std::count(a.begin(), a.end(), false), 0);
}

TEST_F(TortureTest, DistinctThreadOrdinalsGetDistinctStreams) {
    fail::set_probability(fail::Site::upgrade_fail, 0.5);
    auto draw = [&](std::uint32_t ordinal) {
        fail::set_seed(7);
        fail::set_thread_ordinal(ordinal);
        std::vector<bool> out;
        for (int i = 0; i < 256; ++i) {
            out.push_back(fail::should_fire(fail::Site::upgrade_fail));
        }
        return out;
    };
    EXPECT_NE(draw(0), draw(1));
}

// -- clean torture (no injection): baseline the harness itself --------------

template <unsigned B>
void run_clean_torture(std::uint64_t seed) {
    Tree<B> tree;
    const auto res = torture_run(tree, TortureTest::options(seed));
    ASSERT_TRUE(res.ok) << res.failure;
    EXPECT_GT(res.new_keys, 0u);
    EXPECT_GT(res.reads, 0u);
    EXPECT_GT(res.scans, 0u);
}

TEST_F(TortureTest, CleanBlock3) { run_clean_torture<3>(101); }
TEST_F(TortureTest, CleanBlock4) { run_clean_torture<4>(102); }
TEST_F(TortureTest, CleanBlock11) { run_clean_torture<11>(103); }

// -- fault-injected torture: the point of this file -------------------------

template <unsigned B>
void run_injected_torture(std::uint64_t seed) {
    TortureTest::arm_failpoints(seed);
    Tree<B> tree;
    const auto res = torture_run(tree, TortureTest::options(seed));
    ASSERT_TRUE(res.ok) << res.failure;
    // The injection must actually have exercised the rare paths; otherwise
    // this test silently degenerates into the clean variant.
    EXPECT_GT(fail::fires(fail::Site::validate_fail), 0u);
    EXPECT_GT(fail::fires(fail::Site::upgrade_fail), 0u);
    EXPECT_GT(fail::fires(fail::Site::leaf_retry), 0u);
    EXPECT_GT(fail::fires(fail::Site::split_delay), 0u)
        << "no split window was ever stretched — node size too large?";
    EXPECT_GT(fail::fires(fail::Site::upgrade_delay), 0u);
}

TEST_F(TortureTest, InjectedBlock3) { run_injected_torture<3>(201); }
TEST_F(TortureTest, InjectedBlock4) { run_injected_torture<4>(202); }
TEST_F(TortureTest, InjectedBlock5) { run_injected_torture<5>(203); }

// -- pool-driven torture: write phase on scheduler workers ------------------
// steal_regions routes the write phase through the persistent pool's chunked
// work-stealing regions (runtime/scheduler.h), so the phase-concurrent
// oracle also covers workers executing stolen chunks. A small grain makes
// many chunks per worker; sched_steal_delay widens the owner/thief window.

template <unsigned B>
void run_pool_torture(std::uint64_t seed, bool inject) {
    auto opt = TortureTest::options(seed);
    opt.steal_regions = true;
    opt.steal_grain = 16;
    if (inject) {
        TortureTest::arm_failpoints(seed);
        fail::set_probability(fail::Site::sched_steal_delay, 0.2);
        fail::set_delay(fail::Site::sched_steal_delay, 200);
        fail::set_probability(fail::Site::sched_worker_stall, 0.5);
        fail::set_delay(fail::Site::sched_worker_stall, 400);
    }
    const auto before = dtree::runtime::Scheduler::instance().stats();
    Tree<B> tree;
    const auto res = torture_run(tree, opt);
    ASSERT_TRUE(res.ok) << res.failure;
    EXPECT_GT(res.new_keys, 0u);
    const auto after = dtree::runtime::Scheduler::instance().stats();
    EXPECT_GT(after.regions, before.regions)
        << "write phases must have run as pool regions";
    EXPECT_GT(after.tasks, before.tasks);
}

TEST_F(TortureTest, PoolCleanBlock3) { run_pool_torture<3>(301, false); }
TEST_F(TortureTest, PoolCleanBlock11) { run_pool_torture<11>(302, false); }
TEST_F(TortureTest, PoolInjectedBlock3) { run_pool_torture<3>(401, true); }
TEST_F(TortureTest, PoolInjectedBlock4) { run_pool_torture<4>(402, true); }

// -- pool-driven bulk-merge torture ------------------------------------------
// Concurrent insert_sorted_run: many overlapping sorted runs fanned out on
// the work-stealing pool into one shared tree, cross-checked against a
// std::set oracle. Failpoints stretch the same windows the point-insert
// torture does (lost upgrades, leaf retries, split delays) plus the
// scheduler's steal window, so stolen chunks land bulk segments into leaves
// that a concurrent run is splitting.

template <typename TreeT>
void run_bulk_pool_torture_on(std::uint64_t seed, bool inject) {
    using Key = std::uint64_t;
    if (inject) {
        TortureTest::arm_failpoints(seed);
        fail::set_probability(fail::Site::sched_steal_delay, 0.2);
        fail::set_delay(fail::Site::sched_steal_delay, 200);
        fail::set_probability(fail::Site::sched_worker_stall, 0.5);
        fail::set_delay(fail::Site::sched_worker_stall, 400);
    }

    constexpr unsigned kTeam = 4;
    constexpr std::size_t kRuns = 48;
    constexpr std::size_t kRunLen = 300;
    // Deterministic overlapping runs: run r covers a window of the key space
    // with stride 3, shifted by r, so most keys collide across runs.
    std::vector<std::vector<Key>> runs(kRuns);
    std::set<Key> oracle;
    for (std::size_t r = 0; r < kRuns; ++r) {
        const Key base = (r % 8) * 500 + seed % 97;
        for (std::size_t i = 0; i < kRunLen; ++i) {
            runs[r].push_back(base + i * 3 + r % 3);
        }
        oracle.insert(runs[r].begin(), runs[r].end());
    }

    TreeT tree;
    // Pre-seed so runs also hit the non-empty descent path, not just
    // bulk_init_root.
    {
        typename TreeT::operation_hints h;
        for (Key k = 0; k < 2000; k += 7) {
            tree.insert(k, h);
            oracle.insert(k);
        }
    }

    auto& sched = dtree::runtime::Scheduler::instance();
    const auto before = sched.stats();
    std::vector<typename TreeT::operation_hints> hints(kTeam);
    sched.parallel_for(
        kRuns, kTeam,
        {.grain = 1},
        [&](unsigned wid, std::size_t b, std::size_t e) {
            for (std::size_t r = b; r < e; ++r) {
                tree.insert_sorted_run(runs[r].begin(), runs[r].end(),
                                       hints[wid]);
            }
        });
    const auto after = sched.stats();
    EXPECT_GT(after.regions, before.regions)
        << "bulk runs must have executed as a pool region";

    const std::string err = tree.check_invariants();
    ASSERT_TRUE(err.empty()) << err;
    std::vector<Key> got(tree.begin(), tree.end());
    std::vector<Key> want(oracle.begin(), oracle.end());
    ASSERT_EQ(got, want)
        << "concurrent bulk merge diverged from the set oracle";
    if (inject) {
        EXPECT_GT(fail::fires(fail::Site::upgrade_delay), 0u);
        EXPECT_GT(fail::fires(fail::Site::sched_steal_delay) +
                      fail::fires(fail::Site::sched_worker_stall),
                  0u);
    }
}

TEST_F(TortureTest, PoolBulkMergeCleanBlock3) {
    run_bulk_pool_torture_on<Tree<3>>(501, false);
}
TEST_F(TortureTest, PoolBulkMergeCleanBlock11) {
    run_bulk_pool_torture_on<Tree<11>>(502, false);
}
TEST_F(TortureTest, PoolBulkMergeInjectedBlock3) {
    run_bulk_pool_torture_on<Tree<3>>(601, true);
}
TEST_F(TortureTest, PoolBulkMergeInjectedBlock5) {
    run_bulk_pool_torture_on<Tree<5>>(602, true);
}

// -- binary-search torture ----------------------------------------------------
// The same clean + fault-injected oracle runs with the tree pinned to
// BinarySearch. The default u64 trees above resolve to LinearSearch, so this
// is the concurrent coverage of the binary in-node search: its midpoint
// loads run inside start_read/validate windows on keys a writer may be
// shifting, and validate_fail injection forces the discard-on-conflict path
// that makes a torn midpoint harmless.

template <unsigned B>
using BinaryTree = dtree::btree_set<std::uint64_t,
                                    dtree::ThreeWayComparator<std::uint64_t>, B,
                                    dtree::detail::BinarySearch>;

template <unsigned B>
void run_binary_torture(std::uint64_t seed, bool inject) {
    if (inject) TortureTest::arm_failpoints(seed);
    BinaryTree<B> tree;
    const auto res = torture_run(tree, TortureTest::options(seed));
    ASSERT_TRUE(res.ok) << res.failure;
    EXPECT_GT(res.new_keys, 0u);
    if (inject) {
        EXPECT_GT(fail::fires(fail::Site::validate_fail), 0u)
            << "no lease validation was ever failed under binary search";
        EXPECT_GT(fail::fires(fail::Site::leaf_retry), 0u);
    }
}

TEST_F(TortureTest, BinaryCleanBlock3) { run_binary_torture<3>(701, false); }
TEST_F(TortureTest, BinaryCleanBlock5) { run_binary_torture<5>(702, false); }
TEST_F(TortureTest, BinaryInjectedBlock3) { run_binary_torture<3>(801, true); }
TEST_F(TortureTest, BinaryInjectedBlock4) { run_binary_torture<4>(802, true); }
TEST_F(TortureTest, BinaryInjectedBlock5) { run_binary_torture<5>(803, true); }

// -- tuple-key torture -------------------------------------------------------
// Tuple<2> keys on the default tree: first-column ties put the deciding
// comparison on the second element inside the optimistic window. Threads
// insert overlapping tie-heavy ranges (16 tuples per first column) into one
// shared tree under full injection; the result must match the sequential
// oracle exactly.
TEST_F(TortureTest, InjectedTupleTieRanges) {
    using Key = dtree::Tuple<2>;
    using TupleTree = dtree::btree_set<Key, dtree::ThreeWayComparator<Key>, 4>;
    TortureTest::arm_failpoints(901);

    constexpr unsigned kThreads = 4;
    constexpr std::size_t kPerThread = 3000;
    std::vector<std::vector<Key>> input(kThreads);
    std::set<Key> oracle;
    for (unsigned t = 0; t < kThreads; ++t) {
        for (std::size_t i = 0; i < kPerThread; ++i) {
            // Overlapping windows with heavy ties: every thread revisits the
            // columns its neighbours populate.
            const Key k{(i + t * 700) / 16 % 500, (i * 2654435761u + t) % 64};
            input[t].push_back(k);
            oracle.insert(k);
        }
    }

    TupleTree tree;
    dtree::util::parallel_blocks(
        kThreads, kThreads, [&](unsigned tid, std::size_t, std::size_t) {
            auto h = tree.create_hints();
            for (const auto& k : input[tid]) tree.insert(k, h);
        });

    EXPECT_GT(fail::fires(fail::Site::validate_fail), 0u);
    const std::string err = tree.check_invariants();
    ASSERT_TRUE(err.empty()) << err;
    std::vector<Key> got(tree.begin(), tree.end());
    std::vector<Key> want(oracle.begin(), oracle.end());
    ASSERT_EQ(got, want)
        << "concurrent tuple inserts diverged from the oracle";
}

// Multiple seeds at the smallest node size: distinct schedules + distinct
// injection streams.
TEST_F(TortureTest, InjectedSeedSweepBlock3) {
    for (std::uint64_t seed : {11u, 12u, 13u}) {
        fail::reset();
        TortureTest::arm_failpoints(seed);
        Tree<3> tree;
        const auto res = torture_run(tree, TortureTest::options(seed));
        ASSERT_TRUE(res.ok) << res.failure;
    }
}

// -- leaf layout v2 torture (WithFingerprints, DESIGN.md §15) -----------------
// The mixed-phase oracle against fingerprint leaves: membership probes run
// the byte-compare fast path (racy vector loads inside the optimistic
// window where compiled in, the relaxed Access::load scalar scan under
// TSan), in-leaf inserts take the append zone, and splits consolidate the
// unsorted tail — all while validate_fail discards leases mid-probe,
// upgrade_fail drops append publications back to retry, and split_delay
// stretches the consolidation window. The oracle cross-checks every verdict,
// every scan, and check_invariants (which re-verifies every fingerprint byte
// and the cached min/max per leaf).

template <unsigned B>
using FpTortureTree =
    dtree::fp_btree_set<std::uint64_t,
                        dtree::ThreeWayComparator<std::uint64_t>, B>;

template <unsigned B>
void run_fp_torture(std::uint64_t seed, bool inject) {
    if (inject) TortureTest::arm_failpoints(seed);
    FpTortureTree<B> tree;
    const auto res = torture_run(tree, TortureTest::options(seed));
    ASSERT_TRUE(res.ok) << res.failure;
    EXPECT_GT(res.new_keys, 0u);
    EXPECT_GT(res.reads, 0u);
    EXPECT_GT(res.scans, 0u);
    if (inject) {
        EXPECT_GT(fail::fires(fail::Site::validate_fail), 0u)
            << "no lease validation ever failed under the fingerprint probe";
        EXPECT_GT(fail::fires(fail::Site::upgrade_fail), 0u);
        EXPECT_GT(fail::fires(fail::Site::leaf_retry), 0u);
        EXPECT_GT(fail::fires(fail::Site::split_delay), 0u)
            << "no consolidation window was ever stretched";
    }
}

TEST_F(TortureTest, FpCleanBlock3) { run_fp_torture<3>(1501, false); }
TEST_F(TortureTest, FpCleanBlock11) { run_fp_torture<11>(1502, false); }
TEST_F(TortureTest, FpInjectedBlock3) { run_fp_torture<3>(1601, true); }
TEST_F(TortureTest, FpInjectedBlock4) { run_fp_torture<4>(1602, true); }
TEST_F(TortureTest, FpInjectedBlock5) { run_fp_torture<5>(1603, true); }

// Concurrent bulk merges into fingerprint leaves: leaf_fill_sorted must
// rebuild fingerprints and reset append watermarks while stolen chunks race
// point-split consolidations.
TEST_F(TortureTest, FpPoolBulkMergeInjectedBlock3) {
    run_bulk_pool_torture_on<FpTortureTree<3>>(1701, true);
}
TEST_F(TortureTest, FpPoolBulkMergeCleanBlock11) {
    run_bulk_pool_torture_on<FpTortureTree<11>>(1702, false);
}

// Tuple keys: the FNV-combined fingerprint byte plus first-column tie ranges,
// racing threads over overlapping windows into one shared tree under full
// injection (the v2 analogue of InjectedTupleTieRanges).
TEST_F(TortureTest, FpInjectedTupleTieRanges) {
    using Key = dtree::Tuple<2>;
    using TupleFpTree =
        dtree::fp_btree_set<Key, dtree::ThreeWayComparator<Key>, 4>;
    TortureTest::arm_failpoints(1801);

    constexpr unsigned kThreads = 4;
    constexpr std::size_t kPerThread = 3000;
    std::vector<std::vector<Key>> input(kThreads);
    std::set<Key> oracle;
    for (unsigned t = 0; t < kThreads; ++t) {
        for (std::size_t i = 0; i < kPerThread; ++i) {
            const Key k{(i + t * 700) / 16 % 500, (i * 2654435761u + t) % 64};
            input[t].push_back(k);
            oracle.insert(k);
        }
    }

    TupleFpTree tree;
    dtree::util::parallel_blocks(
        kThreads, kThreads, [&](unsigned tid, std::size_t, std::size_t) {
            auto h = tree.create_hints();
            for (const auto& k : input[tid]) tree.insert(k, h);
        });

    EXPECT_GT(fail::fires(fail::Site::validate_fail), 0u);
    const std::string err = tree.check_invariants();
    ASSERT_TRUE(err.empty()) << err;
    // Read phase after the barrier: every thread probes its own input.
    std::atomic<std::size_t> missing{0};
    dtree::util::parallel_blocks(
        kThreads, kThreads, [&](unsigned tid, std::size_t, std::size_t) {
            auto h = tree.create_hints();
            for (const auto& k : input[tid]) {
                if (!tree.contains(k, h)) missing.fetch_add(1);
            }
        });
    EXPECT_EQ(missing.load(), 0u) << "contains missed inserted tuple keys";
    std::vector<Key> got(tree.begin(), tree.end());
    std::vector<Key> want(oracle.begin(), oracle.end());
    ASSERT_EQ(got, want)
        << "concurrent tuple inserts into v2 leaves diverged from the oracle";
}

// -- snapshot torture: readers during writes (DESIGN.md §11) ------------------
// torture_snapshot_run holds a snapshot pinned at each round's quiescent
// boundary while writers insert, an epoch ticker advances, and reader
// threads continuously pin/drain fresh snapshots. Injection matters here:
// validate_fail forces the snapshot reader's lease-retry loop and
// split_delay stretches the windows in which a reader races a CoW capture.

template <unsigned B>
using SnapTree = dtree::snapshot_btree_set<
    std::uint64_t, dtree::ThreeWayComparator<std::uint64_t>, B>;

template <unsigned B>
void run_snapshot_torture(std::uint64_t seed, bool inject) {
    if (inject) TortureTest::arm_failpoints(seed);
    auto opt = TortureTest::options(seed);
    SnapTree<B> tree;
    const auto res = dtree::util::torture_snapshot_run(tree, opt);
    ASSERT_TRUE(res.ok) << res.failure;
    EXPECT_GT(res.new_keys, 0u);
    EXPECT_GT(res.pins, opt.rounds) << "reader threads never pinned";
    EXPECT_GT(res.advances, opt.rounds) << "the epoch ticker never ticked";
    if (inject) {
        EXPECT_GT(fail::fires(fail::Site::validate_fail), 0u)
            << "snapshot reads never hit a failed lease validation";
        EXPECT_GT(fail::fires(fail::Site::split_delay), 0u);
    }
    const auto st = tree.snap_stats();
    EXPECT_GT(st.cow_images, 0u) << "no CoW image was ever retained";
    EXPECT_GT(st.cow_bytes, 0u);
}

TEST_F(TortureTest, SnapshotCleanBlock3) { run_snapshot_torture<3>(1001, false); }
TEST_F(TortureTest, SnapshotCleanBlock11) { run_snapshot_torture<11>(1002, false); }
TEST_F(TortureTest, SnapshotInjectedBlock3) { run_snapshot_torture<3>(1101, true); }
TEST_F(TortureTest, SnapshotInjectedBlock4) { run_snapshot_torture<4>(1102, true); }
TEST_F(TortureTest, SnapshotInjectedBlock5) { run_snapshot_torture<5>(1103, true); }

// -- Zipfian duplicate storms --------------------------------------------------
// Racing threads re-derive a few hot keys (Zipf s=1.2 over a 600-key
// universe, scattered so hot keys live in distinct leaves) under full
// injection: most inserts find their key already present while injected
// lease failures and lost upgrades keep knocking writers off the hot leaves.
// The tree must end with exactly the distinct keys and report each as new
// exactly once. Snapshot trees tick the epoch mid-storm, so hot-leaf writes
// also take the copy-on-write retention path. Tuple keys group the hot keys
// on their leading column(s), so duplicate checks compare past ties.

/// The storm key for scattered rank value `v`: v itself for u64 trees;
/// Tuple<2> and Tuple<4> (the Datalog storage keys) put v in the last
/// column behind few-valued leading columns.
template <typename Key>
Key storm_key(std::uint64_t v) {
    if constexpr (std::is_same_v<Key, dtree::Tuple<2>>) {
        return Key{v % 7, v};
    } else if constexpr (std::is_same_v<Key, dtree::Tuple<4>>) {
        return Key{v % 5, v % 3, v % 2, v};
    } else {
        return v;
    }
}

template <typename TreeT>
void run_zipf_storm(std::uint64_t seed) {
    using Key = typename TreeT::key_type;
    TortureTest::arm_failpoints(seed);

    constexpr unsigned kThreads = 4;
    constexpr std::size_t kPerThread = 6000;
    constexpr std::size_t kKeys = 600;
    dtree::util::Zipf zipf(kKeys, 1.2);
    std::vector<std::vector<Key>> input(kThreads);
    std::set<Key> oracle;
    for (unsigned t = 0; t < kThreads; ++t) {
        dtree::util::Rng rng(seed * 10 + t);
        for (std::size_t i = 0; i < kPerThread; ++i) {
            // Scatter ranks across the key space (injective, so the distinct
            // count is preserved).
            const Key k = storm_key<Key>(
                static_cast<std::uint64_t>(zipf(rng)) * 2654435761ull);
            input[t].push_back(k);
            oracle.insert(k);
        }
    }

    TreeT tree;
    std::atomic<std::size_t> changed{0};
    dtree::util::parallel_blocks(
        kThreads, kThreads, [&](unsigned tid, std::size_t, std::size_t) {
            auto h = tree.create_hints();
            std::size_t mine = 0;
            for (std::size_t i = 0; i < input[tid].size(); ++i) {
                if (tree.insert(input[tid][i], h)) ++mine;
                if constexpr (TreeT::with_snapshots) {
                    if (tid == 0 && i % 256 == 255) tree.advance_epoch();
                }
            }
            changed.fetch_add(mine);
        });

    EXPECT_GT(fail::fires(fail::Site::validate_fail), 0u);
    EXPECT_GT(fail::fires(fail::Site::leaf_retry), 0u);
    const std::string err = tree.check_invariants();
    ASSERT_TRUE(err.empty()) << err;
    const std::vector<Key> want(oracle.begin(), oracle.end());
    EXPECT_EQ(changed.load(), want.size())
        << "insert verdicts disagree with the oracle";
    std::vector<Key> got(tree.begin(), tree.end());
    ASSERT_EQ(got, want) << "zipf duplicate storm diverged from the oracle";
    if constexpr (TreeT::with_snapshots) {
        EXPECT_GT(tree.snap_stats().cow_images, 0u)
            << "no hot-leaf write ever retained a CoW image";
    }
}

template <unsigned B>
using TupleTree =
    dtree::btree_set<dtree::Tuple<2>, dtree::ThreeWayComparator<dtree::Tuple<2>>, B>;
template <unsigned B>
using FpTupleTree =
    dtree::fp_btree_set<dtree::Tuple<2>, dtree::ThreeWayComparator<dtree::Tuple<2>>, B>;
template <unsigned B>
using SnapQuadTree =
    dtree::snapshot_btree_set<dtree::Tuple<4>,
                              dtree::ThreeWayComparator<dtree::Tuple<4>>, B>;

TEST_F(TortureTest, ZipfStormInjectedBlock3) { run_zipf_storm<Tree<3>>(1401); }
TEST_F(TortureTest, ZipfStormInjectedBlock4) { run_zipf_storm<Tree<4>>(1402); }
TEST_F(TortureTest, ZipfStormInjectedBlock5) { run_zipf_storm<Tree<5>>(1403); }
TEST_F(TortureTest, FpZipfStormInjectedBlock3) {
    run_zipf_storm<FpTortureTree<3>>(1411);
}
TEST_F(TortureTest, FpZipfStormInjectedBlock4) {
    run_zipf_storm<FpTortureTree<4>>(1413);
}
TEST_F(TortureTest, FpZipfStormInjectedBlock5) {
    run_zipf_storm<FpTortureTree<5>>(1412);
}
TEST_F(TortureTest, SnapshotZipfStormInjectedBlock3) {
    run_zipf_storm<SnapTree<3>>(1421);
}
TEST_F(TortureTest, SnapshotZipfStormInjectedBlock4) {
    run_zipf_storm<SnapTree<4>>(1422);
}
TEST_F(TortureTest, SnapshotZipfStormInjectedBlock5) {
    run_zipf_storm<SnapTree<5>>(1423);
}
TEST_F(TortureTest, SnapshotZipfStormInjectedBlock11) {
    run_zipf_storm<SnapTree<11>>(1424);
}
TEST_F(TortureTest, TupleZipfStormInjectedBlock3) {
    run_zipf_storm<TupleTree<3>>(1431);
}
TEST_F(TortureTest, TupleZipfStormInjectedBlock5) {
    run_zipf_storm<TupleTree<5>>(1433);
}
TEST_F(TortureTest, FpTupleZipfStormInjectedBlock3) {
    run_zipf_storm<FpTupleTree<3>>(1441);
}
TEST_F(TortureTest, FpTupleZipfStormInjectedBlock4) {
    run_zipf_storm<FpTupleTree<4>>(1442);
}
TEST_F(TortureTest, SnapshotTupleZipfStormInjectedBlock3) {
    run_zipf_storm<SnapQuadTree<3>>(1451);
}
TEST_F(TortureTest, SnapshotTupleZipfStormInjectedBlock4) {
    run_zipf_storm<SnapQuadTree<4>>(1452);
}

// -- harness sensitivity: a broken tree MUST be caught ----------------------

/// A btree_set whose insert silently drops some keys (claiming success) —
/// stands in for a real lost-update bug. The harness must flag it.
struct DroppingTree {
    using Inner = Tree<4>;
    using key_type = Inner::key_type;
    Inner inner;

    auto create_hints() const { return inner.create_hints(); }

    bool insert(key_type k, Inner::operation_hints& h) {
        if (k % 997 == 0) return true; // lie: claim inserted, do nothing
        return inner.insert(k, h);
    }
    bool contains(key_type k, Inner::operation_hints& h) const {
        return inner.contains(k, h);
    }
    auto lower_bound(key_type k, Inner::operation_hints& h) const {
        return inner.lower_bound(k, h);
    }
    auto upper_bound(key_type k, Inner::operation_hints& h) const {
        return inner.upper_bound(k, h);
    }
    auto begin() const { return inner.begin(); }
    auto end() const { return inner.end(); }
    std::size_t size() const { return inner.size(); }
    std::string check_invariants() const { return inner.check_invariants(); }
};

TEST_F(TortureTest, HarnessCatchesLostInserts) {
    DroppingTree tree;
    const auto res = torture_run(tree, TortureTest::options(42));
    ASSERT_FALSE(res.ok)
        << "the oracle failed to notice systematically dropped inserts";
    // The replay diagnosis must classify this as deterministic (the drop does
    // not depend on scheduling).
    EXPECT_NE(res.failure.find("deterministic bug"), std::string::npos)
        << res.failure;
}

} // namespace
