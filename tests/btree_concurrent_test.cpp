// Concurrency tests for the optimistic B-tree (Alg. 1 + Alg. 2): parallel
// insertions from many threads must linearise to set semantics, preserve all
// structural invariants, and interoperate with per-thread operation hints —
// including the phase-concurrent read pattern of semi-naïve evaluation.

#include "core/btree.h"
#include "core/tuple.h"
#include "util/parallel.h"
#include "util/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <vector>

namespace {

using dtree::Tuple;
using dtree::util::block_range;
using dtree::util::parallel_blocks;
using dtree::util::run_threads;

struct Params {
    unsigned threads;
    std::size_t n;
};

class ConcurrentInsert : public ::testing::TestWithParam<Params> {};

// Small nodes maximise split frequency and thus lock-protocol coverage.
using SmallTree = dtree::btree_set<std::uint64_t, dtree::ThreeWayComparator<std::uint64_t>, 4>;
using DefaultTree = dtree::btree_set<std::uint64_t>;
using TupleTree = dtree::btree_set<Tuple<2>>;

TEST_P(ConcurrentInsert, DisjointRangesAllPresent) {
    const auto [threads, n] = GetParam();
    SmallTree t;
    parallel_blocks(n, threads, [&](unsigned, std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
            ASSERT_TRUE(t.insert(static_cast<std::uint64_t>(i)));
        }
    });
    ASSERT_EQ(t.size(), n);
    EXPECT_TRUE(t.check_invariants().empty()) << t.check_invariants();
    EXPECT_TRUE(std::is_sorted(t.begin(), t.end()));
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(t.contains(static_cast<std::uint64_t>(i))) << "missing " << i;
    }
}

TEST_P(ConcurrentInsert, InterleavedStridesAllPresent) {
    const auto [threads, n] = GetParam();
    SmallTree t;
    // Thread t inserts t, t+T, t+2T, ... — adjacent threads constantly target
    // the same leaves, maximising upgrade conflicts and restarts.
    run_threads(threads, [&](unsigned tid) {
        for (std::size_t i = tid; i < n; i += threads) {
            ASSERT_TRUE(t.insert(static_cast<std::uint64_t>(i)));
        }
    });
    ASSERT_EQ(t.size(), n);
    EXPECT_TRUE(t.check_invariants().empty()) << t.check_invariants();
}

TEST_P(ConcurrentInsert, OverlappingDuplicatesKeepSetSemantics) {
    const auto [threads, n] = GetParam();
    SmallTree t;
    std::atomic<std::size_t> successes{0};
    // Every thread inserts the SAME range; exactly n inserts must win.
    run_threads(threads, [&](unsigned) {
        std::size_t mine = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (t.insert(static_cast<std::uint64_t>(i))) ++mine;
        }
        successes.fetch_add(mine);
    });
    EXPECT_EQ(successes.load(), n) << "every value must be inserted exactly once";
    EXPECT_EQ(t.size(), n);
    EXPECT_TRUE(t.check_invariants().empty()) << t.check_invariants();
}

TEST_P(ConcurrentInsert, RandomInsertsMatchReference) {
    const auto [threads, n] = GetParam();
    DefaultTree t;
    // Pre-generate per-thread random values; build the reference set
    // sequentially afterwards.
    std::vector<std::vector<std::uint64_t>> per_thread(threads);
    for (unsigned tid = 0; tid < threads; ++tid) {
        dtree::util::Rng rng(1000 + tid);
        for (std::size_t i = 0; i < n / threads + 1; ++i) {
            per_thread[tid].push_back(
                dtree::util::uniform_int<std::uint64_t>(rng, 0, 4 * n));
        }
    }
    run_threads(threads, [&](unsigned tid) {
        for (auto v : per_thread[tid]) t.insert(v);
    });
    std::set<std::uint64_t> ref;
    for (const auto& vec : per_thread) ref.insert(vec.begin(), vec.end());
    ASSERT_EQ(t.size(), ref.size());
    EXPECT_TRUE(std::equal(t.begin(), t.end(), ref.begin(), ref.end()));
    EXPECT_TRUE(t.check_invariants().empty()) << t.check_invariants();
}

TEST_P(ConcurrentInsert, HintedParallelInsertsAreCorrect) {
    const auto [threads, n] = GetParam();
    TupleTree t;
    // Each thread inserts a sorted run of 2-D tuples with its own hint object
    // (hints are thread-local by contract).
    parallel_blocks(n, threads, [&](unsigned, std::size_t b, std::size_t e) {
        auto hints = t.create_hints();
        for (std::size_t i = b; i < e; ++i) {
            ASSERT_TRUE(t.insert(Tuple<2>{i / 64, i % 64}, hints));
        }
    });
    ASSERT_EQ(t.size(), n);
    EXPECT_TRUE(t.check_invariants().empty()) << t.check_invariants();
}

TEST_P(ConcurrentInsert, PhaseConcurrentReadAfterWritePhases) {
    const auto [threads, n] = GetParam();
    DefaultTree t;
    // Mimics semi-naïve evaluation: alternating parallel write-only and
    // read-only phases, separated by thread joins (the evaluator's barrier).
    const std::size_t rounds = 4;
    for (std::size_t r = 0; r < rounds; ++r) {
        parallel_blocks(n, threads, [&](unsigned, std::size_t b, std::size_t e) {
            auto hints = t.create_hints();
            for (std::size_t i = b; i < e; ++i) {
                t.insert(static_cast<std::uint64_t>(r * n + i), hints);
            }
        });
        // Read phase: all threads query everything written so far.
        parallel_blocks((r + 1) * n, threads, [&](unsigned, std::size_t b, std::size_t e) {
            auto hints = t.create_hints();
            for (std::size_t i = b; i < e; ++i) {
                ASSERT_TRUE(t.contains(static_cast<std::uint64_t>(i), hints));
            }
        });
    }
    EXPECT_EQ(t.size(), rounds * n);
}

// The same two-phase pattern on zero-padded Tuple<4> storage keys whose
// first column repeats, so compares tie on a prefix: the read phase's plain
// loads must answer contains / lower_bound / upper_bound exactly as std::set.
TEST_P(ConcurrentInsert, PhaseConcurrentTupleReadsMatchOracle) {
    const auto [threads, n] = GetParam();
    using Key = Tuple<4>;
    dtree::btree_set<Key> t;
    std::set<Key> oracle;
    // Distinct per i: (i * 5) % 8 permutes i % 8. Second columns are even,
    // so an odd one makes an absent probe between two present keys.
    const auto key = [](std::size_t i, std::uint64_t odd) {
        return Key{static_cast<std::uint64_t>(i / 8),
                   static_cast<std::uint64_t>((i * 5) % 8 * 2 + odd)};
    };
    const auto same = [&](dtree::btree_set<Key>::const_iterator it,
                          std::set<Key>::const_iterator ref) {
        if (ref == oracle.end()) return it == t.end();
        return it != t.end() && *it == *ref;
    };
    const std::size_t rounds = 4;
    for (std::size_t r = 0; r < rounds; ++r) {
        parallel_blocks(n, threads, [&](unsigned, std::size_t b, std::size_t e) {
            auto hints = t.create_hints();
            for (std::size_t i = b; i < e; ++i) t.insert(key(r * n + i, 0), hints);
        });
        for (std::size_t i = 0; i < n; ++i) oracle.insert(key(r * n + i, 0));
        // Read phase, one past the written range so end() answers appear.
        parallel_blocks((r + 1) * n + 8, threads,
                        [&](unsigned, std::size_t b, std::size_t e) {
            auto hints = t.create_hints();
            for (std::size_t i = b; i < e; ++i) {
                for (const std::uint64_t odd : {0u, 1u}) {
                    const Key k = key(i, odd);
                    ASSERT_EQ(t.contains(k, hints), oracle.count(k) == 1) << k;
                    ASSERT_TRUE(same(t.lower_bound(k, hints),
                                     oracle.lower_bound(k)))
                        << "lower_bound " << k;
                    ASSERT_TRUE(same(t.upper_bound(k, hints),
                                     oracle.upper_bound(k)))
                        << "upper_bound " << k;
                }
            }
        });
    }
    EXPECT_EQ(t.size(), oracle.size());
}

// Zipfian duplicate storm, no injection: every thread hammers the same few
// hot keys (s=1.2 over 600 ranks, scattered across leaves) with its own
// hints, so nearly every insert is a re-derivation racing the writers of the
// few genuinely new keys on the same leaves. Each distinct key must be
// reported new exactly once and the tree must equal the std::set oracle.
TEST_P(ConcurrentInsert, ZipfDuplicateStormMatchesSetOracle) {
    const auto [threads, n] = GetParam();
    SmallTree t;
    const dtree::util::Zipf zipf(600, 1.2);
    std::vector<std::vector<std::uint64_t>> per_thread(threads);
    std::set<std::uint64_t> oracle;
    for (unsigned tid = 0; tid < threads; ++tid) {
        dtree::util::Rng rng(2000 + tid);
        for (std::size_t i = 0; i < n / threads; ++i) {
            const std::uint64_t k = zipf(rng) * 2654435761ull;
            per_thread[tid].push_back(k);
            oracle.insert(k);
        }
    }
    std::atomic<std::size_t> wins{0};
    run_threads(threads, [&](unsigned tid) {
        auto hints = t.create_hints();
        std::size_t mine = 0;
        for (auto v : per_thread[tid]) {
            if (t.insert(v, hints)) ++mine;
        }
        wins.fetch_add(mine);
    });
    EXPECT_EQ(wins.load(), oracle.size())
        << "every distinct key must be reported new exactly once";
    ASSERT_EQ(t.size(), oracle.size());
    EXPECT_TRUE(std::equal(t.begin(), t.end(), oracle.begin(), oracle.end()));
    EXPECT_TRUE(t.check_invariants().empty()) << t.check_invariants();
}

// The same storm on Tuple<2> keys at the default block size: the hot keys
// share their first column in groups of seven, so every duplicate check
// that finds its key has compared past a tie on column 0.
TEST_P(ConcurrentInsert, ZipfDuplicateStormTupleKeys) {
    const auto [threads, n] = GetParam();
    TupleTree t;
    const dtree::util::Zipf zipf(600, 1.2);
    std::vector<std::vector<Tuple<2>>> per_thread(threads);
    std::set<Tuple<2>> oracle;
    for (unsigned tid = 0; tid < threads; ++tid) {
        dtree::util::Rng rng(3000 + tid);
        for (std::size_t i = 0; i < n / threads; ++i) {
            const std::uint64_t r = zipf(rng);
            const Tuple<2> k{r / 7, r * 2654435761ull};
            per_thread[tid].push_back(k);
            oracle.insert(k);
        }
    }
    std::atomic<std::size_t> wins{0};
    run_threads(threads, [&](unsigned tid) {
        auto hints = t.create_hints();
        std::size_t mine = 0;
        for (const auto& v : per_thread[tid]) {
            if (t.insert(v, hints)) ++mine;
        }
        wins.fetch_add(mine);
    });
    EXPECT_EQ(wins.load(), oracle.size())
        << "every distinct key must be reported new exactly once";
    ASSERT_EQ(t.size(), oracle.size());
    EXPECT_TRUE(std::equal(t.begin(), t.end(), oracle.begin(), oracle.end()));
    EXPECT_TRUE(t.check_invariants().empty()) << t.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConcurrentInsert,
    ::testing::Values(Params{2, 20000}, Params{4, 20000}, Params{8, 12000},
                      Params{16, 8000}),
    [](const ::testing::TestParamInfo<Params>& info) {
        return "t" + std::to_string(info.param.threads) + "_n" +
               std::to_string(info.param.n);
    });

// Root-creation race: many threads insert into an initially empty tree.
TEST(ConcurrentRoot, FirstInsertRaceIsSafe) {
    for (int round = 0; round < 20; ++round) {
        SmallTree t;
        std::atomic<std::size_t> wins{0};
        run_threads(8, [&](unsigned tid) {
            if (t.insert(static_cast<std::uint64_t>(tid % 4))) wins.fetch_add(1);
        });
        EXPECT_EQ(wins.load(), 4u);
        EXPECT_EQ(t.size(), 4u);
        EXPECT_TRUE(t.check_invariants().empty());
    }
}

// Stale hints pointing into an old region of the tree must never produce
// wrong results, only misses.
TEST(ConcurrentHints, StaleHintsAreHarmless) {
    DefaultTree t;
    auto hints = t.create_hints();
    for (std::uint64_t i = 0; i < 1000; ++i) t.insert(i, hints);
    // Another thread grows the tree massively, splitting the hinted leaf.
    run_threads(4, [&](unsigned tid) {
        auto h = t.create_hints();
        for (std::uint64_t i = 0; i < 20000; ++i) {
            t.insert(1000 + i * 4 + tid, h);
        }
    });
    // The original (now thoroughly stale) hint object still works.
    for (std::uint64_t i = 0; i < 1000; ++i) {
        EXPECT_FALSE(t.insert(i, hints));
        EXPECT_TRUE(t.contains(i, hints));
    }
}

// Long mixed-churn stress: duplicates, fresh keys, many threads, small nodes.
TEST(ConcurrentStress, MixedChurnKeepsInvariants) {
    SmallTree t;
    constexpr unsigned kThreads = 8;
    run_threads(kThreads, [&](unsigned tid) {
        dtree::util::Rng rng(tid * 7 + 1);
        auto hints = t.create_hints();
        for (int i = 0; i < 30000; ++i) {
            t.insert(dtree::util::uniform_int<std::uint64_t>(rng, 0, 50000), hints);
        }
    });
    EXPECT_TRUE(t.check_invariants().empty()) << t.check_invariants();
    // All values in [0, 50000] that were drawn are present; sortedness and
    // bound queries behave.
    EXPECT_TRUE(std::is_sorted(t.begin(), t.end()));
    auto it = t.lower_bound(0);
    ASSERT_NE(it, t.end());
}

} // namespace
