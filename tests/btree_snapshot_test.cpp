// Linearizability tests for the epoch/snapshot layer (DESIGN.md §11): a
// Snapshot pinned at boundary B must equal an oracle of the tree's contents
// at pin time — byte-for-byte, in order — no matter what happens to the tree
// afterwards: point inserts, bulk insert_sorted_run, splits all the way to
// root replacement, concurrent writer teams, epoch advances, and
// move-assignment. Typed over BlockSize 3/4/5/default, per the §11
// retention argument (small nodes maximise CoW images and root-version chain
// depth), and over u64 keys and the Tuple<4> key the Datalog serve path
// stores (multi-column compares, ties on the leading columns).

#include "core/btree.h"
#include "core/tuple.h"
#include "util/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <random>
#include <set>
#include <thread>
#include <type_traits>
#include <vector>

namespace {

using dtree::ThreeWayComparator;

using Quad = dtree::Tuple<4>;

template <unsigned B>
using SnapSet = dtree::snapshot_btree_set<std::uint64_t,
                                          ThreeWayComparator<std::uint64_t>, B>;
template <unsigned B>
using SnapQuad = dtree::snapshot_btree_set<Quad, ThreeWayComparator<Quad>, B>;

using Configs = ::testing::Types<
    SnapSet<3>, SnapSet<4>, SnapSet<5>, dtree::snapshot_btree_set<std::uint64_t>,
    SnapQuad<3>, SnapQuad<4>, SnapQuad<5>, dtree::snapshot_btree_set<Quad>>;

template <typename T>
class SnapshotTest : public ::testing::Test {
protected:
    using Tree = T;
    using Key = typename Tree::key_type;
    using Oracle = std::set<Key>;

    /// Order-preserving, injective key for the integer `v`: itself for u64
    /// trees; for Tuple<4> trees the leading columns split v coarsely, so
    /// neighbouring keys tie on them and compares reach the later columns.
    static Key key(std::uint64_t v) {
        if constexpr (std::is_same_v<Key, Quad>) {
            return Quad{v >> 6, (v >> 3) & 7, v & 7, v};
        } else {
            return v;
        }
    }

    static std::vector<Key> drain(const typename Tree::Snapshot& s) {
        std::vector<Key> out;
        s.for_each([&](const Key& k) { out.push_back(k); });
        return out;
    }

    static std::vector<Key> expect(const Oracle& o) {
        return std::vector<Key>(o.begin(), o.end());
    }

    /// The §11 oracle check: the snapshot's full-range iteration equals the
    /// oracle's sorted contents exactly, and a replay is identical (the
    /// snapshot is a pure function of its boundary).
    static void assert_matches(const typename Tree::Snapshot& s,
                               const Oracle& o, const char* what) {
        const auto got = drain(s);
        const auto want = expect(o);
        ASSERT_EQ(got.size(), want.size()) << what;
        ASSERT_EQ(got, want) << what;
        ASSERT_EQ(drain(s), got) << what << " (replay differs)";
    }
};

TYPED_TEST_SUITE(SnapshotTest, Configs);

TYPED_TEST(SnapshotTest, EmptyTreeAndBoundarySemantics) {
    using Tree = typename TestFixture::Tree;
    Tree t;
    EXPECT_EQ(t.epoch(), 1u);
    const auto s0 = t.snapshot();
    EXPECT_TRUE(s0.valid());
    EXPECT_EQ(s0.size(), 0u);

    // Mutations of the CURRENT epoch are invisible until the next advance.
    for (std::uint64_t k = 0; k < 50; ++k) t.insert(TestFixture::key(k));
    const auto s1 = t.snapshot(); // same boundary as s0
    EXPECT_EQ(s1.size(), 0u);
    EXPECT_FALSE(s1.contains(TestFixture::key(7)));

    t.advance_epoch();
    const auto s2 = t.snapshot();
    EXPECT_EQ(s2.size(), 50u);
    EXPECT_TRUE(s2.contains(TestFixture::key(7)));
    EXPECT_EQ(s0.size(), 0u) << "old pin must stay empty";
    EXPECT_TRUE(t.check_invariants().empty()) << t.check_invariants();
}

TYPED_TEST(SnapshotTest, PointInsertsAfterPinDoNotLeakIn) {
    using Tree = typename TestFixture::Tree;
    using Oracle = typename TestFixture::Oracle;
    Tree t;
    Oracle oracle;
    std::mt19937_64 rng(42);
    for (int i = 0; i < 600; ++i) {
        const auto k = TestFixture::key(rng() % 500);
        if (t.insert(k)) oracle.insert(k);
    }
    t.advance_epoch();
    const auto snap = t.snapshot();

    // Writes after the pin: interleaved keys that split the pinned leaves.
    for (int i = 0; i < 2000; ++i) t.insert(TestFixture::key(rng() % 100000 + 1000));
    this->assert_matches(snap, oracle, "point inserts after pin");
    EXPECT_TRUE(t.check_invariants().empty()) << t.check_invariants();
}

TYPED_TEST(SnapshotTest, BulkSortedRunAfterPinDoesNotLeakIn) {
    using Tree = typename TestFixture::Tree;
    using Oracle = typename TestFixture::Oracle;
    Tree t;
    Oracle oracle;
    for (std::uint64_t k = 0; k < 400; ++k) {
        t.insert(TestFixture::key(k * 3)); // gaps for the run to land in
        oracle.insert(TestFixture::key(k * 3));
    }
    t.advance_epoch();
    const auto snap = t.snapshot();

    std::vector<typename TestFixture::Key> run;
    for (std::uint64_t k = 0; k < 2000; ++k) run.push_back(TestFixture::key(k));
    t.insert_sorted_run(run.begin(), run.end());
    this->assert_matches(snap, oracle, "bulk run after pin");

    t.advance_epoch();
    const auto after = t.snapshot();
    EXPECT_EQ(after.size(), t.size());
}

TYPED_TEST(SnapshotTest, SplitsIncludingRootReplacement) {
    using Tree = typename TestFixture::Tree;
    using Oracle = typename TestFixture::Oracle;
    Tree t;
    Oracle oracle;
    // Tiny pinned tree: every later insert forces splits near the pinned
    // structure, including multiple root replacements at BlockSize 3.
    for (std::uint64_t k = 0; k < 8; ++k) {
        t.insert(TestFixture::key(k * 1000));
        oracle.insert(TestFixture::key(k * 1000));
    }
    t.advance_epoch();
    const auto snap = t.snapshot();

    for (std::uint64_t k = 0; k < 5000; ++k) t.insert(TestFixture::key(k));
    this->assert_matches(snap, oracle, "splits after pin");
    EXPECT_TRUE(t.check_invariants().empty()) << t.check_invariants();
}

TYPED_TEST(SnapshotTest, ManyEpochsManyPins) {
    using Tree = typename TestFixture::Tree;
    using Oracle = typename TestFixture::Oracle;
    Tree t;
    std::vector<typename Tree::Snapshot> pins;
    std::vector<Oracle> oracles;
    Oracle live;
    std::mt19937_64 rng(7);
    for (int round = 0; round < 12; ++round) {
        for (int i = 0; i < 300; ++i) {
            const auto k = TestFixture::key(rng() % 4000);
            if (t.insert(k)) live.insert(k);
        }
        t.advance_epoch();
        pins.push_back(t.snapshot());
        oracles.push_back(live);
    }
    for (std::size_t i = 0; i < pins.size(); ++i) {
        this->assert_matches(pins[i], oracles[i], "historical pin");
    }
    const auto st = t.snap_stats();
    EXPECT_EQ(st.advances, 12u);
    EXPECT_GE(st.pins, 12u);
    EXPECT_GT(st.cow_images, 0u);
    EXPECT_GT(st.retained_bytes, 0u);
}

TYPED_TEST(SnapshotTest, FindLowerBoundAndHalfOpenRange) {
    using Tree = typename TestFixture::Tree;
    using Key = typename TestFixture::Key;
    const auto K = &TestFixture::key;
    Tree t;
    for (std::uint64_t k = 0; k < 100; ++k) t.insert(K(k * 10));
    t.advance_epoch();
    const auto snap = t.snapshot();
    for (std::uint64_t k = 0; k < 2000; ++k) t.insert(K(k)); // dense overwrite

    EXPECT_TRUE(snap.contains(K(500)));
    EXPECT_FALSE(snap.contains(K(501)));
    ASSERT_TRUE(snap.find(K(990)).has_value());
    EXPECT_EQ(*snap.find(K(990)), K(990));
    ASSERT_TRUE(snap.lower_bound(K(985)).has_value());
    EXPECT_EQ(*snap.lower_bound(K(985)), K(990));
    // 991..: nothing in the PINNED view, even though the live tree now has
    // the dense 0..1999 run.
    EXPECT_FALSE(snap.lower_bound(K(991)).has_value());

    // [lo, hi) — hi itself excluded even when present in the snapshot.
    std::vector<Key> got;
    snap.for_each_in_range(K(200), K(250), [&](const Key& k) {
        got.push_back(k);
    });
    EXPECT_EQ(got, (std::vector<Key>{K(200), K(210), K(220), K(230), K(240)}));
}

TYPED_TEST(SnapshotTest, MoveAssignmentRetainsPinnedContent) {
    using Tree = typename TestFixture::Tree;
    using Oracle = typename TestFixture::Oracle;
    Tree t;
    Oracle oracle;
    for (std::uint64_t k = 0; k < 300; ++k) {
        t.insert(TestFixture::key(k));
        oracle.insert(TestFixture::key(k));
    }
    t.advance_epoch();
    const auto snap = t.snapshot();

    // Replace the tree wholesale (the Relation bulk-rebuild path:
    // from_sorted_stream -> move-assign -> steal()).
    std::vector<typename TestFixture::Key> run;
    for (std::uint64_t k = 10000; k < 14000; ++k) run.push_back(TestFixture::key(k));
    t = Tree::from_sorted_stream(run.begin(), run.end(), run.size());

    this->assert_matches(snap, oracle, "pin across move-assignment");

    t.advance_epoch();
    const auto fresh = t.snapshot();
    EXPECT_EQ(fresh.size(), run.size());
    EXPECT_TRUE(fresh.contains(TestFixture::key(10000)));
    EXPECT_FALSE(fresh.contains(TestFixture::key(0)));
}

TYPED_TEST(SnapshotTest, ConcurrentWritersEpochTickerPinnedOracle) {
    using Tree = typename TestFixture::Tree;
    using Oracle = typename TestFixture::Oracle;
    const unsigned writers = dtree::util::env_threads(8);
    Tree t;
    Oracle oracle;
    std::mt19937_64 seed_rng(99);
    for (int i = 0; i < 1500; ++i) {
        const auto k = TestFixture::key(seed_rng() % 100000);
        if (t.insert(k)) oracle.insert(k);
    }
    t.advance_epoch();
    const auto pinned = t.snapshot();
    const auto want = this->expect(oracle);

    // Writers + an epoch ticker run while the pinned snapshot is iterated
    // repeatedly from this thread; >= 1 advance is guaranteed by the ticker
    // joining after at least one tick (the ISSUE acceptance shape).
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> advances{0};
    std::thread ticker([&] {
        while (!stop.load(std::memory_order_acquire)) {
            t.advance_epoch();
            advances.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::yield();
        }
    });
    std::thread reader([&] {
        // Concurrent independent pins must each replay identically.
        while (!stop.load(std::memory_order_acquire)) {
            const auto s = t.snapshot();
            const auto a = TestFixture::drain(s);
            const auto b = TestFixture::drain(s);
            if (a != b) {
                ADD_FAILURE() << "concurrent pin replay differs";
                return;
            }
        }
    });
    dtree::util::run_threads(writers, [&](unsigned tid) {
        std::mt19937_64 rng(1000 + tid);
        for (int i = 0; i < 20000; ++i) {
            t.insert(TestFixture::key(rng() % 1000000));
        }
    });
    stop.store(true, std::memory_order_release);
    ticker.join();
    reader.join();

    EXPECT_GE(advances.load(), 1u);
    const auto got = TestFixture::drain(pinned);
    ASSERT_EQ(got, want) << "pinned snapshot diverged from pin-time oracle";
    ASSERT_EQ(TestFixture::drain(pinned), got) << "replay differs";
    EXPECT_TRUE(t.check_invariants().empty()) << t.check_invariants();
}

// -- image reclamation (DESIGN.md §11) ---------------------------------------
// advance_epoch() frees every arena chunk whose images serve only boundaries
// older than the oldest live pin. These pin an old boundary across hundreds
// of advances (splits, root growth, newer pins coming and going) and check
// its reads never change, then check that nothing is retained once no pin
// needs it.

using GcTree = SnapSet<3>;
constexpr std::size_t kChunk = dtree::RetainArena::kChunkBytes;

/// Every read surface of `s` against its pin-time oracle.
void expect_reads_match(const GcTree::Snapshot& s,
                        const std::set<std::uint64_t>& oracle,
                        std::uint64_t key_space, const char* what) {
    std::vector<std::uint64_t> got;
    s.for_each([&](const std::uint64_t& k) { got.push_back(k); });
    ASSERT_EQ(got, std::vector<std::uint64_t>(oracle.begin(), oracle.end()))
        << what;
    // Probes: a sample of stored keys (hits) plus a stride over the key
    // space (mostly misses, answered by lower_bound's successor).
    std::vector<std::uint64_t> probes;
    for (std::size_t i = 0; i < got.size(); i += 41) probes.push_back(got[i]);
    for (std::uint64_t k = 0; k < key_space; k += 8191) probes.push_back(k);
    for (const std::uint64_t k : probes) {
        const auto f = s.find(k);
        ASSERT_EQ(f.has_value(), oracle.count(k) == 1) << what << " find " << k;
        const auto lb = s.lower_bound(k);
        const auto want = oracle.lower_bound(k);
        ASSERT_EQ(lb.has_value(), want != oracle.end()) << what << " lb " << k;
        if (lb) {
            ASSERT_EQ(*lb, *want) << what << " lb " << k;
        }
    }
}

TEST(SnapshotGc, OldPinSurvivesManyAdvances) {
    constexpr std::uint64_t kSpace = 1u << 22;
    GcTree t;
    std::set<std::uint64_t> live;
    std::mt19937_64 rng(2024);
    auto insert_some = [&](int n) {
        for (int i = 0; i < n; ++i) {
            const std::uint64_t k = rng() % kSpace;
            if (t.insert(k)) live.insert(k);
        }
    };
    // Unpinned history first: its images must all be reclaimed.
    for (int round = 0; round < 20; ++round) {
        insert_some(500);
        t.advance_epoch();
    }
    insert_some(20000);
    t.advance_epoch();

    auto old_pin = t.snapshot();
    const std::set<std::uint64_t> old_oracle = live;
    // A burst in the pinned epoch itself: images tagged exactly with the
    // pinned boundary, enough of them to fill whole chunks.
    insert_some(20000);

    std::vector<std::pair<GcTree::Snapshot, std::set<std::uint64_t>>> newer;
    for (int round = 0; round < 220; ++round) {
        insert_some(round % 10 == 0 ? 3000 : 200);
        t.advance_epoch();
        if (round % 7 == 0) newer.emplace_back(t.snapshot(), live);
        if (round % 11 == 0 && !newer.empty()) {
            expect_reads_match(newer.front().first, newer.front().second,
                               kSpace, "newer pin");
            newer.erase(newer.begin());
        }
        if (round == 100) {
            // Hand the old pin through a copy and a move: the registration
            // must follow the handle.
            GcTree::Snapshot copy = old_pin;
            old_pin = GcTree::Snapshot();
            old_pin = std::move(copy);
            EXPECT_FALSE(copy.valid()); // NOLINT(bugprone-use-after-move)
        }
        if (round % 20 == 0) {
            expect_reads_match(old_pin, old_oracle, kSpace, "old pin");
        }
    }
    expect_reads_match(old_pin, old_oracle, kSpace, "old pin at end");
    for (const auto& [s, o] : newer) expect_reads_match(s, o, kSpace, "newer");
    EXPECT_TRUE(t.check_invariants().empty()) << t.check_invariants();

    const auto held = t.snap_stats();
    EXPECT_GT(held.retained_bytes, 4 * kChunk)
        << "the old pin should be holding many chunks";
    newer.clear();
    old_pin = GcTree::Snapshot();
    t.advance_epoch();
    const auto st = t.snap_stats();
    EXPECT_LE(st.retained_bytes, kChunk);
    EXPECT_GT(st.cow_bytes, 8 * kChunk);
    EXPECT_EQ(st.cow_images, held.cow_images);
}

TEST(SnapshotGc, UnpinnedTreeStaysBounded) {
    GcTree t;
    std::mt19937_64 rng(5);
    std::size_t peak = 0;
    for (int round = 0; round < 1000; ++round) {
        for (int i = 0; i < 100; ++i) t.insert(rng() % 1000000);
        t.advance_epoch();
        peak = std::max(peak, t.snap_stats().retained_bytes);
    }
    const auto st = t.snap_stats();
    EXPECT_LE(peak, kChunk);
    EXPECT_GT(st.cow_bytes, 8 * kChunk) << "too few images to span chunks";
    t.advance_epoch();
    const auto fresh = t.snapshot();
    EXPECT_EQ(fresh.size(), t.size());
}

// Tuple keys through the snapshot layer (the Relation storage shape).
TEST(SnapshotTupleKeys, RangeOnTuples) {
    dtree::snapshot_btree_set<dtree::Tuple<2>> t;
    for (std::uint64_t a = 0; a < 20; ++a) {
        for (std::uint64_t b = 0; b < 20; ++b) t.insert({a, b});
    }
    t.advance_epoch();
    const auto snap = t.snapshot();
    for (std::uint64_t a = 20; a < 60; ++a) t.insert({a, a});

    std::size_t n = 0;
    snap.for_each_in_range({5, 0}, {6, 0},
                           [&](const dtree::Tuple<2>& tp) {
                               EXPECT_EQ(tp[0], 5u);
                               ++n;
                           });
    EXPECT_EQ(n, 20u);
    EXPECT_EQ(snap.size(), 400u);
}

} // namespace
