// Operation-hint statistics coverage (core/hints.h + btree operation_hints):
// hits and misses must be attributed to the right HintKind for each of the
// four hinted operations, and reset() must detach a hints object safely
// after clear() invalidates every cached leaf.

#include "core/btree.h"
#include "core/hints.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace {

using dtree::HintKind;
using dtree::HintStats;

// Block size 16 with at most 15 keys keeps the whole tree in one leaf, so
// hint cover checks are exactly predictable. That leaf is the root, hence
// the right spine's last leaf: it covers [keys[0], +inf), so only keys below
// its first key miss.
using Tree = dtree::btree_set<std::uint64_t,
                              dtree::ThreeWayComparator<std::uint64_t>, 16>;

std::uint64_t hits(const HintStats& s, HintKind k) {
    return s.hits[static_cast<unsigned>(k)];
}
std::uint64_t misses(const HintStats& s, HintKind k) {
    return s.misses[static_cast<unsigned>(k)];
}

TEST(HintStatsTest, InsertHitsAndMissesPerKind) {
    Tree t;
    auto h = t.create_hints();

    // Root creation: the hint slot is empty (cold), which counts as a miss —
    // hits + misses must equal the number of hinted operations (Table 2's
    // hit-rate denominator).
    EXPECT_TRUE(t.insert(10, h));
    EXPECT_EQ(hits(h.stats, HintKind::Insert), 0u);
    EXPECT_EQ(misses(h.stats, HintKind::Insert), 1u);

    // 5 is below the cached leaf's [10, +inf) range: a miss.
    EXPECT_TRUE(t.insert(5, h));
    EXPECT_EQ(misses(h.stats, HintKind::Insert), 2u);

    // 20 falls inside [5, +inf): a hit.
    EXPECT_TRUE(t.insert(20, h));
    EXPECT_EQ(hits(h.stats, HintKind::Insert), 1u);

    // Duplicate re-insert of a covered key: a hit that returns false.
    EXPECT_FALSE(t.insert(20, h));
    EXPECT_EQ(hits(h.stats, HintKind::Insert), 2u);
    EXPECT_EQ(misses(h.stats, HintKind::Insert), 2u);

    // An append past the last key: the spine leaf covers it, a hit.
    EXPECT_TRUE(t.insert(30, h));
    EXPECT_EQ(hits(h.stats, HintKind::Insert), 3u);
    EXPECT_EQ(misses(h.stats, HintKind::Insert), 2u);

    // Insert counters must not leak into the query kinds.
    EXPECT_EQ(hits(h.stats, HintKind::Contains), 0u);
    EXPECT_EQ(hits(h.stats, HintKind::Lower), 0u);
    EXPECT_EQ(hits(h.stats, HintKind::Upper), 0u);
}

TEST(HintStatsTest, ContainsHitsAndMisses) {
    Tree t;
    auto h = t.create_hints();
    for (std::uint64_t k : {10, 20, 30}) t.insert(k, h);

    auto q = t.create_hints(); // fresh hints: first query must traverse
    EXPECT_TRUE(t.contains(20, q));
    EXPECT_EQ(hits(q.stats, HintKind::Contains), 0u);
    EXPECT_EQ(misses(q.stats, HintKind::Contains), 1u) << "cold slot is a miss";

    // Now the leaf is cached; covered keys are hits whether present or not.
    EXPECT_TRUE(t.contains(10, q));
    EXPECT_EQ(hits(q.stats, HintKind::Contains), 1u);
    EXPECT_FALSE(t.contains(25, q)) << "covered but absent";
    EXPECT_EQ(hits(q.stats, HintKind::Contains), 2u);

    // Above the last key: the spine leaf still covers it, a hit.
    EXPECT_FALSE(t.contains(99, q));
    EXPECT_EQ(hits(q.stats, HintKind::Contains), 3u);

    // Below the leaf range: a miss.
    EXPECT_FALSE(t.contains(5, q));
    EXPECT_EQ(misses(q.stats, HintKind::Contains), 2u);

    EXPECT_EQ(hits(q.stats, HintKind::Insert), 0u)
        << "queries must not touch the insert counters";
}

TEST(HintStatsTest, LowerBoundHitsAndMisses) {
    Tree t;
    auto h = t.create_hints();
    for (std::uint64_t k : {10, 20, 30}) t.insert(k, h);

    auto q = t.create_hints();
    EXPECT_EQ(*t.lower_bound(15, q), 20u); // cold slot: traversal, a miss
    EXPECT_EQ(hits(q.stats, HintKind::Lower), 0u);
    EXPECT_EQ(misses(q.stats, HintKind::Lower), 1u);

    EXPECT_EQ(*t.lower_bound(15, q), 20u); // [10, 30] covers 15: hit
    EXPECT_EQ(hits(q.stats, HintKind::Lower), 1u);
    EXPECT_EQ(*t.lower_bound(30, q), 30u); // boundary is covered
    EXPECT_EQ(hits(q.stats, HintKind::Lower), 2u);

    EXPECT_EQ(t.lower_bound(35, q), t.end()); // beyond the leaf: miss
    EXPECT_EQ(misses(q.stats, HintKind::Lower), 2u);
}

TEST(HintStatsTest, UpperBoundHitsAndMisses) {
    Tree t;
    auto h = t.create_hints();
    for (std::uint64_t k : {10, 20, 30}) t.insert(k, h);

    auto q = t.create_hints();
    EXPECT_EQ(*t.upper_bound(15, q), 20u); // cold slot: traversal, a miss
    EXPECT_EQ(hits(q.stats, HintKind::Upper), 0u);
    EXPECT_EQ(misses(q.stats, HintKind::Upper), 1u);

    EXPECT_EQ(*t.upper_bound(10, q), 20u); // 10 in [10, 30): hit
    EXPECT_EQ(hits(q.stats, HintKind::Upper), 1u);

    // upper_bound needs k < max key for the answer to be leaf-local, so the
    // maximum itself is a miss (the strictly-greater element may be absent).
    EXPECT_EQ(t.upper_bound(30, q), t.end());
    EXPECT_EQ(misses(q.stats, HintKind::Upper), 2u);
}

TEST(HintStatsTest, AggregationAndRate) {
    HintStats a, b;
    a.hit(HintKind::Insert);
    a.hit(HintKind::Lower);
    a.miss(HintKind::Upper);
    b.hit(HintKind::Contains);
    b.miss(HintKind::Contains);
    a += b;
    EXPECT_EQ(a.total_hits(), 3u);
    EXPECT_EQ(a.total_misses(), 2u);
    EXPECT_DOUBLE_EQ(a.hit_rate(), 3.0 / 5.0);
    EXPECT_DOUBLE_EQ(HintStats{}.hit_rate(), 0.0) << "empty stats: rate 0";
}

// clear() frees every node, so cached leaves dangle; reset() must detach the
// hints object so subsequent hinted operations traverse fresh instead of
// dereferencing freed memory (run under ASan via scripts/check.sh).
TEST(HintStatsTest, ResetDetachesSafelyAfterClear) {
    Tree t;
    auto h = t.create_hints();
    for (std::uint64_t k = 0; k < 12; ++k) t.insert(k, h);
    EXPECT_TRUE(t.contains(5, h));
    EXPECT_NE(t.lower_bound(3, h), t.end());
    EXPECT_NE(t.upper_bound(3, h), t.end());

    t.clear();
    h.reset();

    EXPECT_TRUE(t.empty());
    EXPECT_FALSE(t.contains(5, h));
    EXPECT_TRUE(t.insert(5, h));
    EXPECT_TRUE(t.contains(5, h));
    EXPECT_EQ(*t.lower_bound(0, h), 5u);

    // The stats survive the reset (only the cached leaves are dropped).
    EXPECT_GT(h.stats.total_hits() + h.stats.total_misses(), 0u);
}

} // namespace
