// Basic single-threaded behaviour of the specialized B-tree: STL-set-like
// semantics for insert / find / bounds / iteration, exercised via typed
// tests for the concurrent and the sequential instantiation, and for the
// fingerprint (leaf layout v2) and snapshot trees, whose clear / destructor /
// move paths free nodes the same way.

#include "core/btree.h"
#include "core/tuple.h"
#include "util/parallel.h"
#include "util/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace {

using dtree::Tuple;

// Small block size to force deep trees quickly; also the default size.
template <typename T>
class BTreeBasicTest : public ::testing::Test {};

using Configs = ::testing::Types<
    dtree::btree_set<std::uint64_t>,
    dtree::seq_btree_set<std::uint64_t>,
    dtree::btree_set<std::uint64_t, dtree::ThreeWayComparator<std::uint64_t>, 3>,
    dtree::seq_btree_set<std::uint64_t, dtree::ThreeWayComparator<std::uint64_t>, 3>,
    dtree::btree_set<std::uint64_t, dtree::ThreeWayComparator<std::uint64_t>, 8,
                     dtree::detail::LinearSearch>,
    dtree::btree_set<Tuple<2>>,
    dtree::seq_btree_set<Tuple<2>>,
    dtree::btree_set<Tuple<2>, dtree::ThreeWayComparator<Tuple<2>>, 4>,
    dtree::fp_btree_set<std::uint64_t>,
    dtree::fp_btree_set<std::uint64_t, dtree::ThreeWayComparator<std::uint64_t>, 3>,
    dtree::fp_btree_set<Tuple<2>>,
    dtree::snapshot_btree_set<std::uint64_t>,
    dtree::snapshot_btree_set<Tuple<2>, dtree::ThreeWayComparator<Tuple<2>>, 3>>;

TYPED_TEST_SUITE(BTreeBasicTest, Configs);

template <typename Tree>
typename Tree::key_type make_key(std::uint64_t v) {
    using K = typename Tree::key_type;
    if constexpr (std::is_same_v<K, Tuple<2>>) {
        return K{v / 97, v % 97};
    } else {
        return static_cast<K>(v);
    }
}

TYPED_TEST(BTreeBasicTest, EmptyTree) {
    TypeParam t;
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.begin(), t.end());
    EXPECT_FALSE(t.contains(make_key<TypeParam>(42)));
    EXPECT_EQ(t.find(make_key<TypeParam>(42)), t.end());
    EXPECT_EQ(t.lower_bound(make_key<TypeParam>(0)), t.end());
    EXPECT_EQ(t.upper_bound(make_key<TypeParam>(0)), t.end());
    EXPECT_TRUE(t.check_invariants().empty());
}

TYPED_TEST(BTreeBasicTest, SingleInsert) {
    TypeParam t;
    auto k = make_key<TypeParam>(7);
    EXPECT_TRUE(t.insert(k));
    EXPECT_FALSE(t.empty());
    EXPECT_EQ(t.size(), 1u);
    EXPECT_TRUE(t.contains(k));
    EXPECT_EQ(*t.begin(), k);
    EXPECT_EQ(*t.find(k), k);
    EXPECT_TRUE(t.check_invariants().empty());
}

TYPED_TEST(BTreeBasicTest, DuplicateInsertRejected) {
    TypeParam t;
    auto k = make_key<TypeParam>(7);
    EXPECT_TRUE(t.insert(k));
    EXPECT_FALSE(t.insert(k));
    EXPECT_EQ(t.size(), 1u);
}

TYPED_TEST(BTreeBasicTest, OrderedInsertMatchesStdSet) {
    TypeParam t;
    std::set<typename TypeParam::key_type> ref;
    for (std::uint64_t i = 0; i < 5000; ++i) {
        auto k = make_key<TypeParam>(i);
        EXPECT_EQ(t.insert(k), ref.insert(k).second);
    }
    ASSERT_EQ(t.size(), ref.size());
    EXPECT_TRUE(std::equal(t.begin(), t.end(), ref.begin(), ref.end()));
    EXPECT_TRUE(t.check_invariants().empty()) << t.check_invariants();
}

TYPED_TEST(BTreeBasicTest, RandomInsertMatchesStdSet) {
    TypeParam t;
    std::set<typename TypeParam::key_type> ref;
    dtree::util::Rng rng(12345);
    for (int i = 0; i < 5000; ++i) {
        auto k = make_key<TypeParam>(dtree::util::uniform_int<std::uint64_t>(rng, 0, 2000));
        EXPECT_EQ(t.insert(k), ref.insert(k).second);
    }
    ASSERT_EQ(t.size(), ref.size());
    EXPECT_TRUE(std::equal(t.begin(), t.end(), ref.begin(), ref.end()));
    EXPECT_TRUE(t.check_invariants().empty()) << t.check_invariants();
}

TYPED_TEST(BTreeBasicTest, ReverseOrderedInsert) {
    TypeParam t;
    for (std::uint64_t i = 3000; i-- > 0;) {
        ASSERT_TRUE(t.insert(make_key<TypeParam>(i)));
    }
    EXPECT_EQ(t.size(), 3000u);
    EXPECT_TRUE(t.check_invariants().empty()) << t.check_invariants();
    EXPECT_TRUE(std::is_sorted(t.begin(), t.end()));
}

TYPED_TEST(BTreeBasicTest, FindAllInserted) {
    TypeParam t;
    dtree::util::Rng rng(99);
    std::vector<std::uint64_t> vals;
    for (int i = 0; i < 2000; ++i) {
        vals.push_back(dtree::util::uniform_int<std::uint64_t>(rng, 0, 1'000'000));
    }
    for (auto v : vals) t.insert(make_key<TypeParam>(v));
    for (auto v : vals) {
        EXPECT_TRUE(t.contains(make_key<TypeParam>(v)));
    }
    // Keys never inserted (out of value range) are absent.
    for (std::uint64_t v = 2'000'000; v < 2'000'100; ++v) {
        EXPECT_FALSE(t.contains(make_key<TypeParam>(v)));
    }
}

TYPED_TEST(BTreeBasicTest, LowerUpperBoundMatchStdSet) {
    TypeParam t;
    std::set<typename TypeParam::key_type> ref;
    dtree::util::Rng rng(7);
    for (int i = 0; i < 3000; ++i) {
        auto k = make_key<TypeParam>(dtree::util::uniform_int<std::uint64_t>(rng, 0, 5000));
        t.insert(k);
        ref.insert(k);
    }
    for (std::uint64_t probe = 0; probe <= 5200; probe += 13) {
        auto k = make_key<TypeParam>(probe);
        auto lb_ref = ref.lower_bound(k);
        auto lb = t.lower_bound(k);
        if (lb_ref == ref.end()) {
            EXPECT_EQ(lb, t.end()) << "probe " << probe;
        } else {
            ASSERT_NE(lb, t.end()) << "probe " << probe;
            EXPECT_EQ(*lb, *lb_ref) << "probe " << probe;
        }
        auto ub_ref = ref.upper_bound(k);
        auto ub = t.upper_bound(k);
        if (ub_ref == ref.end()) {
            EXPECT_EQ(ub, t.end()) << "probe " << probe;
        } else {
            ASSERT_NE(ub, t.end()) << "probe " << probe;
            EXPECT_EQ(*ub, *ub_ref) << "probe " << probe;
        }
    }
}

TYPED_TEST(BTreeBasicTest, IterationIsSortedAndComplete) {
    TypeParam t;
    dtree::util::Rng rng(3);
    std::set<typename TypeParam::key_type> ref;
    for (int i = 0; i < 4000; ++i) {
        auto k = make_key<TypeParam>(dtree::util::uniform_int<std::uint64_t>(rng, 0, 100'000));
        t.insert(k);
        ref.insert(k);
    }
    std::vector<typename TypeParam::key_type> seen(t.begin(), t.end());
    EXPECT_EQ(seen.size(), ref.size());
    EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
    EXPECT_TRUE(std::equal(seen.begin(), seen.end(), ref.begin(), ref.end()));
}

TYPED_TEST(BTreeBasicTest, ClearEmptiesTree) {
    TypeParam t;
    for (std::uint64_t i = 0; i < 1000; ++i) t.insert(make_key<TypeParam>(i));
    t.clear();
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.size(), 0u);
    // Tree is reusable after clear.
    EXPECT_TRUE(t.insert(make_key<TypeParam>(1)));
    EXPECT_EQ(t.size(), 1u);
}

TYPED_TEST(BTreeBasicTest, MoveConstructionTransfersContents) {
    TypeParam a;
    for (std::uint64_t i = 0; i < 500; ++i) a.insert(make_key<TypeParam>(i));
    TypeParam b(std::move(a));
    EXPECT_EQ(b.size(), 500u);
    EXPECT_TRUE(a.empty()); // NOLINT(bugprone-use-after-move): documented state
    EXPECT_TRUE(b.contains(make_key<TypeParam>(499)));
}

TYPED_TEST(BTreeBasicTest, HintedOperationsAgreeWithUnhinted) {
    TypeParam t;
    auto hints = t.create_hints();
    for (std::uint64_t i = 0; i < 3000; ++i) {
        ASSERT_TRUE(t.insert(make_key<TypeParam>(i), hints));
    }
    EXPECT_EQ(t.size(), 3000u);
    // Re-inserting everything must be rejected, hinted or not.
    for (std::uint64_t i = 0; i < 3000; ++i) {
        EXPECT_FALSE(t.insert(make_key<TypeParam>(i), hints));
    }
    EXPECT_EQ(t.size(), 3000u);
    auto qhints = t.create_hints();
    for (std::uint64_t i = 0; i < 3000; ++i) {
        EXPECT_TRUE(t.contains(make_key<TypeParam>(i), qhints));
        EXPECT_NE(t.lower_bound(make_key<TypeParam>(i), qhints), t.end());
        EXPECT_NE(t.upper_bound(make_key<TypeParam>(0), qhints), t.end());
    }
    EXPECT_TRUE(t.check_invariants().empty()) << t.check_invariants();
}

// Hint hit-rate characteristics (default block size only; tiny nodes make
// leaves too small for locality to pay off, which is why the paper runs with
// wide nodes). Duplicate re-insertion — the dominant Datalog pattern — and
// ordered queries must mostly skip the traversal; strictly-ascending fresh
// inserts mostly cannot (the paper observes the same in Fig. 3a/b: insert
// hints do not amortise in that micro-benchmark).
TEST(BTreeHints, HitRatesOnDatalogLikePatterns) {
    dtree::btree_set<std::uint64_t> t;
    auto hints = t.create_hints();
    for (std::uint64_t i = 0; i < 20000; ++i) ASSERT_TRUE(t.insert(i, hints));

    auto dup_hints = t.create_hints();
    for (std::uint64_t i = 0; i < 20000; ++i) ASSERT_FALSE(t.insert(i, dup_hints));
    EXPECT_GT(dup_hints.stats.hit_rate(), 0.8) << "duplicate re-inserts should hit";

    auto q_hints = t.create_hints();
    for (std::uint64_t i = 0; i < 20000; ++i) ASSERT_TRUE(t.contains(i, q_hints));
    EXPECT_GT(q_hints.stats.hit_rate(), 0.8) << "ordered queries should hit";

    auto b_hints = t.create_hints();
    for (std::uint64_t i = 0; i + 1 < 20000; ++i) {
        ASSERT_EQ(*t.lower_bound(i, b_hints), i);
        ASSERT_EQ(*t.upper_bound(i, b_hints), i + 1);
    }
    EXPECT_GT(b_hints.stats.hit_rate(), 0.8) << "ordered bound queries should hit";
}

TYPED_TEST(BTreeBasicTest, InsertAllMergesTrees) {
    TypeParam a, b;
    for (std::uint64_t i = 0; i < 1000; ++i) a.insert(make_key<TypeParam>(2 * i));
    for (std::uint64_t i = 0; i < 1000; ++i) b.insert(make_key<TypeParam>(2 * i + 1));
    a.insert_all(b);
    EXPECT_EQ(a.size(), 2000u);
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    EXPECT_TRUE(a.check_invariants().empty()) << a.check_invariants();
}

TYPED_TEST(BTreeBasicTest, StatsReportPlausibleShape) {
    TypeParam t;
    for (std::uint64_t i = 0; i < 10000; ++i) t.insert(make_key<TypeParam>(i));
    auto s = t.stats();
    EXPECT_EQ(s.elements, 10000u);
    EXPECT_GT(s.leaf_nodes, 0u);
    EXPECT_GT(s.depth, 1u);
    EXPECT_GT(s.memory_bytes, 10000u * sizeof(typename TypeParam::key_type));
}

// -- bulk load (from_sorted) -------------------------------------------------

TEST(BulkLoad, EveryShapeSatisfiesInvariants) {
    // Sweep sizes across multiple node-size boundaries for small blocks.
    for (std::size_t n = 0; n <= 700; ++n) {
        std::vector<std::uint64_t> keys(n);
        for (std::size_t i = 0; i < n; ++i) keys[i] = i * 2;
        auto t = dtree::btree_set<std::uint64_t, dtree::ThreeWayComparator<std::uint64_t>,
                                  4>::from_sorted(keys.begin(), keys.end());
        ASSERT_EQ(t.check_invariants(), "") << "n=" << n << ": " << t.check_invariants();
        ASSERT_EQ(t.size(), n);
        ASSERT_TRUE(std::equal(t.begin(), t.end(), keys.begin(), keys.end())) << "n=" << n;
    }
}

TEST(BulkLoad, TinyBlockSizeShapes) {
    for (std::size_t n = 0; n <= 300; ++n) {
        std::vector<std::uint64_t> keys(n);
        for (std::size_t i = 0; i < n; ++i) keys[i] = i;
        auto t = dtree::btree_set<std::uint64_t, dtree::ThreeWayComparator<std::uint64_t>,
                                  3>::from_sorted(keys.begin(), keys.end());
        ASSERT_EQ(t.check_invariants(), "") << "n=" << n;
        ASSERT_EQ(t.size(), n);
    }
}

TEST(BulkLoad, LargeDefaultBlock) {
    std::vector<dtree::Tuple<2>> keys;
    for (std::uint64_t i = 0; i < 200000; ++i) keys.push_back(dtree::Tuple<2>{i / 450, i % 450});
    auto t = dtree::btree_set<dtree::Tuple<2>>::from_sorted(keys.begin(), keys.end());
    EXPECT_EQ(t.check_invariants(), "");
    EXPECT_EQ(t.size(), keys.size());
    EXPECT_TRUE(std::equal(t.begin(), t.end(), keys.begin(), keys.end()));
    // Packed: clearly fewer nodes than incremental random insertion's ~66%.
    const auto s = t.stats();
    EXPECT_GT(static_cast<double>(s.elements) /
                  static_cast<double>((s.leaf_nodes + s.inner_nodes) *
                                      decltype(t)::block_size),
              0.85);
}

TEST(BulkLoad, TreeRemainsFullyFunctional) {
    std::vector<std::uint64_t> keys;
    for (std::uint64_t i = 0; i < 10000; ++i) keys.push_back(i * 3);
    auto t = dtree::btree_set<std::uint64_t>::from_sorted(keys.begin(), keys.end());
    // Queries.
    EXPECT_TRUE(t.contains(2997));
    EXPECT_FALSE(t.contains(2998));
    EXPECT_EQ(*t.lower_bound(100), 102u);
    // Follow-up inserts (hinted) keep working and splitting correctly.
    auto hints = t.create_hints();
    for (std::uint64_t i = 0; i < 10000; ++i) EXPECT_TRUE(t.insert(i * 3 + 1, hints));
    EXPECT_EQ(t.size(), 20000u);
    EXPECT_EQ(t.check_invariants(), "");
    // Concurrent follow-up inserts too.
    dtree::util::parallel_blocks(10000, 4, [&](unsigned, std::size_t b, std::size_t e) {
        auto h = t.create_hints();
        for (std::size_t i = b; i < e; ++i) t.insert(i * 3 + 2, h);
    });
    EXPECT_EQ(t.size(), 30000u);
    EXPECT_EQ(t.check_invariants(), "");
}

// The default block size must scale with key size but never drop below 3.
TEST(BTreeConfig, DefaultBlockSizes) {
    EXPECT_GE(dtree::detail::default_block_size<std::uint64_t>(), 32u);
    EXPECT_GE(dtree::detail::default_block_size<Tuple<2>>(), 16u);
    struct Huge {
        char data[4096];
    };
    EXPECT_EQ(dtree::detail::default_block_size<Huge>(), 3u);
}

} // namespace
