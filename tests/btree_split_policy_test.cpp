// Split policy (DESIGN.md §16): the right spine's append split, the
// spine-covered insert hint, and leaf redistribution off the spine.
//
// Ascending, descending and sawtooth insert sweeps run on every tree
// configuration at BlockSize 3/4/5/16/default. Each sweep checks every
// insert verdict and the final iteration against a std::set oracle, and
// check_invariants() — which asserts the spine flag sits exactly on the last
// node of each level and that only spine nodes fall below the median-split
// minimum fill — every few inserts. Snapshot trees also pin a snapshot
// mid-sweep and re-read it at the end: the splits after the pin must not
// leak into its pre-split image. Ascending fills must leave nodes at least
// 85% full and hit the insert hint on at least 90% of the inserts. Random
// and interior-cluster sweeps overflow leaves off the spine, where keys
// rotate into a same-parent sibling before any split; random fills must
// leave nodes at least 78% full.

#include "core/btree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

namespace {

using Key = std::uint64_t;
using Cmp = dtree::ThreeWayComparator<Key>;
constexpr unsigned kDefault = dtree::detail::default_block_size<Key>();

template <typename TreeT>
class SplitPolicyTest : public ::testing::Test {};

using Trees = ::testing::Types<
    dtree::btree_set<Key, Cmp, 3>, dtree::btree_set<Key, Cmp, 4>,
    dtree::btree_set<Key, Cmp, 5>, dtree::btree_set<Key, Cmp, 16>,
    dtree::btree_set<Key, Cmp, kDefault>,
    dtree::seq_btree_set<Key, Cmp, 3>, dtree::seq_btree_set<Key, Cmp, 4>,
    dtree::seq_btree_set<Key, Cmp, 5>, dtree::seq_btree_set<Key, Cmp, 16>,
    dtree::seq_btree_set<Key, Cmp, kDefault>,
    dtree::snapshot_btree_set<Key, Cmp, 3>,
    dtree::snapshot_btree_set<Key, Cmp, 4>,
    dtree::snapshot_btree_set<Key, Cmp, 5>,
    dtree::snapshot_btree_set<Key, Cmp, 16>,
    dtree::snapshot_btree_set<Key, Cmp, kDefault>,
    dtree::fp_btree_set<Key, Cmp, 3>, dtree::fp_btree_set<Key, Cmp, 4>,
    dtree::fp_btree_set<Key, Cmp, 5>, dtree::fp_btree_set<Key, Cmp, 16>,
    dtree::fp_btree_set<Key, Cmp, kDefault>>;
TYPED_TEST_SUITE(SplitPolicyTest, Trees);

constexpr std::size_t kSweep = 6000;

std::vector<Key> ascending(std::size_t n) {
    std::vector<Key> out;
    for (std::size_t i = 0; i < n; ++i) out.push_back(3 * i + 7);
    return out;
}

std::vector<Key> descending(std::size_t n) {
    std::vector<Key> out = ascending(n);
    std::reverse(out.begin(), out.end());
    return out;
}

/// Ascending teeth that interleave with the earlier ones: tooth r inserts
/// r, r + T, r + 2T, ... So every tooth after the first appends inside
/// existing leaves — including past the last key of leaves off the spine,
/// the case the append split must NOT bias — while each tooth's tail
/// appends on the spine again.
std::vector<Key> sawtooth(std::size_t n) {
    constexpr std::size_t kTeeth = 6;
    std::vector<Key> out;
    for (std::size_t r = 0; r < kTeeth; ++r) {
        for (std::size_t j = r; j < n; j += kTeeth) {
            out.push_back(static_cast<Key>(j * kTeeth + (kTeeth - 1 - r)));
        }
    }
    return out;
}

/// A fixed-seed permutation of ascending(n).
std::vector<Key> random_order(std::size_t n) {
    std::vector<Key> out = ascending(n);
    std::mt19937_64 rng(12345);
    std::shuffle(out.begin(), out.end(), rng);
    return out;
}

/// Dense clusters dropped into the gaps of a sparse base: each cluster
/// fills one interior key range, so leaves deep inside the tree overflow
/// again and again, both at their first and at their last child slot.
std::vector<Key> interior_clusters(std::size_t n) {
    std::vector<Key> out;
    const std::size_t base = n / 4;
    for (std::size_t i = 0; i < base; ++i) out.push_back(1000 * i);
    const std::size_t per = 25;
    for (std::size_t c = 0; out.size() < n; ++c) {
        const Key lo = 1000 * ((c * 37) % base) + 1;
        for (std::size_t j = 0; j < per && out.size() < n; ++j) {
            out.push_back(lo + (c % 2 ? per - j : j) * 3);
        }
    }
    return out;
}

template <typename TreeT>
std::string shape(const TreeT& t) {
    const auto s = t.stats();
    return std::to_string(s.elements) + " keys in " +
           std::to_string(s.leaf_nodes) + " leaves + " +
           std::to_string(s.inner_nodes) + " inner";
}

/// Keys per node slot: elements / (nodes * BlockSize).
template <typename TreeT>
double fill(const TreeT& t) {
    const auto s = t.stats();
    return static_cast<double>(s.elements) /
           (static_cast<double>(s.leaf_nodes + s.inner_nodes) *
            TreeT::block_size);
}

template <typename TreeT>
std::vector<Key> contents(const TreeT& t) {
    return std::vector<Key>(t.begin(), t.end());
}

/// Point-inserts `keys` with one hints object, checking verdicts against
/// the oracle and the invariants every `every` inserts; snapshot trees pin
/// a snapshot at the midpoint and re-read it at the end.
template <typename TreeT>
void sweep(const std::vector<Key>& keys, std::size_t every) {
    TreeT t;
    auto h = t.create_hints();
    std::set<Key> oracle;
    // Snapshot handles exist only on snapshot trees.
    std::conditional_t<TreeT::with_snapshots,
                       std::vector<typename TreeT::Snapshot>, std::vector<int>>
        pins;
    std::vector<std::vector<Key>> pinned;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_EQ(t.insert(keys[i], h), oracle.insert(keys[i]).second)
            << "insert #" << i << " of " << keys[i];
        if ((i + 1) % every == 0) {
            const std::string err = t.check_invariants();
            ASSERT_TRUE(err.empty()) << "after insert #" << i << ": " << err;
        }
        if constexpr (TreeT::with_snapshots) {
            if (i == keys.size() / 2) {
                t.advance_epoch();
                pins.push_back(t.snapshot());
                pinned.emplace_back(oracle.begin(), oracle.end());
            }
        }
    }
    const std::string err = t.check_invariants();
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(contents(t), std::vector<Key>(oracle.begin(), oracle.end()));
    if constexpr (TreeT::with_snapshots) {
        ASSERT_EQ(pins.size(), 1u);
        std::vector<Key> seen;
        pins[0].for_each([&](Key k) { seen.push_back(k); });
        EXPECT_EQ(seen, pinned[0]) << "mid-sweep pin lost its pre-split image";
    }
}

TYPED_TEST(SplitPolicyTest, AscendingSweep) {
    sweep<TypeParam>(ascending(kSweep), 97);
}

TYPED_TEST(SplitPolicyTest, DescendingSweep) {
    sweep<TypeParam>(descending(kSweep), 97);
}

TYPED_TEST(SplitPolicyTest, SawtoothSweep) {
    sweep<TypeParam>(sawtooth(kSweep), 97);
}

TYPED_TEST(SplitPolicyTest, RandomSweep) {
    sweep<TypeParam>(random_order(kSweep), 97);
}

TYPED_TEST(SplitPolicyTest, InteriorClusterSweep) {
    sweep<TypeParam>(interior_clusters(kSweep), 97);
}

/// Random inserts rotate keys into siblings before splitting: at B >= 16
/// nodes end up at least 78% full (median splits alone leave ~69%).
TYPED_TEST(SplitPolicyTest, RandomFill) {
    TypeParam t;
    auto h = t.create_hints();
    for (Key k : random_order(20000)) t.insert(k, h);
    ASSERT_TRUE(t.check_invariants().empty()) << t.check_invariants();
    if constexpr (TypeParam::block_size >= 16) {
        EXPECT_GE(fill(t), 0.78) << shape(t);
    }
}

/// Random sorted runs merged into the middle of the tree (the delta->full
/// rotation of a relation that grows everywhere).
TYPED_TEST(SplitPolicyTest, RandomBulkRuns) {
    TypeParam t;
    auto h = t.create_hints();
    std::set<Key> oracle;
    const std::vector<Key> keys = random_order(kSweep);
    constexpr std::size_t kRun = 53;
    for (std::size_t i = 0; i < keys.size(); i += kRun) {
        std::vector<Key> run(keys.begin() + i,
                             keys.begin() + std::min(keys.size(), i + kRun));
        std::sort(run.begin(), run.end());
        oracle.insert(run.begin(), run.end());
        ASSERT_EQ(t.insert_sorted_run(run.begin(), run.end(), h), run.size());
        if ((i / kRun) % 8 == 7) {
            const std::string err = t.check_invariants();
            ASSERT_TRUE(err.empty()) << err;
        }
    }
    const std::string err = t.check_invariants();
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(contents(t), std::vector<Key>(oracle.begin(), oracle.end()));
}

/// Sorted bulk runs (the delta->full merge) of an ascending stream: every
/// run lands past the current maximum.
TYPED_TEST(SplitPolicyTest, AscendingBulkRuns) {
    TypeParam t;
    auto h = t.create_hints();
    const std::vector<Key> keys = ascending(kSweep);
    constexpr std::size_t kRun = 37;
    for (std::size_t i = 0; i < keys.size(); i += kRun) {
        const std::size_t end = std::min(keys.size(), i + kRun);
        ASSERT_EQ(t.insert_sorted_run(keys.begin() + i, keys.begin() + end, h),
                  end - i);
    }
    const std::string err = t.check_invariants();
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(contents(t), keys);
}

/// Interleaved bulk runs: each run merges into the middle of the tree,
/// past the last key of leaves off the spine.
TYPED_TEST(SplitPolicyTest, SawtoothBulkRuns) {
    TypeParam t;
    auto h = t.create_hints();
    std::set<Key> oracle;
    const std::vector<Key> keys = sawtooth(kSweep);
    constexpr std::size_t kRun = 41;
    for (std::size_t i = 0; i < keys.size(); i += kRun) {
        std::vector<Key> run(keys.begin() + i,
                             keys.begin() + std::min(keys.size(), i + kRun));
        std::sort(run.begin(), run.end());
        oracle.insert(run.begin(), run.end());
        t.insert_sorted_run(run.begin(), run.end(), h);
        if ((i / kRun) % 8 == 7) {
            const std::string err = t.check_invariants();
            ASSERT_TRUE(err.empty()) << err;
        }
    }
    const std::string err = t.check_invariants();
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(contents(t), std::vector<Key>(oracle.begin(), oracle.end()));
}

/// Ascending point inserts fill nodes to BlockSize-2 keys on every level,
/// and every append after the first hits the insert hint.
TYPED_TEST(SplitPolicyTest, AscendingFillAndHintHits) {
    TypeParam t;
    auto h = t.create_hints();
    const std::vector<Key> keys = ascending(20000);
    for (Key k : keys) t.insert(k, h);
    ASSERT_TRUE(t.check_invariants().empty()) << t.check_invariants();
    const auto& st = h.stats;
    const auto ins = static_cast<unsigned>(dtree::HintKind::Insert);
    const double hit_ratio =
        static_cast<double>(st.hits[ins]) / (st.hits[ins] + st.misses[ins]);
    EXPECT_GE(hit_ratio, 0.9) << st.hits[ins] << " hits, " << st.misses[ins]
                              << " misses";
    if constexpr (TypeParam::block_size >= 16) {
        // BlockSize-2 of BlockSize slots per node, less the partly filled
        // spine: 0.875 at B = 16.
        EXPECT_GE(fill(t), 0.85) << shape(t);
    }
}

TYPED_TEST(SplitPolicyTest, AscendingBulkFill) {
    TypeParam t;
    auto h = t.create_hints();
    const std::vector<Key> keys = ascending(20000);
    for (std::size_t i = 0; i < keys.size(); i += 100) {
        t.insert_sorted_run(keys.begin() + i, keys.begin() + i + 100, h);
    }
    ASSERT_TRUE(t.check_invariants().empty()) << t.check_invariants();
    if constexpr (TypeParam::block_size >= 16) {
        EXPECT_GE(fill(t), 0.85) << shape(t);
    }
}

/// Appends after a packed load, a move and a clear: from_sorted marks the
/// last node per level, and moved or cleared trees keep a consistent spine.
TYPED_TEST(SplitPolicyTest, SpineSurvivesPackedLoadMoveAndClear) {
    const std::vector<Key> base = ascending(3000);
    TypeParam t = TypeParam::from_sorted(base.begin(), base.end());
    ASSERT_TRUE(t.check_invariants().empty()) << t.check_invariants();
    auto h = t.create_hints();
    for (Key k = 20000; k < 21000; ++k) t.insert(k, h);
    ASSERT_TRUE(t.check_invariants().empty()) << t.check_invariants();

    TypeParam moved(std::move(t));
    auto hm = moved.create_hints();
    for (Key k = 30000; k < 30500; ++k) moved.insert(k, hm);
    ASSERT_TRUE(moved.check_invariants().empty()) << moved.check_invariants();
    EXPECT_EQ(moved.size(), base.size() + 1500);

    moved.clear();
    hm.reset();
    for (Key k = 0; k < 500; ++k) moved.insert(k, hm);
    ASSERT_TRUE(moved.check_invariants().empty()) << moved.check_invariants();
    EXPECT_EQ(moved.size(), 500u);
}

/// Descending inserts grow the tree at its left edge, away from the
/// spine: each full first leaf rotates keys into its right sibling before
/// it splits, so its nodes end up nearly full, not half full.
TEST(SplitPolicy, DescendingRotatesIntoSiblings) {
    dtree::btree_set<Key, Cmp, 16> t;
    for (Key k : descending(20000)) t.insert(k);
    ASSERT_TRUE(t.check_invariants().empty()) << t.check_invariants();
    EXPECT_GE(fill(t), 0.85) << shape(t);
}

/// The rotation at the edges of one parent, at B = 4. After 10..50 the
/// tree is root [30] over leaves [10 20] and the spine leaf [40 50]. Then
/// 11, 12 fill the first leaf, which has no left sibling; 13 overflows it
/// and rotates 20 (the old separator goes down) into the spine leaf
/// instead of splitting. On the leaf-v2 tree the spine leaf carries a live
/// append zone (45 after 50) when it receives.
template <typename TreeT>
class EdgeRotation : public ::testing::Test {};
using EdgeTrees = ::testing::Types<
    dtree::btree_set<Key, Cmp, 4>, dtree::seq_btree_set<Key, Cmp, 4>,
    dtree::snapshot_btree_set<Key, Cmp, 4>, dtree::fp_btree_set<Key, Cmp, 4>>;
TYPED_TEST_SUITE(EdgeRotation, EdgeTrees);

TYPED_TEST(EdgeRotation, FirstLeafIntoSpineLeaf) {
    TypeParam t;
    for (Key k : {10, 20, 30, 40, 50}) ASSERT_TRUE(t.insert(k));
    ASSERT_EQ(t.stats().leaf_nodes, 2u);
    std::vector<Key> expect = {10, 11, 12, 13, 20, 30, 40, 50};
    if constexpr (TypeParam::with_fingerprints) {
        ASSERT_TRUE(t.insert(45)); // unsorted append-zone slot
        expect.insert(expect.begin() + 7, 45);
    }
    std::conditional_t<TypeParam::with_snapshots,
                       std::vector<typename TypeParam::Snapshot>,
                       std::vector<int>>
        pins;
    const std::vector<Key> before = contents(t);
    if constexpr (TypeParam::with_snapshots) {
        t.advance_epoch();
        pins.push_back(t.snapshot());
    }
    for (Key k : {11, 12, 13}) ASSERT_TRUE(t.insert(k));
    EXPECT_EQ(t.stats().leaf_nodes, 2u) << "the overflow split instead of "
                                           "rotating into the spine leaf";
    ASSERT_TRUE(t.check_invariants().empty()) << t.check_invariants();
    EXPECT_EQ(contents(t), expect);
    for (Key k : expect) EXPECT_TRUE(t.contains(k)) << k;
    if constexpr (TypeParam::with_snapshots) {
        std::vector<Key> seen;
        pins[0].for_each([&](Key k) { seen.push_back(k); });
        EXPECT_EQ(seen, before) << "the pin saw the rotation";
    }
}

/// The last leaf under a parent that is not on the spine has no right
/// sibling there: an overflow rotates left. Built at B = 4 on a tree of
/// depth 3; the check_invariants separator bounds catch a wrong parent
/// key.
TYPED_TEST(EdgeRotation, LastChildOffSpineRotatesLeft) {
    TypeParam t;
    std::set<Key> oracle;
    for (Key k = 1; k <= 200; ++k) {
        t.insert(k * 100);
        oracle.insert(k * 100);
    }
    ASSERT_GE(t.stats().depth, 3u);
    // Fill the gap below every key: where that key is a separator, the
    // gap is the tail of the leaf left of it, including leaves that end
    // their parent.
    for (Key k = 1; k <= 200; ++k) {
        for (Key j = 1; j <= 3; ++j) {
            t.insert(k * 100 - j);
            oracle.insert(k * 100 - j);
        }
        ASSERT_TRUE(t.check_invariants().empty())
            << "after gap " << k << ": " << t.check_invariants();
    }
    EXPECT_EQ(contents(t), std::vector<Key>(oracle.begin(), oracle.end()));
}

} // namespace
