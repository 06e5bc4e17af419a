// Split policy (DESIGN.md §16): the right spine's append split and the
// spine-covered insert hint.
//
// Ascending, descending and sawtooth insert sweeps run on every tree
// configuration at BlockSize 3/4/5/16/default. Each sweep checks every
// insert verdict and the final iteration against a std::set oracle, and
// check_invariants() — which asserts the spine flag sits exactly on the last
// node of each level and that only spine nodes fall below the median-split
// minimum fill — every few inserts. Snapshot trees also pin a snapshot
// mid-sweep and re-read it at the end: the splits after the pin must not
// leak into its pre-split image. Ascending fills must leave nodes at least
// 85% full and hit the insert hint on at least 90% of the inserts.

#include "core/btree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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
/// spine: they keep the paper's median split (half-full nodes).
TEST(SplitPolicy, DescendingKeepsMedianSplit) {
    dtree::btree_set<Key, Cmp, 16> t;
    for (Key k : descending(20000)) t.insert(k);
    ASSERT_TRUE(t.check_invariants().empty()) << t.check_invariants();
    EXPECT_LT(fill(t), 0.6) << shape(t);
}

} // namespace
