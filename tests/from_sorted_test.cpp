// Bulk-load (from_sorted) coverage at packed-capacity boundaries: for every
// depth d the builder can choose, exercise exactly packed_capacity(d) - 1,
// packed_capacity(d), and packed_capacity(d) + 1 keys — the +1 case is the
// first input that forces depth d+1, so these sizes pin down the depth
// selection and the children-splitting arithmetic of build_packed at the
// points where an off-by-one would flip the tree shape.
//
// packed_capacity is private; the recurrence is re-derived here (nodes are
// filled to BlockSize - 1 keys): cap(0) = B-1, cap(d) = (B-1) + B * cap(d-1).

#include "core/btree.h"
#include "core/tuple.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace {

using dtree::Tuple;

constexpr std::size_t packed_capacity(unsigned block_size, unsigned depth) {
    std::size_t cap = block_size - 1;
    for (unsigned d = 0; d < depth; ++d) {
        cap = (block_size - 1) + block_size * cap;
    }
    return cap;
}

template <typename Tree, typename KeyFn>
void check_bulk_load(std::size_t n, KeyFn&& key_of) {
    std::vector<typename Tree::key_type> keys(n);
    for (std::size_t i = 0; i < n; ++i) keys[i] = key_of(i);
    auto t = Tree::from_sorted(keys.begin(), keys.end());
    ASSERT_EQ(t.check_invariants(), "") << "n=" << n;
    ASSERT_EQ(t.size(), n) << "n=" << n;
    ASSERT_TRUE(std::equal(t.begin(), t.end(), keys.begin(), keys.end()))
        << "iteration order broken at n=" << n;
}

// BlockSize 3 keeps capacities tiny (2, 8, 26, 80), so depths 0-3 and all
// three boundary sizes around each are cheap to sweep exhaustively.
TEST(FromSortedBoundary, TinyBlockAllDepths) {
    using Tree =
        dtree::btree_set<std::uint64_t, dtree::ThreeWayComparator<std::uint64_t>, 3>;
    for (unsigned depth = 0; depth <= 3; ++depth) {
        const std::size_t cap = packed_capacity(3, depth);
        for (std::size_t n : {cap - 1, cap, cap + 1}) {
            SCOPED_TRACE("depth=" + std::to_string(depth) + " n=" + std::to_string(n));
            check_bulk_load<Tree>(n, [](std::size_t i) { return i * 2; });
        }
    }
}

// The default block size for 16-byte tuples (32 keys/node): depths 0-2 at
// the same three boundary sizes. Depth 2's cap + 1 (32768 keys) is the first
// input that needs a depth-3 tree, covering the "default" configuration the
// benches run with. (Full depth-3 capacity is ~1M keys — the +1 probe above
// already exercises the depth-3 builder without paying for a full tree.)
TEST(FromSortedBoundary, DefaultBlockTupleKeys) {
    using Tree = dtree::btree_set<Tuple<2>>;
    const unsigned B = Tree::block_size;
    ASSERT_EQ(B, 32u) << "default block size for Tuple<2> changed; update test";
    for (unsigned depth = 0; depth <= 2; ++depth) {
        const std::size_t cap = packed_capacity(B, depth);
        for (std::size_t n : {cap - 1, cap, cap + 1}) {
            SCOPED_TRACE("depth=" + std::to_string(depth) + " n=" + std::to_string(n));
            check_bulk_load<Tree>(n, [](std::size_t i) {
                return Tuple<2>{i / 450, i % 450};
            });
        }
    }
}

// A bulk-loaded tree at an exact capacity boundary must stay fully
// functional for hinted queries and follow-up splits.
TEST(FromSortedBoundary, BoundaryTreesAcceptInserts) {
    using Tree =
        dtree::btree_set<std::uint64_t, dtree::ThreeWayComparator<std::uint64_t>, 3>;
    const std::size_t cap = packed_capacity(3, 2); // 26 keys, depth 2
    std::vector<std::uint64_t> keys(cap);
    for (std::size_t i = 0; i < cap; ++i) keys[i] = i * 2;
    auto t = Tree::from_sorted(keys.begin(), keys.end());
    auto h = t.create_hints();
    for (std::size_t i = 0; i < cap; ++i) {
        EXPECT_TRUE(t.contains(i * 2, h));
        EXPECT_TRUE(t.insert(i * 2 + 1, h));
    }
    EXPECT_EQ(t.size(), 2 * cap);
    EXPECT_EQ(t.check_invariants(), "");
}

} // namespace
