// Sorted bulk-merge suite (compiled with DATATREE_METRICS).
//
// The contract under test: insert_sorted_run must leave the tree in EXACTLY
// the state the naive point-insert loop produces — byte-identical iteration
// order and intact structural invariants — across the plain, sequential,
// snapshot and fingerprint trees, node sizes from the minimum to the
// default, and overlapping/disjoint/interleaved/weakly-sorted key ranges.
// On snapshot trees a pin taken before the merge must still read the
// pre-merge contents (the serve commit path). On top of equivalence, the
// suite pins down the
// three behaviours the bulk path exists for: the unconditional from_sorted
// validation (regression: it used to be assert-only and vanished in release
// builds), the amortisation (hint/probe counts collapse versus the point
// loop, asserted through the metrics registry), and the run/key counters.

#include "core/btree.h"
#include "util/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

namespace {

namespace metrics = dtree::metrics;
using Counter = metrics::Counter;

template <typename Tree>
std::vector<std::uint64_t> contents(const Tree& t) {
    std::vector<std::uint64_t> out;
    for (auto it = t.begin(); it != t.end(); ++it) out.push_back(*it);
    return out;
}

/// Naive reference: one hinted point insert per key.
template <typename Tree>
void point_insert_all(Tree& t, const std::vector<std::uint64_t>& keys) {
    auto h = t.create_hints();
    for (const auto k : keys) t.insert(k, h);
}

/// Key-range shapes the merge has to survive: the run entirely above /
/// below / interleaved with / duplicating the destination, and a weakly
/// sorted run whose equal neighbours must be deduplicated.
std::vector<std::vector<std::uint64_t>> run_shapes() {
    std::vector<std::vector<std::uint64_t>> shapes;
    // Disjoint above.
    {
        std::vector<std::uint64_t> v;
        for (std::uint64_t k = 10000; k < 10400; ++k) v.push_back(k);
        shapes.push_back(v);
    }
    // Disjoint below.
    {
        std::vector<std::uint64_t> v;
        for (std::uint64_t k = 0; k < 400; ++k) v.push_back(k);
        shapes.push_back(v);
    }
    // Interleaved with the destination's odd keys.
    {
        std::vector<std::uint64_t> v;
        for (std::uint64_t k = 1000; k < 1800; k += 2) v.push_back(k);
        shapes.push_back(v);
    }
    // Fully overlapping (every key a duplicate of the destination).
    {
        std::vector<std::uint64_t> v;
        for (std::uint64_t k = 1001; k < 1800; k += 2) v.push_back(k);
        shapes.push_back(v);
    }
    // Weakly sorted (runs of equal keys).
    {
        std::vector<std::uint64_t> v;
        for (std::uint64_t k = 500; k < 900; ++k) {
            v.push_back(k / 3);
        }
        shapes.push_back(v);
    }
    return shapes;
}

/// Destination seeded with the odd keys of [1001, 1800) plus a block far
/// above, so bounds, separators and duplicates all come into play.
std::vector<std::uint64_t> dest_keys() {
    std::vector<std::uint64_t> v;
    for (std::uint64_t k = 1001; k < 1800; k += 2) v.push_back(k);
    for (std::uint64_t k = 20000; k < 20200; ++k) v.push_back(k);
    return v;
}

template <typename Tree>
void check_equivalence() {
    for (const auto& run : run_shapes()) {
        Tree bulk, naive;
        point_insert_all(bulk, dest_keys());
        point_insert_all(naive, dest_keys());
        const auto before = contents(bulk);
        std::conditional_t<Tree::with_snapshots, typename Tree::Snapshot, int>
            pin{};
        if constexpr (Tree::with_snapshots) {
            bulk.advance_epoch();
            pin = bulk.snapshot();
        }

        auto h = bulk.create_hints();
        bulk.insert_sorted_run(run.begin(), run.end(), h);
        point_insert_all(naive, run);

        ASSERT_EQ(bulk.check_invariants(), "");
        ASSERT_EQ(contents(bulk), contents(naive))
            << "bulk merge diverged from the point-insert loop";
        ASSERT_EQ(bulk.size(), naive.size());
        if constexpr (Tree::with_snapshots) {
            std::vector<std::uint64_t> pinned;
            pin.for_each([&](const std::uint64_t& k) { pinned.push_back(k); });
            ASSERT_EQ(pinned, before) << "the merge leaked into an older pin";
            bulk.advance_epoch();
            std::vector<std::uint64_t> fresh;
            bulk.snapshot().for_each(
                [&](const std::uint64_t& k) { fresh.push_back(k); });
            ASSERT_EQ(fresh, contents(naive)) << "a new pin misses the merge";
        }
    }
}

template <unsigned B>
using SetB = dtree::btree_set<std::uint64_t,
                              dtree::ThreeWayComparator<std::uint64_t>, B>;
template <unsigned B>
using SeqSetB = dtree::seq_btree_set<std::uint64_t,
                                     dtree::ThreeWayComparator<std::uint64_t>, B>;
template <unsigned B>
using SnapB = dtree::snapshot_btree_set<std::uint64_t,
                                        dtree::ThreeWayComparator<std::uint64_t>, B>;
template <unsigned B>
using FpB = dtree::fp_btree_set<std::uint64_t,
                                dtree::ThreeWayComparator<std::uint64_t>, B>;

TEST(BulkMergeEquivalence, SetBlock3) { check_equivalence<SetB<3>>(); }
TEST(BulkMergeEquivalence, SetBlock4) { check_equivalence<SetB<4>>(); }
TEST(BulkMergeEquivalence, SetBlock5) { check_equivalence<SetB<5>>(); }
TEST(BulkMergeEquivalence, SetDefault) {
    check_equivalence<dtree::btree_set<std::uint64_t>>();
}
TEST(BulkMergeEquivalence, SeqSetBlock3) { check_equivalence<SeqSetB<3>>(); }
TEST(BulkMergeEquivalence, SeqSetBlock5) { check_equivalence<SeqSetB<5>>(); }
TEST(BulkMergeEquivalence, SeqSetDefault) {
    check_equivalence<dtree::seq_btree_set<std::uint64_t>>();
}
TEST(BulkMergeEquivalence, SnapshotBlock3) { check_equivalence<SnapB<3>>(); }
TEST(BulkMergeEquivalence, SnapshotBlock4) { check_equivalence<SnapB<4>>(); }
TEST(BulkMergeEquivalence, SnapshotBlock5) { check_equivalence<SnapB<5>>(); }
TEST(BulkMergeEquivalence, FpBlock3) { check_equivalence<FpB<3>>(); }
TEST(BulkMergeEquivalence, FpBlock4) { check_equivalence<FpB<4>>(); }

TEST(BulkMergeEquivalence, EmptyDestinationUsesRootInit) {
    std::vector<std::uint64_t> run;
    for (std::uint64_t k = 0; k < 5000; k += 3) run.push_back(k);
    SetB<4> bulk;
    dtree::seq_btree_set<std::uint64_t> seq_bulk;
    auto h1 = bulk.create_hints();
    auto h2 = seq_bulk.create_hints();
    EXPECT_EQ(bulk.insert_sorted_run(run.begin(), run.end(), h1), run.size());
    EXPECT_EQ(seq_bulk.insert_sorted_run(run.begin(), run.end(), h2), run.size());
    EXPECT_EQ(bulk.check_invariants(), "");
    EXPECT_EQ(seq_bulk.check_invariants(), "");
    EXPECT_EQ(contents(bulk), run);
    EXPECT_EQ(contents(seq_bulk), run);
}

TEST(BulkMergeEquivalence, UnsortedInputDegradesButStaysCorrect) {
    // insert_sorted_run documents graceful degradation on unsorted input:
    // out-of-order keys just terminate segments. Result must still match.
    std::mt19937_64 rng(7);
    std::vector<std::uint64_t> keys(3000);
    for (auto& k : keys) k = rng() % 5000;
    SetB<4> bulk, naive;
    auto h = bulk.create_hints();
    bulk.insert_sorted_run(keys.begin(), keys.end(), h);
    point_insert_all(naive, keys);
    EXPECT_EQ(bulk.check_invariants(), "");
    EXPECT_EQ(contents(bulk), contents(naive));
}

TEST(BulkMergeEquivalence, ReturnsFreshKeyCount) {
    std::vector<std::uint64_t> run{1, 2, 3, 4, 5, 6};
    SetB<4> t;
    t.insert(2);
    t.insert(4);
    auto h = t.create_hints();
    EXPECT_EQ(t.insert_sorted_run(run.begin(), run.end(), h), 4u);
    EXPECT_EQ(t.size(), 6u);
}

// -- concurrent bulk runs ----------------------------------------------------

TEST(BulkMergeConcurrent, ParallelRunsMatchOracle) {
    // T threads bulk-merge interleaved sorted slices into one tree while it
    // already holds every multiple of 7 — exercising concurrent leaf fills,
    // bulk splits, and root growth under contention.
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kSpace = 40000;
    SetB<4> tree;
    std::vector<std::uint64_t> oracle;
    {
        auto h = tree.create_hints();
        for (std::uint64_t k = 0; k < kSpace; k += 7) tree.insert(k, h);
    }
    std::vector<std::vector<std::uint64_t>> slices(kThreads);
    for (std::uint64_t k = 0; k < kSpace; ++k) {
        slices[k % kThreads].push_back(k);
        oracle.push_back(k);
    }
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&tree, &slices, t] {
            auto h = tree.create_hints();
            tree.insert_sorted_run(slices[t].begin(), slices[t].end(), h);
        });
    }
    for (auto& w : workers) w.join();
    ASSERT_EQ(tree.check_invariants(), "");
    EXPECT_EQ(contents(tree), oracle);
}

TEST(BulkMergeConcurrent, MixedBulkAndPointInserts) {
    constexpr std::uint64_t kSpace = 20000;
    SetB<5> tree;
    std::vector<std::uint64_t> bulk_keys, point_keys;
    for (std::uint64_t k = 0; k < kSpace; ++k) {
        (k % 2 ? bulk_keys : point_keys).push_back(k);
    }
    std::thread bulk_thread([&] {
        auto h = tree.create_hints();
        tree.insert_sorted_run(bulk_keys.begin(), bulk_keys.end(), h);
    });
    std::thread point_thread([&] {
        auto h = tree.create_hints();
        for (const auto k : point_keys) tree.insert(k, h);
    });
    bulk_thread.join();
    point_thread.join();
    ASSERT_EQ(tree.check_invariants(), "");
    EXPECT_EQ(tree.size(), kSpace);
}

// -- from_sorted validation (regression: was assert-only, i.e. absent in
// -- release builds; the packed loader must never accept unsorted input) ----

TEST(FromSortedValidation, UnsortedInputThrows) {
    const std::vector<std::uint64_t> bad{1, 3, 2, 4};
    using Tree = dtree::btree_set<std::uint64_t>;
    EXPECT_THROW(Tree::from_sorted(bad.begin(), bad.end()), std::invalid_argument);
}

TEST(FromSortedValidation, DuplicateKeysThrowForSets) {
    const std::vector<std::uint64_t> dup{1, 2, 2, 3};
    using Tree = dtree::btree_set<std::uint64_t>;
    EXPECT_THROW(Tree::from_sorted(dup.begin(), dup.end()), std::invalid_argument);
}

TEST(FromSortedValidation, StreamLengthMismatchThrows) {
    const std::vector<std::uint64_t> v{1, 2, 3, 4};
    using Tree = dtree::btree_set<std::uint64_t>;
    EXPECT_THROW(Tree::from_sorted_stream(v.begin(), v.end(), 3), std::invalid_argument);
    EXPECT_THROW(Tree::from_sorted_stream(v.begin(), v.end(), 5), std::invalid_argument);
}

TEST(FromSortedValidation, ValidationLeavesNoPartialTree) {
    // The check runs before any allocation: a failed load must not leak
    // (visible under the ASan leg of scripts/check.sh).
    std::vector<std::uint64_t> bad;
    for (std::uint64_t k = 0; k < 1000; ++k) bad.push_back(k);
    bad.push_back(42); // out of order at the very end
    using Tree = dtree::btree_set<std::uint64_t>;
    EXPECT_THROW(Tree::from_sorted(bad.begin(), bad.end()), std::invalid_argument);
}

TEST(FromSortedValidation, StreamBuildMatchesRandomAccessBuild) {
    std::vector<std::uint64_t> v;
    for (std::uint64_t k = 0; k < 3333; ++k) v.push_back(k * 2);
    using Tree = dtree::btree_set<std::uint64_t>;
    auto a = Tree::from_sorted(v.begin(), v.end());
    auto b = Tree::from_sorted_stream(v.begin(), v.end(), v.size());
    EXPECT_EQ(a.check_invariants(), "");
    EXPECT_EQ(contents(a), contents(b));
}

// -- separator sampling ------------------------------------------------------

TEST(SampleSeparators, SortedAndBounded) {
    dtree::btree_set<std::uint64_t, dtree::ThreeWayComparator<std::uint64_t>, 4> t;
    auto h = t.create_hints();
    for (std::uint64_t k = 0; k < 10000; ++k) t.insert(k, h);
    for (std::size_t target : {2u, 3u, 8u, 64u}) {
        const auto seps = t.sample_separators(target);
        ASSERT_LE(seps.size(), target - 1);
        EXPECT_TRUE(std::is_sorted(seps.begin(), seps.end()));
        if (target > 2) EXPECT_GE(seps.size(), 1u);
    }
    EXPECT_TRUE(t.sample_separators(0).empty());
    EXPECT_TRUE(t.sample_separators(1).empty());
}

TEST(SampleSeparators, SmallTreeYieldsNoSeparators) {
    dtree::btree_set<std::uint64_t> t; // default block: root-only for few keys
    for (std::uint64_t k = 0; k < 5; ++k) t.insert(k);
    EXPECT_TRUE(t.sample_separators(8).empty());
}

// -- metrics: the amortisation claim (satellite: insert_all(tree) must stop
// -- paying one probe per key) ----------------------------------------------

std::uint64_t insert_hint_ops() {
    return metrics::value(Counter::hint_hits_insert) +
           metrics::value(Counter::hint_misses_insert);
}

TEST(BulkMergeMetrics, RunAndKeyCountersFire) {
    std::vector<std::uint64_t> run;
    for (std::uint64_t k = 0; k < 2000; ++k) run.push_back(k);
    metrics::reset();
    SetB<4> t;
    auto h = t.create_hints();
    t.insert_sorted_run(run.begin(), run.end(), h);
    EXPECT_EQ(metrics::value(Counter::btree_bulk_runs), 1u);
    EXPECT_EQ(metrics::value(Counter::btree_bulk_keys), run.size());
}

TEST(BulkMergeMetrics, TreeMergeAmortisesProbes) {
    // insert_all(const OtherTree&) now routes through insert_sorted_run: the
    // whole merge must cost ~one hint operation per leaf SEGMENT, not one
    // per key, for both tree flavours.
    constexpr std::uint64_t kN = 20000;
    auto run_one = [&](auto dest, auto src) -> std::pair<std::uint64_t, std::uint64_t> {
        auto h = src.create_hints();
        for (std::uint64_t k = 0; k < kN; ++k) src.insert(k * 2, h);
        {
            auto hd = dest.create_hints();
            for (std::uint64_t k = 1; k < kN; k += 4) dest.insert(k * 2, hd);
        }
        metrics::reset();
        dest.insert_all(src);
        const std::uint64_t bulk_ops = insert_hint_ops();

        decltype(dest) naive;
        {
            auto hd = naive.create_hints();
            for (std::uint64_t k = 1; k < kN; k += 4) naive.insert(k * 2, hd);
        }
        metrics::reset();
        auto hn = naive.create_hints();
        naive.insert_all(src.begin(), src.end(), hn);
        const std::uint64_t point_ops = insert_hint_ops();

        EXPECT_EQ(contents(dest), contents(naive));
        return {bulk_ops, point_ops};
    };

    {
        const auto [bulk_ops, point_ops] =
            run_one(dtree::btree_set<std::uint64_t>{},
                    dtree::btree_set<std::uint64_t>{});
        EXPECT_GT(bulk_ops, 0u);
        EXPECT_EQ(point_ops, kN); // the point loop probes once per key
        EXPECT_LE(bulk_ops * 2, point_ops)
            << "bulk merge no longer amortises hint probes over segments";
    }
    {
        const auto [bulk_ops, point_ops] =
            run_one(dtree::seq_btree_set<std::uint64_t>{},
                    dtree::seq_btree_set<std::uint64_t>{});
        EXPECT_GT(bulk_ops, 0u);
        EXPECT_EQ(point_ops, kN);
        EXPECT_LE(bulk_ops * 2, point_ops);
    }
}

} // namespace
