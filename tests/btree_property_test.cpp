// Property-based differential tests: the B-tree must behave exactly like
// std::set under long random operation sequences, across block sizes,
// search policies, access modes, leaf layouts, snapshot trees and workload
// patterns — with structural invariants checked along the way. These
// parameterised sweeps are the backbone of the suite's confidence.

#include "core/btree.h"
#include "util/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <type_traits>
#include <vector>

namespace {

using dtree::util::Rng;

enum class Pattern { Ascending, Descending, Random, Clustered, Sawtooth, Dense };

std::vector<std::uint64_t> make_sequence(Pattern p, std::size_t n, std::uint64_t seed) {
    std::vector<std::uint64_t> out;
    out.reserve(n);
    Rng rng(seed);
    switch (p) {
        case Pattern::Ascending:
            for (std::size_t i = 0; i < n; ++i) out.push_back(i * 3);
            break;
        case Pattern::Descending:
            for (std::size_t i = n; i-- > 0;) out.push_back(i * 3);
            break;
        case Pattern::Random:
            for (std::size_t i = 0; i < n; ++i) {
                out.push_back(dtree::util::uniform_int<std::uint64_t>(rng, 0, 1u << 30));
            }
            break;
        case Pattern::Clustered:
            // Sorted runs at random offsets — the Datalog-typical pattern.
            while (out.size() < n) {
                const auto base = dtree::util::uniform_int<std::uint64_t>(rng, 0, 1u << 20);
                for (std::size_t j = 0; j < 64 && out.size() < n; ++j) {
                    out.push_back(base + j);
                }
            }
            break;
        case Pattern::Sawtooth:
            for (std::size_t i = 0; i < n; ++i) out.push_back((i * 7919) % (n + 1));
            break;
        case Pattern::Dense:
            // Tiny key universe: mostly duplicate inserts.
            for (std::size_t i = 0; i < n; ++i) {
                out.push_back(dtree::util::uniform_int<std::uint64_t>(rng, 0, 100));
            }
            break;
    }
    return out;
}

struct Case {
    Pattern pattern;
    std::size_t n;
    std::uint64_t seed;
    bool hinted;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
    static const char* names[] = {"Ascending", "Descending", "Random",
                                  "Clustered", "Sawtooth", "Dense"};
    return std::string(names[static_cast<int>(info.param.pattern)]) + "_n" +
           std::to_string(info.param.n) + "_s" + std::to_string(info.param.seed) +
           (info.param.hinted ? "_hinted" : "_plain");
}

const auto kAllCases = ::testing::Values(
    Case{Pattern::Ascending, 5000, 1, true}, Case{Pattern::Ascending, 5000, 1, false},
    Case{Pattern::Descending, 5000, 1, true}, Case{Pattern::Random, 8000, 2, true},
    Case{Pattern::Random, 8000, 3, false}, Case{Pattern::Clustered, 8000, 4, true},
    Case{Pattern::Clustered, 8000, 5, false}, Case{Pattern::Sawtooth, 6000, 6, true},
    Case{Pattern::Dense, 8000, 7, true}, Case{Pattern::Dense, 8000, 8, false});

// -- set semantics, every configuration ----------------------------------------

template <typename Tree>
void run_set_differential(const Case& c) {
    const auto seq = make_sequence(c.pattern, c.n, c.seed);
    Tree tree;
    std::set<std::uint64_t> ref;
    // Snapshot trees also pin the half-way state; the pin must still read
    // exactly that state once the second half has gone in.
    std::conditional_t<Tree::with_snapshots, typename Tree::Snapshot, int>
        half_pin{};
    std::vector<std::uint64_t> half_ref;
    auto hints = tree.create_hints();
    std::size_t step = 0;
    for (const auto v : seq) {
        const bool expect = ref.insert(v).second;
        const bool got = c.hinted ? tree.insert(v, hints) : tree.insert(v);
        ASSERT_EQ(got, expect) << "value " << v;
        if (++step % 1024 == 0) {
            ASSERT_EQ(tree.check_invariants(), "") << "after " << step << " ops";
        }
        if constexpr (Tree::with_snapshots) {
            if (step == seq.size() / 2) {
                tree.advance_epoch();
                half_pin = tree.snapshot();
                half_ref.assign(ref.begin(), ref.end());
            }
        }
    }
    ASSERT_EQ(tree.check_invariants(), "");
    ASSERT_EQ(tree.size(), ref.size());
    EXPECT_TRUE(std::equal(tree.begin(), tree.end(), ref.begin(), ref.end()));
    if constexpr (Tree::with_snapshots) {
        std::vector<std::uint64_t> got;
        half_pin.for_each([&](const std::uint64_t& k) { got.push_back(k); });
        EXPECT_EQ(got, half_ref) << "half-way pin drifted";
    }

    // Exhaustive bound agreement on a probe grid.
    auto qh = tree.create_hints();
    for (std::uint64_t probe = 0; probe < 200; ++probe) {
        const auto k = probe * 131;
        const auto lb_ref = ref.lower_bound(k);
        const auto lb = c.hinted ? tree.lower_bound(k, qh) : tree.lower_bound(k);
        if (lb_ref == ref.end()) {
            EXPECT_EQ(lb, tree.end());
        } else {
            ASSERT_NE(lb, tree.end());
            EXPECT_EQ(*lb, *lb_ref);
        }
        const auto ub_ref = ref.upper_bound(k);
        const auto ub = c.hinted ? tree.upper_bound(k, qh) : tree.upper_bound(k);
        if (ub_ref == ref.end()) {
            EXPECT_EQ(ub, tree.end());
        } else {
            ASSERT_NE(ub, tree.end());
            EXPECT_EQ(*ub, *ub_ref);
        }
        EXPECT_EQ(c.hinted ? tree.contains(k, qh) : tree.contains(k), ref.count(k) > 0);
    }
}

class SetDifferential : public ::testing::TestWithParam<Case> {};

TEST_P(SetDifferential, ConcurrentDefaultBlock) {
    run_set_differential<dtree::btree_set<std::uint64_t>>(GetParam());
}

TEST_P(SetDifferential, ConcurrentTinyBlock) {
    run_set_differential<
        dtree::btree_set<std::uint64_t, dtree::ThreeWayComparator<std::uint64_t>, 3>>(
        GetParam());
}

TEST_P(SetDifferential, ConcurrentBlock5) {
    run_set_differential<
        dtree::btree_set<std::uint64_t, dtree::ThreeWayComparator<std::uint64_t>, 5>>(
        GetParam());
}

TEST_P(SetDifferential, SequentialDefaultBlock) {
    run_set_differential<dtree::seq_btree_set<std::uint64_t>>(GetParam());
}

TEST_P(SetDifferential, SequentialTinyBlock) {
    run_set_differential<
        dtree::seq_btree_set<std::uint64_t, dtree::ThreeWayComparator<std::uint64_t>, 4>>(
        GetParam());
}

TEST_P(SetDifferential, LinearSearchPolicy) {
    run_set_differential<dtree::btree_set<std::uint64_t,
                                          dtree::ThreeWayComparator<std::uint64_t>, 16,
                                          dtree::detail::LinearSearch>>(GetParam());
}

TEST_P(SetDifferential, Fingerprints) {
    run_set_differential<dtree::fp_btree_set<std::uint64_t>>(GetParam());
}

TEST_P(SetDifferential, FingerprintsTinyBlock) {
    run_set_differential<
        dtree::fp_btree_set<std::uint64_t, dtree::ThreeWayComparator<std::uint64_t>, 3>>(
        GetParam());
}

TEST_P(SetDifferential, SnapshotDefaultBlock) {
    run_set_differential<dtree::snapshot_btree_set<std::uint64_t>>(GetParam());
}

TEST_P(SetDifferential, SnapshotTinyBlock) {
    run_set_differential<dtree::snapshot_btree_set<
        std::uint64_t, dtree::ThreeWayComparator<std::uint64_t>, 3>>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Patterns, SetDifferential, kAllCases, case_name);

// -- interleaved insert/query differential with shared hints ----------------------

TEST(MixedOps, InterleavedInsertQueryAgreesWithReference) {
    dtree::btree_set<std::uint64_t, dtree::ThreeWayComparator<std::uint64_t>, 6> tree;
    std::set<std::uint64_t> ref;
    Rng rng(99);
    auto hints = tree.create_hints();
    for (int i = 0; i < 30000; ++i) {
        const auto v = dtree::util::uniform_int<std::uint64_t>(rng, 0, 5000);
        switch (i % 4) {
            case 0:
            case 1:
                ASSERT_EQ(tree.insert(v, hints), ref.insert(v).second);
                break;
            case 2:
                ASSERT_EQ(tree.contains(v, hints), ref.count(v) > 0);
                break;
            case 3: {
                auto lb = tree.lower_bound(v, hints);
                auto lb_ref = ref.lower_bound(v);
                if (lb_ref == ref.end()) {
                    ASSERT_EQ(lb, tree.end());
                } else {
                    ASSERT_EQ(*lb, *lb_ref);
                }
                break;
            }
        }
    }
    ASSERT_EQ(tree.check_invariants(), "");
}

} // namespace
