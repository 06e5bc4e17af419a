// Search-policy equivalence suite: LinearSearch and BinarySearch must be
// observationally identical — same lower_bound / upper_bound / contains
// answers, same iteration order — across tiny and default block sizes,
// under key distributions with heavy first-column duplication and scalar
// keys straddling the sign bit.
//
// The Fp* tests extend the same equivalence contract to leaf layout v2
// (WithFingerprints, DESIGN.md §15): fingerprint membership + append-zone
// leaves must answer every query identically to the sorted v1 layout and
// iterate byte-for-byte the same, across tiny and default blocks,
// append-zone boundary fills, and adversarial fingerprint-byte
// collisions (where every probe nominates slots that full-key verification
// must reject).
//
// Compiled with DATATREE_METRICS (per-target) so the suite can assert that
// the fp_* counters tick exactly when the v2 policy is on.

#include "core/btree.h"
#include "core/tuple.h"
#include "datalog/ast.h"
#include "util/metrics.h"
#include "util/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <set>
#include <type_traits>
#include <vector>

namespace {

using dtree::Tuple;
using dtree::ThreeWayComparator;
namespace detail = dtree::detail;

using Point = Tuple<2>;

/// Key mix with heavy first-column duplication: ~16 tuples share each first
/// column, so most comparisons are decided by the second element.
std::vector<Point> tie_heavy_points(std::size_t n, unsigned seed) {
    std::vector<Point> pts;
    pts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        pts.push_back(Point{i / 16, (i * 2654435761u) % 1024});
    }
    dtree::util::Rng rng(seed);
    std::shuffle(pts.begin(), pts.end(), rng);
    return pts;
}

std::vector<std::uint64_t> scalar_keys(std::size_t n, unsigned seed) {
    std::vector<std::uint64_t> ks;
    ks.reserve(n);
    // Include values with the top bit set, so an ordering that treated the
    // keys as signed would misplace half of them.
    for (std::size_t i = 0; i < n; ++i) {
        ks.push_back((i % 2 ? 0x8000000000000000ull : 0ull) | (i * 7919));
    }
    dtree::util::Rng rng(seed);
    std::shuffle(ks.begin(), ks.end(), rng);
    return ks;
}

// ---------------------------------------------------------------------------
// Cross-policy equivalence on full trees
// ---------------------------------------------------------------------------

/// Instantiates the tree with each policy, applies the same inserts, and
/// compares every probe's lower_bound/upper_bound/contains answer *by value*
/// plus the full iteration order byte-for-byte.
template <typename Key, unsigned BlockSize>
void check_policy_equivalence(const std::vector<Key>& keys,
                              const std::vector<Key>& probes) {
    using C = ThreeWayComparator<Key>;
    using Lin = dtree::btree_set<Key, C, BlockSize, detail::LinearSearch>;
    using Bin = dtree::btree_set<Key, C, BlockSize, detail::BinarySearch>;
    Lin lin;
    Bin bin;
    auto hl = lin.create_hints();
    auto hb = bin.create_hints();
    for (const auto& k : keys) {
        const bool rl = lin.insert(k, hl);
        const bool rb = bin.insert(k, hb);
        ASSERT_EQ(rl, rb);
    }
    ASSERT_TRUE(lin.check_invariants().empty()) << lin.check_invariants();
    ASSERT_TRUE(bin.check_invariants().empty()) << bin.check_invariants();
    ASSERT_EQ(lin.size(), bin.size());

    // Iteration order must be byte-identical across policies.
    std::vector<Key> seq_lin(lin.begin(), lin.end());
    std::vector<Key> seq_bin(bin.begin(), bin.end());
    ASSERT_EQ(seq_lin, seq_bin);

    auto value_at = [&](const auto& tree, auto it) {
        return it == tree.end() ? std::optional<Key>{} : std::optional<Key>{*it};
    };
    for (const auto& p : probes) {
        SCOPED_TRACE(::testing::Message() << "probe " << p);
        ASSERT_EQ(lin.contains(p, hl), bin.contains(p, hb));
        ASSERT_EQ(value_at(lin, lin.lower_bound(p, hl)),
                  value_at(bin, bin.lower_bound(p, hb)));
        ASSERT_EQ(value_at(lin, lin.upper_bound(p, hl)),
                  value_at(bin, bin.upper_bound(p, hb)));
    }
}

template <typename Key>
std::vector<Key> probe_mix(const std::vector<Key>& keys) {
    std::vector<Key> probes;
    // Present keys, plus neighbours straddling them (absent, tie-adjacent).
    for (std::size_t i = 0; i < keys.size(); i += 7) {
        probes.push_back(keys[i]);
        Key below = keys[i];
        Key above = keys[i];
        if constexpr (std::is_arithmetic_v<Key>) {
            below = below > 0 ? below - 1 : 0;
            above = above + 1;
        } else {
            below[1] = below[1] > 0 ? below[1] - 1 : 0;
            above[1] = above[1] + 1;
        }
        probes.push_back(below);
        probes.push_back(above);
    }
    return probes;
}

TEST(SearchEquivalence, TupleSetTinyBlocks) {
    const auto keys = tie_heavy_points(4000, 1);
    const auto probes = probe_mix(keys);
    check_policy_equivalence<Point, 3>(keys, probes);
    check_policy_equivalence<Point, 4>(keys, probes);
    check_policy_equivalence<Point, 5>(keys, probes);
}

TEST(SearchEquivalence, TupleSetDefaultBlock) {
    const auto keys = tie_heavy_points(6000, 2);
    check_policy_equivalence<Point, detail::default_block_size<Point>()>(
        keys, probe_mix(keys));
}

TEST(SearchEquivalence, ScalarSetSignBitBoundary) {
    const auto keys = scalar_keys(4000, 4);
    const auto probes = probe_mix(keys);
    check_policy_equivalence<std::uint64_t, 3>(keys, probes);
    check_policy_equivalence<std::uint64_t,
                             detail::default_block_size<std::uint64_t>()>(
        keys, probes);
}

// ---------------------------------------------------------------------------
// Node-size boundaries on a standalone node
// ---------------------------------------------------------------------------

/// Fills a single node with the first n of sorted_keys and checks both
/// policies, plain and hinted (every predicted slot from 0 to n + 1 plus the
/// no-hint sentinel), against std::lower_bound / std::upper_bound for every
/// key of sorted_keys. n sweeps across the halving points of the binary
/// search (powers of two and one either side) so off-by-one midpoints show.
template <typename Search, typename Key, unsigned BlockSize>
void check_node_boundaries(unsigned n, const std::vector<Key>& sorted_keys) {
    ASSERT_LE(n, BlockSize);
    ASSERT_LE(n, sorted_keys.size());
    using A = dtree::SeqAccess;
    detail::Node<Key, BlockSize, A> node(/*is_inner=*/false);
    for (unsigned i = 0; i < n; ++i) node.template key_store<A>(i, sorted_keys[i]);
    node.num_elements.store(n);

    ThreeWayComparator<Key> comp;
    const auto less = [&](const Key& a, const Key& b) { return comp(a, b) < 0; };
    for (const auto& p : sorted_keys) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " probe " << p);
        const unsigned lo_ref = static_cast<unsigned>(
            std::lower_bound(node.keys, node.keys + n, p, less) - node.keys);
        const unsigned hi_ref = static_cast<unsigned>(
            std::upper_bound(node.keys, node.keys + n, p, less) - node.keys);
        ASSERT_EQ((detail::node_lower<Search, A>(&node, n, p, comp)), lo_ref);
        ASSERT_EQ((detail::node_upper<Search, A>(&node, n, p, comp)), hi_ref);
        for (std::uint32_t g = 0; g <= n + 1; ++g) {
            ASSERT_EQ((detail::node_lower_hinted<Search, A>(&node, n, p, comp, g)),
                      lo_ref)
                << "guess " << g;
            ASSERT_EQ((detail::node_upper_hinted<Search, A>(&node, n, p, comp, g)),
                      hi_ref)
                << "guess " << g;
        }
        ASSERT_EQ((detail::node_lower_hinted<Search, A>(&node, n, p, comp,
                                                        detail::kNoSlotHint)),
                  lo_ref);
        ASSERT_EQ((detail::node_upper_hinted<Search, A>(&node, n, p, comp,
                                                        detail::kNoSlotHint)),
                  hi_ref);
    }
}

constexpr unsigned kBoundarySizes[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 24};

TEST(SearchEquivalence, NodeBoundariesScalarU64) {
    std::vector<std::uint64_t> keys;
    // Duplicate-free ascending with sign-bit crossers; every key is a probe,
    // the ones past n probe beyond the node's last slot.
    for (unsigned i = 0; i < 32; ++i) {
        keys.push_back(i * 3 + (i >= 12 ? 0x8000000000000000ull : 0));
    }
    for (unsigned n : kBoundarySizes) {
        check_node_boundaries<detail::LinearSearch, std::uint64_t, 24>(n, keys);
        check_node_boundaries<detail::BinarySearch, std::uint64_t, 24>(n, keys);
    }
}

TEST(SearchEquivalence, NodeBoundariesTupleWithTies) {
    std::vector<Point> keys;
    // Duplicate-laden node: every tuple appears twice and first columns
    // repeat, so every probe lands in a tie range and a run of equal keys
    // (the kernels' lower/upper contract, independent of the set tree).
    for (unsigned i = 0; i < 32; ++i) keys.push_back(Point{i / 4, i / 2 % 2});
    for (unsigned n : kBoundarySizes) {
        check_node_boundaries<detail::LinearSearch, Point, 24>(n, keys);
        check_node_boundaries<detail::BinarySearch, Point, 24>(n, keys);
    }
}

// ---------------------------------------------------------------------------
// Ordered runs straddling node sizes
// ---------------------------------------------------------------------------

/// Run lengths one short of, at and one past every multiple of the node
/// size that changes the tree's shape: the first split, the second and
/// third leaf, half and all of a full second level, and a third level.
std::vector<unsigned> straddling_lengths(unsigned b) {
    std::set<unsigned> out{1, 2};
    for (unsigned base : {b, 2 * b, 3 * b, b * b / 2, b * b, b * b + b, b * b * b}) {
        for (unsigned n : {base - 1, base, base + 1}) out.insert(n);
    }
    return {out.begin(), out.end()};
}

/// Ascending and descending runs of every straddling length, inserted plain
/// and hinted into a fresh tree per run: the tree must pass its invariants
/// and iterate byte-for-byte like a std::set of the same keys (appends on
/// the right spine and prepends on the left take the biased and median
/// splits, DESIGN.md §16).
template <typename Search, unsigned BlockSize>
void check_ordered_runs() {
    using Tree = dtree::btree_set<Point, ThreeWayComparator<Point>, BlockSize, Search>;
    for (unsigned n : straddling_lengths(BlockSize)) {
        // First columns repeat four times, so ties reach the second column.
        std::vector<Point> run;
        for (unsigned i = 0; i < n; ++i) run.push_back(Point{i / 4, i % 4});
        const std::set<Point> oracle(run.begin(), run.end());
        const std::vector<Point> want(oracle.begin(), oracle.end());
        for (bool descending : {false, true}) {
            for (bool hinted : {false, true}) {
                SCOPED_TRACE(::testing::Message()
                             << "B=" << BlockSize << " n=" << n
                             << (descending ? " descending" : " ascending")
                             << (hinted ? " hinted" : " plain"));
                Tree tree;
                auto hints = tree.create_hints();
                for (unsigned i = 0; i < n; ++i) {
                    const Point& k = run[descending ? n - 1 - i : i];
                    ASSERT_TRUE(hinted ? tree.insert(k, hints) : tree.insert(k));
                }
                ASSERT_TRUE(tree.check_invariants().empty()) << tree.check_invariants();
                const std::vector<Point> got(tree.begin(), tree.end());
                ASSERT_EQ(got.size(), want.size());
                ASSERT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(Point)),
                          0);
            }
        }
    }
}

TEST(SearchEquivalence, OrderedRunsStraddlingNodeSizes) {
    check_ordered_runs<detail::LinearSearch, 3>();
    check_ordered_runs<detail::BinarySearch, 3>();
    check_ordered_runs<detail::LinearSearch, 4>();
    check_ordered_runs<detail::BinarySearch, 4>();
    check_ordered_runs<detail::LinearSearch, 5>();
    check_ordered_runs<detail::BinarySearch, 5>();
}

/// B = 32 is Tuple<2>'s default node: the engine's commonest node since
/// binary relations store Tuple<2> keys (DESIGN.md §17).
TEST(SearchEquivalence, OrderedRunsStraddlingTupleTwoNodes) {
    static_assert(detail::default_block_size<Point>() == 32);
    check_ordered_runs<detail::LinearSearch, 32>();
    check_ordered_runs<detail::BinarySearch, 32>();
}

// ---------------------------------------------------------------------------
// Bulk paths under both policies
// ---------------------------------------------------------------------------

/// from_sorted and insert_sorted_run under each policy: the packed tree and
/// the half-seeded, bulk-merged tree must both pass check_invariants, hold
/// exactly the sorted input, and answer every probe identically across
/// policies.
template <unsigned BlockSize>
void check_bulk_equivalence(std::uint64_t seed) {
    auto pts = tie_heavy_points(5000, seed);
    std::sort(pts.begin(), pts.end());
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
    const auto probes = probe_mix(pts);

    using C = ThreeWayComparator<Point>;
    using Lin = dtree::btree_set<Point, C, BlockSize, detail::LinearSearch>;
    using Bin = dtree::btree_set<Point, C, BlockSize, detail::BinarySearch>;

    auto packed_lin = Lin::from_sorted(pts.begin(), pts.end());
    auto packed_bin = Bin::from_sorted(pts.begin(), pts.end());
    ASSERT_TRUE(packed_bin.check_invariants().empty())
        << packed_bin.check_invariants();
    ASSERT_EQ(packed_bin.size(), pts.size());
    ASSERT_TRUE(std::equal(packed_bin.begin(), packed_bin.end(), pts.begin(),
                           pts.end()));

    // Seed with every other key, then bulk-merge the full run on top so
    // leaf_fill_sorted exercises both fresh fills and in-place merges.
    Lin merged_lin;
    Bin merged_bin;
    auto hl = merged_lin.create_hints();
    auto hb = merged_bin.create_hints();
    for (std::size_t i = 0; i < pts.size(); i += 2) {
        merged_lin.insert(pts[i], hl);
        merged_bin.insert(pts[i], hb);
    }
    const std::size_t fresh_lin =
        merged_lin.insert_sorted_run(pts.begin(), pts.end(), hl);
    const std::size_t fresh_bin =
        merged_bin.insert_sorted_run(pts.begin(), pts.end(), hb);
    EXPECT_EQ(fresh_bin, pts.size() - (pts.size() + 1) / 2);
    EXPECT_EQ(fresh_lin, fresh_bin);
    ASSERT_TRUE(merged_bin.check_invariants().empty())
        << merged_bin.check_invariants();
    ASSERT_TRUE(std::equal(merged_bin.begin(), merged_bin.end(), pts.begin(),
                           pts.end()));

    auto hpl = packed_lin.create_hints();
    auto hpb = packed_bin.create_hints();
    for (const auto& p : probes) {
        SCOPED_TRACE(::testing::Message() << "probe " << p);
        const bool want = std::binary_search(pts.begin(), pts.end(), p);
        ASSERT_EQ(packed_lin.contains(p, hpl), want);
        ASSERT_EQ(packed_bin.contains(p, hpb), want);
        ASSERT_EQ(merged_lin.contains(p, hl), want);
        ASSERT_EQ(merged_bin.contains(p, hb), want);
    }
}

TEST(SearchEquivalence, SortedRunAndFromSortedTinyBlock) {
    check_bulk_equivalence<4>(7);
}

/// 128 Tuple<2> keys per node is where DefaultSearch switches to binary.
TEST(SearchEquivalence, SortedRunAndFromSortedWideBlock) {
    static_assert(std::is_same_v<detail::DefaultSearch<Point,
                                                       ThreeWayComparator<Point>,
                                                       128>,
                                 detail::BinarySearch>);
    check_bulk_equivalence<128>(8);
}

// ---------------------------------------------------------------------------
// Leaf layout v2 equivalence (WithFingerprints, DESIGN.md §15)
// ---------------------------------------------------------------------------

/// The v2 tree under test: fingerprint leaves on top of the default
/// in-node search (the configuration `--fingerprints` selects everywhere).
template <typename Key, unsigned BlockSize>
using FpTree = dtree::fp_btree_set<Key, ThreeWayComparator<Key>, BlockSize>;

/// Applies the same inserts to a v1 reference tree and a v2 fingerprint tree
/// and demands identical observable behaviour: insert verdicts, sizes,
/// byte-identical iteration, every probe's contains / lower_bound /
/// upper_bound answer, and contains ≡ (find != end) on BOTH trees.
template <typename Key, unsigned BlockSize>
void check_fp_equivalence(const std::vector<Key>& keys,
                          const std::vector<Key>& probes) {
    using C = ThreeWayComparator<Key>;
    using Ref = dtree::btree_set<Key, C, BlockSize, detail::LinearSearch>;
    using Fp = FpTree<Key, BlockSize>;
    Ref ref;
    Fp fp;
    auto hr = ref.create_hints();
    auto hf = fp.create_hints();
    for (const auto& k : keys) {
        const bool rr = ref.insert(k, hr);
        const bool rf = fp.insert(k, hf);
        ASSERT_EQ(rr, rf);
    }
    ASSERT_TRUE(fp.check_invariants().empty()) << fp.check_invariants();
    ASSERT_EQ(ref.size(), fp.size());

    // v2's physically unsorted leaves must still ITERATE in sorted order,
    // byte-identical to the v1 layout.
    std::vector<Key> seq_ref(ref.begin(), ref.end());
    std::vector<Key> seq_fp(fp.begin(), fp.end());
    ASSERT_EQ(seq_ref, seq_fp);

    auto value_at = [&](const auto& tree, auto it) {
        return it == tree.end() ? std::optional<Key>{} : std::optional<Key>{*it};
    };
    for (const auto& p : probes) {
        SCOPED_TRACE(::testing::Message() << "probe " << p);
        const bool hit = ref.contains(p, hr);
        ASSERT_EQ(hit, fp.contains(p, hf));
        // The first-class contains() fast path must agree with the iterator
        // answer on both layouts (the Relation/LocalView routing contract).
        ASSERT_EQ(hit, ref.find(p, hr) != ref.end());
        ASSERT_EQ(hit, fp.find(p, hf) != fp.end());
        ASSERT_EQ(value_at(ref, ref.lower_bound(p, hr)),
                  value_at(fp, fp.lower_bound(p, hf)));
        ASSERT_EQ(value_at(ref, ref.upper_bound(p, hr)),
                  value_at(fp, fp.upper_bound(p, hf)));
    }
}

TEST(SearchEquivalence, FpTupleSetTinyBlocks) {
    const auto keys = tie_heavy_points(4000, 21);
    const auto probes = probe_mix(keys);
    check_fp_equivalence<Point, 3>(keys, probes);
    check_fp_equivalence<Point, 4>(keys, probes);
    check_fp_equivalence<Point, 5>(keys, probes);
}

TEST(SearchEquivalence, FpTupleSetDefaultBlock) {
    const auto keys = tie_heavy_points(6000, 22);
    check_fp_equivalence<Point, detail::default_block_size<Point>()>(
        keys, probe_mix(keys));
}

TEST(SearchEquivalence, FpScalarSetSignBitBoundary) {
    const auto keys = scalar_keys(4000, 24);
    const auto probes = probe_mix(keys);
    check_fp_equivalence<std::uint64_t, 3>(keys, probes);
    check_fp_equivalence<std::uint64_t,
                         detail::default_block_size<std::uint64_t>()>(
        keys, probes);
}

/// Append-zone boundary fills: fills that end exactly AT node capacity, one
/// past it (first split, consolidating the unsorted tail), and several nodes
/// deep — under ascending inserts (every append advances the sorted
/// watermark), descending inserts (every in-leaf insert lands in the tail),
/// and a zig-zag interleave. Contents and iteration are pinned against a
/// std::set oracle, and every present/absent probe is re-checked.
template <unsigned BlockSize>
void check_append_zone_fills(unsigned seed_base) {
    using Key = std::uint64_t;
    const std::size_t sizes[] = {BlockSize - 1, BlockSize,     BlockSize + 1,
                                 2 * BlockSize, 2 * BlockSize + 1,
                                 5 * BlockSize + 2};
    for (std::size_t n : sizes) {
        for (int pattern = 0; pattern < 3; ++pattern) {
            SCOPED_TRACE(::testing::Message()
                         << "BlockSize=" << BlockSize << " n=" << n
                         << " pattern=" << pattern << " seed=" << seed_base);
            FpTree<Key, BlockSize> t;
            auto h = t.create_hints();
            std::set<Key> oracle;
            for (std::size_t i = 0; i < n; ++i) {
                Key k = 0;
                switch (pattern) {
                case 0: k = 2 * i; break;              // ascending
                case 1: k = 2 * (n - 1 - i); break;    // descending
                default: k = (i % 2) ? 2 * (2 * n - i) : 2 * i; break;
                }
                ASSERT_EQ(t.insert(k, h), oracle.insert(k).second);
            }
            ASSERT_TRUE(t.check_invariants().empty()) << t.check_invariants();
            std::vector<Key> got(t.begin(), t.end());
            std::vector<Key> want(oracle.begin(), oracle.end());
            ASSERT_EQ(got, want);
            auto hq = t.create_hints();
            for (Key k : want) {
                ASSERT_TRUE(t.contains(k, hq)) << "present key " << k;
                ASSERT_FALSE(t.contains(k + 1, hq)) << "absent key " << k + 1;
            }
        }
    }
}

TEST(SearchEquivalence, FpAppendZoneBoundaryFills) {
    check_append_zone_fills<3>(31);
    check_append_zone_fills<4>(32);
    check_append_zone_fills<5>(33);
    check_append_zone_fills<detail::default_block_size<std::uint64_t>()>(34);
}

/// Adversarial fingerprint collisions: every key in the tree AND every probe
/// shares one fingerprint byte, so the byte-compare nominates slots on
/// every probe and full-key verification does all the rejecting. Answers
/// must stay exact and the false-hit counter must show the path ran.
TEST(SearchEquivalence, FpCollisionAdversarialScalar) {
    using Key = std::uint64_t;
    const std::uint8_t target = dtree::key_fingerprint<Key>(0);
    std::vector<Key> present, absent;
    for (Key k = 1; present.size() < 1500 || absent.size() < 1500; ++k) {
        ASSERT_LT(k, 4'000'000u) << "fingerprint byte is not well-spread";
        if (dtree::key_fingerprint(k) != target) continue;
        if (((present.size() + absent.size()) & 1) == 0) {
            present.push_back(k);
        } else {
            absent.push_back(k);
        }
    }
    dtree::util::Rng rng(41);
    std::shuffle(present.begin(), present.end(), rng);

    namespace metrics = dtree::metrics;
    metrics::reset();
    FpTree<Key, 4> tiny;
    FpTree<Key, detail::default_block_size<Key>()> big;
    auto ht = tiny.create_hints();
    auto hb = big.create_hints();
    for (Key k : present) {
        ASSERT_TRUE(tiny.insert(k, ht));
        ASSERT_TRUE(big.insert(k, hb));
    }
    ASSERT_TRUE(tiny.check_invariants().empty()) << tiny.check_invariants();
    ASSERT_TRUE(big.check_invariants().empty()) << big.check_invariants();
    for (Key k : present) {
        ASSERT_TRUE(tiny.contains(k, ht));
        ASSERT_TRUE(big.contains(k, hb));
    }
    for (Key k : absent) {
        ASSERT_FALSE(tiny.contains(k, ht)) << "false positive on " << k;
        ASSERT_FALSE(big.contains(k, hb)) << "false positive on " << k;
    }
    const auto snap = metrics::snapshot();
    EXPECT_GT(snap[metrics::Counter::fp_probes], 0u);
    EXPECT_GT(snap[metrics::Counter::fp_false_hits], 0u)
        << "colliding probes never nominated a non-matching slot";
}

/// Tuple flavour: colliding Tuple<2> keys exercise the FNV-combine hash and
/// the comparator-verified rejection on multi-column keys.
TEST(SearchEquivalence, FpCollisionAdversarialTuple) {
    const std::uint8_t target = dtree::key_fingerprint(Point{0, 0});
    std::vector<Point> present, absent;
    for (std::uint64_t x = 0;
         present.size() < 800 || absent.size() < 800; ++x) {
        ASSERT_LT(x, 20'000u) << "fingerprint byte is not well-spread";
        for (std::uint64_t y = 0; y < 64; ++y) {
            if (dtree::key_fingerprint(Point{x, y}) != target) continue;
            if (((present.size() + absent.size()) & 1) == 0) {
                present.push_back(Point{x, y});
            } else {
                absent.push_back(Point{x, y});
            }
        }
    }
    dtree::util::Rng rng(42);
    std::shuffle(present.begin(), present.end(), rng);

    FpTree<Point, 4> t;
    auto h = t.create_hints();
    for (const auto& p : present) ASSERT_TRUE(t.insert(p, h));
    ASSERT_TRUE(t.check_invariants().empty()) << t.check_invariants();
    for (const auto& p : present) ASSERT_TRUE(t.contains(p, h));
    for (const auto& p : absent) {
        ASSERT_FALSE(t.contains(p, h)) << "false positive on " << p;
    }
}

// ---------------------------------------------------------------------------
// Default policy selection
// ---------------------------------------------------------------------------

TEST(SearchMetrics, DefaultSearchSelection) {
    using Storage = dtree::datalog::StorageTuple;
    // DefaultSearch keys on the node's key payload: the early-exit linear
    // scan up to 768 B of keys per node, binary search beyond.
    static_assert(
        std::is_same_v<detail::DefaultSearch<std::uint64_t,
                                             ThreeWayComparator<std::uint64_t>,
                                             64>,
                       detail::LinearSearch>,
        "u64 at 64 keys per node (512 B) must use LinearSearch");
    static_assert(
        std::is_same_v<detail::DefaultSearch<Point>, detail::LinearSearch>,
        "Tuple<2> at its default block size must use LinearSearch");
    static_assert(
        std::is_same_v<detail::DefaultSearch<Storage>, detail::LinearSearch>,
        "datalog::StorageTuple at its default block size must use "
        "LinearSearch");
    static_assert(
        std::is_same_v<
            detail::DefaultSearch<Point, ThreeWayComparator<Point>, 128>,
            detail::BinarySearch>,
        "Tuple<2> at 128 keys per node (2 KiB) must use BinarySearch");
}

/// The fp_* counters must tick exactly when the v2 policy is compiled in:
/// a policy-off tree leaves all five at zero (the bit-identical-layout
/// contract scripts/bench.sh gates on), a v2 tree drives all of them.
TEST(SearchMetrics, FpCountersTickOnlyWithPolicyOn) {
    namespace metrics = dtree::metrics;
    using Key = std::uint64_t;
    const auto keys = scalar_keys(3000, 26);

    metrics::reset();
    {
        dtree::btree_set<Key> off; // v1: no fingerprint machinery anywhere
        auto h = off.create_hints();
        for (Key k : keys) off.insert(k, h);
        for (Key k : keys) {
            off.contains(k, h);
            off.contains(k + 1, h);
        }
    }
    auto snap = metrics::snapshot();
    EXPECT_EQ(snap[metrics::Counter::fp_probes], 0u);
    EXPECT_EQ(snap[metrics::Counter::fp_skips], 0u);
    EXPECT_EQ(snap[metrics::Counter::fp_false_hits], 0u);
    EXPECT_EQ(snap[metrics::Counter::append_inserts], 0u);
    EXPECT_EQ(snap[metrics::Counter::leaf_consolidations], 0u);

    metrics::reset();
    {
        dtree::fp_btree_set<Key> on;
        auto h = on.create_hints();
        for (Key k : keys) on.insert(k, h);
        for (Key k : keys) {
            on.contains(k, h);
            on.contains(k + 1, h); // mostly-miss probes: the fp_skips source
        }
    }
    snap = metrics::snapshot();
    EXPECT_GT(snap[metrics::Counter::fp_probes], 0u);
    EXPECT_GT(snap[metrics::Counter::fp_skips], 0u);
    EXPECT_GT(snap[metrics::Counter::append_inserts], 0u);
    EXPECT_GT(snap[metrics::Counter::leaf_consolidations], 0u)
        << "3000 random inserts must have split (and so consolidated) leaves";
}

} // namespace
