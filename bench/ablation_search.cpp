// Ablation: in-node search strategy — linear scan with the 3-way comparator
// vs binary search (implementation note (2) of §3) — swept across node sizes
// AND key types (Tuple<2> "points" and plain u64), since the key width
// decides how many cache lines a node's keys span.
//
//   ./build/bench/ablation_search [--n=1000000] [--reps=3] [--json=FILE]
//
// Each cell reports the best of --reps runs: random-insert throughput on a
// fresh tree is allocation- and page-fault-noisy, and best-of isolates the
// kernel difference the ablation is after.
//
// A third column runs leaf layout v2 (WithFingerprints, DESIGN.md §15) on
// top of the default in-node search, and a second table measures what v2 is
// FOR: miss-dominated membership probes (in-range keys that are never
// inserted), where the fingerprint byte-compare answers without loading a
// single key. scripts/bench.sh asserts the v2 probe cells beat the v1
// default-search baseline at the default BlockSize.
//
// Under a metrics build the JSON carries fp_probes / fp_skips /
// append_inserts for the v2 cells (scripts/bench.sh asserts on them).

#include "bench/common.h"

#include "core/btree.h"

#include <cstdlib>
#include <type_traits>
#include <utility>

namespace {

using namespace dtree;
using namespace dtree::bench;

/// The search policy the trees use by default at this node size.
template <typename Key, unsigned BlockSize>
using DefaultAt =
    detail::DefaultSearch<Key, ThreeWayComparator<Key>, BlockSize>;

/// The tree a cell runs: v1 (sorted leaves) or leaf layout v2 (§15).
template <typename Key, unsigned BlockSize, typename Search, bool WithFp>
using CellTree =
    std::conditional_t<WithFp,
                       fp_btree_set<Key, ThreeWayComparator<Key>, BlockSize,
                                    Search>,
                       btree_set<Key, ThreeWayComparator<Key>, BlockSize,
                                 Search>>;

template <typename Key, unsigned BlockSize, typename Search,
          bool WithFp = false>
double insert_throughput(const std::vector<Key>& keys, unsigned reps) {
    double best = 0.0;
    for (unsigned r = 0; r < reps; ++r) {
        CellTree<Key, BlockSize, Search, WithFp> t;
        auto h = t.create_hints();
        util::Timer timer;
        for (const auto& k : keys) t.insert(k, h);
        const double mps =
            static_cast<double>(keys.size()) / timer.elapsed_s() / 1e6;
        if (mps > best) best = mps;
    }
    return best;
}

/// contains() throughput against a pre-built tree (build excluded from the
/// timing). `sink` defeats dead-code elimination across reps.
template <typename Key, unsigned BlockSize, typename Search, bool WithFp>
double probe_throughput(const std::vector<Key>& keys,
                        const std::vector<Key>& probes, unsigned reps) {
    double best = 0.0;
    std::size_t sink = 0;
    for (unsigned r = 0; r < reps; ++r) {
        CellTree<Key, BlockSize, Search, WithFp> t;
        {
            auto h = t.create_hints();
            for (const auto& k : keys) t.insert(k, h);
        }
        auto h = t.create_hints();
        util::Timer timer;
        for (const auto& k : probes) sink += t.contains(k, h) ? 1 : 0;
        const double mps =
            static_cast<double>(probes.size()) / timer.elapsed_s() / 1e6;
        if (mps > best) best = mps;
    }
    if (sink == static_cast<std::size_t>(-1)) std::abort(); // keep `sink` live
    return best;
}

template <typename Key, unsigned BlockSize>
void run(const std::string& kind, const std::vector<Key>& random,
         util::SeriesTable& table, unsigned reps) {
    const std::string suffix = ", " + std::to_string(BlockSize) + " keys";
    table.add(kind + " linear" + suffix,
              insert_throughput<Key, BlockSize, detail::LinearSearch>(random,
                                                                      reps));
    table.add(kind + " binary" + suffix,
              insert_throughput<Key, BlockSize, detail::BinarySearch>(random,
                                                                      reps));
    table.add(kind + " fp" + suffix,
              insert_throughput<Key, BlockSize, DefaultAt<Key, BlockSize>,
                                true>(random, reps));
}

/// One v1-vs-v2 probe pair at a given BlockSize: both cells run the default
/// in-node search, so the delta is purely the leaf layout (fingerprint probe
/// vs in-node lower-bound search).
template <typename Key, unsigned BlockSize>
void run_probe(const std::string& kind, const std::vector<Key>& keys,
               const std::vector<Key>& probes, util::SeriesTable& table,
               unsigned reps) {
    const std::string suffix = ", " + std::to_string(BlockSize) + " keys";
    table.add(kind + " probe v1" + suffix,
              probe_throughput<Key, BlockSize, DefaultAt<Key, BlockSize>,
                               false>(keys, probes, reps));
    table.add(kind + " probe fp" + suffix,
              probe_throughput<Key, BlockSize, DefaultAt<Key, BlockSize>,
                               true>(keys, probes, reps));
}

std::vector<std::uint64_t> random_u64(std::size_t n) {
    std::vector<std::uint64_t> keys(n);
    for (std::size_t i = 0; i < n; ++i) keys[i] = i;
    util::Rng rng(11);
    util::shuffle(keys, rng);
    return keys;
}

/// The miss-dominated probe workload: insert every even value, probe every
/// odd one — 100% misses that still land INSIDE leaf key ranges, so the
/// leaf-level membership machinery (not the descent) decides each probe.
std::vector<std::uint64_t> even_u64(std::size_t n) {
    std::vector<std::uint64_t> keys(n);
    for (std::size_t i = 0; i < n; ++i) keys[i] = 2 * i;
    util::Rng rng(12);
    util::shuffle(keys, rng);
    return keys;
}

std::vector<std::uint64_t> odd_u64(std::size_t n) {
    std::vector<std::uint64_t> keys(n);
    for (std::size_t i = 0; i < n; ++i) keys[i] = 2 * i + 1;
    util::Rng rng(13);
    util::shuffle(keys, rng);
    return keys;
}

/// Same pattern on 2D points: (x, 2y) inserted, (x, 2y+1) probed.
std::pair<std::vector<Point>, std::vector<Point>> even_odd_points(
    std::size_t n) {
    std::size_t side = 1;
    while (side * side < n) ++side;
    std::vector<Point> ins, probe;
    ins.reserve(side * side);
    probe.reserve(side * side);
    for (std::uint64_t x = 0; x < side; ++x) {
        for (std::uint64_t y = 0; y < side; ++y) {
            ins.push_back(Point{x, 2 * y});
            probe.push_back(Point{x, 2 * y + 1});
        }
    }
    ins.resize(n);
    probe.resize(n);
    util::Rng rng(14);
    util::shuffle(ins, rng);
    util::shuffle(probe, rng);
    return {std::move(ins), std::move(probe)};
}

} // namespace

int main(int argc, char** argv) {
    dtree::util::Cli cli(argc, argv);
    if (const std::string bad = cli.first_unknown({"n", "reps", "json"});
        !bad.empty()) {
        return unknown_flag(bad);
    }
    const std::size_t n = cli.get_u64("n", 1'000'000);
    const unsigned reps =
        static_cast<unsigned>(cli.get_u64("reps", 3));
    std::size_t side = 1;
    while (side * side < n) ++side;
    auto pts = grid_points(side);
    pts.resize(n);
    pts = shuffled(std::move(pts), 9);
    const auto ints = random_u64(n);

    util::SeriesTable table(
        "[ablation] in-node search strategy, random insertion, M inserts/s",
        "config");
    table.set_x({std::to_string(n) + " keys"});
    // Tuple<2> points: the paper's key type. Default BlockSize for Point is
    // 32, where DefaultSearch picks linear (binary beyond 768 B of keys).
    run<Point, 8>("tuple", pts, table, reps);
    run<Point, 16>("tuple", pts, table, reps);
    run<Point, 32>("tuple", pts, table, reps);
    run<Point, 64>("tuple", pts, table, reps);
    run<Point, 128>("tuple", pts, table, reps);
    // u64 scalars: one comparison decides each slot. Default BlockSize is
    // 64, where DefaultSearch picks linear.
    run<std::uint64_t, 16>("u64", ints, table, reps);
    run<std::uint64_t, 64>("u64", ints, table, reps);
    run<std::uint64_t, 128>("u64", ints, table, reps);
    table.print();

    // Miss-dominated membership probes at the keys' default BlockSizes —
    // the workload leaf layout v2 targets (the evaluator's head-FULL filter
    // is mostly misses once a fixpoint saturates). scripts/bench.sh asserts
    // the fp cells beat their v1 siblings here.
    util::SeriesTable probes(
        "[ablation] miss-dominated membership probes, M probes/s", "config");
    probes.set_x({std::to_string(n) + " probes"});
    {
        auto [pins, pmiss] = even_odd_points(n);
        run_probe<Point, detail::default_block_size<Point>()>(
            "tuple", pins, pmiss, probes, reps);
    }
    run_probe<std::uint64_t, detail::default_block_size<std::uint64_t>()>(
        "u64", even_u64(n), odd_u64(n), probes, reps);
    probes.print();

    JsonReport report("ablation_search", cli);
    report.add_table(table);
    report.add_table(probes);
    return report.write() ? 0 : 1;
}
