// Ablation: the sorted bulk-merge path vs per-key point inserts — the
// delta->full rotation in microcosm. Three strategies move a sorted NEW run
// into a pre-seeded FULL tree (or an empty one, for the packed loader):
//
//   point   — hinted insert() per key, the pre-PR rotation inner loop
//   bulk    — insert_sorted_run(): one descent per leaf segment, leaves
//             filled in bulk, splits amortised under one write lock
//   packed  — from_sorted_stream(): build a fresh packed tree (only legal
//             when the destination index is empty — the rotation fast path)
//
// Swept across node sizes and, for the concurrent tree, thread counts (runs
// partitioned by sample_separators() and fanned out on the scheduler pool).
//
//   ./build/bench/ablation_merge [--n=2000000] [--threads=1,2,4,8] [--json=FILE]

#include "bench/common.h"

#include "core/btree.h"
#include "runtime/scheduler.h"

#include <cstdio>

namespace {

using namespace dtree;
using namespace dtree::bench;

using Key = std::uint64_t;

struct Workload {
    std::vector<Key> seed; // pre-loaded FULL contents (sorted)
    std::vector<Key> run;  // sorted NEW run, interleaved with seed
};

Workload make_workload(std::size_t n) {
    Workload w;
    w.seed.reserve(n / 2);
    w.run.reserve(n);
    // Seed occupies even slots of a dense space; the run hits odds plus a
    // tail beyond the seed, so merges both interleave and append.
    for (Key k = 0; k < n; ++k) w.seed.push_back(2 * k);
    for (Key k = 0; k < n; ++k) w.run.push_back(2 * k + 1);
    for (Key k = 0; k < n / 4; ++k) w.run.push_back(2 * n + k);
    return w;
}

double mkeys_per_s(std::size_t keys, double seconds) {
    return static_cast<double>(keys) / seconds / 1e6;
}

template <typename Tree>
Tree seeded_tree(const std::vector<Key>& seed) {
    return Tree::from_sorted(seed.begin(), seed.end());
}

/// One (strategy, tree-kind, node-size, threads) measurement in M keys/s.
template <unsigned B>
struct Sweep {
    static double point_insert(const Workload& w) {
        auto t = seeded_tree<btree_set<Key, ThreeWayComparator<Key>, B>>(w.seed);
        auto h = t.create_hints();
        util::Timer timer;
        for (Key k : w.run) t.insert(k, h);
        return mkeys_per_s(w.run.size(), timer.elapsed_s());
    }

    static double bulk_run(const Workload& w) {
        auto t = seeded_tree<btree_set<Key, ThreeWayComparator<Key>, B>>(w.seed);
        auto h = t.create_hints();
        util::Timer timer;
        t.insert_sorted_run(w.run.begin(), w.run.end(), h);
        return mkeys_per_s(w.run.size(), timer.elapsed_s());
    }

    static double bulk_run_parallel(const Workload& w, unsigned threads) {
        using Tree = btree_set<Key, ThreeWayComparator<Key>, B>;
        auto t = seeded_tree<Tree>(w.seed);
        const auto seps = t.sample_separators(threads * 4);
        const std::size_t parts = seps.size() + 1;
        auto slice_begin = [&](std::size_t p) {
            return p == 0 ? w.run.begin()
                          : std::lower_bound(w.run.begin(), w.run.end(),
                                             seps[p - 1]);
        };
        auto& sched = runtime::Scheduler::instance();
        sched.reserve(threads);
        std::vector<typename Tree::operation_hints> hints(threads);
        util::Timer timer;
        sched.parallel_for(
            parts, threads, {.grain = 1},
            [&](unsigned wid, std::size_t b, std::size_t e) {
                for (std::size_t p = b; p < e; ++p) {
                    t.insert_sorted_run(slice_begin(p),
                                        p + 1 < parts ? slice_begin(p + 1)
                                                      : w.run.end(),
                                        hints[wid]);
                }
            });
        return mkeys_per_s(w.run.size(), timer.elapsed_s());
    }

    static double packed_load(const Workload& w) {
        util::Timer timer;
        auto t = btree_set<Key, ThreeWayComparator<Key>, B>::from_sorted(
            w.run.begin(), w.run.end());
        const double s = timer.elapsed_s();
        if (t.size() != w.run.size()) std::abort();
        return mkeys_per_s(w.run.size(), s);
    }
};

struct Row {
    std::string node_size;
    double point, bulk, packed;
    std::vector<std::pair<unsigned, double>> parallel; // (threads, M/s)
};

} // namespace

int main(int argc, char** argv) {
    dtree::util::Cli cli(argc, argv);
    const std::size_t n = cli.get_u64("n", 2'000'000);
    const auto thread_list = cli.get_list("threads", {1, 2, 4});
    const Workload w = make_workload(n);

    std::printf("[ablation] sorted bulk merge vs point inserts "
                "(%zu-key run into %zu-key tree)\n\n",
                w.run.size(), w.seed.size());
    std::printf("%-12s %12s %12s %12s", "node size", "point M/s", "bulk M/s",
                "packed M/s");
    for (unsigned t : thread_list) std::printf("  bulk@%uT M/s", t);
    std::printf("\n");

    std::vector<Row> rows;
    auto sweep_one = [&]<unsigned B>(const char* name) {
        Row r;
        r.node_size = name;
        r.point = Sweep<B>::point_insert(w);
        r.bulk = Sweep<B>::bulk_run(w);
        r.packed = Sweep<B>::packed_load(w);
        std::printf("%-12s %12.2f %12.2f %12.2f", name, r.point, r.bulk,
                    r.packed);
        for (unsigned t : thread_list) {
            const double m = Sweep<B>::bulk_run_parallel(w, t);
            r.parallel.emplace_back(t, m);
            std::printf(" %12.2f", m);
        }
        std::printf("\n");
        rows.push_back(std::move(r));
    };
    sweep_one.template operator()<11>("11");
    sweep_one.template operator()<31>("31");
    sweep_one.template operator()<dtree::detail::default_block_size<Key>()>(
        "default");

    std::printf("\n(bulk amortises one descent + lock upgrade over a whole leaf;\n"
                "packed builds fully-dense nodes and is only legal into an empty tree)\n");

    JsonReport report("ablation_merge", cli);
    report.add_section("merge", [&](dtree::json::Writer& jw) {
        jw.begin_array();
        for (const auto& r : rows) {
            jw.begin_object();
            jw.kv("node_size", r.node_size);
            jw.kv("point_mkeys", r.point);
            jw.kv("bulk_mkeys", r.bulk);
            jw.kv("packed_mkeys", r.packed);
            jw.kv("bulk_over_point", r.bulk / r.point);
            jw.key("parallel");
            jw.begin_array();
            for (const auto& [t, m] : r.parallel) {
                jw.begin_object();
                jw.kv("threads", static_cast<std::uint64_t>(t));
                jw.kv("bulk_mkeys", m);
                jw.end_object();
            }
            jw.end_array();
            jw.end_object();
        }
        jw.end_array();
    });
    return report.write() ? 0 : 1;
}
