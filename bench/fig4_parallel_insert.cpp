// Reproduces Figure 4 (a-d): parallel insertion throughput, strong scaling.
//
//   ./build/bench/fig4_parallel_insert [--full] [--n=2000000] [--threads=1,2,4,8]
//                                      [--search=default|linear|binary]
//                                      [--json=FILE] [--smoke] [--fingerprints]
//
// --json writes the machine-readable run record (see bench/common.h);
// --smoke runs only the single-socket sections (CI smoke job).
// Inserts run through util::parallel_blocks: the paper's static contiguous
// partition, one block per thread, on the persistent pool.
// --search overrides the in-node search policy of the "btree" rows (the
// baselines never change): the scaling counterpart of bench/ablation_search.
//
// (a) ordered, single-socket thread counts {1..16}
// (b) random,  single-socket thread counts {1..16}
// (c) ordered, multi-socket thread counts {1..32}
// (d) random,  multi-socket thread counts {1..32}
//
// The paper's testbed is a 4x8-core Xeon; (c)/(d) differ from (a)/(b) only in
// crossing socket boundaries. This harness sweeps the same thread counts on
// whatever host it runs on and EXPERIMENTS.md records the host topology.
// Elements are partitioned into contiguous blocks per thread (the paper's
// NUMA-friendly setup for (c)); the random case shuffles within each block.
//
// Expected shape (§4.2): the global-lock btree never scales; the reduction
// btree helps only in the random case with few threads; TBB's hash set
// scales but from a far lower base; the optimistic btree (with or without
// hints) delivers the highest absolute throughput and keeps scaling.

#include "bench/common.h"

#include "baselines/adapters.h"
#include "util/parallel.h"

#include <cstdio>

namespace {

using namespace dtree;
using namespace dtree::bench;
using namespace dtree::baselines;

std::vector<Point> make_input(std::size_t n, bool ordered, unsigned threads) {
    // n points of a sqrt(n) x sqrt(n)-ish grid, lexicographic.
    std::size_t side = 1;
    while (side * side < n) ++side;
    auto pts = grid_points(side);
    pts.resize(n);
    if (!ordered) {
        // Shuffle within each thread's block: every thread still works on a
        // random sequence while blocks stay disjoint (strong scaling with
        // first-touch locality, as in the paper).
        for (unsigned t = 0; t < threads; ++t) {
            auto [b, e] = util::block_range(n, t, threads);
            util::Rng rng(100 + t);
            std::shuffle(pts.begin() + static_cast<std::ptrdiff_t>(b),
                         pts.begin() + static_cast<std::ptrdiff_t>(e), rng);
        }
    }
    return pts;
}

/// In-node search policy override for the our-btree rows (--search=). The
/// adapters stay on the canonical row names so JSON consumers see the same
/// schema whichever kernel ran; the `config` section records the choice.
enum class SearchMode { Default, Linear, Binary };

SearchMode g_search = SearchMode::Default;
bool g_fingerprints = false; ///< --fingerprints: add the "btree (fp)" row

/// Parses --search=default|linear|binary; false (after a diagnostic) on an
/// unknown value.
bool parse_search(const util::Cli& cli, SearchMode& out) {
    const std::string s = cli.get_str("search", "");
    if (s.empty() || s == "1" || s == "default") {
        out = SearchMode::Default;
    } else if (s == "linear") {
        out = SearchMode::Linear;
    } else if (s == "binary") {
        out = SearchMode::Binary;
    } else {
        std::fprintf(stderr, "unknown --search=%s (default|linear|binary)\n",
                     s.c_str());
        return false;
    }
    return true;
}

template <typename Search, bool UseHints>
using OurBTreeWith = BTreeAdapterImpl<
    btree<Point, ThreeWayComparator<Point>,
          detail::default_block_size<Point>(), Search>,
    UseHints, true>;

template <typename Adapter>
double run_one(const std::vector<Point>& pts, unsigned threads) {
    Adapter set = [&] {
        if constexpr (std::is_constructible_v<Adapter, unsigned>) {
            return Adapter(threads);
        } else {
            return Adapter{};
        }
    }();
    util::Timer t;
    util::parallel_blocks(pts.size(), threads, [&](unsigned tid, std::size_t b, std::size_t e) {
        auto local = set.make_local(tid);
        for (std::size_t i = b; i < e; ++i) local.insert(pts[i]);
    });
    set.finalize(threads); // reduction merge; no-op elsewhere
    return static_cast<double>(pts.size()) / t.elapsed_s() / 1e6;
}

template <bool UseHints>
double run_our(const std::vector<Point>& pts, unsigned threads) {
    switch (g_search) {
        case SearchMode::Linear:
            return run_one<OurBTreeWith<detail::LinearSearch, UseHints>>(pts, threads);
        case SearchMode::Binary:
            return run_one<OurBTreeWith<detail::BinarySearch, UseHints>>(pts, threads);
        case SearchMode::Default:
            break;
    }
    return run_one<BTreeAdapterImpl<btree_set<Point>, UseHints, true>>(pts, threads);
}

void run_section(const char* title, std::size_t n, bool ordered,
                 const std::vector<unsigned>& threads, JsonReport& report) {
    util::SeriesTable table(title, "threads");
    std::vector<std::string> xs;
    for (unsigned t : threads) xs.push_back(std::to_string(t));
    table.set_x(xs);

    for (unsigned t : threads) {
        const auto pts = make_input(n, ordered, t);
        table.add("btree", run_our<true>(pts, t));
    }
    for (unsigned t : threads) {
        const auto pts = make_input(n, ordered, t);
        table.add("btree (n/h)", run_our<false>(pts, t));
    }
    if (g_fingerprints) {
        // Leaf layout v2 (DESIGN.md §15). The default sweep never
        // instantiates the policy, which is what lets scripts/bench.sh
        // assert all-zero fingerprint counters on the default record.
        for (unsigned t : threads) {
            const auto pts = make_input(n, ordered, t);
            table.add("btree (fp)", run_one<OurBTreeFpAdapter<Point>>(pts, t));
        }
    }
    for (unsigned t : threads) {
        const auto pts = make_input(n, ordered, t);
        table.add("google btree", run_one<GlobalLockBTreeAdapter<Point>>(pts, t));
    }
    for (unsigned t : threads) {
        const auto pts = make_input(n, ordered, t);
        table.add("reduction btree", run_one<ReductionBTreeAdapter<Point>>(pts, t));
    }
    for (unsigned t : threads) {
        const auto pts = make_input(n, ordered, t);
        table.add("TBB hashset", run_one<TbbLikeHashSetAdapter<Point>>(pts, t));
    }
    table.print();
    report.add_table(table);
}

} // namespace

int main(int argc, char** argv) {
    dtree::util::Cli cli(argc, argv);
    if (const std::string bad =
            cli.first_unknown({"full", "n", "threads", "search", "json",
                               "smoke", "fingerprints"});
        !bad.empty()) {
        return unknown_flag(bad);
    }
    JsonReport report("fig4_parallel_insert", cli);
    const std::size_t n =
        cli.get_u64("n", cli.get_bool("full") ? 100'000'000ull : 2'000'000ull);
    if (!parse_search(cli, g_search)) return 2;
    g_fingerprints = cli.get_bool("fingerprints");

    const auto single = cli.get_list("threads", {1, 2, 4, 8, 12, 16});
    const auto multi = cli.get_list("threads", {1, 2, 4, 8, 12, 16, 20, 24, 28, 32});

    char title[160];
    std::snprintf(title, sizeof(title),
                  "[fig 4a] parallel insertion (ordered, single socket), %zu elems, M inserts/s", n);
    run_section(title, n, /*ordered=*/true, single, report);
    std::snprintf(title, sizeof(title),
                  "[fig 4b] parallel insertion (random, single socket), %zu elems, M inserts/s", n);
    run_section(title, n, /*ordered=*/false, single, report);
    if (!cli.get_bool("smoke")) {
        std::snprintf(title, sizeof(title),
                      "[fig 4c] parallel insertion (ordered, multi socket), %zu elems, M inserts/s", n);
        run_section(title, n, /*ordered=*/true, multi, report);
        std::snprintf(title, sizeof(title),
                      "[fig 4d] parallel insertion (random, multi socket), %zu elems, M inserts/s", n);
        run_section(title, n, /*ordered=*/false, multi, report);
    }
    return report.write() ? 0 : 1;
}
