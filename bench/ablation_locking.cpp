// Ablation: synchronisation scheme for concurrent insertion. Compares the
// paper's optimistic read-write locking (§3.1) against the classical
// alternatives it argues against:
//   * pessimistic per-node lock coupling (the B-slack stand-in's scheme),
//   * one global lock around a sequential tree,
//   * no locking at all (sequential tree, 1 thread) as the upper bound.
//
//   ./build/bench/ablation_locking [--n=1000000] [--threads=1,2,4,8] [--json=FILE]

#include "bench/common.h"

#include "baselines/bslack_tree.h"
#include "baselines/classic_btree.h"
#include "baselines/global_lock_set.h"
#include "core/btree.h"
#include "util/parallel.h"

#include <cstdio>

namespace {

using namespace dtree;
using namespace dtree::bench;

std::vector<std::uint64_t> make_keys(std::size_t n, bool ordered) {
    std::vector<std::uint64_t> keys(n);
    for (std::size_t i = 0; i < n; ++i) keys[i] = i * 0x9E3779B97F4A7C15ull;
    if (ordered) std::sort(keys.begin(), keys.end());
    return keys;
}

template <typename InsertFn>
double run(std::size_t n, unsigned threads, bool ordered, InsertFn&& insert) {
    const auto keys = make_keys(n, ordered);
    util::Timer t;
    util::parallel_blocks(keys.size(), threads, [&](unsigned, std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) insert(keys[i]);
    });
    return static_cast<double>(n) / t.elapsed_s() / 1e6;
}

} // namespace

int main(int argc, char** argv) {
    dtree::util::Cli cli(argc, argv);
    if (const std::string bad = cli.first_unknown({"n", "threads", "json"});
        !bad.empty()) {
        return unknown_flag(bad);
    }
    const std::size_t n = cli.get_u64("n", 1'000'000);
    const auto threads = cli.get_list("threads", {1, 2, 4, 8});
    JsonReport report("ablation_locking", cli);

    for (bool ordered : {true, false}) {
        util::SeriesTable table(std::string("[ablation] locking scheme, ") +
                                    (ordered ? "ordered" : "random") +
                                    " insertion, M inserts/s",
                                "threads");
        std::vector<std::string> xs;
        for (unsigned t : threads) xs.push_back(std::to_string(t));
        table.set_x(xs);

        for (unsigned t : threads) {
            btree_set<std::uint64_t> tree;
            table.add("optimistic r/w lock",
                      run(n, t, ordered, [&](std::uint64_t k) { tree.insert(k); }));
        }
        for (unsigned t : threads) {
            baselines::bslack_tree<std::uint64_t> tree;
            table.add("lock coupling (pessimistic)",
                      run(n, t, ordered, [&](std::uint64_t k) { tree.insert(k); }));
        }
        for (unsigned t : threads) {
            baselines::global_lock_set<baselines::classic_btree<std::uint64_t>> tree;
            table.add("global lock",
                      run(n, t, ordered, [&](std::uint64_t k) { tree.insert(k); }));
        }
        {
            seq_btree_set<std::uint64_t> tree;
            table.add("no locking (seq, 1T)",
                      run(n, 1, ordered, [&](std::uint64_t k) { tree.insert(k); }));
        }
        table.print();
        report.add_table(table);
    }
    return report.write() ? 0 : 1;
}
