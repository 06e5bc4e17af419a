// Reproduces Table 3: insertion throughput on 32-bit integer keys for the
// alternative concurrent tree designs of §4.4 — our optimistic B-tree vs
// (simplified re-implementations of) PALM tree, Masstree and B-slack tree —
// at 1/2/4/8 threads, ordered and random key order.
//
//   ./build/bench/table3_trees [--full] [--n=1000000] [--threads=1,2,4,8] [--json=FILE]
//
// Expected shape: B-tree > Masstree > B-slack > PALM in absolute throughput;
// PALM stays flat with threads (batch-queue bound); the others scale.

#include "bench/common.h"

#include "baselines/bslack_tree.h"
#include "baselines/masstree_like.h"
#include "baselines/palm_tree.h"
#include "core/btree.h"
#include "util/parallel.h"

#include <cstdio>
#include <numeric>

namespace {

using namespace dtree;
using namespace dtree::bench;

std::vector<std::uint32_t> make_keys(std::size_t n, bool ordered) {
    // n distinct keys spread over the full 32-bit space (multiplication by
    // an odd constant is a bijection mod 2^32): "ordered" inserts them in
    // ascending key order, "random" in scattered order.
    std::vector<std::uint32_t> keys(n);
    for (std::size_t i = 0; i < n; ++i) {
        keys[i] = static_cast<std::uint32_t>(i) * 2654435761u;
    }
    if (ordered) std::sort(keys.begin(), keys.end());
    return keys;
}

/// Inserts the keys from `threads` threads (block partitioned) and reads
/// them all back once; returns insert throughput in M elements/s.
template <typename Tree, typename InsertFn, typename VerifyFn>
double run_one(const std::vector<std::uint32_t>& keys, unsigned threads,
               InsertFn&& do_insert, VerifyFn&& verify) {
    Tree tree(threads);
    util::Timer t;
    util::parallel_blocks(keys.size(), threads,
                          [&](unsigned, std::size_t b, std::size_t e) {
                              for (std::size_t i = b; i < e; ++i) do_insert(tree, keys[i]);
                          });
    const double secs = t.elapsed_s();
    verify(tree);
    return static_cast<double>(keys.size()) / secs / 1e6;
}

struct OurTree {
    // btree_set has no (unsigned) ctor; wrap for a uniform interface.
    explicit OurTree(unsigned) {}
    btree_set<std::uint32_t> tree;
};

} // namespace

int main(int argc, char** argv) {
    dtree::util::Cli cli(argc, argv);
    if (const std::string bad =
            cli.first_unknown({"full", "n", "threads", "json"});
        !bad.empty()) {
        return unknown_flag(bad);
    }
    const std::size_t n =
        cli.get_u64("n", cli.get_bool("full") ? 10'000'000ull : 1'000'000ull);
    const auto threads = cli.get_list("threads", {1, 2, 4, 8});

    std::printf("=== [table 3] throughput inserting %zu 32-bit integers "
                "(ordered/random) [10^6 elements/second] ===\n\n",
                n);
    std::printf("%8s %20s %20s %20s %20s\n", "Threads", "B-tree", "PALM tree",
                "Masstree", "B-slack");

    struct Record {
        unsigned threads;
        double mops[4][2]; // [tree][ordered, random]
    };
    std::vector<Record> records;

    for (unsigned t : threads) {
        double results[4][2];
        for (int ordered = 1; ordered >= 0; --ordered) {
            const auto keys = make_keys(n, ordered == 1);
            const int col = 1 - ordered;

            results[0][col] = run_one<OurTree>(
                keys, t, [](OurTree& w, std::uint32_t k) { w.tree.insert(k); },
                [&](OurTree& w) {
                    if (w.tree.size() != n) std::fprintf(stderr, "BUG: btree lost keys\n");
                });
            results[1][col] = run_one<baselines::palm_tree<std::uint32_t>>(
                keys, t, [](auto& p, std::uint32_t k) { p.insert(k); },
                [&](auto& p) {
                    if (p.size() != n) std::fprintf(stderr, "BUG: palm lost keys\n");
                });
            results[2][col] = run_one<baselines::masstree_like<std::uint32_t>>(
                keys, t, [](auto& m, std::uint32_t k) { m.insert(k); },
                [&](auto& m) {
                    if (m.size() != n) std::fprintf(stderr, "BUG: masstree lost keys\n");
                });
            results[3][col] = run_one<baselines::bslack_tree<std::uint32_t>>(
                keys, t, [](auto& b, std::uint32_t k) { b.insert(k); },
                [&](auto& b) {
                    if (b.size() != n) std::fprintf(stderr, "BUG: bslack lost keys\n");
                });
        }
        std::printf("%8u %10.2f/%-9.2f %10.2f/%-9.2f %10.2f/%-9.2f %10.2f/%-9.2f\n", t,
                    results[0][0], results[0][1], results[1][0], results[1][1],
                    results[2][0], results[2][1], results[3][0], results[3][1]);
        Record rec;
        rec.threads = t;
        for (int i = 0; i < 4; ++i) {
            rec.mops[i][0] = results[i][0];
            rec.mops[i][1] = results[i][1];
        }
        records.push_back(rec);
    }
    std::printf("\n(paper, 10^7 keys: B-tree 17.5/2.91 .. 97.19/16.97; PALM ~0.4 flat;\n"
                " Masstree 5.99/1.90 .. 36.38/11.41; B-slack 2.73/1.09 .. 11.29/4.84)\n");

    JsonReport report("table3_trees", cli);
    report.add_section("results", [&](json::Writer& w) {
        static const char* tree_names[4] = {"btree", "palm", "masstree", "bslack"};
        w.begin_array();
        for (const auto& rec : records) {
            w.begin_object();
            w.kv("threads", rec.threads);
            for (int i = 0; i < 4; ++i) {
                w.kv(std::string(tree_names[i]) + "_ordered_mops", rec.mops[i][0]);
                w.kv(std::string(tree_names[i]) + "_random_mops", rec.mops[i][1]);
            }
            w.end_object();
        }
        w.end_array();
    });
    return report.write() ? 0 : 1;
}
