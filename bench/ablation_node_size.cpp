// Ablation: B-tree node size (keys per node). DESIGN.md's default targets
// ~512 bytes of key payload per node; this bench justifies that choice by
// sweeping block sizes for ordered/random insertion and membership tests.
//
//   ./build/bench/ablation_node_size [--n=1000000] [--json=FILE]

#include "bench/common.h"

#include "core/btree.h"

#include <cstdio>

namespace {

using namespace dtree;
using namespace dtree::bench;

template <unsigned BlockSize>
void run(const std::vector<Point>& ordered, const std::vector<Point>& random,
         util::SeriesTable& ins_o, util::SeriesTable& ins_r, util::SeriesTable& query) {
    const std::string row = std::to_string(BlockSize) + " keys/node";
    {
        btree_set<Point, ThreeWayComparator<Point>, BlockSize> t;
        auto h = t.create_hints();
        util::Timer timer;
        for (const auto& p : ordered) t.insert(p, h);
        ins_o.add(row, static_cast<double>(ordered.size()) / timer.elapsed_s() / 1e6);

        auto qh = t.create_hints();
        util::Timer qt;
        std::size_t found = 0;
        for (const auto& p : random) found += t.contains(p, qh) ? 1 : 0;
        query.add(row, static_cast<double>(found) / qt.elapsed_s() / 1e6);
    }
    {
        btree_set<Point, ThreeWayComparator<Point>, BlockSize> t;
        auto h = t.create_hints();
        util::Timer timer;
        for (const auto& p : random) t.insert(p, h);
        ins_r.add(row, static_cast<double>(random.size()) / timer.elapsed_s() / 1e6);
    }
}

} // namespace

int main(int argc, char** argv) {
    dtree::util::Cli cli(argc, argv);
    if (const std::string bad = cli.first_unknown({"n", "json"});
        !bad.empty()) {
        return unknown_flag(bad);
    }
    const std::size_t n = cli.get_u64("n", 1'000'000);
    std::size_t side = 1;
    while (side * side < n) ++side;
    auto ordered = grid_points(side);
    ordered.resize(n);
    const auto random = shuffled(ordered, 3);

    util::SeriesTable ins_o("[ablation] ordered insertion vs node size, M inserts/s", "config");
    util::SeriesTable ins_r("[ablation] random insertion vs node size, M inserts/s", "config");
    util::SeriesTable query("[ablation] random membership vs node size, M queries/s", "config");
    for (auto* t : {&ins_o, &ins_r, &query}) t->set_x({std::to_string(n) + " pts"});

    run<4>(ordered, random, ins_o, ins_r, query);
    run<8>(ordered, random, ins_o, ins_r, query);
    run<16>(ordered, random, ins_o, ins_r, query);
    run<32>(ordered, random, ins_o, ins_r, query); // default for Tuple<2>
    run<64>(ordered, random, ins_o, ins_r, query);
    run<128>(ordered, random, ins_o, ins_r, query);
    run<256>(ordered, random, ins_o, ins_r, query);

    ins_o.print();
    ins_r.print();
    query.print();
    std::printf("\n(default block size for 16-byte tuples is %u keys/node)\n",
                dtree::detail::default_block_size<Point>());

    JsonReport report("ablation_node_size", cli);
    report.add_table(ins_o);
    report.add_table(ins_r);
    report.add_table(query);
    return report.write() ? 0 : 1;
}
