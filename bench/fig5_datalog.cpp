// Reproduces Figure 5 (a, b): end-to-end Datalog evaluation runtime with
// different relation data structures plugged into the soufflette engine.
//
//   ./build/bench/fig5_datalog [--full] [--scale=N] [--threads=1,2,4,8]
//                              [--json=FILE]
//
// The engine runs its rule fanout on the persistent work-stealing pool
// (runtime/scheduler.h) at the default grain of 64 tuples.
//
// (a) Doop-style context-insensitive var-points-to (insertion-heavy)
// (b) EC2-style security reachability analysis (read-heavy)
//
// Thread-unsafe reference structures run behind a global lock (exactly the
// paper's setup). Expected shape (§4.3): the optimistic btree leads at every
// thread count (~1.5x over the google-style btree sequentially, ~4x over the
// TBB-like hash set on (a), ~2x on (b)); hints add up to 10% on (a) and up
// to ~1.5x on (b); globally locked structures show some scaling only on the
// read-heavy workload (reads bypass the lock).

#include "bench/common.h"

#include "datalog/program.h"
#include "datalog/workloads.h"

#include <cstdio>

namespace {

using namespace dtree;
using namespace dtree::bench;
using namespace dtree::datalog;

template <typename Storage>
double run_engine(const Workload& w, unsigned threads) {
    Engine<Storage> engine(compile(w.source));
    for (const auto& [rel, facts] : w.facts) engine.add_facts(rel, facts);
    util::Timer t;
    engine.run(threads);
    return t.elapsed_s();
}

void run_section(const char* title, const Workload& w,
                 const std::vector<unsigned>& threads, JsonReport& report) {
    util::SeriesTable table(title, "threads");
    std::vector<std::string> xs;
    for (unsigned t : threads) xs.push_back(std::to_string(t));
    table.set_x(xs);

    auto sweep = [&]<typename Storage>(const char* name) {
        for (unsigned t : threads) table.add(name, run_engine<Storage>(w, t));
    };
    sweep.template operator()<storage::OurBTree>("btree");
    sweep.template operator()<storage::OurBTreeNoHints>("btree (n/h)");
    sweep.template operator()<storage::StlSet>("STL rbtset");
    sweep.template operator()<storage::StlHashSet>("STL hashset");
    sweep.template operator()<storage::GoogleBTree>("google btree");
    sweep.template operator()<storage::TbbHashSet>("TBB hashset");
    table.print();
    report.add_table(table);
}

} // namespace

int main(int argc, char** argv) {
    dtree::util::Cli cli(argc, argv);
    const bool full = cli.get_bool("full");
    // Quick-mode scales keep the quadratic full-scan joins of the hash-based
    // engines inside a couple of minutes; raise with --scale on big machines.
    const std::size_t doop_scale = cli.get_u64("scale", full ? 20000 : 500);
    const std::size_t ec2_scale = cli.get_u64("scale", full ? 20000 : 700);
    const auto threads =
        cli.get_list("threads", full ? std::vector<unsigned>{1, 2, 4, 8, 16, 24, 32}
                                     : std::vector<unsigned>{1, 2, 4, 8, 16});

    const Workload doop = make_doop_like(doop_scale, 7);
    const Workload ec2 = make_ec2_like(ec2_scale, 11);

    JsonReport report("fig5_datalog", cli);
    char title[160];
    std::snprintf(title, sizeof(title),
                  "[fig 5a] var-points-to analysis (insertion heavy, scale %zu), runtime [s]",
                  doop_scale);
    run_section(title, doop, threads, report);
    std::snprintf(title, sizeof(title),
                  "[fig 5b] security vulnerability analysis (read heavy, scale %zu), runtime [s]",
                  ec2_scale);
    run_section(title, ec2, threads, report);
    return report.write() ? 0 : 1;
}
