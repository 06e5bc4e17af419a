// Reproduces Figure 3 (a-f): sequential performance of the performance-
// critical set operations across all Table 1 data structures.
//
//   ./build/bench/fig3_sequential [--full] [--sides=1000,2000] [--json=FILE]
//
// (a) insertion, ordered          [M inserts/s]
// (b) insertion, random order     [M inserts/s]
// (c) membership tests, ordered   [M queries/s]
// (d) membership tests, random    [M queries/s]
// (e) full-range scan after ordered insert  [M entries/s]
// (f) full-range scan after random insert   [M entries/s]
//
// After each insertion fill, the B-tree rows also report their tree shape
// (nodes, keys per node); --json records it in a "shape" section, where the
// ordered fills show the right-spine split policy (DESIGN.md §16) at work.
//
// Expected shape (paper §4.1): B-trees beat both the red-black tree and the
// hash sets on insertion thanks to cache locality; ordered insertion runs
// ~5x faster than random; hints give a large boost on ordered membership
// tests but cannot amortise on pure insertion; B-tree scans dominate; our
// seq btree is comparable to the google-style btree, and the concurrent
// btree pays a modest synchronisation tax on top.

#include "bench/common.h"

#include "baselines/adapters.h"

#include <cstdio>
#include <string>
#include <vector>

namespace {

using namespace dtree;
using namespace dtree::bench;
using namespace dtree::baselines;

using Contestants = std::tuple<
    ClassicBTreeAdapter<Point>, SeqBTreeAdapter<Point>, SeqBTreeNoHintsAdapter<Point>,
    OurBTreeAdapter<Point>, OurBTreeNoHintsAdapter<Point>, StlSetAdapter<Point>,
    StlHashSetAdapter<Point>, TbbLikeHashSetAdapter<Point>>;

template <typename Fn>
void sweep(Fn&& fn) {
    for_each_type<ClassicBTreeAdapter<Point>, SeqBTreeAdapter<Point>,
                  SeqBTreeNoHintsAdapter<Point>, OurBTreeAdapter<Point>,
                  OurBTreeNoHintsAdapter<Point>, StlSetAdapter<Point>,
                  StlHashSetAdapter<Point>, TbbLikeHashSetAdapter<Point>>(fn);
}

/// Tree shape of one B-tree row after one insertion fill.
struct ShapeRow {
    std::string fill; ///< "ordered" or "random"
    std::string structure;
    std::size_t elements = 0;
    std::size_t leaves = 0;
    std::size_t inner_nodes = 0;
    unsigned block_size = 0;
    double keys_per_node = 0.0;
};

void run_insert(const util::Cli& cli, bool ordered, JsonReport& report,
                std::vector<ShapeRow>& shapes) {
    const auto sides = grid_sides(cli);
    util::SeriesTable table(ordered ? "[fig 3a] sequential insertion (ordered), M inserts/s"
                                    : "[fig 3b] sequential insertion (random), M inserts/s",
                            "elements");
    std::vector<std::string> xs;
    for (auto s : sides) xs.push_back(label(s));
    table.set_x(xs);

    sweep([&]<typename Adapter>() {
        for (std::size_t side : sides) {
            auto pts = grid_points(side);
            if (!ordered) pts = shuffled(std::move(pts), 42);
            Adapter set;
            util::Timer t;
            for (const auto& p : pts) set.insert(p);
            const double secs = t.elapsed_s();
            table.add(Adapter::name(), static_cast<double>(pts.size()) / secs / 1e6);
            if constexpr (requires { set.tree().stats(); }) {
                const auto s = set.tree().stats();
                shapes.push_back({ordered ? "ordered" : "random", Adapter::name(),
                                  s.elements, s.leaf_nodes, s.inner_nodes,
                                  s.block_size, s.keys_per_node()});
            }
        }
    });
    table.print();
    report.add_table(table);
}

void print_shapes(const std::vector<ShapeRow>& shapes) {
    std::printf("\n[fig 3a/3b] B-tree shape after each insertion fill\n");
    std::printf("%-8s %-16s %10s %8s %7s %10s\n", "fill", "structure",
                "elements", "leaves", "inner", "keys/node");
    for (const auto& r : shapes) {
        std::printf("%-8s %-16s %10zu %8zu %7zu %7.1f/%u\n", r.fill.c_str(),
                    r.structure.c_str(), r.elements, r.leaves, r.inner_nodes,
                    r.keys_per_node, r.block_size);
    }
}

void write_shapes(json::Writer& w, const std::vector<ShapeRow>& shapes) {
    w.begin_array();
    for (const auto& r : shapes) {
        w.begin_object();
        w.kv("fill", r.fill);
        w.kv("structure", r.structure);
        w.kv("elements", r.elements);
        w.kv("leaves", r.leaves);
        w.kv("inner_nodes", r.inner_nodes);
        w.kv("block_size", r.block_size);
        w.kv("keys_per_node", r.keys_per_node);
        w.end_object();
    }
    w.end_array();
}

void run_membership(const util::Cli& cli, bool ordered, JsonReport& report) {
    const auto sides = grid_sides(cli);
    util::SeriesTable table(
        ordered ? "[fig 3c] membership test (ordered), M queries/s"
                : "[fig 3d] membership test (random order), M queries/s",
        "elements");
    std::vector<std::string> xs;
    for (auto s : sides) xs.push_back(label(s));
    table.set_x(xs);

    sweep([&]<typename Adapter>() {
        for (std::size_t side : sides) {
            auto pts = grid_points(side);
            Adapter set;
            for (const auto& p : pts) set.insert(p);
            auto queries = ordered ? pts : shuffled(pts, 17);
            util::Timer t;
            std::size_t found = 0;
            for (const auto& q : queries) found += set.contains(q) ? 1 : 0;
            const double secs = t.elapsed_s();
            if (found != queries.size()) std::fprintf(stderr, "BUG: missing elements\n");
            table.add(Adapter::name(), static_cast<double>(queries.size()) / secs / 1e6);
        }
    });
    table.print();
    report.add_table(table);
}

void run_scan(const util::Cli& cli, bool ordered_fill, JsonReport& report) {
    const auto sides = grid_sides(cli);
    util::SeriesTable table(
        ordered_fill ? "[fig 3e] full-range scan after ordered insert, M entries/s"
                     : "[fig 3f] full-range scan after random insert, M entries/s",
        "elements");
    std::vector<std::string> xs;
    for (auto s : sides) xs.push_back(label(s));
    table.set_x(xs);

    // Hints are not applicable to iteration (§4.1); skip the hinted
    // duplicates so each structure appears once, as in the paper's plot.
    for_each_type<ClassicBTreeAdapter<Point>, SeqBTreeAdapter<Point>,
                  OurBTreeAdapter<Point>, StlSetAdapter<Point>,
                  StlHashSetAdapter<Point>, TbbLikeHashSetAdapter<Point>>(
        [&]<typename Adapter>() {
            for (std::size_t side : sides) {
                auto pts = grid_points(side);
                if (!ordered_fill) pts = shuffled(std::move(pts), 7);
                Adapter set;
                for (const auto& p : pts) set.insert(p);
                util::Timer t;
                std::uint64_t checksum = 0;
                std::size_t count = 0;
                set.for_each([&](const Point& p) {
                    checksum += p[1];
                    ++count;
                });
                const double secs = t.elapsed_s();
                if (count != pts.size()) std::fprintf(stderr, "BUG: scan incomplete\n");
                (void)checksum;
                table.add(Adapter::name(), static_cast<double>(count) / secs / 1e6);
            }
        });
    table.print();
    report.add_table(table);
}

} // namespace

int main(int argc, char** argv) {
    dtree::util::Cli cli(argc, argv);
    if (const std::string bad = cli.first_unknown({"full", "sides", "json"});
        !bad.empty()) {
        return unknown_flag(bad);
    }
    JsonReport report("fig3_sequential", cli);
    std::vector<ShapeRow> shapes;
    run_insert(cli, /*ordered=*/true, report, shapes);
    run_insert(cli, /*ordered=*/false, report, shapes);
    print_shapes(shapes);
    report.add_section("shape", [&](json::Writer& w) { write_shapes(w, shapes); });
    run_membership(cli, /*ordered=*/true, report);
    run_membership(cli, /*ordered=*/false, report);
    run_scan(cli, /*ordered_fill=*/true, report);
    run_scan(cli, /*ordered_fill=*/false, report);
    return report.write() ? 0 : 1;
}
