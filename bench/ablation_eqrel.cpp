// Ablation: equivalence relations as explicit B-tree pairs vs the eqrel
// union-find structure. A single k-element equivalence class is k² tuples
// for a pair relation but O(k) union-find nodes — the reason Soufflé pairs
// the specialized B-tree with a dedicated eqrel structure.
//
//   ./build/bench/ablation_eqrel [--classes=64] [--class_size=256] [--json=FILE]

#include "bench/common.h"

#include "core/btree.h"
#include "core/eqrel.h"

#include <cstdio>

namespace {

using namespace dtree;

/// Materialises the full closure of `classes` classes of `k` elements each
/// into a B-tree of pairs, the way a plain Datalog program would.
double btree_closure(std::size_t classes, std::size_t k, std::size_t& pairs) {
    btree_set<Tuple<2>> rel;
    util::Timer t;
    auto hints = rel.create_hints();
    for (std::size_t c = 0; c < classes; ++c) {
        const std::uint64_t base = c * k;
        for (std::uint64_t a = 0; a < k; ++a) {
            for (std::uint64_t b = 0; b < k; ++b) {
                rel.insert(Tuple<2>{base + a, base + b}, hints);
            }
        }
    }
    pairs = rel.size();
    return t.elapsed_s();
}

double eqrel_closure(std::size_t classes, std::size_t k, std::size_t& pairs) {
    eqrel rel;
    util::Timer t;
    for (std::size_t c = 0; c < classes; ++c) {
        const std::uint64_t base = c * k;
        for (std::uint64_t i = 0; i + 1 < k; ++i) {
            rel.insert(base + i, base + i + 1); // chain suffices: closure is implicit
        }
    }
    pairs = rel.size();
    return t.elapsed_s();
}

} // namespace

int main(int argc, char** argv) {
    dtree::util::Cli cli(argc, argv);
    if (const std::string bad =
            cli.first_unknown({"classes", "class_size", "json"});
        !bad.empty()) {
        return dtree::bench::unknown_flag(bad);
    }
    const std::size_t classes = cli.get_u64("classes", 64);
    const std::size_t k = cli.get_u64("class_size", 256);

    std::size_t bt_pairs = 0, eq_pairs = 0;
    const double bt = btree_closure(classes, k, bt_pairs);
    const double eq = eqrel_closure(classes, k, eq_pairs);

    std::printf("[ablation] equivalence closure: %zu classes x %zu elements\n\n",
                classes, k);
    std::printf("%-18s %14s %14s\n", "structure", "seconds", "pairs held");
    std::printf("%-18s %14.4f %14zu\n", "btree (pairs)", bt, bt_pairs);
    std::printf("%-18s %14.4f %14zu\n", "eqrel", eq, eq_pairs);
    std::printf("\nspeedup: %.0fx (and O(k) vs O(k^2) memory per class)\n", bt / eq);

    dtree::bench::JsonReport report("ablation_eqrel", cli);
    report.add_section("closure", [&](dtree::json::Writer& w) {
        w.begin_object();
        w.kv("btree_seconds", bt);
        w.kv("btree_pairs", bt_pairs);
        w.kv("eqrel_seconds", eq);
        w.kv("eqrel_pairs", eq_pairs);
        w.end_object();
    });
    return report.write() ? 0 : 1;
}
