// Ablation: operation hints (§3.2) — hit rate and throughput as a function
// of input sortedness, per operation kind. The paper's claim: hints exploit
// the orderedness Datalog evaluation produces naturally; this bench shows
// how the benefit decays as that orderedness is destroyed.
//
//   ./build/bench/ablation_hints [--n=1000000] [--json=FILE]
//
// Sortedness levels: sorted, block-shuffled (sorted runs of K), random.

#include "bench/common.h"

#include "core/btree.h"

#include <cstdio>

namespace {

using namespace dtree;
using namespace dtree::bench;

std::vector<Point> with_sortedness(std::vector<Point> pts, std::size_t run_len,
                                   std::uint64_t seed) {
    if (run_len == 0) return shuffled(std::move(pts), seed); // fully random
    if (run_len >= pts.size()) return pts;                   // fully sorted
    // Shuffle the order of sorted blocks: locality within runs survives.
    const std::size_t blocks = (pts.size() + run_len - 1) / run_len;
    util::Rng rng(seed * 31 + 77);
    auto perm = util::permutation(blocks, rng);
    std::vector<Point> out;
    out.reserve(pts.size());
    for (std::size_t b : perm) {
        const std::size_t begin = b * run_len;
        const std::size_t end = std::min(begin + run_len, pts.size());
        out.insert(out.end(), pts.begin() + static_cast<std::ptrdiff_t>(begin),
                   pts.begin() + static_cast<std::ptrdiff_t>(end));
    }
    return out;
}

struct Result {
    double insert_mops;
    double reinsert_mops;
    double query_mops;
    double insert_hit_rate;
    double query_hit_rate;
};

Result measure(const std::vector<Point>& input) {
    Result r{};
    btree_set<Point> t;
    auto h = t.create_hints();
    util::Timer timer;
    for (const auto& p : input) t.insert(p, h);
    r.insert_mops = static_cast<double>(input.size()) / timer.elapsed_s() / 1e6;
    r.insert_hit_rate = h.stats.hit_rate();

    // Duplicate re-insertion: the dominant Datalog pattern.
    auto h2 = t.create_hints();
    util::Timer timer2;
    for (const auto& p : input) t.insert(p, h2);
    r.reinsert_mops = static_cast<double>(input.size()) / timer2.elapsed_s() / 1e6;

    auto qh = t.create_hints();
    util::Timer timer3;
    std::size_t found = 0;
    for (const auto& p : input) found += t.contains(p, qh) ? 1 : 0;
    r.query_mops = static_cast<double>(found) / timer3.elapsed_s() / 1e6;
    r.query_hit_rate = qh.stats.hit_rate();
    return r;
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
    auto base = grid_points(side);
    base.resize(n);

    struct Level {
        const char* name;
        std::size_t run_len;
    };
    const Level levels[] = {
        {"sorted", n}, {"runs of 4096", 4096}, {"runs of 64", 64}, {"random", 0}};

    std::printf("[ablation] operation hints vs input sortedness (%zu 2-D points)\n\n", n);
    std::printf("%-16s %12s %12s %12s %12s %12s\n", "sortedness", "ins M/s",
                "re-ins M/s", "query M/s", "ins hit%", "query hit%");
    std::vector<std::pair<std::string, Result>> results;
    for (const auto& lvl : levels) {
        const auto input = with_sortedness(base, lvl.run_len, 5);
        const Result r = measure(input);
        results.emplace_back(lvl.name, r);
        std::printf("%-16s %12.2f %12.2f %12.2f %12.1f %12.1f\n", lvl.name,
                    r.insert_mops, r.reinsert_mops, r.query_mops,
                    100.0 * r.insert_hit_rate, 100.0 * r.query_hit_rate);
    }
    std::printf("\n(hints cost nothing when they miss and eliminate full root-to-leaf\n"
                "traversals when they hit; Datalog workloads sit near the top rows)\n");

    JsonReport report("ablation_hints", cli);
    report.add_section("sortedness", [&](json::Writer& w) {
        w.begin_array();
        for (const auto& [name, r] : results) {
            w.begin_object();
            w.kv("level", name);
            w.kv("insert_mops", r.insert_mops);
            w.kv("reinsert_mops", r.reinsert_mops);
            w.kv("query_mops", r.query_mops);
            w.kv("insert_hit_rate", r.insert_hit_rate);
            w.kv("query_hit_rate", r.query_hit_rate);
            w.end_object();
        }
        w.end_array();
    });
    return report.write() ? 0 : 1;
}
