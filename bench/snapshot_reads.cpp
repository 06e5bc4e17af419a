// Snapshot reader latency under concurrent evaluation-style write load
// (DESIGN.md §11). Sweeps reader-thread × writer-thread counts on a
// snapshot-enabled 2D-point tree: writers insert random points while an
// epoch ticker advances the boundary, and each reader continuously pins a
// fresh snapshot and runs a bounded range scan from a random lower bound —
// the soufflette --serve-probe access pattern in microcosm. Reports p50/p99
// per-operation reader latency and snapshot scan throughput per cell, plus
// the epoch-retention counter block scripts/bench.sh asserts on
// (BENCH_snapshot.json).
//
//   ./build/bench/snapshot_reads [--readers=1,2,4] [--writers=1,2,4]
//       [--n=200000] [--ops=100000] [--scan=256] [--smoke|--full]
//       [--json=FILE]

#include "bench/common.h"
#include "core/btree.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace {

using namespace dtree;
using bench::Point;

using SnapTree = snapshot_btree_set<Point>;

struct CellResult {
    double p50_us = 0;
    double p99_us = 0;
    double scans_per_s = 0;
};

std::uint64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

CellResult run_cell(unsigned readers, unsigned writers, std::size_t prefill,
                    std::size_t ops_per_writer, unsigned scan_len,
                    SnapTree::snapshot_stats& accum) {
    SnapTree tree;
    {
        auto hints = tree.create_hints();
        util::Rng rng(7);
        for (std::size_t i = 0; i < prefill; ++i) {
            tree.insert(Point{rng() % 100000, rng() % 100000}, hints);
        }
    }
    tree.advance_epoch();

    std::atomic<bool> stop{false};
    std::vector<std::vector<std::uint64_t>> samples(readers);
    std::vector<std::thread> team;
    for (unsigned r = 0; r < readers; ++r) {
        team.emplace_back([&, r] {
            util::Rng rng(100 + r);
            samples[r].reserve(1 << 16);
            while (!stop.load(std::memory_order_acquire)) {
                const Point lo{rng() % 100000, 0};
                const std::uint64_t t0 = now_ns();
                const auto snap = tree.snapshot();
                unsigned seen = 0;
                // Bounded scan: at most scan_len points starting at lo. The
                // snapshot walk has no early-exit, so bound the range by key
                // instead (first-column window; dense enough after prefill).
                const Point hi{lo[0] + 1 + scan_len / 8, 0};
                snap.for_each_in_range(lo, hi, [&](const Point&) { ++seen; });
                const std::uint64_t t1 = now_ns();
                samples[r].push_back(t1 - t0);
                (void)seen;
            }
        });
    }

    std::thread ticker([&] {
        while (!stop.load(std::memory_order_acquire)) {
            tree.advance_epoch();
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });

    const std::uint64_t phase_start = now_ns();
    std::vector<std::thread> writer_team;
    for (unsigned w = 0; w < writers; ++w) {
        writer_team.emplace_back([&, w] {
            auto hints = tree.create_hints();
            util::Rng rng(1000 + w);
            for (std::size_t i = 0; i < ops_per_writer; ++i) {
                tree.insert(Point{rng() % 1000000, rng() % 1000000}, hints);
            }
        });
    }
    for (auto& t : writer_team) t.join();
    const double elapsed_s = (now_ns() - phase_start) * 1e-9;
    stop.store(true, std::memory_order_release);
    ticker.join();
    for (auto& t : team) t.join();

    std::vector<std::uint64_t> all;
    for (auto& s : samples) all.insert(all.end(), s.begin(), s.end());
    std::sort(all.begin(), all.end());

    const auto st = tree.snap_stats();
    accum.advances += st.advances;
    accum.pins += st.pins;
    accum.cow_images += st.cow_images;
    accum.retained_bytes += st.retained_bytes;
    accum.cow_bytes += st.cow_bytes;

    CellResult res;
    if (!all.empty()) {
        res.p50_us = all[all.size() / 2] * 1e-3;
        res.p99_us = all[all.size() * 99 / 100] * 1e-3;
        res.scans_per_s = static_cast<double>(all.size()) / elapsed_s;
    }
    return res;
}

} // namespace

int main(int argc, char** argv) {
    util::Cli cli(argc, argv);
    if (const std::string bad =
            cli.first_unknown({"readers", "writers", "n", "ops", "scan",
                               "smoke", "full", "json"});
        !bad.empty()) {
        return bench::unknown_flag(bad);
    }
    bench::JsonReport report("snapshot_reads", cli);

    std::size_t prefill = 200000, ops = 100000;
    std::vector<unsigned> readers{1, 2, 4}, writers{1, 2, 4};
    if (cli.get_bool("smoke")) {
        prefill = 50000;
        ops = 40000;
        readers = {1, 2};
    } else if (cli.get_bool("full")) {
        prefill = 2000000;
        ops = 1000000;
        writers = {1, 2, 4, 8};
    }
    prefill = cli.get_u64("n", prefill);
    ops = cli.get_u64("ops", ops);
    readers = cli.get_list("readers", readers);
    writers = cli.get_list("writers", writers);
    const unsigned scan_len =
        static_cast<unsigned>(cli.get_u64("scan", 256));

    util::SeriesTable lat("snapshot reader latency (us) while writers run",
                          "writers");
    util::SeriesTable thr("snapshot scans per second", "writers");
    std::vector<std::string> xs;
    for (unsigned w : writers) xs.push_back(std::to_string(w));
    lat.set_x(xs);
    thr.set_x(xs);

    SnapTree::snapshot_stats accum{};
    for (unsigned r : readers) {
        // Buffer the row: SeriesTable::add appends to the most recent series
        // only, so each series' values must be added contiguously.
        std::vector<CellResult> row;
        for (unsigned w : writers) {
            row.push_back(run_cell(r, w, prefill, ops, scan_len, accum));
        }
        const std::string tag = "r=" + std::to_string(r);
        for (const auto& c : row) lat.add(tag + " p50", c.p50_us);
        for (const auto& c : row) lat.add(tag + " p99", c.p99_us);
        for (const auto& c : row) thr.add(tag, c.scans_per_s);
    }
    lat.print();
    thr.print();
    report.add_table(lat);
    report.add_table(thr);

    std::printf("epoch_advances %llu, snapshot_pins %llu, cow_images %llu, "
                "retained %llu bytes live of %llu made\n",
                static_cast<unsigned long long>(accum.advances),
                static_cast<unsigned long long>(accum.pins),
                static_cast<unsigned long long>(accum.cow_images),
                static_cast<unsigned long long>(accum.retained_bytes),
                static_cast<unsigned long long>(accum.cow_bytes));

    report.add_section("snapshot", [&](dtree::json::Writer& jw) {
        jw.begin_object();
        jw.kv("epoch_advances", accum.advances);
        jw.kv("snapshot_pins", accum.pins);
        jw.kv("snapshot_cow_images", accum.cow_images);
        jw.kv("snapshot_retained_bytes", accum.retained_bytes);
        jw.kv("snapshot_cow_bytes", accum.cow_bytes);
        jw.end_object();
    });
    return report.write() ? 0 : 1;
}
