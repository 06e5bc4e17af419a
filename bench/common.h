#pragma once

// Shared infrastructure for the figure/table reproduction harnesses: point
// generators matching the paper's micro-benchmarks (§4.1: "insert varying
// numbers of 2D points", ordered = lexicographic, random = shuffled) and a
// type-list applicator to sweep adapter types.

#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/tuple.h"
#include "runtime/scheduler.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/table.h"
#include "util/timer.h"

namespace dtree::bench {

using Point = Tuple<2>;

/// All points of an n×n grid in lexicographic order.
inline std::vector<Point> grid_points(std::size_t side) {
    std::vector<Point> out;
    out.reserve(side * side);
    for (std::uint64_t x = 0; x < side; ++x) {
        for (std::uint64_t y = 0; y < side; ++y) out.push_back(Point{x, y});
    }
    return out;
}

/// Same points, shuffled deterministically.
inline std::vector<Point> shuffled(std::vector<Point> pts, std::uint64_t seed) {
    util::Rng rng(seed);
    util::shuffle(pts, rng);
    return pts;
}

/// Applies fn.template operator()<T>() for every T in the pack.
template <typename... Ts, typename Fn>
void for_each_type(Fn&& fn) {
    (fn.template operator()<Ts>(), ...);
}

/// The paper's x-axis: side lengths of the point grids (1000², 2000², ... ).
inline std::vector<std::size_t> grid_sides(const util::Cli& cli) {
    if (cli.has("sides")) {
        std::vector<std::size_t> out;
        for (unsigned s : cli.get_list("sides", {})) out.push_back(s);
        return out;
    }
    if (cli.get_bool("full")) return {1000, 2000, 5000, 10000};
    return {300, 600, 1000}; // quick mode: finishes in seconds
}

inline std::string label(std::size_t side) {
    return std::to_string(side) + "^2";
}

/// Machine-readable run record: every bench that accepts `--json <path>`
/// funnels its results through one of these. The emitted shape is uniform
/// across benches — scripts/bench.sh aggregates the files into BENCH_*.json:
///
///   {
///     "bench": "fig4_parallel_insert",
///     "config": { "<flag>": "<value>", ... },          // exact CLI flags
///     "metrics_enabled": true,
///     "metrics": { "<counter>": n, ... },              // metrics Snapshot
///     "scheduler": { "regions": n, "steals": n, ... }, // SchedulerStats,
///                                                      // every build
///     "throughput": [                                  // one per SeriesTable
///       { "title": ..., "x_label": ..., "x": [...],
///         "series": { "<name>": [y, ...], ... } }
///     ],
///     ... custom sections (table2 stats, hint rates) ...
///   }
class JsonReport {
public:
    JsonReport(std::string bench_name, const util::Cli& cli)
        : bench_(std::move(bench_name)),
          path_(cli.get_str("json", "")),
          flags_(cli.flags()) {}

    /// True iff the user asked for a JSON dump (--json=FILE given).
    bool requested() const { return !path_.empty(); }

    /// Records a printed table; call right after table.print().
    void add_table(const util::SeriesTable& t) {
        if (requested()) tables_.push_back(t);
    }

    /// Registers a custom top-level section, emitted as `"name": <fn output>`.
    void add_section(std::string name, std::function<void(json::Writer&)> fn) {
        if (requested()) sections_.emplace_back(std::move(name), std::move(fn));
    }

    /// Writes the record (no-op without --json). Returns false on I/O error.
    bool write() const {
        if (!requested()) return true;
        std::ofstream os(path_);
        if (!os) {
            std::cerr << "cannot open " << path_ << " for writing\n";
            return false;
        }
        json::Writer w(os);
        w.begin_object();
        w.kv("bench", bench_);
        w.key("config");
        w.begin_object();
        for (const auto& [k, v] : flags_) w.kv(k, v);
        w.end_object();
        w.kv("metrics_enabled", metrics::enabled());
        w.key("metrics");
        metrics::snapshot().write_json(w);
        w.key("scheduler");
        runtime::Scheduler::instance().stats().write_json(w);
        w.key("throughput");
        w.begin_array();
        for (const auto& t : tables_) {
            w.begin_object();
            w.kv("title", t.metric());
            w.kv("x_label", t.x_label());
            w.key("x");
            w.begin_array();
            for (const auto& x : t.xs()) w.value(x);
            w.end_array();
            w.key("series");
            w.begin_object();
            for (const auto& [name, vals] : t.rows()) {
                w.key(name);
                w.begin_array();
                for (double v : vals) w.value(v);
                w.end_array();
            }
            w.end_object();
            w.end_object();
        }
        w.end_array();
        for (const auto& [name, fn] : sections_) {
            w.key(name);
            fn(w);
        }
        w.end_object();
        std::cerr << "wrote " << path_ << "\n";
        return os.good();
    }

private:
    std::string bench_;
    std::string path_;
    std::map<std::string, std::string> flags_;
    std::vector<util::SeriesTable> tables_;
    std::vector<std::pair<std::string, std::function<void(json::Writer&)>>> sections_;
};

} // namespace dtree::bench
