// Per-commit ingest latency of the soufflette serve path (ROADMAP item 2,
// DESIGN.md §12). For each workload: load all but a held-back third of the
// facts, run the initial fixpoint, then commit the holdback in K batches
// through Engine::ingest() + refixpoint() while probe readers pin snapshots
// and self-check consistency; per-commit latency lands in a p50/p99/p999
// histogram and the final relations are compared byte-for-byte against a
// one-shot oracle run. scripts/bench.sh aggregates the JSON record into
// BENCH_serve.json and asserts nonzero ingest/refixpoint counters plus the
// equality flag.
//
//   ./build/bench/serve_ingest [--workload=tc|doop|ec2] [--batches=K]
//       [--jobs=N] [--probes=N] [--smoke|--full] [--json=FILE]

#include "bench/common.h"
#include "datalog/program.h"
#include "datalog/workloads.h"
#include "util/histogram.h"

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace dtree;
using datalog::StorageTuple;
using datalog::Workload;

using SnapEngine = datalog::Engine<datalog::storage::OurBTreeSnap>;
using RelationMap = std::map<std::string, std::vector<StorageTuple>>;

struct RunResult {
    std::string name;
    util::Histogram latency; ///< ns per commit (ingest + refixpoint)
    std::uint64_t commits = 0;
    std::uint64_t ingest_batches = 0;
    std::uint64_t ingest_tuples = 0;
    std::uint64_t refixpoint_iterations = 0;
    bool equal = true; ///< incremental final state == one-shot oracle
    unsigned long long probe_pins = 0;
    bool probe_consistent = true;
    double tuples_per_s = 0; ///< committed tuples / total commit wall time
};

RelationMap one_shot(const Workload& w, unsigned jobs) {
    SnapEngine oracle(datalog::compile(w.source));
    for (const auto& [rel, facts] : w.facts) oracle.add_facts(rel, facts);
    oracle.run(jobs);
    RelationMap out;
    for (const auto& d : oracle.analyzed().decls) {
        out[d.name] = oracle.tuples(d.name);
    }
    return out;
}

RunResult run_workload(const Workload& w, unsigned batches, unsigned jobs,
                       unsigned probes,
                       const std::set<std::string>& keep_whole) {
    RunResult res;
    res.name = w.name;
    const RelationMap want = one_shot(w, jobs);

    // Hold back roughly a third of every ingest-safe relation's facts,
    // spread round-robin over the batches.
    std::vector<std::pair<std::string, std::vector<StorageTuple>>> initial;
    std::vector<RelationMap> pending(batches);
    for (const auto& [rel, facts] : w.facts) {
        std::vector<StorageTuple> init;
        if (keep_whole.count(rel)) {
            init = facts;
        } else {
            for (std::size_t i = 0; i < facts.size(); ++i) {
                if (i % 3 == 2) {
                    pending[(i / 3) % batches][rel].push_back(facts[i]);
                } else {
                    init.push_back(facts[i]);
                }
            }
        }
        initial.emplace_back(rel, std::move(init));
    }

    SnapEngine engine(datalog::compile(w.source));
    for (const auto& [rel, facts] : initial) engine.add_facts(rel, facts);
    engine.run(jobs);

    // Probe readers: the --serve-probe access pattern, live during every
    // commit. Each pin drains the snapshot and checks it is sorted and
    // replays identically.
    std::atomic<bool> stop{false};
    std::atomic<unsigned long long> pins{0};
    std::atomic<bool> consistent{true};
    std::vector<std::string> names;
    for (const auto& d : engine.analyzed().decls) names.push_back(d.name);
    std::vector<std::thread> team;
    for (unsigned p = 0; p < probes; ++p) {
        team.emplace_back([&] {
            do {
                for (const auto& name : names) {
                    const auto snap = engine.relation(name).snapshot();
                    pins.fetch_add(1, std::memory_order_relaxed);
                    StorageTuple prev{};
                    bool have = false, ok = true;
                    std::size_t n = 0;
                    snap.for_each([&](const StorageTuple& t) {
                        if (have && !(prev < t)) ok = false;
                        prev = t;
                        have = true;
                        ++n;
                    });
                    std::size_t replay = 0;
                    snap.for_each([&](const StorageTuple&) { ++replay; });
                    if (replay != n) ok = false;
                    if (have && !snap.contains(prev)) ok = false;
                    if (!ok) consistent.store(false, std::memory_order_relaxed);
                }
                // One more sweep after stop: covers the final epoch publish.
            } while (!stop.load(std::memory_order_acquire));
        });
    }

    std::uint64_t committed = 0, total_ns = 0;
    for (const auto& batch : pending) {
        util::Timer timer;
        std::size_t fresh = 0;
        for (const auto& [rel, facts] : batch) {
            fresh += engine.ingest(rel, facts);
        }
        engine.refixpoint(jobs);
        const std::uint64_t ns = timer.elapsed_ns();
        res.latency.record(ns);
        ++res.commits;
        committed += fresh;
        total_ns += ns;
    }

    stop.store(true, std::memory_order_release);
    for (auto& t : team) t.join();
    res.probe_pins = pins.load();
    res.probe_consistent = consistent.load();

    for (const auto& d : engine.analyzed().decls) {
        if (engine.tuples(d.name) != want.at(d.name)) res.equal = false;
    }
    const auto s = engine.stats();
    res.ingest_batches = s.ingest_batches;
    res.ingest_tuples = s.ingest_tuples;
    res.refixpoint_iterations = s.refixpoint_iterations;
    if (total_ns) {
        res.tuples_per_s =
            static_cast<double>(committed) / (static_cast<double>(total_ns) * 1e-9);
    }
    return res;
}

} // namespace

int main(int argc, char** argv) {
    util::Cli cli(argc, argv);
    if (const std::string bad =
            cli.first_unknown({"workload", "batches", "jobs", "probes", "smoke",
                               "full", "json"});
        !bad.empty()) {
        return bench::unknown_flag(bad);
    }
    bench::JsonReport report("serve_ingest", cli);

    std::size_t tc_nodes = 220, tc_edges = 660, doop_scale = 200, ec2_scale = 70;
    unsigned batches = 12;
    if (cli.get_bool("smoke")) {
        tc_nodes = 100;
        tc_edges = 300;
        doop_scale = 120;
        ec2_scale = 40;
        batches = 8;
    } else if (cli.get_bool("full")) {
        tc_nodes = 500;
        tc_edges = 2000;
        doop_scale = 400;
        ec2_scale = 140;
        batches = 24;
    }
    batches = static_cast<unsigned>(cli.get_u64("batches", batches));
    const unsigned jobs = static_cast<unsigned>(cli.get_u64("jobs", 4));
    const unsigned probes = static_cast<unsigned>(cli.get_u64("probes", 2));
    const std::string only = cli.get_str("workload", "");

    std::vector<std::pair<Workload, std::set<std::string>>> suite;
    if (only.empty() || only == "tc") {
        suite.emplace_back(datalog::make_transitive_closure(
                               datalog::GraphKind::Random, tc_nodes, tc_edges, 17),
                           std::set<std::string>{});
    }
    if (only.empty() || only == "doop") {
        suite.emplace_back(datalog::make_doop_like(doop_scale, 19),
                           std::set<std::string>{});
    }
    if (only.empty() || only == "ec2") {
        // `blocked` feeds negations: ingest-unsafe, loads whole up front.
        suite.emplace_back(datalog::make_ec2_like(ec2_scale, 23),
                           std::set<std::string>{"blocked"});
    }
    if (suite.empty()) {
        std::fprintf(stderr, "unknown --workload=%s (tc|doop|ec2)\n",
                     only.c_str());
        return 2;
    }

    std::vector<RunResult> results;
    for (const auto& [w, keep_whole] : suite) {
        results.push_back(run_workload(w, batches, jobs, probes, keep_whole));
        const RunResult& r = results.back();
        std::printf(
            "%-24s %3llu commits  %6llu tuples  %4llu refix iters  "
            "p50 %.1f us  p99 %.1f us  p999 %.1f us  %s%s\n",
            r.name.c_str(), static_cast<unsigned long long>(r.commits),
            static_cast<unsigned long long>(r.ingest_tuples),
            static_cast<unsigned long long>(r.refixpoint_iterations),
            static_cast<double>(r.latency.p50()) / 1e3,
            static_cast<double>(r.latency.p99()) / 1e3,
            static_cast<double>(r.latency.p999()) / 1e3,
            r.equal ? "equal=OK" : "equal=FAILED",
            r.probe_consistent ? "" : " probes=FAILED");
    }

    util::SeriesTable lat("ingest commit latency (us)", "workload");
    util::SeriesTable thr("ingested tuples per second", "workload");
    std::vector<std::string> xs;
    for (const auto& r : results) xs.push_back(r.name);
    lat.set_x(xs);
    thr.set_x(xs);
    for (const auto& r : results) {
        lat.add("p50", static_cast<double>(r.latency.p50()) / 1e3);
    }
    for (const auto& r : results) {
        lat.add("p99", static_cast<double>(r.latency.p99()) / 1e3);
    }
    for (const auto& r : results) {
        lat.add("p999", static_cast<double>(r.latency.p999()) / 1e3);
    }
    for (const auto& r : results) thr.add("tuples/s", r.tuples_per_s);
    lat.print();
    thr.print();
    report.add_table(lat);
    report.add_table(thr);

    bool all_equal = true, all_consistent = true;
    for (const auto& r : results) {
        all_equal = all_equal && r.equal;
        all_consistent = all_consistent && r.probe_consistent;
    }

    report.add_section("serve", [&](json::Writer& jw) {
        jw.begin_array();
        for (const auto& r : results) {
            jw.begin_object();
            jw.kv("workload", r.name);
            jw.kv("commits", r.commits);
            jw.kv("ingest_batches", r.ingest_batches);
            jw.kv("ingest_tuples", r.ingest_tuples);
            jw.kv("refixpoint_iterations", r.refixpoint_iterations);
            jw.kv("equal", r.equal);
            jw.kv("probe_pins", r.probe_pins);
            jw.kv("probe_consistent", r.probe_consistent);
            jw.kv("tuples_per_s", r.tuples_per_s);
            jw.key("latency");
            r.latency.write_json(jw);
            jw.end_object();
        }
        jw.end_array();
    });

    if (!report.write()) return 1;
    return (all_equal && all_consistent) ? 0 : 1;
}
