// Wire-protocol serve-path latency (DESIGN.md §13, ROADMAP items 1–2). Boots
// a net::Server over a transitive-closure engine on a loopback socket, then
// drives it with N concurrent net::Client threads: each commits its share of
// held-back edges in batches while interleaving point queries, prefix range
// scans and counts. Client-side latency per OP TYPE lands in p50/p99/p999
// histograms (the numbers a deployment would actually see: framing + syscalls
// + server dispatch, not just engine time). Every client self-checks the
// consistency obligations — epochs nondecreasing per session, acked facts
// visible to the next snapshot, range scans sorted — and the final state is
// compared byte-for-byte against a one-shot oracle evaluation. scripts/bench.sh
// aggregates the JSON record into BENCH_net.json and asserts nonzero
// net_connections / net_frames_in plus the equal + consistent flags.
//
//   ./build/bench/serve_net [--clients=N] [--jobs=N] [--batches=K]
//       [--smoke|--full] [--json=FILE]

#include "bench/common.h"
#include "datalog/program.h"
#include "datalog/service.h"
#include "datalog/workloads.h"
#include "net/client.h"
#include "net/server.h"
#include "util/histogram.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace dtree;
using datalog::StorageTuple;
using SnapEngine = datalog::Engine<datalog::storage::OurBTreeSnap>;
using RelationMap = std::map<std::string, std::vector<StorageTuple>>;

/// Client-side latency, one histogram per request type (ns).
struct OpHists {
    util::Histogram query, range, commit, count;

    void merge(const OpHists& o) {
        query.merge(o.query);
        range.merge(o.range);
        commit.merge(o.commit);
        count.merge(o.count);
    }
};

struct BenchResult {
    OpHists hists;
    std::uint64_t committed_tuples = 0;
    std::uint64_t commits = 0;
    double wall_s = 0;
    bool consistent = true; ///< client-side obligations held during traffic
    bool equal = true;      ///< final state == one-shot oracle
};

RelationMap one_shot(const datalog::Workload& w, unsigned jobs) {
    SnapEngine oracle(datalog::compile(w.source));
    for (const auto& [rel, facts] : w.facts) oracle.add_facts(rel, facts);
    oracle.run(jobs);
    RelationMap out;
    for (const auto& d : oracle.analyzed().decls) out[d.name] = oracle.tuples(d.name);
    return out;
}

BenchResult run_bench(const datalog::Workload& w, unsigned clients,
                      unsigned jobs, unsigned batches,
                      net::Server<SnapEngine>& server, SnapEngine& engine) {
    BenchResult res;
    const RelationMap want = one_shot(w, jobs);

    // Hold back a third of the edges: that is what the clients will commit.
    std::vector<StorageTuple> initial, held;
    for (const auto& [rel, facts] : w.facts) {
        for (std::size_t i = 0; i < facts.size(); ++i) {
            (i % 3 == 2 ? held : initial).push_back(facts[i]);
        }
    }
    engine.add_facts("edge", initial);
    engine.run(jobs);
    server.start();

    // Split the holdback across clients, round-robin, then each client
    // commits its share in `batches` slices with reads interleaved.
    std::vector<std::vector<StorageTuple>> share(clients);
    for (std::size_t i = 0; i < held.size(); ++i) {
        share[i % clients].push_back(held[i]);
    }

    std::atomic<bool> consistent{true};
    std::vector<OpHists> hists(clients);
    util::Timer wall;
    std::vector<std::thread> team;
    for (unsigned ci = 0; ci < clients; ++ci) {
        team.emplace_back([&, ci] {
            try {
                net::Client c("127.0.0.1", server.port());
                OpHists& h = hists[ci];
                // Epochs are per-relation counters: monotonicity only holds
                // within one relation on one session.
                std::map<std::string, std::uint64_t> last_epoch;
                const auto check_epoch = [&](const std::string& rel,
                                             std::uint64_t e) {
                    auto& last = last_epoch[rel];
                    if (e < last) consistent.store(false);
                    last = e;
                };
                const auto& mine = share[ci];
                const std::size_t per =
                    mine.empty() ? 0 : (mine.size() + batches - 1) / batches;
                for (unsigned b = 0; b < batches && per; ++b) {
                    const std::size_t lo = b * per;
                    if (lo >= mine.size()) break;
                    const std::size_t hi = std::min(mine.size(), lo + per);
                    std::vector<StorageTuple> batch(mine.begin() + lo,
                                                    mine.begin() + hi);
                    c.load("edge", batch, 2);
                    {
                        util::Timer t;
                        c.commit();
                        h.commit.record(t.elapsed_ns());
                    }
                    // Acked facts must be visible to the very next snapshot.
                    for (std::size_t i = 0; i < batch.size(); i += 7) {
                        util::Timer t;
                        const auto q = c.query("edge", batch[i], 2);
                        h.query.record(t.elapsed_ns());
                        if (!q.found) consistent.store(false);
                        check_epoch("edge", q.epoch);
                    }
                    {
                        util::Timer t;
                        std::vector<StorageTuple> scanned;
                        const auto e = c.range(
                            "edge", batch[0], 1, 2,
                            [&](const StorageTuple& t2) { scanned.push_back(t2); });
                        h.range.record(t.elapsed_ns());
                        if (!std::is_sorted(scanned.begin(), scanned.end())) {
                            consistent.store(false);
                        }
                        check_epoch("edge", e);
                    }
                    {
                        util::Timer t;
                        check_epoch("path", c.count("path").epoch);
                        h.count.record(t.elapsed_ns());
                    }
                }
                c.goodbye();
            } catch (const std::exception& e) {
                std::fprintf(stderr, "client %u: %s\n", ci, e.what());
                consistent.store(false);
            }
        });
    }
    for (auto& t : team) t.join();
    res.wall_s = static_cast<double>(wall.elapsed_ns()) * 1e-9;

    server.request_stop();
    server.wait();

    for (const auto& h : hists) {
        res.hists.merge(h);
        res.commits += h.commit.count();
    }
    res.committed_tuples = held.size();
    res.consistent = consistent.load();
    for (const auto& d : engine.analyzed().decls) {
        if (engine.tuples(d.name) != want.at(d.name)) res.equal = false;
    }
    return res;
}

} // namespace

int main(int argc, char** argv) {
    util::Cli cli(argc, argv);
    if (const std::string bad =
            cli.first_unknown({"clients", "jobs", "batches", "smoke", "full",
                               "json"});
        !bad.empty()) {
        return bench::unknown_flag(bad);
    }
    bench::JsonReport report("serve_net", cli);

    std::size_t nodes = 200, edges = 700;
    unsigned batches = 8;
    if (cli.get_bool("smoke")) {
        nodes = 90;
        edges = 280;
        batches = 5;
    } else if (cli.get_bool("full")) {
        nodes = 400;
        edges = 1600;
        batches = 16;
    }
    const unsigned clients = static_cast<unsigned>(cli.get_u64("clients", 4));
    const unsigned jobs = static_cast<unsigned>(cli.get_u64("jobs", 2));
    batches = static_cast<unsigned>(cli.get_u64("batches", batches));

    const auto w = datalog::make_transitive_closure(datalog::GraphKind::Random,
                                                    nodes, edges, 29);
    SnapEngine engine(datalog::compile(w.source));
    net::ServerConfig cfg;
    cfg.jobs = jobs;
    net::Server<SnapEngine> server(engine, cfg);
    const BenchResult r = run_bench(w, clients, jobs, batches, server, engine);
    const net::ServerCounters& sc = server.counters();

    std::printf(
        "serve_net: %u clients  %llu commits  %llu tuples  wall %.2fs\n"
        "  query  p50 %.1f us  p99 %.1f us  p999 %.1f us  (%llu ops)\n"
        "  range  p50 %.1f us  p99 %.1f us  p999 %.1f us  (%llu ops)\n"
        "  commit p50 %.1f us  p99 %.1f us  p999 %.1f us  (%llu ops)\n"
        "  count  p50 %.1f us  p99 %.1f us  p999 %.1f us  (%llu ops)\n"
        "  frames in/out %llu/%llu  group commits %llu  %s%s\n",
        clients, static_cast<unsigned long long>(r.commits),
        static_cast<unsigned long long>(r.committed_tuples), r.wall_s,
        static_cast<double>(r.hists.query.p50()) / 1e3,
        static_cast<double>(r.hists.query.p99()) / 1e3,
        static_cast<double>(r.hists.query.p999()) / 1e3,
        static_cast<unsigned long long>(r.hists.query.count()),
        static_cast<double>(r.hists.range.p50()) / 1e3,
        static_cast<double>(r.hists.range.p99()) / 1e3,
        static_cast<double>(r.hists.range.p999()) / 1e3,
        static_cast<unsigned long long>(r.hists.range.count()),
        static_cast<double>(r.hists.commit.p50()) / 1e3,
        static_cast<double>(r.hists.commit.p99()) / 1e3,
        static_cast<double>(r.hists.commit.p999()) / 1e3,
        static_cast<unsigned long long>(r.hists.commit.count()),
        static_cast<double>(r.hists.count.p50()) / 1e3,
        static_cast<double>(r.hists.count.p99()) / 1e3,
        static_cast<double>(r.hists.count.p999()) / 1e3,
        static_cast<unsigned long long>(r.hists.count.count()),
        static_cast<unsigned long long>(sc.frames_in.load()),
        static_cast<unsigned long long>(sc.frames_out.load()),
        static_cast<unsigned long long>(sc.group_commits.load()),
        r.equal ? "equal=OK" : "equal=FAILED",
        r.consistent ? "" : " consistency=FAILED");

    util::SeriesTable lat("wire-protocol client latency (us)", "op");
    lat.set_x({"query", "range", "commit", "count"});
    for (const auto* h : {&r.hists.query, &r.hists.range, &r.hists.commit,
                          &r.hists.count}) {
        lat.add("p50", static_cast<double>(h->p50()) / 1e3);
    }
    for (const auto* h : {&r.hists.query, &r.hists.range, &r.hists.commit,
                          &r.hists.count}) {
        lat.add("p99", static_cast<double>(h->p99()) / 1e3);
    }
    for (const auto* h : {&r.hists.query, &r.hists.range, &r.hists.commit,
                          &r.hists.count}) {
        lat.add("p999", static_cast<double>(h->p999()) / 1e3);
    }
    lat.print();
    report.add_table(lat);

    report.add_section("net", [&](json::Writer& jw) {
        jw.begin_object();
        jw.kv("clients", static_cast<std::uint64_t>(clients));
        jw.kv("jobs", static_cast<std::uint64_t>(jobs));
        jw.kv("commits", r.commits);
        jw.kv("committed_tuples", r.committed_tuples);
        jw.kv("wall_s", r.wall_s);
        jw.kv("equal", r.equal);
        jw.kv("consistent", r.consistent);
        jw.key("server");
        jw.begin_object();
        jw.kv("connections", sc.connections.load());
        jw.kv("frames_in", sc.frames_in.load());
        jw.kv("frames_out", sc.frames_out.load());
        jw.kv("bytes_in", sc.bytes_in.load());
        jw.kv("bytes_out", sc.bytes_out.load());
        jw.kv("timeouts", sc.timeouts.load());
        jw.kv("sessions_shed", sc.sessions_shed.load());
        jw.kv("commits_queued", sc.commits_queued.load());
        jw.kv("group_commits", sc.group_commits.load());
        jw.kv("errors_sent", sc.errors_sent.load());
        jw.end_object();
        jw.key("latency");
        jw.begin_object();
        jw.key("query");
        r.hists.query.write_json(jw);
        jw.key("range");
        r.hists.range.write_json(jw);
        jw.key("commit");
        r.hists.commit.write_json(jw);
        jw.key("count");
        r.hists.count.write_json(jw);
        jw.end_object();
        jw.end_object();
    });

    if (!report.write()) return 1;
    return (r.equal && r.consistent) ? 0 : 1;
}
