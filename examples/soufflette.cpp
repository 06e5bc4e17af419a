// soufflette — a standalone Datalog runner in the spirit of the Soufflé CLI,
// built entirely on this repository's engine and the specialized concurrent
// B-tree. The fifth example, and the closest thing to "using the system":
//
//   ./build/examples/soufflette program.dl --facts=DIR --output=DIR --jobs=8
//
// Input relations (`.decl r(...) input`) are loaded from DIR/r.facts
// (tab-separated unsigned integers, one tuple per line); output relations
// are written to DIR/r.csv. --stats prints Table-2-style statistics.
// --profile prints a per-rule breakdown; --profile=FILE additionally writes
// a machine-readable JSON record {runtime, stats, profile, scheduler,
// metrics} to FILE (Soufflé-profiler style).
// Parallel regions always run on the work-stealing pool
// (runtime/scheduler.h); any flag outside the usage line exits 2.
// --serve-probe[=N] switches to the snapshot-enabled storage and spawns N
// reader threads (default 1) that pin Relation snapshots and issue point /
// range queries WHILE evaluation runs, cross-checking each snapshot for
// internal consistency (sorted, repeatable, membership-closed); snapshot
// and epoch-retention statistics then show up in --stats / --profile JSON.
// --serve[=FILE] turns the runner into a long-running service (DESIGN.md
// §12): after the initial fixpoint, a command stream (stdin, or a script
// FILE) buffers new facts and group-commits them through Engine::ingest() /
// refixpoint(); per-commit latency lands in a p50/p99/p999 histogram
// reported by --stats and --profile JSON. Combined with --serve-probe, the
// reader threads keep pinning snapshots while batches commit.
// --fingerprints switches to the leaf-layout-v2 storage (DESIGN.md §15):
// membership tests resolve through per-leaf SIMD fingerprint probes and
// in-leaf inserts append instead of shifting. Ignored under --serve-probe /
// --listen, which select the snapshot storage instead.
// --listen[=PORT] starts the TCP wire-protocol server (DESIGN.md §13) after
// the initial fixpoint: concurrent sessions answer QUERY/RANGE/COUNT against
// pinned snapshots while COMMITs group-commit through one writer thread;
// PORT omitted or 0 picks an ephemeral port (printed on startup). The
// process drains and exits cleanly on SIGINT/SIGTERM. Both the stdin loop
// and the wire server dispatch through the same datalog::EngineService, so
// the two surfaces cannot diverge.
//
// Try it on the bundled example:
//   ./build/examples/soufflette examples/programs/reachability.dl
//       --facts=examples/programs/reachability_facts --output=/tmp --stats

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "datalog/io.h"
#include "datalog/program.h"
#include "datalog/service.h"
#include "net/server.h"
#include "runtime/scheduler.h"
#include "util/cli.h"
#include "util/histogram.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace {

using namespace dtree::datalog;

/// What one serve-probe reader observed. Merged and reported after the run.
struct ProbeTally {
    unsigned long long pins = 0;
    unsigned long long scans = 0;
    unsigned long long points = 0;
    unsigned long long tuples = 0;
    unsigned long long epoch_max = 0;
    bool consistent = true;
};

/// One reader's probe loop: pin a snapshot per relation, then verify on the
/// pinned epoch that (a) full-range iteration is strictly sorted, (b) a
/// second iteration replays the identical cardinality (snapshots are
/// immutable even while writers run), (c) sampled members test positive via
/// contains(), and (d) a prefix range scan around a sampled member finds it.
template <typename EngineT>
void probe_loop(const EngineT& engine, const std::vector<std::string>& rels,
                const std::atomic<bool>& stop, unsigned tid, ProbeTally& tally) {
    const std::uint64_t salt = 0x9e3779b97f4a7c15ull * (tid + 1);
    for (bool final_sweep = false;;) {
        // Latch stop BEFORE the sweep: the sweep that observes it still runs
        // in full, so the end-of-run epoch publish is always probed. (The
        // old do/while broke out the moment stop was seen, skipping it.)
        if (stop.load(std::memory_order_acquire)) final_sweep = true;
        for (const auto& name : rels) {
            const auto& rel = engine.relation(name);
            const auto snap = rel.snapshot();
            ++tally.pins;
            tally.epoch_max = std::max(
                tally.epoch_max,
                static_cast<unsigned long long>(snap.epoch()));
            bool ok = true;
            std::size_t n = 0;
            StorageTuple prev{}, sample{};
            bool have = false, have_sample = false;
            snap.for_each([&](const StorageTuple& t) {
                if (have && !(prev < t)) ok = false;
                prev = t;
                have = true;
                if ((salt + ++n) % 97 == 0) {
                    sample = t;
                    have_sample = true;
                }
            });
            std::size_t replay = 0;
            snap.for_each([&](const StorageTuple&) { ++replay; });
            if (replay != n) ok = false;
            ++tally.scans;
            tally.tuples += n;
            if (have) {
                ++tally.points;
                if (!snap.contains(prev)) ok = false;
            }
            if (have_sample) {
                ++tally.points;
                if (!snap.contains(sample)) ok = false;
                std::size_t hits = 0;
                snap.scan_prefix(sample, 1,
                                 [&](const StorageTuple&) { ++hits; });
                if (hits == 0) ok = false; // sample itself lies in the range
                ++tally.scans;
            }
            if (!ok) tally.consistent = false;
        }
        if (final_sweep) break;
    }
}

/// Serve-loop tallies: per-commit latency plus totals, reported by --stats
/// and the --profile JSON "ingest" section.
struct ServeStats {
    dtree::util::Histogram latency; ///< ns per commit (ingest + refixpoint)
    unsigned long long commits = 0;
    unsigned long long new_tuples = 0;
    unsigned long long refixpoint_iterations = 0;
};

/// The --serve command stream, one command per line (stdin or a script
/// file). Command errors report and continue — a service survives bad input.
///
///   fact REL v1 [v2 ...]   buffer one typed fact (symbol columns interned)
///   load REL PATH          buffer a whole .facts file for REL
///   commit                 group-commit buffered facts, then refixpoint
///   query REL v1 [v2 ...]  point membership (typed columns; prints epoch on
///                          snapshot-capable storage)
///   scan REL [v1 ...]      prefix range scan: tuples whose leading columns
///                          equal the given values (none = full scan)
///   count REL              print REL's current tuple count
///   quit                   leave the loop (EOF also commits an open batch)
///
/// All dispatch goes through datalog::EngineService — the same layer the
/// wire-protocol server uses, so `query` over stdin and QUERY over TCP
/// cannot drift apart.
template <typename EngineT>
void serve_loop(EngineT& engine, std::istream& in, unsigned jobs, ServeStats& st) {
    EngineService<EngineT> svc(engine);
    typename EngineService<EngineT>::Batch batch;
    auto commit = [&] {
        if (batch.empty()) {
            std::printf("nothing to commit\n");
            return;
        }
        dtree::util::Timer timer;
        const auto res = svc.commit(batch, jobs);
        const std::uint64_t ns = timer.elapsed_ns();
        st.latency.record(ns);
        ++st.commits;
        st.new_tuples += res.fresh;
        st.refixpoint_iterations += res.iterations;
        std::printf("committed %llu new tuple(s), %llu refixpoint iteration(s), "
                    "%.3f ms\n",
                    static_cast<unsigned long long>(res.fresh),
                    static_cast<unsigned long long>(res.iterations),
                    static_cast<double>(ns) / 1e6);
    };
    /// Parses the remaining tokens of `ss` as typed columns of `d`; requires
    /// exactly `want` of them (the query arity or the scan prefix length).
    auto parse_columns = [&](const std::string& cmd, const RelationDecl& d,
                             std::istringstream& ss, std::size_t want,
                             StorageTuple& t) {
        std::string tok;
        for (std::size_t c = 0; c < want; ++c) {
            if (!(ss >> tok)) {
                throw std::runtime_error(cmd + ": expected " +
                                         std::to_string(want) + " column(s) for " +
                                         d.name);
            }
            t[c] = svc.parse_column(d, static_cast<unsigned>(c), tok);
        }
        if (ss >> tok) {
            throw std::runtime_error(cmd + ": trailing characters after column " +
                                     std::to_string(want));
        }
    };
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r') line.pop_back();
        std::istringstream ss(line);
        std::string cmd;
        if (!(ss >> cmd) || cmd[0] == '#') continue;
        try {
            if (cmd == "fact") {
                std::string rel;
                if (!(ss >> rel)) throw std::runtime_error("fact: missing relation");
                const RelationDecl& d = svc.decl(rel);
                StorageTuple t{};
                parse_columns(cmd, d, ss, d.arity(), t);
                batch[rel].push_back(t);
            } else if (cmd == "load") {
                std::string rel, path;
                if (!(ss >> rel >> path)) {
                    throw std::runtime_error("load: usage: load REL PATH");
                }
                const auto facts = read_fact_file(
                    path, svc.decl(rel).attribute_types, engine.symbols());
                auto& b = batch[rel];
                b.insert(b.end(), facts.begin(), facts.end());
                std::printf("buffered %zu fact(s) for %s\n", facts.size(), rel.c_str());
            } else if (cmd == "commit") {
                commit();
            } else if (cmd == "query") {
                std::string rel;
                if (!(ss >> rel)) throw std::runtime_error("query: missing relation");
                const RelationDecl& d = svc.decl(rel);
                StorageTuple t{};
                parse_columns(cmd, d, ss, d.arity(), t);
                const auto res = svc.query(rel, t);
                if (EngineService<EngineT>::snapshots) {
                    std::printf("%s (epoch %llu)\n", res.found ? "present" : "absent",
                                static_cast<unsigned long long>(res.epoch));
                } else {
                    std::printf("%s\n", res.found ? "present" : "absent");
                }
            } else if (cmd == "scan") {
                std::string rel;
                if (!(ss >> rel)) throw std::runtime_error("scan: missing relation");
                const RelationDecl& d = svc.decl(rel);
                // Prefix length = however many column values follow.
                std::vector<std::string> toks;
                std::string tok;
                while (ss >> tok) toks.push_back(tok);
                if (toks.size() > d.arity()) {
                    throw std::runtime_error("scan: more columns than the arity of " +
                                             rel);
                }
                StorageTuple bound{};
                for (std::size_t c = 0; c < toks.size(); ++c) {
                    bound[c] = svc.parse_column(d, static_cast<unsigned>(c), toks[c]);
                }
                std::size_t n = 0;
                const std::uint64_t epoch =
                    svc.scan(rel, bound, static_cast<unsigned>(toks.size()),
                             [&](const StorageTuple& t) {
                                 std::printf("%s\n", svc.format_tuple(d, t).c_str());
                                 ++n;
                             });
                if (EngineService<EngineT>::snapshots) {
                    std::printf("%zu tuple(s) (epoch %llu)\n", n,
                                static_cast<unsigned long long>(epoch));
                } else {
                    std::printf("%zu tuple(s)\n", n);
                }
            } else if (cmd == "count") {
                std::string rel;
                if (!(ss >> rel)) throw std::runtime_error("count: missing relation");
                svc.decl(rel);
                std::printf("%s: %llu tuple(s)\n", rel.c_str(),
                            static_cast<unsigned long long>(svc.count(rel).tuples));
            } else if (cmd == "quit") {
                break;
            } else {
                throw std::runtime_error("unknown command: " + cmd);
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "serve: %s\n", e.what());
        }
    }
    if (!batch.empty()) commit(); // EOF flushes an open batch
}

template <typename EngineT>
int run_soufflette(const std::string& program_path, const dtree::util::Cli& cli,
                   unsigned probe_threads) {
    const std::string facts_dir = cli.get_str("facts", ".");
    const std::string output_dir = cli.get_str("output", ".");
    const unsigned jobs = static_cast<unsigned>(cli.get_u64("jobs", 1));

    const AnalyzedProgram prog = compile(read_text_file(program_path));
    EngineT engine(prog);

    for (const auto& decl : prog.decls) {
        if (!decl.is_input) continue;
        const std::string path = facts_dir + "/" + decl.name + ".facts";
        const auto facts =
            read_fact_file(path, decl.attribute_types, engine.symbols());
        engine.add_facts(decl.name, facts);
        std::printf("loaded %zu facts into %s\n", facts.size(), decl.name.c_str());
    }

    // --serve-probe: reader threads pinning snapshots while the engine runs.
    std::atomic<bool> probe_stop{false};
    std::vector<ProbeTally> tallies(probe_threads);
    std::vector<std::thread> probes;
    std::vector<std::string> probe_rels;
    if constexpr (EngineT::RelationT::snapshot_capable) {
        for (const auto& decl : prog.decls) probe_rels.push_back(decl.name);
        probes.reserve(probe_threads);
        for (unsigned t = 0; t < probe_threads; ++t) {
            probes.emplace_back([&engine, &probe_rels, &probe_stop, &tallies, t] {
                probe_loop(engine, probe_rels, probe_stop, t, tallies[t]);
            });
        }
    }

    dtree::util::Timer timer;
    engine.run(jobs);
    const double runtime_s = timer.elapsed_s();
    std::printf("evaluation finished in %.3f s on %u job(s)\n", runtime_s, jobs);

    // --listen: the wire-protocol server runs AFTER the initial fixpoint and
    // blocks until SIGINT/SIGTERM (drain: in-flight commits finish, sessions
    // flush, then we fall through to outputs/stats). serve-probe readers keep
    // pinning snapshots alongside the remote sessions.
    bool net_consistent = true;
    if constexpr (EngineT::RelationT::snapshot_capable) {
        if (cli.has("listen")) {
            const std::string port_str = cli.get_str("listen", "1");
            dtree::net::ServerConfig cfg;
            // Bare --listen (the CLI stores "1" for valueless flags) means
            // "pick an ephemeral port", same as an explicit --listen=0.
            cfg.port = port_str == "1"
                ? 0
                : static_cast<std::uint16_t>(cli.get_u64("listen", 0));
            cfg.jobs = jobs;
            dtree::net::Server<EngineT> server(engine, cfg);
            dtree::net::install_signal_handlers(&server.stop_controller());
            server.start();
            std::printf("listening on 127.0.0.1:%u (SIGINT/SIGTERM drains and "
                        "exits)\n",
                        server.port());
            std::fflush(stdout);
            server.wait();
            dtree::net::install_signal_handlers(nullptr);
            const auto& c = server.counters();
            std::printf("wire server: %llu connection(s), %llu frame(s) in / "
                        "%llu out, %llu commit(s) queued in %llu group(s), "
                        "%llu timeout(s), %llu shed\n",
                        static_cast<unsigned long long>(c.connections.load()),
                        static_cast<unsigned long long>(c.frames_in.load()),
                        static_cast<unsigned long long>(c.frames_out.load()),
                        static_cast<unsigned long long>(c.commits_queued.load()),
                        static_cast<unsigned long long>(c.group_commits.load()),
                        static_cast<unsigned long long>(c.timeouts.load()),
                        static_cast<unsigned long long>(c.sessions_shed.load()));
        }
    } else if (cli.has("listen")) {
        std::fprintf(stderr,
                     "--listen requires snapshot-capable storage (internal "
                     "dispatch error)\n");
        net_consistent = false;
    }

    // --serve: the command loop runs AFTER the initial fixpoint; serve-probe
    // readers (if any) keep pinning snapshots while batches commit.
    ServeStats serve;
    if (cli.has("serve")) {
        const std::string src = cli.get_str("serve", "1");
        std::ifstream script;
        std::istream* in = &std::cin;
        if (src != "1") {
            script.open(src);
            if (!script) {
                std::fprintf(stderr, "cannot open serve script %s\n", src.c_str());
                probe_stop.store(true, std::memory_order_release);
                for (auto& th : probes) th.join();
                return 1;
            }
            in = &script;
        }
        serve_loop(engine, *in, jobs, serve);
    }

    probe_stop.store(true, std::memory_order_release);
    for (auto& th : probes) th.join();

    bool probes_consistent = true;
    if (!probes.empty()) {
        ProbeTally total;
        for (const auto& t : tallies) {
            total.pins += t.pins;
            total.scans += t.scans;
            total.points += t.points;
            total.tuples += t.tuples;
            total.epoch_max = std::max(total.epoch_max, t.epoch_max);
            total.consistent = total.consistent && t.consistent;
        }
        probes_consistent = total.consistent;
        std::printf("serve-probe: %u reader(s), %llu snapshots, %llu scans "
                    "(%llu tuples), %llu point probes, max epoch %llu, "
                    "consistency %s\n",
                    probe_threads, total.pins, total.scans, total.tuples,
                    total.points, total.epoch_max,
                    total.consistent ? "OK" : "FAILED");
    }

    for (const auto& decl : prog.decls) {
        if (!decl.is_output) continue;
        const auto tuples = engine.tuples(decl.name);
        const std::string path = output_dir + "/" + decl.name + ".csv";
        write_fact_file(path, decl.attribute_types, tuples, engine.symbols());
        std::printf("wrote %zu tuples to %s\n", tuples.size(), path.c_str());
    }

    if (cli.get_bool("profile")) {
        std::printf("\n-- rule profile (hottest first) --\n");
        for (const auto& p : engine.profile()) {
            std::printf("%8.3f s  %6llu evals  %8llu tuples  %s%s (rule #%zu)\n",
                        p.seconds,
                        static_cast<unsigned long long>(p.evaluations),
                        static_cast<unsigned long long>(p.tuples),
                        p.head.c_str(), p.recursive ? " [recursive]" : "",
                        p.rule_index);
        }

        // --profile=FILE (anything but a bare boolean): also emit the
        // machine-readable record.
        const std::string profile_path = cli.get_str("profile", "");
        if (profile_path != "1" && !profile_path.empty()) {
            std::ofstream os(profile_path);
            if (!os) {
                std::fprintf(stderr, "cannot open %s for writing\n",
                             profile_path.c_str());
                return 1;
            }
            dtree::json::Writer w(os);
            w.begin_object();
            w.kv("program", program_path);
            w.kv("jobs", jobs);
            w.kv("runtime_seconds", runtime_s);
            w.key("stats");
            engine.stats().write_json(w);
            if (serve.commits) {
                w.key("ingest");
                w.begin_object();
                w.kv("commits", serve.commits);
                w.kv("new_tuples", serve.new_tuples);
                w.kv("refixpoint_iterations", serve.refixpoint_iterations);
                w.key("latency");
                serve.latency.write_json(w);
                w.end_object();
            }
            w.key("profile");
            w.begin_array();
            for (const auto& p : engine.profile()) p.write_json(w);
            w.end_array();
            w.key("scheduler");
            w.begin_object();
            w.kv("grain", engine.grain());
            w.key("pool");
            dtree::runtime::Scheduler::instance().stats().write_json(w);
            w.end_object();
            w.kv("metrics_enabled", dtree::metrics::enabled());
            w.key("metrics");
            dtree::metrics::snapshot().write_json(w);
            w.end_object();
            std::printf("wrote profile to %s\n", profile_path.c_str());
        }
    }

    if (cli.get_bool("stats")) {
        const EngineStats s = engine.stats();
        std::printf("\n-- statistics --\n");
        std::printf("relations: %zu, rules: %zu, fixpoint iterations: %llu\n",
                    s.relations, s.rules,
                    static_cast<unsigned long long>(s.iterations));
        std::printf("inserts: %llu, membership: %llu, bounds: %llu/%llu\n",
                    static_cast<unsigned long long>(s.ops.inserts),
                    static_cast<unsigned long long>(s.ops.membership_tests),
                    static_cast<unsigned long long>(s.ops.lower_bound_calls),
                    static_cast<unsigned long long>(s.ops.upper_bound_calls));
        std::printf("input tuples: %llu, produced tuples: %llu\n",
                    static_cast<unsigned long long>(s.input_tuples),
                    static_cast<unsigned long long>(s.produced_tuples));
        std::printf("hint hit rate: %.1f%%\n", 100.0 * s.hints.hit_rate());
        if (serve.commits) {
            std::printf("serve: %llu commit(s), %llu new tuple(s), "
                        "%llu refixpoint iteration(s), latency p50 %.1f us / "
                        "p99 %.1f us / p999 %.1f us\n",
                        serve.commits, serve.new_tuples,
                        serve.refixpoint_iterations,
                        static_cast<double>(serve.latency.p50()) / 1e3,
                        static_cast<double>(serve.latency.p99()) / 1e3,
                        static_cast<double>(serve.latency.p999()) / 1e3);
        }
        if (s.epoch) {
            std::printf("snapshots: epoch %llu, %llu advances, %llu pins, "
                        "%llu cow images, %llu retained bytes live "
                        "(%llu made)\n",
                        static_cast<unsigned long long>(s.epoch),
                        static_cast<unsigned long long>(s.epoch_advances),
                        static_cast<unsigned long long>(s.snapshot_pins),
                        static_cast<unsigned long long>(s.snapshot_cow_images),
                        static_cast<unsigned long long>(s.snapshot_retained_bytes),
                        static_cast<unsigned long long>(s.snapshot_cow_bytes));
        }
        const auto ps = dtree::runtime::Scheduler::instance().stats();
        std::printf("scheduler: grain %zu, %llu regions, %llu tasks, "
                    "%llu steals (%llu failed probes), %llu pool threads\n",
                    engine.grain(),
                    static_cast<unsigned long long>(ps.regions),
                    static_cast<unsigned long long>(ps.tasks),
                    static_cast<unsigned long long>(ps.steals),
                    static_cast<unsigned long long>(ps.steal_failures),
                    static_cast<unsigned long long>(ps.threads_spawned));
    }
    return probes_consistent && net_consistent ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2 || argv[1][0] == '-') {
        std::fprintf(stderr,
                     "usage: %s <program.dl> [--facts=DIR] [--output=DIR] "
                     "[--jobs=N] "
                     "[--serve[=FILE]] [--serve-probe[=N]] [--listen[=PORT]] "
                     "[--fingerprints] [--stats] "
                     "[--profile[=FILE]]\n",
                     argv[0]);
        return 2;
    }
    const std::string program_path = argv[1];
    dtree::util::Cli cli(argc - 1, argv + 1);
    const std::string unknown =
        cli.first_unknown({"facts", "output", "jobs", "serve", "serve-probe",
                           "listen", "fingerprints", "stats", "profile"});
    if (!unknown.empty()) {
        std::fprintf(stderr, "unknown flag --%s\n", unknown.c_str());
        return 2;
    }
    const unsigned probe_threads = cli.has("serve-probe")
        ? std::max(1u, static_cast<unsigned>(cli.get_u64("serve-probe", 1)))
        : 0;

    try {
        const bool fingerprints = cli.get_bool("fingerprints");
        // Snapshot-capable storage whenever someone will read concurrently
        // with evaluation: probe readers or wire-protocol sessions.
        if (probe_threads || cli.has("listen")) {
            if (fingerprints) {
                std::fprintf(stderr,
                             "note: --fingerprints is ignored with "
                             "--serve-probe/--listen (snapshot storage "
                             "selected)\n");
            }
            return run_soufflette<Engine<storage::OurBTreeSnap>>(
                program_path, cli, probe_threads);
        }
        if (fingerprints) {
            return run_soufflette<Engine<storage::OurBTreeFp>>(
                program_path, cli, 0);
        }
        return run_soufflette<DefaultEngine>(program_path, cli, 0);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
