// perfbench runner: one seeded run of a benchmark workload through the public
// API — datalog::compile, Engine::add_facts/run/ingest/refixpoint, net::Server
// with net::Client, and the storage adapters. Normally started by run.py.
//
//   perfbench_runner --workload=doop|ec2 --seed=N --seconds=S --trace=0|1
//                    [--trace-out=FILE]
//   perfbench_runner --selftest
//
// A run first evaluates the oracle (std::set storage, untimed), then:
//   batch phase  fresh engines on storage::OurBTree, run() at 1 and 4
//                threads, alternating, until the phase budget is spent; every
//                rep's relations are digested and compared with the oracle;
//   serve phase  serve_mix.h — wire traffic against storage::OurBTreeSnap.
// --trace=0 reports the end-to-end metrics. --trace=1 reports the per-layer
// ones: the same phases plus a pass on TimedStorage<OurBTree>, reference runs
// on seq btree and google btree, and an in-memory span log written at exit.
//
// Prints one JSON object on the last line of stdout; exits 1 when any check
// failed, 2 on bad usage, 3 when the build is instrumented.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "datalog/program.h"
#include "runtime/scheduler.h"
#include "util/cli.h"
#include "util/json.h"

#include "perfbench/instance.h"
#include "perfbench/report.h"
#include "perfbench/serve_mix.h"
#include "perfbench/timed_storage.h"

namespace {

using namespace dtree;
using namespace perfbench;
using datalog::Engine;
namespace storage = datalog::storage;
using TimedBTree = TimedStorage<storage::OurBTree>;
using SeqBTree = baselines::SeqBTreeAdapter<StorageTuple>;

// The traced pass must run the engine's bulk-merge path, not the point-insert
// fallback: otherwise it would time a different program.
static_assert(datalog::Relation<TimedBTree>::bulk_mergeable);
static_assert(datalog::Relation<storage::OurBTree>::bulk_mergeable);

/// Why this binary must not be measured, or "" when it is a plain build.
std::string instrumented_reason() {
    std::string why;
#ifdef DATATREE_METRICS
    why += " DATATREE_METRICS";
#endif
#ifdef DATATREE_FAILPOINTS
    why += " DATATREE_FAILPOINTS";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    why += " sanitizer";
#endif
    if (std::strstr(PERFBENCH_FLAGS, "-fsanitize")) why += " -fsanitize";
    return why;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()) + 0.999999);
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

// -- peak resident set ----------------------------------------------------------

/// One field of /proc/self/status in MB (0 when absent).
double status_mb(const char* field) {
    std::ifstream status("/proc/self/status");
    std::string line;
    const std::size_t n = std::strlen(field);
    while (std::getline(status, line)) {
        if (line.compare(0, n, field) == 0) return std::stod(line.substr(n)) / 1024.0;
    }
    return 0;
}

/// Peak resident set of a timed phase, above what was resident when it began
/// (the inputs and the oracle). The kernel's high-water mark is reset at the
/// start. A host that refuses the reset fails the run: the lifetime peak
/// would measure the oracle and the warm-up reps, not the phase.
class PeakRss {
public:
    explicit PeakRss(Report& r) {
        malloc_trim(0);
        std::ofstream clear("/proc/self/clear_refs");
        clear << "5";
        clear.close();
        base_mb_ = status_mb("VmRSS:");
        const double hwm = status_mb("VmHWM:");
        r.check(clear && hwm > 0 && hwm - base_mb_ < 1.0,
                "could not reset the peak-RSS high-water mark (/proc/self/clear_refs)");
    }
    double growth_mb() const { return status_mb("VmHWM:") - base_mb_; }

private:
    double base_mb_ = 0;
};

// -- span log (traced pass) -----------------------------------------------------

class SpanLog {
public:
    struct Span {
        std::string name, layer;
        Clock::time_point start, end;
        int parent;
    };

    int open(const std::string& name, const std::string& layer, int parent = -1) {
        spans_.push_back({name, layer, Clock::now(), {}, parent});
        return static_cast<int>(spans_.size()) - 1;
    }
    void close(int id) { spans_[id].end = Clock::now(); }
    void add(const std::string& name, const std::string& layer, Clock::time_point s,
             Clock::time_point e, int parent) {
        spans_.push_back({name, layer, s, e, parent});
    }

    /// Chrome trace-event JSON (complete events, one track per layer).
    void write(const std::string& path) const {
        if (path.empty() || spans_.empty()) return;
        std::ofstream os(path);
        json::Writer w(os, /*pretty=*/false);
        const auto t0 = spans_.front().start;
        const auto us = [&](Clock::time_point t) {
            return std::chrono::duration<double, std::micro>(t - t0).count();
        };
        w.begin_object();
        w.key("traceEvents");
        w.begin_array();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            w.begin_object();
            w.kv("name", s.name);
            w.kv("cat", s.layer);
            w.kv("ph", "X");
            w.kv("ts", us(s.start));
            w.kv("dur", us(s.end) - us(s.start));
            w.kv("pid", 1);
            w.kv("tid", s.layer);
            w.key("args");
            w.begin_object();
            w.kv("id", static_cast<std::uint64_t>(i));
            w.kv("parent", s.parent);
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }

private:
    std::vector<Span> spans_;
};

// -- batch evaluation -------------------------------------------------------------

struct EvalRep {
    double compile_s = 0, load_s = 0, run_s = 0;
    double setup_s() const { return compile_s + load_s; }
    datalog::EngineStats stats;
    double rule_s = 0; ///< sum of RuleProfile seconds
    runtime::SchedulerStats sched;
    OpTotals ops;      ///< TimedStorage calls during run() (traced pass only)
    bool correct = true;
};

runtime::SchedulerStats sched_delta(const runtime::SchedulerStats& a,
                                    const runtime::SchedulerStats& b) {
    runtime::SchedulerStats d;
    d.regions = b.regions - a.regions;
    d.tasks = b.tasks - a.tasks;
    d.steals = b.steals - a.steals;
    d.steal_failures = b.steal_failures - a.steal_failures;
    d.idle_ns = b.idle_ns - a.idle_ns;
    return d;
}

/// One fresh engine: compile + load (set-up), run() timed, then digested
/// against the oracle outside the timed region. `span_parent` >= 0 records
/// spans for the traced pass.
template <typename Storage>
EvalRep eval_once(const datalog::Workload& w, unsigned threads, const Oracle* oracle,
                  SpanLog* spans = nullptr, int span_parent = -1) {
    EvalRep rep;
    const auto c0 = Clock::now();
    Engine<Storage> engine(datalog::compile(w.source));
    const auto c1 = Clock::now();
    for (const auto& [rel, facts] : w.facts) engine.add_facts(rel, facts);
    const auto c2 = Clock::now();
    rep.compile_s = ms_since(c0, c1) / 1e3;
    rep.load_s = ms_since(c1, c2) / 1e3;
    if (threads > 1) {
        // Wake the pool first: a parked worker credits its whole park to
        // idle_ns when it next wakes, which would charge this run with the
        // gap since the previous one.
        runtime::Scheduler::instance().parallel_for(
            2 * threads, threads, {runtime::SchedMode::Steal, 1},
            [](unsigned, std::size_t, std::size_t) {});
    }
    const auto sched0 = runtime::Scheduler::instance().stats();
    const OpTotals ops0 = OpLedger::instance().totals();
    const auto r0 = Clock::now();
    engine.run(threads);
    const auto r1 = Clock::now();
    rep.run_s = ms_since(r0, r1) / 1e3;
    rep.ops = OpLedger::instance().totals() - ops0;
    rep.sched = sched_delta(sched0, runtime::Scheduler::instance().stats());
    if (spans) {
        spans->add("compile", "frontend", c0, c1, span_parent);
        spans->add("add_facts", "relation", c1, c2, span_parent);
        spans->add("run", "engine", r0, r1, span_parent);
    }
    rep.stats = engine.stats();
    for (const auto& p : engine.profile()) rep.rule_s += p.seconds;
    if (oracle) rep.correct = digest(engine) == oracle->digests;
    return rep;
}

/// Set-up only (compile + load), for extra set-up samples.
double setup_once(const datalog::Workload& w) {
    const auto c0 = Clock::now();
    Engine<storage::OurBTree> engine(datalog::compile(w.source));
    for (const auto& [rel, facts] : w.facts) engine.add_facts(rel, facts);
    return ms_since(c0, Clock::now()) / 1e3;
}

template <typename Fn>
std::vector<double> collect(const std::vector<EvalRep>& reps, Fn&& fn) {
    std::vector<double> out;
    for (const auto& r : reps) out.push_back(fn(r));
    return out;
}

struct BatchPhase {
    std::vector<EvalRep> t1, t4;
    std::vector<double> setup_s;
    double rss_mb = 0; ///< peak RSS growth during the first measured 1-thread rep
};

/// Fewest reps per thread count in a batch phase, whatever the budget.
constexpr std::size_t kMinReps = 3;

/// One untimed warm-up rep per thread count (the first 4-thread run pays for
/// the worker pool and per-thread malloc arenas), then 1- and 4-thread reps
/// alternate until `budget_s` is spent (at least kMinReps each). Set-up
/// samples are topped up to `min_setup` with set-up-only reps.
BatchPhase run_batch(const Instance& in, const Oracle& oracle, double budget_s,
                     std::size_t min_setup, Report& report) {
    const auto checked = [&](EvalRep rep, unsigned threads) {
        report.check(rep.correct, "OurBTree relations differ from the std::set oracle (" +
                                      std::to_string(threads) + " threads)");
        return rep;
    };
    BatchPhase b;
    for (unsigned threads : {1u, 4u}) {
        checked(eval_once<storage::OurBTree>(in.full, threads, &oracle), threads);
    }
    const auto start = Clock::now();
    while (b.t1.size() < kMinReps || b.t4.size() < kMinReps ||
           ms_since(start, Clock::now()) < budget_s * 1e3) {
        for (unsigned threads : {1u, 4u}) {
            std::optional<PeakRss> peak;
            if (threads == 1 && b.t1.empty()) peak.emplace(report);
            EvalRep rep = checked(eval_once<storage::OurBTree>(in.full, threads, &oracle), threads);
            if (peak) b.rss_mb = peak->growth_mb();
            b.setup_s.push_back(rep.setup_s());
            (threads == 1 ? b.t1 : b.t4).push_back(std::move(rep));
        }
        if (b.t1.size() >= 25) break;
    }
    while (b.setup_s.size() < min_setup) b.setup_s.push_back(setup_once(in.full));
    return b;
}

double median_run_s(const std::vector<EvalRep>& reps) {
    return median(collect(reps, [](const EvalRep& e) { return e.run_s; }));
}

// -- selftest -------------------------------------------------------------------

/// Checks the timing wrapper: identical relations to plain OurBTree on every
/// program at small scale and 1/4 threads, bulk merges reach it on doop, and
/// the ingest/refixpoint path agrees with a one-shot run. Every expectation
/// is printed to `out` and counted as one check in `r`.
void selftest(Report& r, std::FILE* out) {
    const auto expect = [&](bool ok, const std::string& what) {
        std::fprintf(out, "  %-64s %s\n", what.c_str(), ok ? "ok" : "FAILED");
        r.check(ok, "selftest: " + what);
    };
    const auto tuples_of = [](const auto& engine) {
        std::map<std::string, std::vector<StorageTuple>> out;
        for (const auto& d : engine.analyzed().decls) out[d.name] = engine.tuples(d.name);
        return out;
    };
    std::vector<std::pair<std::string, datalog::Workload>> programs;
    programs.emplace_back("doop", datalog::make_doop_like(300, 3));
    programs.emplace_back("ec2", datalog::make_ec2_like(256, 5));
    programs.emplace_back("tc", datalog::make_transitive_closure(
                                    datalog::GraphKind::Random, 200, 600, 9));
    for (const auto& [name, w] : programs) {
        for (unsigned threads : {1u, 4u}) {
            Engine<storage::OurBTree> plain(datalog::compile(w.source));
            Engine<TimedBTree> timed(datalog::compile(w.source));
            for (const auto& [rel, facts] : w.facts) {
                plain.add_facts(rel, facts);
                timed.add_facts(rel, facts);
            }
            plain.run(threads);
            const OpTotals before = OpLedger::instance().totals();
            timed.run(threads);
            const OpTotals ops = OpLedger::instance().totals() - before;
            expect(tuples_of(plain) == tuples_of(timed),
                   name + ": TimedStorage relations == OurBTree, threads=" +
                       std::to_string(threads));
            if (name == "doop") {
                expect(ops.calls[static_cast<unsigned>(OpKind::BulkMerge)] > 0,
                       "doop: storage.bulk_merge.calls > 0, threads=" + std::to_string(threads));
            }
        }
    }
    {
        // Serve path on the wrapper: K-batch ingest + refixpoint == one-shot.
        const Instance in = make_instance("ec2", 5, 0.128);
        Engine<storage::OurBTree> oneshot(datalog::compile(in.full.source));
        for (const auto& [rel, facts] : in.full.facts) oneshot.add_facts(rel, facts);
        oneshot.run(2);
        Engine<TimedBTree> inc(datalog::compile(in.full.source));
        for (const auto& [rel, facts] : in.initial) inc.add_facts(rel, facts);
        inc.run(2);
        for (const auto& batch : in.batches) {
            inc.ingest(in.ingest_rel, batch);
            inc.refixpoint(2);
        }
        expect(tuples_of(oneshot) == tuples_of(inc),
               "ec2: TimedStorage ingest+refixpoint == OurBTree one-shot");
    }
}

/// How far storage busy + engine self time may be from the untraced run
/// before the traced pass's split is refused. On a shared 4-vCPU VM the
/// residual measured 0.02-0.17 (the untraced reps alone moved by up to 40%
/// within one run); the split without the timing-cost correction was
/// 0.27-0.46 off, so this bound still refuses an uncorrected split.
constexpr double kMaxResidual = 0.25;

// -- runs --------------------------------------------------------------------------

struct RunArgs {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 40;
    int trace = 0;
    std::string trace_out;
};

/// Pulls one number out of the server's stats JSON: the first `"field":`
/// after `"section"`. Returns 0 when absent.
double stats_field(const std::string& json, const std::string& section,
                   const std::string& field) {
    const auto at = json.find("\"" + section + "\"");
    if (at == std::string::npos) return 0;
    const auto f = json.find("\"" + field + "\":", at);
    if (f == std::string::npos) return 0;
    return std::strtod(json.c_str() + f + field.size() + 3, nullptr);
}

/// What both modes report: the batch and serve phases as a user sees them.
void add_user_metrics(Report& r, const BatchPhase& b, const ServeResult& s, double serve_rss) {
    r.add("setup_s", median(b.setup_s), "s", b.setup_s.size());
    r.add("peak_rss_mb", b.rss_mb, "MB");
    r.add("serve.peak_rss_mb", serve_rss, "MB");
    r.add("eval_s.t1", median_run_s(b.t1), "s", b.t1.size());
    r.add("eval_s.t4", median_run_s(b.t4), "s", b.t4.size());

    // Latency percentiles: the median and the highest percentile with at
    // least ten samples beyond it.
    r.add("query_p50_us", percentile(s.query_us, 0.50), "us", s.query_us.size());
    r.add("query_p99_us", percentile(s.query_us, 0.99), "us", s.query_us.size());
    r.add("range_p50_us", percentile(s.range_us, 0.50), "us", s.range_us.size());
    r.add("range_p99_us", percentile(s.range_us, 0.99), "us", s.range_us.size());
    r.add("commit_p50_ms", percentile(s.commit_ms, 0.50), "ms", s.commit_ms.size());
    r.add("commit_p90_ms", percentile(s.commit_ms, 0.90), "ms", s.commit_ms.size());
    // Ingest throughput while committing: held-back tuples over the summed
    // LOAD+COMMIT round trips (the writer is paced, so wall time would
    // measure the pacing).
    double busy_ms = 0;
    for (double ms : s.commit_ms) busy_ms += ms;
    r.add("ingest_tuples_per_s",
          busy_ms > 0 ? 1e3 * static_cast<double>(s.held_tuples) / busy_ms : 0, "1/s",
          s.commit_ms.size());
    r.add("generator.lag_p99_ms", percentile(s.lag_ms, 0.99), "ms", s.lag_ms.size());
    r.add("serve.setup_s", s.setup_s, "s");
}

ServeResult serve_phase(const RunArgs& a, const Instance& in, const Oracle& oracle, Report& r,
                        double& rss_mb) {
    const PeakRss peak(r);
    ServeResult s = run_serve(in, oracle, std::max(1.0, 0.2 * a.seconds), a.trace != 0,
                              a.seed, r);
    rss_mb = peak.growth_mb();
    return s;
}

void run_untraced(const RunArgs& a, const Instance& in, const Oracle& oracle, Report& r) {
    const BatchPhase b = run_batch(in, oracle, 0.6 * a.seconds, 15, r);
    double serve_rss = 0;
    const ServeResult s = serve_phase(a, in, oracle, r, serve_rss);
    add_user_metrics(r, b, s, serve_rss);
}

void run_traced(const RunArgs& a, const Instance& in, const Oracle& oracle, Report& r) {
    // The wrapper's own checks first: a traced pass is only as good as them.
    selftest(r, stderr);
    SpanLog spans;
    const int root = spans.open("traced pass", "benchmark");

    // Untraced baselines: eval_s.t1 for the overhead ratio and the tax, 4-thread
    // reps for the scheduler counters.
    const BatchPhase b = run_batch(in, oracle, 0.25 * a.seconds, 5, r);
    const double eval_t1 = median_run_s(b.t1);
    const double eval_t4 = median_run_s(b.t4);

    // Traced reps on the timing wrapper, 1 thread, each right after an
    // untraced rep on plain OurBTree: the pair sees the same host, so their
    // ratio is steadier than one against the batch phase's median. The
    // timing's own cost is measured right before each traced rep.
    std::vector<EvalRep> traced, plain;
    std::vector<ScopeCost> costs;
    for (int i = 0; i < 5; ++i) {
        plain.push_back(eval_once<storage::OurBTree>(in.full, 1, &oracle));
        r.check(plain.back().correct, "OurBTree relations differ from the std::set oracle");
        costs.push_back(scope_cost());
        const int parent = spans.open("traced eval", "benchmark", root);
        traced.push_back(eval_once<TimedBTree>(in.full, 1, &oracle, &spans, parent));
        spans.close(parent);
        r.check(traced.back().correct, "TimedStorage relations differ from the oracle");
    }
    // Reference storages under the same engine, 1 thread.
    std::vector<EvalRep> seq, google;
    for (int i = 0; i < 3; ++i) {
        seq.push_back(eval_once<SeqBTree>(in.full, 1, &oracle));
        r.check(seq.back().correct, "seq btree relations differ from the oracle");
        google.push_back(eval_once<storage::GoogleBTree>(in.full, 1, &oracle));
        r.check(google.back().correct, "google btree relations differ from the oracle");
    }

    const int serve_span = spans.open("serve", "benchmark", root);
    double serve_rss = 0;
    const ServeResult s = serve_phase(a, in, oracle, r, serve_rss);
    for (const auto& c : s.spans) {
        spans.add(c.name, std::string(c.name) == "commit" ? "service" : "net", c.start, c.end,
                  serve_span);
    }
    spans.close(serve_span);
    spans.close(root);
    add_user_metrics(r, b, s, serve_rss);

    // frontend / relation
    r.add("frontend.compile_ms",
          1e3 * median(collect(b.t1, [](const EvalRep& e) { return e.compile_s; })), "ms",
          b.t1.size());
    r.add("relation.load_ms",
          1e3 * median(collect(b.t1, [](const EvalRep& e) { return e.load_s; })), "ms",
          b.t1.size());

    // engine
    const EvalRep& e1 = b.t1.front();
    const double rule_t1 = median(collect(b.t1, [](const EvalRep& e) { return e.rule_s; }));
    const double rule_t4 = median(collect(b.t4, [](const EvalRep& e) { return e.rule_s; }));
    r.add("engine.rule_s.t1", rule_t1, "s", b.t1.size());
    r.add("engine.between_rules_s.t1", eval_t1 - rule_t1, "s", b.t1.size());
    r.add("engine.between_rules_s.t4", eval_t4 - rule_t4, "s", b.t4.size());
    r.add("engine.iterations", static_cast<double>(e1.stats.iterations), "count");
    r.add("engine.membership_per_tuple",
          static_cast<double>(e1.stats.ops.membership_tests) /
              static_cast<double>(std::max<std::uint64_t>(1, e1.stats.produced_tuples)),
          "ratio");

    // storage (traced reps; per-kind medians). The timing's own cost is
    // taken off: the part inside the calls' clocks from their busy time, the
    // rest from engine self time. What is left should add up to the untraced
    // run; trace.residual says how far it does not.
    const double spt = seconds_per_tick();
    const std::size_t n = traced.size();
    const auto busy_s = [&](std::size_t i, unsigned k) {
        const OpTotals& ops = traced[i].ops;
        return (static_cast<double>(ops.busy_ticks[k]) - costs[i].inside(ops, k)) * spt;
    };
    const auto storage_s = [&](std::size_t i) {
        double sum = 0;
        for (unsigned k = 0; k < kOpKinds; ++k) sum += busy_s(i, k);
        return sum;
    };
    const auto self_s = [&](std::size_t i) {
        return traced[i].run_s - costs[i].total(traced[i].ops) * spt - storage_s(i);
    };
    const auto med_over_reps = [&](auto fn) {
        std::vector<double> v;
        for (std::size_t i = 0; i < n; ++i) v.push_back(fn(i));
        return median(v);
    };
    for (unsigned k = 0; k < kOpKinds; ++k) {
        const std::string base = std::string("storage.") + kOpKindNames[k];
        r.add(base + ".calls", static_cast<double>(traced.front().ops.calls[k]), "count");
        r.add(base + ".busy_s", med_over_reps([&](std::size_t i) { return busy_s(i, k); }), "s",
              n);
    }
    r.check(traced.front().ops.calls[static_cast<unsigned>(OpKind::BulkMerge)] > 0 ||
                in.name != "doop",
            "no bulk merge reached the storage on doop");
    const double busy = med_over_reps(storage_s);
    const double self = med_over_reps(self_s);
    const double residual = med_over_reps([&](std::size_t i) {
        return (storage_s(i) + self_s(i) - plain[i].run_s) / plain[i].run_s;
    });
    r.add("storage.busy_s", busy, "s", n);
    r.add("storage.busy_share", busy / (busy + self), "ratio", n);
    r.add("engine.self_s.t1", self, "s", n);
    r.add("trace.overhead_ratio",
          med_over_reps([&](std::size_t i) { return traced[i].run_s / plain[i].run_s; }), "ratio",
          n);
    r.add("trace.residual", residual, "ratio", n);
    r.check(std::abs(residual) <= kMaxResidual,
            "storage busy + engine self is more than " +
                std::to_string(static_cast<int>(kMaxResidual * 100)) +
                "% away from the untraced run");
    r.add("trace.scope_ns", med_over_reps([&](std::size_t i) { return costs[i].call_total; }) *
                                spt * 1e9,
          "ns", n);

    // hints (untraced 1-thread run)
    static const char* kHintNames[4] = {"insert", "contains", "lower", "upper"};
    for (int k = 0; k < 4; ++k) {
        const double hits = static_cast<double>(e1.stats.hints.hits[k]);
        const double total = hits + static_cast<double>(e1.stats.hints.misses[k]);
        r.add(std::string("hints.hit_ratio.") + kHintNames[k], total > 0 ? hits / total : 0,
              "ratio");
    }

    // core: concurrency tax against the same engine on other trees
    const double seq_s = median_run_s(seq), google_s = median_run_s(google);
    r.add("ref.seq_btree.eval_s.t1", seq_s, "s", seq.size());
    r.add("ref.google_btree.eval_s.t1", google_s, "s", google.size());
    r.add("core.concurrency_tax.t1", eval_t1 / seq_s, "ratio", seq.size());

    // scheduler (4-thread reps)
    const auto med4 = [&](auto fn) { return median(collect(b.t4, fn)); };
    r.add("sched.regions", med4([](const EvalRep& e) { return double(e.sched.regions); }),
          "count", b.t4.size());
    r.add("sched.tasks", med4([](const EvalRep& e) { return double(e.sched.tasks); }), "count",
          b.t4.size());
    r.add("sched.steal_hit_ratio", med4([](const EvalRep& e) {
              const double tries = double(e.sched.steals + e.sched.steal_failures);
              return tries > 0 ? double(e.sched.steals) / tries : 0.0;
          }),
          "ratio", b.t4.size());
    r.add("sched.idle_s", med4([](const EvalRep& e) { return double(e.sched.idle_ns) * 1e-9; }),
          "s", b.t4.size());
    r.add("sched.parallel_efficiency", eval_t1 / (4.0 * eval_t4), "ratio", b.t4.size());

    // snapshot layer, ingest, service, net (serve phase)
    const auto& es = s.engine_stats;
    r.add("snapshot.pins", static_cast<double>(es.snapshot_pins), "count");
    r.add("snapshot.cow_images", static_cast<double>(es.snapshot_cow_images), "count");
    r.add("snapshot.retained_mb", static_cast<double>(es.snapshot_retained_bytes) / (1 << 20),
          "MB");
    r.add("ingest.refixpoint_iterations", static_cast<double>(es.refixpoint_iterations),
          "count");
    r.add("ingest.group_commit_ratio",
          s.group_commits ? static_cast<double>(s.commits) / static_cast<double>(s.group_commits)
                          : 0,
          "ratio");
    r.add("service.commit_ms_p50",
          stats_field(s.server_stats_json, "commit_latency_us", "p50_us") / 1e3, "ms",
          s.group_commits);
    const double service_query = median(s.service_query_us);
    r.add("service.query_us", service_query, "us", s.service_query_us.size());
    const double requests = static_cast<double>(std::max<std::uint64_t>(1, s.frames_in));
    r.add("net.bytes_per_request", static_cast<double>(s.bytes_in + s.bytes_out) / requests,
          "B");
    r.add("net.wire_query_us", percentile(s.query_us, 0.50) - service_query, "us",
          s.query_us.size());
    r.add("net.timeouts", static_cast<double>(s.timeouts), "count");
    r.add("net.errors_sent", static_cast<double>(s.errors_sent), "count");

    spans.write(a.trace_out);
}

} // namespace

int main(int argc, char** argv) {
    util::Cli cli(argc, argv);
    const std::string why = instrumented_reason();
    if (!why.empty()) {
        std::fprintf(stderr,
                     "perfbench: refusing an instrumented build (%s); configure the "
                     "default build\n",
                     why.c_str() + 1);
        return 3;
    }
    if (cli.get_bool("selftest")) {
        Report r;
        selftest(r, stdout);
        std::printf("selftest: %s\n", r.ok() ? "ok" : "FAILED");
        return r.ok() ? 0 : 1;
    }

    RunArgs a;
    a.workload = cli.get_str("workload", "");
    a.seed = cli.get_u64("seed", 1);
    a.seconds = static_cast<double>(cli.get_u64("seconds", 40));
    a.trace = static_cast<int>(cli.get_u64("trace", 0));
    a.trace_out = cli.get_str("trace-out", "");
    if (a.workload != "doop" && a.workload != "ec2") {
        std::fprintf(stderr, "perfbench: --workload must be doop or ec2\n");
        return 2;
    }

    const auto wall0 = Clock::now();
    const Instance in = make_instance(a.workload, a.seed);
    Report r;
    {
        // The oracle is evaluated before anything is timed; peak RSS counts
        // only growth above what is resident afterwards (the inputs and the
        // oracle's tuple lists).
        const Oracle oracle = make_oracle(in.full);
        if (a.trace) {
            run_traced(a, in, oracle, r);
        } else {
            run_untraced(a, in, oracle, r);
        }
    }
    r.write(std::cout, a.workload, a.seed, a.trace, ms_since(wall0, Clock::now()) / 1e3);
    std::cout.flush();
    return r.ok() ? 0 : 1;
}
