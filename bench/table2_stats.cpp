// Reproduces Table 2: properties and evaluation statistics of the two
// real-world workload classes, plus the §4.3 operation-hint hit rates
// (54%/52% for Doop at 1/16 threads; 77%/76% for the EC2 analysis).
//
//   ./build/bench/table2_stats [--full] [--scale=N] [--json=FILE]
//                              [--fingerprints]
//
// --fingerprints runs both workloads on the leaf-layout-v2 storage
// (DESIGN.md §15): membership tests resolve through per-leaf fingerprint
// probes.

#include "bench/common.h"

#include "datalog/program.h"
#include "datalog/workloads.h"
#include "util/failpoint.h"

#include <cstdio>
#include <iostream>

namespace {

using namespace dtree;
using namespace dtree::datalog;

struct Row {
    EngineStats stats;
    double hint_rate_1t = 0;
    double hint_rate_16t = 0;
};

template <typename StorageT>
Row measure(const Workload& w) {
    Row row;
    {
        Engine<StorageT> engine(compile(w.source));
        for (const auto& [rel, facts] : w.facts) engine.add_facts(rel, facts);
        engine.run(1);
        row.stats = engine.stats();
        row.hint_rate_1t = row.stats.hints.hit_rate();
    }
    {
        Engine<StorageT> engine(compile(w.source));
        for (const auto& [rel, facts] : w.facts) engine.add_facts(rel, facts);
        engine.run(16);
        row.hint_rate_16t = engine.stats().hints.hit_rate();
    }
    return row;
}

Row measure(const Workload& w, bool fingerprints) {
    if (fingerprints) return measure<storage::OurBTreeFp>(w);
    return measure<storage::OurBTree>(w);
}

void print_row(const char* name, double a, double b) {
    std::printf("%-22s %18.3g %18.3g\n", name, a, b);
}

} // namespace

int main(int argc, char** argv) {
    dtree::util::Cli cli(argc, argv);
    if (const std::string bad =
            cli.first_unknown({"full", "scale", "json", "fingerprints"});
        !bad.empty()) {
        return dtree::bench::unknown_flag(bad);
    }
    const bool full = cli.get_bool("full");
    const std::size_t scale = cli.get_u64("scale", full ? 20000 : 1200);
    const bool fingerprints = cli.get_bool("fingerprints");

    const Workload doop = make_doop_like(scale, 7);
    const Workload ec2 = make_ec2_like(scale + scale / 4, 11);
    const Row d = measure(doop, fingerprints);
    const Row e = measure(ec2, fingerprints);

    std::printf("=== [table 2] Real-World Datalog Benchmark Properties (scale %zu) ===\n\n", scale);
    std::printf("%-22s %18s %18s\n", "Datalog Property", "Doop-like", "EC2-security-like");
    print_row("relations", static_cast<double>(d.stats.relations),
              static_cast<double>(e.stats.relations));
    print_row("rules", static_cast<double>(d.stats.rules),
              static_cast<double>(e.stats.rules));
    std::printf("\n%-22s %18s %18s\n", "Evaluation Statistics", "Doop-like", "EC2-security-like");
    print_row("inserts", static_cast<double>(d.stats.ops.inserts),
              static_cast<double>(e.stats.ops.inserts));
    print_row("membership tests", static_cast<double>(d.stats.ops.membership_tests),
              static_cast<double>(e.stats.ops.membership_tests));
    print_row("lower_bound calls", static_cast<double>(d.stats.ops.lower_bound_calls),
              static_cast<double>(e.stats.ops.lower_bound_calls));
    print_row("upper_bound calls", static_cast<double>(d.stats.ops.upper_bound_calls),
              static_cast<double>(e.stats.ops.upper_bound_calls));
    print_row("input tuples", static_cast<double>(d.stats.input_tuples),
              static_cast<double>(e.stats.input_tuples));
    print_row("produced tuples", static_cast<double>(d.stats.produced_tuples),
              static_cast<double>(e.stats.produced_tuples));
    print_row("reads per insert",
              static_cast<double>(d.stats.ops.membership_tests + d.stats.ops.lower_bound_calls +
                                  d.stats.ops.upper_bound_calls) /
                  static_cast<double>(d.stats.ops.inserts ? d.stats.ops.inserts : 1),
              static_cast<double>(e.stats.ops.membership_tests + e.stats.ops.lower_bound_calls +
                                  e.stats.ops.upper_bound_calls) /
                  static_cast<double>(e.stats.ops.inserts ? e.stats.ops.inserts : 1));

    std::printf("\n=== [sec 4.3] operation hint hit rates ===\n\n");
    std::printf("%-22s %17.1f%% %17.1f%%\n", "1 thread", 100.0 * d.hint_rate_1t,
                100.0 * e.hint_rate_1t);
    std::printf("%-22s %17.1f%% %17.1f%%\n", "16 threads", 100.0 * d.hint_rate_16t,
                100.0 * e.hint_rate_16t);
    std::printf("\n(paper: Doop 54%%/52%%, EC2 77%%/76%%; the EC2-like class must show\n"
                "the higher rate of the two)\n");

    // Present only in DATATREE_FAILPOINTS builds: how often each injection
    // site was evaluated/fired during the run (all zero unless armed).
    if (dtree::fail::enabled()) {
        std::printf("\n=== failpoint counters (DATATREE_FAILPOINTS build) ===\n\n");
        dtree::fail::report(std::cout);
    }

    dtree::bench::JsonReport report("table2_stats", cli);
    auto workload_section = [](const Row& r) {
        return [&r](dtree::json::Writer& w) {
            w.begin_object();
            w.key("stats");
            r.stats.write_json(w);
            w.kv("hint_rate_1t", r.hint_rate_1t);
            w.kv("hint_rate_16t", r.hint_rate_16t);
            w.end_object();
        };
    };
    report.add_section("doop_like", workload_section(d));
    report.add_section("ec2_like", workload_section(e));
    return report.write() ? 0 : 1;
}
