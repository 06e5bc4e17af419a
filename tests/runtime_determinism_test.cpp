// Scheduler determinism: semi-naïve evaluation must produce identical
// relation contents no matter how the runtime schedules it — 1 thread vs a
// half or full team, grain 1 (deque regime) vs grain 16 (shared-claim
// regime on small regions). The
// engine's phase discipline (writes only to NEW, set semantics everywhere)
// makes the fixpoint order-independent; this suite pins that property to the
// new runtime across the example workloads.

#include "datalog/program.h"
#include "datalog/workloads.h"
#include "runtime/scheduler.h"
#include "util/parallel.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

namespace {

using namespace dtree::datalog;

using Snapshot = std::map<std::string, std::vector<StorageTuple>>;

Snapshot run_workload(const Workload& w, unsigned threads, std::size_t grain) {
    Engine<storage::OurBTree> engine(compile(w.source));
    engine.set_grain(grain);
    for (const auto& [rel, facts] : w.facts) engine.add_facts(rel, facts);
    engine.run(threads);
    Snapshot snap;
    for (const auto& d : engine.analyzed().decls) {
        snap[d.name] = engine.tuples(d.name);
    }
    return snap;
}

void check_workload(const Workload& w) {
    // Small grains: even small workloads produce many chunks, so the T>1
    // runs genuinely exercise chunked execution and stealing. Grain 1 pushes
    // most regions into per-worker deques; grain 16 leaves more of them in
    // the shared-claim fallback (chunk count within 2x the team).
    const Snapshot ref = run_workload(w, 1, 16);
    // Team sizes scale with DATATREE_TEST_THREADS (default 8; see
    // EXPERIMENTS.md "Test thread counts"): a half-size team plus the full
    // team, so both under- and fully-subscribed schedules are compared.
    const unsigned full = dtree::util::env_threads(8);
    const unsigned half = full / 2 ? full / 2 : 1;
    for (const unsigned threads : {half, full}) {
        for (const std::size_t grain : {std::size_t{1}, std::size_t{16}}) {
            const Snapshot got = run_workload(w, threads, grain);
            ASSERT_EQ(got.size(), ref.size()) << w.name;
            for (const auto& [rel, tuples] : ref) {
                const auto it = got.find(rel);
                ASSERT_NE(it, got.end()) << w.name << "/" << rel;
                EXPECT_EQ(it->second, tuples)
                    << w.name << "/" << rel << " diverges at threads="
                    << threads << " grain=" << grain;
            }
        }
    }
}

TEST(RuntimeDeterminism, TransitiveClosureRandom) {
    check_workload(make_transitive_closure(GraphKind::Random, 120, 360, 5));
}

TEST(RuntimeDeterminism, TransitiveClosureChain) {
    check_workload(make_transitive_closure(GraphKind::Chain, 150, 149, 6));
}

TEST(RuntimeDeterminism, TransitiveClosurePreferentialAttachment) {
    // Zipf-ish degree distribution: the skewed-fanout case stealing exists
    // for.
    check_workload(
        make_transitive_closure(GraphKind::PreferentialAttachment, 150, 500, 7));
}

TEST(RuntimeDeterminism, DoopLike) { check_workload(make_doop_like(220, 7)); }

TEST(RuntimeDeterminism, Ec2Like) { check_workload(make_ec2_like(260, 11)); }

} // namespace
