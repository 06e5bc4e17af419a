// Datalog-layer snapshot consistency (DESIGN.md §11): Relation::snapshot()
// pinned WHILE semi-naïve evaluation runs must observe a prefix-closed
// epoch's contents — some delta->full rotation boundary — never a torn
// mid-merge state. Concretely, on the TC / doop-like workloads:
//
//   * every mid-evaluation drain is sorted, duplicate-free, and replays
//     byte-identically from the same pin;
//   * drains ordered by epoch form a subset chain (epochs only ever add
//     tuples), equal epochs yield equal contents, and every drain is a
//     subset of the final relation;
//   * evaluation at 1 thread and at a full team — both with concurrent
//     readers hammering snapshots — derives identical final relations.

#include "core/retain_arena.h"
#include "datalog/program.h"
#include "datalog/service.h"
#include "datalog/workloads.h"
#include "util/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace dtree::datalog;

using SnapEngine = Engine<storage::OurBTreeSnap>;
using Contents = std::vector<StorageTuple>;

struct Observation {
    std::uint64_t epoch;
    Contents tuples;
};

struct ProbeLog {
    std::map<std::string, std::vector<Observation>> per_relation;
    bool replay_ok = true;
};

/// Runs `w` on `threads` evaluation threads with `readers` concurrent
/// snapshot readers; returns final contents of every relation plus the
/// observation log.
std::map<std::string, Contents> run_with_readers(const Workload& w,
                                                 unsigned threads,
                                                 unsigned readers,
                                                 ProbeLog& log) {
    SnapEngine engine(compile(w.source));
    for (const auto& [rel, facts] : w.facts) engine.add_facts(rel, facts);

    std::vector<std::string> names;
    for (const auto& d : engine.analyzed().decls) names.push_back(d.name);

    std::atomic<bool> stop{false};
    std::vector<ProbeLog> local(readers);
    std::vector<std::thread> team;
    for (unsigned r = 0; r < readers; ++r) {
        team.emplace_back([&, r] {
            do {
                for (const auto& name : names) {
                    const auto snap = engine.relation(name).snapshot();
                    Observation obs{snap.epoch(), {}};
                    snap.for_each([&](const StorageTuple& t) {
                        obs.tuples.push_back(t);
                    });
                    Contents replay;
                    snap.for_each([&](const StorageTuple& t) {
                        replay.push_back(t);
                    });
                    if (replay != obs.tuples) local[r].replay_ok = false;
                    local[r].per_relation[name].push_back(std::move(obs));
                }
                // Final iteration after stop: observes the end-of-run epoch.
            } while (!stop.load(std::memory_order_acquire));
        });
    }

    engine.run(threads);
    stop.store(true, std::memory_order_release);
    for (auto& t : team) t.join();

    for (auto& l : local) {
        log.replay_ok = log.replay_ok && l.replay_ok;
        for (auto& [name, obs] : l.per_relation) {
            auto& dst = log.per_relation[name];
            dst.insert(dst.end(), std::make_move_iterator(obs.begin()),
                       std::make_move_iterator(obs.end()));
        }
    }

    EXPECT_GE(engine.stats().epoch_advances, 1u)
        << w.name << ": evaluation never advanced an epoch";

    std::map<std::string, Contents> final_contents;
    for (const auto& name : names) final_contents[name] = engine.tuples(name);
    return final_contents;
}

void check_observations(const Workload& w, const ProbeLog& log,
                        const std::map<std::string, Contents>& final_contents) {
    ASSERT_TRUE(log.replay_ok) << w.name << ": a pinned snapshot's replay "
                                  "differed from its first drain";
    for (const auto& [name, observations] : log.per_relation) {
        const auto fit = final_contents.find(name);
        ASSERT_NE(fit, final_contents.end()) << w.name << "/" << name;
        const Contents& fin = fit->second;

        // Sort by epoch so the subset chain can be checked pairwise.
        std::vector<const Observation*> by_epoch;
        for (const auto& o : observations) by_epoch.push_back(&o);
        std::stable_sort(by_epoch.begin(), by_epoch.end(),
                         [](const Observation* a, const Observation* b) {
                             return a->epoch < b->epoch;
                         });
        for (std::size_t i = 0; i < by_epoch.size(); ++i) {
            const auto& obs = *by_epoch[i];
            ASSERT_TRUE(std::is_sorted(obs.tuples.begin(), obs.tuples.end()))
                << w.name << "/" << name << " epoch " << obs.epoch;
            ASSERT_EQ(std::adjacent_find(obs.tuples.begin(), obs.tuples.end()),
                      obs.tuples.end())
                << w.name << "/" << name << ": duplicates in a snapshot";
            ASSERT_TRUE(std::includes(fin.begin(), fin.end(),
                                      obs.tuples.begin(), obs.tuples.end()))
                << w.name << "/" << name << " epoch " << obs.epoch
                << ": snapshot holds tuples missing from the final relation";
            if (i == 0) continue;
            const auto& prev = *by_epoch[i - 1];
            if (prev.epoch == obs.epoch) {
                ASSERT_EQ(prev.tuples, obs.tuples)
                    << w.name << "/" << name << ": two pins of epoch "
                    << obs.epoch << " disagree";
            } else {
                ASSERT_TRUE(std::includes(obs.tuples.begin(), obs.tuples.end(),
                                          prev.tuples.begin(),
                                          prev.tuples.end()))
                    << w.name << "/" << name << ": epoch " << obs.epoch
                    << " lost tuples visible at epoch " << prev.epoch;
            }
        }
    }
}

void check_workload(const Workload& w) {
    const unsigned full = dtree::util::env_threads(8);

    ProbeLog log1;
    const auto ref = run_with_readers(w, 1, 2, log1);
    check_observations(w, log1, ref);

    ProbeLog logT;
    const auto got = run_with_readers(w, full, 2, logT);
    check_observations(w, logT, got);

    // Derivation must be schedule-independent even with readers attached.
    ASSERT_EQ(got.size(), ref.size()) << w.name;
    for (const auto& [rel, tuples] : ref) {
        const auto it = got.find(rel);
        ASSERT_NE(it, got.end()) << w.name << "/" << rel;
        EXPECT_EQ(it->second, tuples)
            << w.name << "/" << rel << " diverges between 1 and " << full
            << " evaluation threads";
    }
}

TEST(DatalogSnapshot, TransitiveClosureChain) {
    // Long chain: many fixpoint iterations, so readers see many epochs.
    check_workload(make_transitive_closure(GraphKind::Chain, 150, 149, 6));
}

TEST(DatalogSnapshot, TransitiveClosureRandom) {
    check_workload(make_transitive_closure(GraphKind::Random, 120, 360, 5));
}

TEST(DatalogSnapshot, DoopLike) { check_workload(make_doop_like(220, 7)); }

// Deterministic post-run checks: after run() the engine publishes a final
// epoch, so a fresh snapshot must equal the final relation exactly, and
// point/prefix queries must agree with an explicit filter of its tuples.
TEST(DatalogSnapshot, PostRunSnapshotEqualsFinalRelation) {
    const Workload w = make_transitive_closure(GraphKind::Random, 100, 300, 9);
    SnapEngine engine(compile(w.source));
    for (const auto& [rel, facts] : w.facts) engine.add_facts(rel, facts);
    engine.run(4);

    for (const auto& d : engine.analyzed().decls) {
        const Contents fin = engine.tuples(d.name);
        const auto snap = engine.relation(d.name).snapshot();
        Contents got;
        snap.for_each([&](const StorageTuple& t) { got.push_back(t); });
        ASSERT_EQ(got, fin) << d.name;
        EXPECT_EQ(snap.size(), fin.size()) << d.name;

        for (std::size_t i = 0; i < fin.size(); i += 17) {
            EXPECT_TRUE(snap.contains(fin[i])) << d.name;
        }
        if (!fin.empty()) {
            // Prefix scan on the first column of a mid tuple vs filter.
            const StorageTuple probe = fin[fin.size() / 2];
            Contents want;
            for (const auto& t : fin) {
                if (t[0] == probe[0]) want.push_back(t);
            }
            Contents scanned;
            snap.scan_prefix(probe, 1, [&](const StorageTuple& t) {
                scanned.push_back(t);
            });
            EXPECT_EQ(scanned, want) << d.name;
        }
    }
    const auto s = engine.stats();
    EXPECT_GE(s.epoch, 2u);
    EXPECT_GT(s.snapshot_pins, 0u);
}

// Serve-style retention: EngineService::query pins snapshots from a reader
// thread while K commits re-run the fixpoint. Images are reclaimed behind
// the oldest live pin, so the live footprint must not grow with K: once the
// reader stops, one more commit leaves at most one arena chunk per index.
TEST(DatalogSnapshot, ServiceQueriesAcrossCommitsReclaimImages) {
    constexpr unsigned kCommits = 24;
    const Workload w = make_transitive_closure(GraphKind::Random, 400, 1200, 21);
    std::vector<std::pair<std::string, Contents>> initial;
    std::vector<EngineService<SnapEngine>::Batch> batches(kCommits + 1);
    for (const auto& [rel, facts] : w.facts) {
        Contents init;
        for (std::size_t i = 0; i < facts.size(); ++i) {
            if (i % 3 == 2) {
                batches[(i / 3) % batches.size()][rel].push_back(facts[i]);
            } else {
                init.push_back(facts[i]);
            }
        }
        initial.emplace_back(rel, std::move(init));
    }
    SnapEngine engine(compile(w.source));
    for (const auto& [rel, facts] : initial) engine.add_facts(rel, facts);
    const unsigned threads = dtree::util::env_threads(4);
    engine.run(threads);
    EngineService<SnapEngine> svc(engine);

    // Probe the largest relation; every tuple present now stays present.
    std::string probe_rel;
    for (const auto& d : engine.analyzed().decls) {
        if (probe_rel.empty() ||
            engine.relation(d.name).size() > engine.relation(probe_rel).size()) {
            probe_rel = d.name;
        }
    }
    const Contents probes = engine.tuples(probe_rel);
    ASSERT_FALSE(probes.empty());

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> queries{0};
    bool reader_ok = true;
    std::thread reader([&] {
        std::uint64_t last_epoch = 0;
        for (std::size_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
            const auto r = svc.query(probe_rel, probes[i % probes.size()]);
            if (!r.found || r.epoch < last_epoch) reader_ok = false;
            last_epoch = r.epoch;
            queries.fetch_add(1, std::memory_order_relaxed);
        }
    });
    std::uint64_t peak = 0;
    for (unsigned k = 0; k < kCommits; ++k) {
        svc.commit(batches[k], threads);
        peak = std::max(peak, engine.stats().snapshot_retained_bytes);
    }
    stop.store(true, std::memory_order_release);
    reader.join();
    EXPECT_TRUE(reader_ok) << "a query lost a tuple or went back in epochs";
    EXPECT_GT(queries.load(), 0u);

    svc.commit(batches[kCommits], threads); // no pins: reclaim to the bump chunks
    std::size_t trees = 0;
    for (const auto& d : engine.analyzed().decls) {
        trees += engine.relation(d.name).index_count();
    }
    const auto s = engine.stats();
    EXPECT_LE(s.snapshot_retained_bytes, trees * dtree::RetainArena::kChunkBytes);
    EXPECT_GT(s.snapshot_cow_bytes, 4 * peak)
        << "live bytes should stay far below the cumulative image bytes";
}

} // namespace
