// End-to-end evaluation tests for the soufflette engine: semi-naïve
// correctness against independently computed references, stratified
// negation, parallel == sequential results, and storage-adapter agreement
// (every Fig. 5 configuration must compute identical relations).

#include "datalog/program.h"
#include "datalog/workloads.h"
#include "util/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <set>
#include <vector>

namespace {

using namespace dtree::datalog;

/// Reference transitive closure by repeated BFS.
std::set<std::pair<Value, Value>> reference_tc(
    const std::vector<StorageTuple>& edges, std::size_t nodes) {
    std::vector<std::vector<Value>> adj(nodes);
    for (const auto& e : edges) adj[e[0]].push_back(e[1]);
    std::set<std::pair<Value, Value>> out;
    for (std::size_t s = 0; s < nodes; ++s) {
        std::vector<bool> seen(nodes, false);
        std::queue<Value> q;
        for (Value n : adj[s]) {
            if (!seen[n]) {
                seen[n] = true;
                q.push(n);
            }
        }
        while (!q.empty()) {
            Value v = q.front();
            q.pop();
            out.emplace(s, v);
            for (Value n : adj[v]) {
                if (!seen[n]) {
                    seen[n] = true;
                    q.push(n);
                }
            }
        }
    }
    return out;
}

std::vector<StorageTuple> random_edges(std::size_t nodes, std::size_t count,
                                       std::uint64_t seed) {
    dtree::util::Rng rng(seed);
    std::vector<StorageTuple> out;
    for (std::size_t i = 0; i < count; ++i) {
        out.push_back(StorageTuple{dtree::util::uniform_int<Value>(rng, 0, nodes - 1),
                                   dtree::util::uniform_int<Value>(rng, 0, nodes - 1)});
    }
    return out;
}

constexpr const char* kTcProgram = R"(
.decl edge(x:number, y:number) input
.decl path(x:number, y:number) output
path(x,y) :- edge(x,y).
path(x,z) :- path(x,y), edge(y,z).
)";

TEST(Engine, TransitiveClosureMatchesReference) {
    const std::size_t nodes = 60;
    auto edges = random_edges(nodes, 150, 7);
    DefaultEngine engine(compile(kTcProgram));
    engine.add_facts("edge", edges);
    engine.run(1);
    const auto ref = reference_tc(edges, nodes);
    const auto got = engine.tuples("path");
    ASSERT_EQ(got.size(), ref.size());
    for (const auto& t : got) {
        EXPECT_TRUE(ref.count({t[0], t[1]})) << t[0] << "->" << t[1];
    }
}

TEST(Engine, ChainClosureHasQuadraticPaths) {
    // A 100-node chain has exactly n*(n-1)/2 = 4950 paths.
    std::vector<StorageTuple> edges;
    for (Value i = 0; i + 1 < 100; ++i) edges.push_back(StorageTuple{i, i + 1});
    DefaultEngine engine(compile(kTcProgram));
    engine.add_facts("edge", edges);
    engine.run(1);
    EXPECT_EQ(engine.relation("path").size(), 4950u);
}

TEST(Engine, ParallelMatchesSequential) {
    const std::size_t nodes = 80;
    auto edges = random_edges(nodes, 220, 99);
    std::vector<StorageTuple> seq_result;
    {
        DefaultEngine engine(compile(kTcProgram));
        engine.add_facts("edge", edges);
        engine.run(1);
        seq_result = engine.tuples("path");
    }
    for (unsigned threads : {2u, 4u, 8u}) {
        DefaultEngine engine(compile(kTcProgram));
        engine.add_facts("edge", edges);
        engine.run(threads);
        auto par_result = engine.tuples("path");
        ASSERT_EQ(par_result.size(), seq_result.size()) << "threads=" << threads;
        EXPECT_TRUE(std::equal(par_result.begin(), par_result.end(), seq_result.begin()))
            << "threads=" << threads;
    }
}

TEST(Engine, InlineFactsAndConstants) {
    DefaultEngine engine(compile(R"(
.decl edge(x:number, y:number)
.decl from_one(y:number) output
edge(1,2). edge(2,3). edge(1,4). edge(5,6).
from_one(y) :- edge(1,y).
)"));
    engine.run(1);
    const auto got = engine.tuples("from_one");
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0][0], 2u);
    EXPECT_EQ(got[1][0], 4u);
}

TEST(Engine, StratifiedNegation) {
    DefaultEngine engine(compile(R"(
.decl node(x:number)
.decl edge(x:number, y:number)
.decl reach(x:number)
.decl unreach(x:number) output
node(1). node(2). node(3). node(4).
edge(1,2). edge(2,3).
reach(1).
reach(y) :- reach(x), edge(x,y).
unreach(x) :- node(x), !reach(x).
)"));
    engine.run(1);
    const auto got = engine.tuples("unreach");
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0][0], 4u);
}

TEST(Engine, AllNegatedBodyRule) {
    DefaultEngine engine(compile(R"(
.decl b(x:number)
.decl a(x:number) output
b(2).
a(1) :- !b(1).
a(2) :- !b(2).
)"));
    engine.run(1);
    const auto got = engine.tuples("a");
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0][0], 1u);
}

TEST(Engine, MutualRecursion) {
    // even/odd distance from node 0 along a chain.
    DefaultEngine engine(compile(R"(
.decl edge(x:number, y:number)
.decl even(x:number) output
.decl odd(x:number) output
edge(0,1). edge(1,2). edge(2,3). edge(3,4).
even(0).
odd(y) :- even(x), edge(x,y).
even(y) :- odd(x), edge(x,y).
)"));
    engine.run(1);
    EXPECT_EQ(engine.tuples("even").size(), 3u); // 0,2,4
    EXPECT_EQ(engine.tuples("odd").size(), 2u);  // 1,3
}

TEST(Engine, RepeatedVariablesFilter) {
    DefaultEngine engine(compile(R"(
.decl edge(x:number, y:number)
.decl selfloop(x:number) output
edge(1,1). edge(1,2). edge(3,3).
selfloop(x) :- edge(x,x).
)"));
    engine.run(1);
    const auto got = engine.tuples("selfloop");
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0][0], 1u);
    EXPECT_EQ(got[1][0], 3u);
}

TEST(Engine, TernaryJoinWithSecondaryIndex) {
    // hpt-style join that needs a non-prefix binding on a 3-ary relation.
    DefaultEngine engine(compile(R"(
.decl t(a:number, b:number, c:number)
.decl q(b:number)
.decl r(a:number, c:number) output
t(1,10,100). t(2,10,200). t(3,20,300).
q(10).
r(a,c) :- q(b), t(a,b,c).
)"));
    engine.run(1);
    const auto got = engine.tuples("r");
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0][0], 1u);
    EXPECT_EQ(got[0][1], 100u);
    EXPECT_EQ(got[1][0], 2u);
    EXPECT_EQ(got[1][1], 200u);
}

TEST(Engine, StatsCountOperationsAndTuples) {
    std::vector<StorageTuple> edges;
    for (Value i = 0; i + 1 < 50; ++i) edges.push_back(StorageTuple{i, i + 1});
    DefaultEngine engine(compile(kTcProgram));
    engine.add_facts("edge", edges);
    engine.run(1);
    const auto s = engine.stats();
    EXPECT_EQ(s.relations, 2u);
    EXPECT_EQ(s.rules, 2u);
    EXPECT_EQ(s.input_tuples, 49u);
    EXPECT_EQ(s.produced_tuples, 50u * 49u / 2u);
    EXPECT_GT(s.ops.inserts, s.produced_tuples);
    EXPECT_GT(s.ops.membership_tests, 0u);
    EXPECT_GT(s.ops.lower_bound_calls, 0u);
    EXPECT_GT(s.iterations, 10u);
    EXPECT_GT(s.hints.total_hits() + s.hints.total_misses(), 0u);
}

TEST(Engine, DuplicateFactsCountOnce) {
    // Regression: add_facts/add_fact used to count duplicates into
    // input_tuples, which deflated produced_tuples (produced = stored -
    // input). Only genuinely new tuples are input.
    std::vector<StorageTuple> edges;
    for (Value i = 0; i + 1 < 50; ++i) edges.push_back(StorageTuple{i, i + 1});
    // Same batch twice + every tuple again via add_fact: 3x duplication.
    DefaultEngine engine(compile(kTcProgram));
    engine.add_facts("edge", edges);
    engine.add_facts("edge", edges);
    for (const auto& t : edges) engine.add_fact("edge", t);
    engine.run(1);
    const auto s = engine.stats();
    EXPECT_EQ(s.input_tuples, 49u)
        << "duplicate facts must not count as input";
    EXPECT_EQ(s.produced_tuples, 50u * 49u / 2u)
        << "chain closure output is independent of input duplication";
}

// Every Fig. 5 storage configuration must produce identical results.
template <typename T>
class EngineStorageTest : public ::testing::Test {};

using Storages = ::testing::Types<storage::OurBTree, storage::OurBTreeNoHints,
                                  storage::StlSet, storage::StlHashSet,
                                  storage::GoogleBTree, storage::TbbHashSet>;
TYPED_TEST_SUITE(EngineStorageTest, Storages);

TYPED_TEST(EngineStorageTest, TransitiveClosureAgreesAcrossStorages) {
    const std::size_t nodes = 50;
    auto edges = random_edges(nodes, 120, 31);
    const auto ref = reference_tc(edges, nodes);
    for (unsigned threads : {1u, 4u}) {
        Engine<TypeParam> engine(compile(kTcProgram));
        engine.add_facts("edge", edges);
        engine.run(threads);
        std::set<std::pair<Value, Value>> got;
        engine.relation("path").for_each(
            [&](const StorageTuple& t) { got.emplace(t[0], t[1]); });
        EXPECT_EQ(got, ref) << TypeParam::name() << " threads=" << threads;
    }
}

TYPED_TEST(EngineStorageTest, Ec2WorkloadAgreesWithDefault) {
    auto w = make_ec2_like(128, 5);
    std::vector<std::size_t> ref_sizes;
    {
        DefaultEngine engine(compile(w.source));
        for (const auto& [rel, facts] : w.facts) engine.add_facts(rel, facts);
        engine.run(1);
        for (const auto& out : w.output_relations) {
            ref_sizes.push_back(engine.relation(out).size());
        }
    }
    Engine<TypeParam> engine(compile(w.source));
    for (const auto& [rel, facts] : w.facts) engine.add_facts(rel, facts);
    engine.run(2);
    for (std::size_t i = 0; i < w.output_relations.size(); ++i) {
        EXPECT_EQ(engine.relation(w.output_relations[i]).size(), ref_sizes[i])
            << w.output_relations[i] << " via " << TypeParam::name();
    }
}

/// Relation::index_shape reports every index's tree: its element count is
/// the relation's size, and nodes grown by ascending appends on the right
/// spine hold more than the median split's half-full nodes.
TEST(IndexShape, CountsEveryTupleOfEveryIndex) {
    const auto w = make_ec2_like(300, 5);
    DefaultEngine engine(compile(w.source));
    for (const auto& [rel, facts] : w.facts) engine.add_facts(rel, facts);
    engine.run(1);
    const auto& permitted = engine.relation("permitted");
    ASSERT_GE(permitted.index_count(), 1u);
    for (unsigned i = 0; i < permitted.index_count(); ++i) {
        const auto s = permitted.index_shape(i);
        EXPECT_EQ(s.elements, permitted.size());
        EXPECT_GT(s.leaf_nodes, 0u);
        EXPECT_GE(s.depth, 1u);
        EXPECT_GT(s.memory_bytes, 0u);
        EXPECT_EQ(s.block_size, 32u); // arity-2 keys: Tuple<2>, ~512 B per node
    }
    // permitted is derived mostly in key order: its nodes end up fuller
    // than the BlockSize/2 a median split leaves.
    EXPECT_GT(permitted.index_shape(0).keys_per_node(), 20.0);
}

// -- workload generators -----------------------------------------------------------

TEST(Workloads, TransitiveClosureVariantsRun) {
    for (auto kind : {GraphKind::Random, GraphKind::Chain, GraphKind::Grid,
                      GraphKind::PreferentialAttachment}) {
        auto w = make_transitive_closure(kind, 100, 200, 3);
        DefaultEngine engine(compile(w.source));
        for (const auto& [rel, facts] : w.facts) engine.add_facts(rel, facts);
        engine.run(2);
        EXPECT_GE(engine.relation("path").size(),
                  engine.relation("edge").size())
            << "closure contains at least the edges";
    }
}

TEST(Workloads, DoopLikeIsInsertionHeavy) {
    auto w = make_doop_like(400, 11);
    DefaultEngine engine(compile(w.source));
    for (const auto& [rel, facts] : w.facts) engine.add_facts(rel, facts);
    engine.run(2);
    const auto s = engine.stats();
    EXPECT_GT(s.produced_tuples, 0u);
    EXPECT_GT(s.ops.inserts, s.input_tuples) << "derivations dominate";
    // vpt must cover every alloc at minimum.
    EXPECT_GE(engine.relation("vpt").size(), engine.relation("alloc").size());
}

TEST(Workloads, Ec2LikeIsReadHeavyWithDominantRelation) {
    auto w = make_ec2_like(512, 13);
    DefaultEngine engine(compile(w.source));
    for (const auto& [rel, facts] : w.facts) engine.add_facts(rel, facts);
    engine.run(2);
    const auto s = engine.stats();
    EXPECT_GT(s.ops.membership_tests + s.ops.lower_bound_calls,
              s.ops.inserts)
        << "reads must dominate";
    // One relation holds the large majority of produced tuples.
    const auto permitted = engine.relation("permitted").size();
    EXPECT_GT(permitted, s.produced_tuples / 2);
    // Ordered access pattern => hints hit often.
    EXPECT_GT(s.hints.hit_rate(), 0.3);
}

TEST(Workloads, GeneratorsAreDeterministic) {
    auto a = make_doop_like(200, 42);
    auto b = make_doop_like(200, 42);
    ASSERT_EQ(a.facts.size(), b.facts.size());
    for (std::size_t i = 0; i < a.facts.size(); ++i) {
        EXPECT_EQ(a.facts[i].second, b.facts[i].second);
    }
    auto c = make_doop_like(200, 43);
    EXPECT_NE(a.facts[0].second, c.facts[0].second);
}

} // namespace
