#pragma once

// Benchmark inputs: one seeded Instance per workload, plus the output
// digests and the independent oracle the runs are checked against.
//
//   doop  make_doop_like(1000, 7). The generator seed is pinned: fixpoint size
//         swings by about ±20% between generator seeds (scale 1000, seeds 1-6:
//         0.86M-1.28M derived tuples), which would drown any change the
//         benchmark is meant to see. --seed instead draws a random relabelling
//         of every value domain (variables, heaps, fields, call sites,
//         methods), so each seed evaluates an isomorphic program over a
//         different key order. Serve phase: a third of `move` held back.
//   ec2   make_ec2_like(2000, seed): size is stable across generator seeds
//         (±0.2%), and relabelling would destroy the id locality the workload
//         exists to exercise, so --seed feeds the generator directly. Serve
//         phase: a third of `edge` held back.

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "datalog/program.h"
#include "datalog/workloads.h"
#include "util/random.h"

namespace perfbench {

using dtree::datalog::StorageTuple;
using dtree::datalog::Value;
using Facts = std::vector<std::pair<std::string, std::vector<StorageTuple>>>;

struct Instance {
    std::string name;
    dtree::datalog::Workload full; ///< complete input: the batch-evaluation phase
    Facts initial;                 ///< input minus the held-back third
    std::string ingest_rel;        ///< relation whose third is held back
    unsigned ingest_arity = 2;
    std::vector<std::vector<StorageTuple>> batches; ///< held-back facts, commit order
    std::string query_rel;         ///< QUERY target (point membership)
    std::string range_rel;         ///< RANGE target (prefix-1 scans)
    unsigned query_arity = 2;
    unsigned range_arity = 2;
};

inline constexpr std::size_t kDoopScale = 1000;
inline constexpr std::uint64_t kDoopGeneratorSeed = 7;
inline constexpr std::size_t kEc2Scale = 2000;
/// 100 commits: enough that commit_p90_ms has ten samples beyond it.
inline constexpr std::size_t kCommitBatches = 100;

/// Splits `rel`'s facts: every third tuple (generator order) is held back
/// and cut into kCommitBatches contiguous commit batches of near-equal size.
inline void hold_back(Instance& in) {
    for (const auto& [rel, facts] : in.full.facts) {
        if (rel != in.ingest_rel) {
            in.initial.emplace_back(rel, facts);
            continue;
        }
        std::vector<StorageTuple> keep, held;
        for (std::size_t i = 0; i < facts.size(); ++i) {
            (i % 3 == 2 ? held : keep).push_back(facts[i]);
        }
        in.initial.emplace_back(rel, std::move(keep));
        const std::size_t n = held.size();
        for (std::size_t b = 0; b < kCommitBatches; ++b) {
            const auto lo = held.begin() + b * n / kCommitBatches;
            const auto hi = held.begin() + (b + 1) * n / kCommitBatches;
            if (lo != hi) in.batches.emplace_back(lo, hi);
        }
    }
}

/// Applies one random permutation per value domain to every column.
/// `domains[rel][c]` names the domain of column c of `rel`.
inline void relabel(Instance& in, const std::map<std::string, std::vector<int>>& domains,
                    int domain_count, std::uint64_t seed) {
    std::vector<Value> max_value(domain_count, 0);
    for (const auto& [rel, facts] : in.full.facts) {
        const auto& dom = domains.at(rel);
        for (const auto& t : facts) {
            for (std::size_t c = 0; c < dom.size(); ++c) {
                max_value[dom[c]] = std::max(max_value[dom[c]], t[c]);
            }
        }
    }
    dtree::util::Rng rng(seed);
    std::vector<std::vector<Value>> perm(domain_count);
    for (int d = 0; d < domain_count; ++d) {
        perm[d].resize(max_value[d] + 1);
        std::iota(perm[d].begin(), perm[d].end(), Value{0});
        dtree::util::shuffle(perm[d], rng);
    }
    const auto map_tuple = [&](const std::string& rel, StorageTuple& t) {
        const auto& dom = domains.at(rel);
        for (std::size_t c = 0; c < dom.size(); ++c) t[c] = perm[dom[c]][t[c]];
    };
    // Generator output is sorted; keep every fact list sorted after mapping.
    // Commit batches keep their (generator-order) composition.
    for (auto* list : {&in.full.facts, &in.initial}) {
        for (auto& [rel, facts] : *list) {
            for (auto& t : facts) map_tuple(rel, t);
            std::sort(facts.begin(), facts.end());
        }
    }
    for (auto& b : in.batches) {
        for (auto& t : b) map_tuple(in.ingest_rel, t);
    }
}

inline Instance make_instance(const std::string& workload, std::uint64_t seed,
                              double scale_factor = 1.0) {
    Instance in;
    in.name = workload;
    const auto scaled = [&](std::size_t s) {
        return std::max<std::size_t>(64, static_cast<std::size_t>(s * scale_factor));
    };
    if (workload == "doop") {
        in.full = dtree::datalog::make_doop_like(scaled(kDoopScale), kDoopGeneratorSeed);
        in.ingest_rel = "move";
        in.query_rel = "vpt";
        in.range_rel = "vpt";
        hold_back(in);
        enum { Var, Heap, Field, Site, Method, kDomains };
        const std::map<std::string, std::vector<int>> domains = {
            {"alloc", {Var, Heap}},           {"move", {Var, Var}},
            {"load", {Var, Var, Field}},      {"store", {Var, Field, Var}},
            {"invoke", {Site, Method}},       {"actual", {Site, Var}},
            {"formal", {Method, Var}},
        };
        relabel(in, domains, kDomains, seed);
    } else if (workload == "ec2") {
        in.full = dtree::datalog::make_ec2_like(scaled(kEc2Scale), seed);
        in.ingest_rel = "edge";
        in.query_rel = "reach";
        in.range_rel = "permitted";
        hold_back(in);
    } else {
        throw std::invalid_argument("unknown workload: " + workload);
    }
    return in;
}

// -- output digests -----------------------------------------------------------

inline std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Order-independent digest of a relation: tuple count plus the wrapping
/// sum of a per-tuple hash.
struct Digest {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;

    void add(const StorageTuple& t) {
        std::uint64_t h = 0;
        for (std::size_t c = 0; c < dtree::datalog::kMaxArity; ++c) h = mix64(h ^ t[c]);
        ++count;
        sum += h;
    }
    bool operator==(const Digest&) const = default;
};

using Digests = std::map<std::string, Digest>;

template <typename EngineT>
Digests digest(const EngineT& engine) {
    Digests out;
    for (const auto& d : engine.analyzed().decls) {
        Digest& dg = out[d.name];
        engine.relation(d.name).for_each([&](const StorageTuple& t) { dg.add(t); });
    }
    return out;
}

/// The independent reference: the same program evaluated on std::set
/// storage at one thread, kept as sorted tuple lists for membership checks.
struct Oracle {
    std::map<std::string, std::vector<StorageTuple>> tuples;
    Digests digests;

    bool contains(const std::string& rel, const StorageTuple& t) const {
        const auto& v = tuples.at(rel);
        return std::binary_search(v.begin(), v.end(), t);
    }
};

inline Oracle make_oracle(const dtree::datalog::Workload& w) {
    using namespace dtree::datalog;
    Engine<storage::StlSet> engine(compile(w.source));
    for (const auto& [rel, facts] : w.facts) engine.add_facts(rel, facts);
    engine.run(1);
    Oracle o;
    o.digests = digest(engine);
    for (const auto& d : engine.analyzed().decls) o.tuples[d.name] = engine.tuples(d.name);
    return o;
}

} // namespace perfbench
