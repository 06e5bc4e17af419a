// Per-arity relation storage (DESIGN.md §17): an arity-A relation keeps every
// index under Tuple<A>, the engine's storage re-keyed, while StorageTuple
// (Tuple<4>, zero-padded) stays the type at the Relation boundary.
//
// Every storage the engine runs on is checked at arity 1..4 against a plain
// std::set<StorageTuple>: point inserts from 4 threads through LocalViews,
// contains, scan_prefix at every prefix with the column values {0, 1,
// max-1, max} (the prefix_bounds carry edge), secondary-index scans,
// snapshot scans, insert_sorted_run sliced at partition_keys, and
// load_sorted_batch. Tuples must come back zero-padded, and facts that set
// a column past the arity must be rejected at every engine entry point.

#include "datalog/program.h"
#include "util/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace {

using namespace dtree::datalog;
using dtree::Tuple;
namespace baselines = dtree::baselines;

constexpr Value kMax = std::numeric_limits<Value>::max();

// -- a forwarding wrapper shaped like a timing wrapper ---------------------------

/// Forwards every storage call to Inner and has no rebind of its own, so a
/// relation re-keys it through Inner (DESIGN.md §17's wrapper rule).
template <typename Inner>
class Wrapper {
public:
    using key_type = typename Inner::key_type;
    using const_iterator = typename Inner::const_iterator;
    static constexpr bool thread_safe = Inner::thread_safe;
    static constexpr bool ordered = Inner::ordered;
    static const char* name() { return "wrapper"; }

    class local {
    public:
        explicit local(typename Inner::local in) : in_(std::move(in)) {}
        bool insert(const key_type& k) { return in_.insert(k); }
        bool contains(const key_type& k) const { return in_.contains(k); }
        template <typename Fn>
        void for_each_in_range(const key_type& lo, const key_type& hi, Fn&& fn) const {
            in_.for_each_in_range(lo, hi, fn);
        }
        template <typename It>
        std::size_t insert_sorted_run(It first, It last) {
            return in_.insert_sorted_run(first, last);
        }

    private:
        typename Inner::local in_;
    };

    bool insert(const key_type& k) { return inner_.insert(k); }
    bool contains(const key_type& k) const { return inner_.contains(k); }
    std::size_t size() const { return inner_.size(); }
    bool empty() const { return inner_.empty(); }
    void clear() { inner_.clear(); }
    template <typename Fn>
    void for_each(Fn&& fn) const {
        inner_.for_each(fn);
    }
    template <typename Fn>
    void for_each_in_range(const key_type& lo, const key_type& hi, Fn&& fn) const {
        inner_.for_each_in_range(lo, hi, fn);
    }
    const_iterator begin() const { return inner_.begin(); }
    const_iterator end() const { return inner_.end(); }
    const_iterator lower_bound(const key_type& k) const { return inner_.lower_bound(k); }
    std::vector<key_type> partition_keys(std::size_t target) const {
        return inner_.partition_keys(target);
    }
    template <typename It>
    void build_sorted(It first, It last, std::size_t n) {
        inner_.build_sorted(first, last, n);
    }
    local make_local(unsigned tid) { return local(inner_.make_local(tid)); }
    void finalize(unsigned threads) { inner_.finalize(threads); }

private:
    Inner inner_;
};

// -- the re-keyed types ----------------------------------------------------------

template <typename Rel>
using ArityTwoTree = std::remove_cvref_t<
    decltype(std::declval<const typename Rel::template index_type<2>&>().tree())>;

static_assert(std::is_same_v<Relation<storage::OurBTree>::index_type<2>,
                             baselines::OurBTreeAdapter<Tuple<2>>>,
              "an arity-2 OurBTree index is the adapter the alias gives for Tuple<2>");
static_assert(ArityTwoTree<Relation<storage::OurBTree>>::block_size == 32,
              "Tuple<2> keys use their own default block size, not Tuple<4>'s 16");
static_assert(std::is_same_v<Relation<storage::OurBTree>::index_type<3>,
                             baselines::OurBTreeAdapter<Tuple<3>>>);
static_assert(std::is_same_v<Relation<storage::OurBTreeSnap>::index_type<1>,
                             baselines::OurBTreeSnapAdapter<Tuple<1>>>);
static_assert(std::is_same_v<Relation<storage::OurBTreeFp>::index_type<2>,
                             baselines::OurBTreeFpAdapter<Tuple<2>>>);
static_assert(std::is_same_v<Relation<storage::StlSet>::index_type<2>,
                             baselines::GlobalLockAdapter<baselines::StlSetAdapter<Tuple<2>>>>,
              "GlobalLockAdapter re-keys through its argument");
static_assert(std::is_same_v<Relation<storage::TbbHashSet>::index_type<1>,
                             baselines::TbbLikeHashSetAdapter<Tuple<1>>>);
static_assert(std::is_same_v<Relation<storage::OurBTree>::index_type<4>, storage::OurBTree>,
              "arity 4 keeps the storage as named");
static_assert(std::is_same_v<Relation<Wrapper<storage::OurBTree>>::index_type<2>,
                             Wrapper<baselines::OurBTreeAdapter<Tuple<2>>>>,
              "a single-argument wrapper is re-keyed through its argument");

/// Every re-keyed index type of Storage carries the bulk-merge surface.
template <typename Storage>
constexpr bool every_index_bulk_mergeable() {
    using Rel = Relation<Storage>;
    return [&]<std::size_t... A>(std::index_sequence<A...>) {
        return (dtree::datalog::relation_detail::bulk_merge_storage<
                    typename Rel::template index_type<A + 1>> &&
                ...);
    }(std::make_index_sequence<kMaxArity>{});
}
static_assert(every_index_bulk_mergeable<storage::OurBTree>());
static_assert(every_index_bulk_mergeable<storage::OurBTreeNoHints>());
static_assert(every_index_bulk_mergeable<storage::OurBTreeSnap>());
static_assert(every_index_bulk_mergeable<storage::OurBTreeFp>());
static_assert(every_index_bulk_mergeable<baselines::SeqBTreeAdapter<StorageTuple>>());
static_assert(every_index_bulk_mergeable<Wrapper<storage::OurBTree>>());
static_assert(Relation<Wrapper<storage::OurBTree>>::bulk_mergeable);
static_assert(Relation<storage::OurBTreeSnap>::snapshot_capable);
static_assert(!Relation<storage::StlSet>::bulk_mergeable);

// -- fixtures ----------------------------------------------------------------------

using Oracle = std::set<StorageTuple>;

/// Identity primary plus the reversed column order as a secondary.
std::vector<IndexOrder> orders_for(unsigned arity) {
    IndexOrder primary, reversed;
    primary.arity = reversed.arity = arity;
    for (unsigned c = 0; c < arity; ++c) {
        primary.order[c] = static_cast<std::uint8_t>(c);
        reversed.order[c] = static_cast<std::uint8_t>(arity - 1 - c);
    }
    return {primary, reversed};
}

const std::vector<Value> kEdgeValues = {0, 1, kMax - 1, kMax};

/// Every arity-A tuple over the edge values, zero-padded.
std::vector<StorageTuple> edge_tuples(unsigned arity) {
    std::vector<StorageTuple> out{StorageTuple{}};
    for (unsigned c = 0; c < arity; ++c) {
        std::vector<StorageTuple> next;
        for (const auto& t : out) {
            for (Value v : kEdgeValues) {
                StorageTuple u = t;
                u[c] = v;
                next.push_back(u);
            }
        }
        out = std::move(next);
    }
    return out;
}

/// Edge tuples (every third left out, so contains sees misses) plus enough
/// small random ones to give every index several leaves.
std::vector<StorageTuple> sample_tuples(unsigned arity, std::uint64_t seed) {
    std::vector<StorageTuple> out;
    const auto edges = edge_tuples(arity);
    for (std::size_t i = 0; i < edges.size(); ++i) {
        if (i % 3 != 2) out.push_back(edges[i]);
    }
    dtree::util::Rng rng(seed);
    const Value hi = arity == 1 ? 5000 : 40;
    for (int i = 0; i < 1500; ++i) {
        StorageTuple t{};
        for (unsigned c = 0; c < arity; ++c) t[c] = dtree::util::uniform_int<Value>(rng, 0, hi);
        out.push_back(t);
    }
    return out;
}

/// Probe tuples: every edge tuple and a few random ones, present or not.
std::vector<StorageTuple> probe_tuples(unsigned arity) {
    auto out = edge_tuples(arity);
    dtree::util::Rng rng(99);
    for (int i = 0; i < 200; ++i) {
        StorageTuple t{};
        for (unsigned c = 0; c < arity; ++c) t[c] = dtree::util::uniform_int<Value>(rng, 0, 45);
        out.push_back(t);
    }
    return out;
}

bool matches_prefix(const StorageTuple& t, const StorageTuple& bound, unsigned prefix,
                    const IndexOrder& order) {
    for (unsigned p = 0; p < prefix; ++p) {
        if (t[order.order[p]] != bound[p]) return false;
    }
    return true;
}

std::vector<StorageTuple> oracle_scan(const Oracle& oracle, const StorageTuple& bound,
                                      unsigned prefix, const IndexOrder& order) {
    std::vector<StorageTuple> out;
    for (const auto& t : oracle) {
        if (matches_prefix(t, bound, prefix, order)) out.push_back(t);
    }
    return out;
}

void expect_padded(const std::vector<StorageTuple>& ts, unsigned arity, const char* what) {
    for (const auto& t : ts) {
        for (unsigned c = arity; c < kMaxArity; ++c) {
            ASSERT_EQ(t[c], 0u) << what << ": column " << c << " past arity " << arity;
        }
    }
}

template <typename Rel>
std::vector<StorageTuple> contents(const Rel& r) {
    std::vector<StorageTuple> out;
    r.for_each([&](const StorageTuple& t) { out.push_back(t); });
    return out;
}

std::vector<StorageTuple> sorted(std::vector<StorageTuple> v) {
    std::sort(v.begin(), v.end());
    return v;
}

/// Loads `tuples` through 4 threads' LocalViews (round-robin split).
template <typename Rel>
void insert_parallel(Rel& rel, const std::vector<StorageTuple>& tuples) {
    constexpr unsigned kThreads = 4;
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < kThreads; ++w) {
        workers.emplace_back([&rel, &tuples, w] {
            auto view = rel.local_view(w);
            for (std::size_t i = w; i < tuples.size(); i += kThreads) view.insert(tuples[i]);
        });
    }
    for (auto& t : workers) t.join();
}

/// Every quiescent and per-thread read of `rel` against `oracle`.
template <typename Storage>
void expect_reads_match(Relation<Storage>& rel, const Oracle& oracle, unsigned arity,
                        const std::string& ctx) {
    const std::vector<StorageTuple> want(oracle.begin(), oracle.end());

    const auto all = contents(rel);
    expect_padded(all, arity, "for_each");
    if constexpr (Storage::ordered) {
        EXPECT_EQ(all, want) << ctx << ": for_each is not the sorted oracle";
    } else {
        EXPECT_EQ(sorted(all), want) << ctx << ": for_each differs from the oracle";
    }
    EXPECT_EQ(rel.size(), oracle.size()) << ctx;

    auto view = rel.local_view(0);
    for (const auto& t : probe_tuples(arity)) {
        const bool expect = oracle.count(t) > 0;
        EXPECT_EQ(rel.contains(t), expect) << ctx << ": contains" << t;
        EXPECT_EQ(view.contains(t), expect) << ctx << ": view contains" << t;
    }

    const auto bounds = edge_tuples(arity);
    for (unsigned prefix = 0; prefix <= arity; ++prefix) {
        for (const auto& bound : bounds) {
            const auto expect = oracle_scan(oracle, bound, prefix, rel.order(0));
            std::vector<StorageTuple> got;
            rel.scan_prefix(bound, prefix, [&](const StorageTuple& t) { got.push_back(t); });
            expect_padded(got, arity, "scan_prefix");
            if constexpr (Storage::ordered) {
                ASSERT_EQ(got, expect) << ctx << ": scan_prefix " << bound << "/" << prefix;
            } else {
                ASSERT_EQ(sorted(got), expect)
                    << ctx << ": scan_prefix " << bound << "/" << prefix;
            }
            if constexpr (Storage::ordered) {
                for (unsigned idx = 0; idx < rel.index_count(); ++idx) {
                    const auto want_idx = oracle_scan(oracle, bound, prefix, rel.order(idx));
                    std::vector<StorageTuple> got_idx;
                    view.scan_prefix(idx, bound, prefix,
                                     [&](const StorageTuple& t) { got_idx.push_back(t); });
                    expect_padded(got_idx, arity, "view scan_prefix");
                    ASSERT_EQ(sorted(got_idx), want_idx)
                        << ctx << ": index " << idx << " scan " << bound << "/" << prefix;
                }
            }
        }
    }
}

// -- typed suite ---------------------------------------------------------------------

template <typename Storage>
class RelationArity : public ::testing::Test {};

using ArityStorages =
    ::testing::Types<storage::OurBTree, storage::OurBTreeSnap, storage::OurBTreeFp,
                     storage::StlSet, storage::TbbHashSet, Wrapper<storage::OurBTree>>;
TYPED_TEST_SUITE(RelationArity, ArityStorages);

TYPED_TEST(RelationArity, InsertContainsScanPrefixMatchOracle) {
    for (unsigned arity = 1; arity <= kMaxArity; ++arity) {
        const std::string ctx = std::string(TypeParam::name()) + " arity " +
                                std::to_string(arity);
        Relation<TypeParam> rel("r", arity, orders_for(arity));
        const auto tuples = sample_tuples(arity, arity);
        insert_parallel(rel, tuples);
        const Oracle oracle(tuples.begin(), tuples.end());
        // Set semantics survive the narrowing: every tuple is already there.
        for (const auto& t : edge_tuples(arity)) {
            EXPECT_EQ(rel.insert(t), oracle.count(t) == 0) << ctx << t;
        }
        Oracle with_edges = oracle;
        for (const auto& t : edge_tuples(arity)) with_edges.insert(t);
        expect_reads_match(rel, with_edges, arity, ctx);
    }
}

TEST(RelationAritySnapshot, ScanPrefixMatchesOracle) {
    for (unsigned arity = 1; arity <= kMaxArity; ++arity) {
        Relation<storage::OurBTreeSnap> rel("r", arity, orders_for(arity));
        const auto tuples = sample_tuples(arity, 10 + arity);
        insert_parallel(rel, tuples);
        rel.advance_epoch();
        const Oracle oracle(tuples.begin(), tuples.end());
        const auto snap = rel.snapshot();
        // Unpublished inserts stay invisible to the pinned view.
        rel.insert(StorageTuple{7777});
        EXPECT_EQ(snap.size(), oracle.size());
        std::vector<StorageTuple> all;
        snap.for_each([&](const StorageTuple& t) { all.push_back(t); });
        expect_padded(all, arity, "snapshot for_each");
        EXPECT_EQ(all, std::vector<StorageTuple>(oracle.begin(), oracle.end()));
        for (const auto& t : probe_tuples(arity)) {
            EXPECT_EQ(snap.contains(t), oracle.count(t) > 0) << t;
        }
        for (unsigned prefix = 0; prefix <= arity; ++prefix) {
            for (const auto& bound : edge_tuples(arity)) {
                std::vector<StorageTuple> got;
                snap.scan_prefix(bound, prefix,
                                 [&](const StorageTuple& t) { got.push_back(t); });
                expect_padded(got, arity, "snapshot scan_prefix");
                ASSERT_EQ(got, oracle_scan(oracle, bound, prefix, rel.order(0)))
                    << "arity " << arity << " snapshot scan " << bound << "/" << prefix;
            }
        }
    }
}

template <typename Storage>
class RelationArityBulk : public ::testing::Test {};

using BulkStorages = ::testing::Types<storage::OurBTree, storage::OurBTreeSnap,
                                      storage::OurBTreeFp, Wrapper<storage::OurBTree>>;
TYPED_TEST_SUITE(RelationArityBulk, BulkStorages);

TYPED_TEST(RelationArityBulk, SortedRunsSlicedAtPartitionKeysMatchOracle) {
    for (unsigned arity = 1; arity <= kMaxArity; ++arity) {
        const auto base = sample_tuples(arity, 20 + arity);
        const auto more = sample_tuples(arity, 30 + arity);
        Relation<TypeParam> full("r", arity, orders_for(arity));
        Relation<TypeParam> nw("r@new", arity, orders_for(arity));
        Oracle oracle(base.begin(), base.end());
        for (const auto& t : base) full.insert(t);
        for (const auto& t : more) {
            if (oracle.insert(t).second) nw.insert(t);
        }
        std::size_t fresh = 0;
        {
            auto view = full.local_view(0);
            for (unsigned idx = 0; idx < full.index_count(); ++idx) {
                const auto seps = full.partition_keys(idx, 8);
                ASSERT_FALSE(seps.empty()) << "arity " << arity << ": tree too small to slice";
                expect_padded(seps, arity, "partition_keys");
                const std::size_t parts = seps.size() + 1;
                for (std::size_t p = 0; p < parts; ++p) {
                    const std::size_t n = view.insert_sorted_run(
                        idx, nw, p == 0 ? nullptr : &seps[p - 1],
                        p + 1 < parts ? &seps[p] : nullptr);
                    if (idx == 0) fresh += n;
                }
            }
        }
        EXPECT_EQ(fresh, nw.size()) << "arity " << arity;
        expect_reads_match(full, oracle, arity,
                           "merged arity " + std::to_string(arity));
    }
}

TYPED_TEST(RelationArity, LoadSortedBatchMatchesOracle) {
    for (unsigned arity = 1; arity <= kMaxArity; ++arity) {
        const auto tuples = sample_tuples(arity, 40 + arity);
        const Oracle oracle(tuples.begin(), tuples.end());
        Relation<TypeParam> rel("r", arity, orders_for(arity));
        rel.load_sorted_batch(std::vector<StorageTuple>(oracle.begin(), oracle.end()));
        expect_reads_match(rel, oracle, arity, "batch arity " + std::to_string(arity));
    }
}

// -- the engine boundary -----------------------------------------------------------------

/// `.decl r(...) input`, `.decl s(...) output`, `s(x..) :- r(x..).`
std::string copy_program(unsigned arity) {
    std::string cols, vars;
    for (unsigned c = 0; c < arity; ++c) {
        if (c) {
            cols += ", ";
            vars += ", ";
        }
        cols += "c" + std::to_string(c) + ":number";
        vars += "x" + std::to_string(c);
    }
    return ".decl r(" + cols + ") input\n.decl s(" + cols + ") output\ns(" + vars +
           ") :- r(" + vars + ").\n";
}

TYPED_TEST(RelationArity, EngineTuplesComeBackZeroPadded) {
    for (unsigned arity = 1; arity <= kMaxArity; ++arity) {
        Engine<TypeParam> engine(compile(copy_program(arity)));
        const auto tuples = sample_tuples(arity, 50 + arity);
        engine.add_facts("r", tuples);
        engine.run(2);
        const Oracle oracle(tuples.begin(), tuples.end());
        const std::vector<StorageTuple> want(oracle.begin(), oracle.end());
        for (const char* rel : {"r", "s"}) {
            const auto got = engine.tuples(rel);
            expect_padded(got, arity, "tuples()");
            EXPECT_EQ(sorted(got), want) << rel << " at arity " << arity;
        }
        EXPECT_EQ(engine.stats().input_tuples, oracle.size());
    }
}

/// Expects `call` to throw std::invalid_argument naming relation r and
/// column `col`.
template <typename Fn>
void expect_padding_rejected(Fn&& call, unsigned col) {
    try {
        call();
        ADD_FAILURE() << "a nonzero column past the arity was accepted";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'r'"), std::string::npos) << what;
        EXPECT_NE(what.find("column " + std::to_string(col)), std::string::npos) << what;
    }
}

TEST(RelationArityPadding, AddFactsRejectsNonzeroPadding) {
    DefaultEngine engine(compile(copy_program(2)));
    expect_padding_rejected(
        [&] { engine.add_facts("r", {StorageTuple{1, 2, 0, 0}, StorageTuple{1, 2, 7, 0}}); }, 2);
    // The whole batch is refused: nothing of it is stored or counted.
    EXPECT_EQ(engine.relation("r").size(), 0u);
    EXPECT_EQ(engine.stats().input_tuples, 0u);
    engine.add_facts("r", {StorageTuple{1, 2, 0, 0}});
    engine.run(1);
    EXPECT_EQ(engine.tuples("s"), (std::vector<StorageTuple>{StorageTuple{1, 2, 0, 0}}));
}

TEST(RelationArityPadding, AddFactRejectsNonzeroPadding) {
    DefaultEngine engine(compile(copy_program(3)));
    expect_padding_rejected([&] { engine.add_fact("r", StorageTuple{1, 2, 3, 9}); }, 3);
    EXPECT_EQ(engine.relation("r").size(), 0u);
    engine.add_fact("r", StorageTuple{1, 2, 3, 0});
    EXPECT_EQ(engine.stats().input_tuples, 1u);
}

TEST(RelationArityPadding, IngestRejectsNonzeroPadding) {
    DefaultEngine engine(compile(copy_program(1)));
    engine.add_facts("r", {StorageTuple{1}});
    engine.run(1);
    expect_padding_rejected(
        [&] { engine.ingest("r", {StorageTuple{2}, StorageTuple{3, 0, 0, 4}}); }, 3);
    // Nothing was staged: the next commit has no work.
    EXPECT_EQ(engine.refixpoint(1), 0u);
    EXPECT_EQ(engine.ingest("r", {StorageTuple{2}}), 1u);
    EXPECT_GT(engine.refixpoint(1), 0u);
    EXPECT_EQ(engine.tuples("s"),
              (std::vector<StorageTuple>{StorageTuple{1}, StorageTuple{2}}));
}

} // namespace
