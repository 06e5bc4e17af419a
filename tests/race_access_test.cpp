// Tests for the seqlock-safe data access layer (race_access.h).

#include "core/comparator.h"
#include "core/race_access.h"
#include "core/tuple.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

namespace {

using dtree::ConcurrentAccess;
using dtree::SeqAccess;
using dtree::Tuple;

TEST(RaceAccess, ScalarRoundTrip) {
    std::uint64_t x = 0;
    ConcurrentAccess::store(x, std::uint64_t{42});
    EXPECT_EQ(ConcurrentAccess::load(x), 42u);
    SeqAccess::store(x, std::uint64_t{7});
    EXPECT_EQ(SeqAccess::load(x), 7u);
}

TEST(RaceAccess, PointerRoundTrip) {
    int target = 5;
    int* p = nullptr;
    ConcurrentAccess::store(p, &target);
    EXPECT_EQ(ConcurrentAccess::load(p), &target);
}

TEST(RaceAccess, TupleElementwiseRoundTrip) {
    Tuple<3> t{};
    ConcurrentAccess::store(t, Tuple<3>{1, 2, 3});
    const Tuple<3> got = ConcurrentAccess::load(t);
    EXPECT_EQ(got, (Tuple<3>{1, 2, 3}));
}

TEST(RaceAccess, ConceptsClassifyKeys) {
    static_assert(dtree::ScalarKey<std::uint64_t>);
    static_assert(dtree::ScalarKey<int*>);
    static_assert(!dtree::ScalarKey<Tuple<2>>);
    static_assert(dtree::ElementwiseKey<Tuple<2>>);
    static_assert(dtree::ElementwiseKey<Tuple<4>>);
}

TEST(RelaxedValue, ConcurrentAndPlainModes) {
    dtree::relaxed_value<std::uint32_t, true> c(3);
    EXPECT_EQ(c.load(), 3u);
    c.store(9);
    EXPECT_EQ(c.load(), 9u);

    dtree::relaxed_value<std::uint32_t, false> p(3);
    EXPECT_EQ(p.load(), 3u);
    p.store(9);
    EXPECT_EQ(p.load(), 9u);
}

// Concurrent stores/loads on the same tuple must never fault or produce
// values never written per element (each element is either 0 or the writer's
// value for that slot).
TEST(RaceAccess, ConcurrentElementwiseAccessIsDefined) {
    Tuple<4> shared{};
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        for (std::uint64_t i = 1; i <= 100000; ++i) {
            ConcurrentAccess::store(shared, Tuple<4>{i, i, i, i});
        }
        stop.store(true);
    });
    std::uint64_t reads = 0;
    while (!stop.load() || reads == 0) {
        const Tuple<4> t = ConcurrentAccess::load(shared);
        for (int c = 0; c < 4; ++c) {
            ASSERT_LE(t[c], 100000u); // only written values appear
        }
        ++reads;
    }
    writer.join();
    EXPECT_GT(reads, 0u);
}

// -- Access::compare -------------------------------------------------------------

int sign(int c) { return (c > 0) - (c < 0); }

/// Every N-tuple over a small alphabet holding zero (the padding value), its
/// neighbours and the extremes: every prefix length ties for some pair.
template <std::size_t N>
std::vector<Tuple<N>> compare_domain() {
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    const std::uint64_t alphabet[] = {0, 1, 2, kMax - 1, kMax};
    std::vector<Tuple<N>> out(1);
    for (std::size_t col = 0; col < N; ++col) {
        std::vector<Tuple<N>> next;
        for (const auto& t : out) {
            for (const std::uint64_t v : alphabet) {
                Tuple<N> u = t;
                u[col] = v;
                next.push_back(u);
            }
        }
        out.swap(next);
    }
    // Zero-padded construction, as storage tuples of a smaller arity.
    out.push_back(Tuple<N>{std::uint64_t{1}});
    out.push_back(Tuple<N>{kMax});
    return out;
}

/// sign(ConcurrentAccess::compare) == sign(SeqAccess::compare) == sign(comp)
/// over every ordered pair of the domain.
template <std::size_t N, typename Comp>
void expect_compare_agrees(const Comp& comp) {
    const auto keys = compare_domain<N>();
    std::size_t mismatches = 0;
    for (const auto& stored : keys) {
        for (const auto& probe : keys) {
            const int want = sign(comp(stored, probe));
            if (sign(ConcurrentAccess::compare(comp, stored, probe)) != want ||
                sign(SeqAccess::compare(comp, stored, probe)) != want) {
                ++mismatches;
            }
        }
    }
    EXPECT_EQ(mismatches, 0u) << "Tuple<" << N << ">";
}

TEST(RaceAccess, LazyTupleCompareMatchesComparator) {
    static_assert(
        dtree::LexicographicComparator<dtree::ThreeWayComparator<Tuple<4>>>);
    expect_compare_agrees<1>(dtree::ThreeWayComparator<Tuple<1>>{});
    expect_compare_agrees<2>(dtree::ThreeWayComparator<Tuple<2>>{});
    expect_compare_agrees<3>(dtree::ThreeWayComparator<Tuple<3>>{});
    expect_compare_agrees<4>(dtree::ThreeWayComparator<Tuple<4>>{});
}

TEST(RaceAccess, NonLexicographicCompareTakesFullLoad) {
    using Desc = dtree::LessToThreeWay<Tuple<3>, std::greater<Tuple<3>>>;
    static_assert(!dtree::LexicographicComparator<Desc>);
    static_assert(!dtree::LexicographicComparator<
                  dtree::ThreeWayComparator<std::uint64_t>>);
    expect_compare_agrees<3>(Desc{});
    // The reversed order really is reversed, so agreement is not vacuous.
    EXPECT_GT(ConcurrentAccess::compare(Desc{}, Tuple<3>{1, 0, 0},
                                        Tuple<3>{2, 0, 0}),
              0);
}

} // namespace
