// Unit tests for the utility layer: partitioning, CLI parsing, RNG helpers,
// spinlock, table printer, timers.

#include "util/cli.h"
#include "util/histogram.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/spinlock.h"
#include "util/table.h"
#include "util/timer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace {

using namespace dtree::util;

// -- block_range -------------------------------------------------------------

TEST(BlockRange, CoversExactlyOnce) {
    for (std::size_t n : {0ul, 1ul, 7ul, 100ul, 101ul, 4096ul}) {
        for (unsigned T : {1u, 2u, 3u, 8u, 16u, 33u}) {
            std::size_t covered = 0;
            std::size_t prev_end = 0;
            for (unsigned t = 0; t < T; ++t) {
                auto [b, e] = block_range(n, t, T);
                EXPECT_EQ(b, prev_end) << "blocks must be contiguous";
                EXPECT_LE(b, e);
                covered += e - b;
                prev_end = e;
            }
            EXPECT_EQ(covered, n) << "n=" << n << " T=" << T;
            EXPECT_EQ(prev_end, n);
        }
    }
}

// Regression: T == 0 used to divide by zero (reachable through
// parallel_blocks(n, 0, fn), whose run_threads(0, ...) still invokes
// fn(0)). A zero-thread team is treated as a single-threaded one.
TEST(BlockRange, ZeroThreadsActsAsOne) {
    for (std::size_t n : {0ul, 1ul, 100ul}) {
        auto [b, e] = block_range(n, 0, 0);
        EXPECT_EQ(b, 0u);
        EXPECT_EQ(e, n);
    }
    std::size_t covered = 0;
    parallel_blocks(123, 0, [&](unsigned t, std::size_t b, std::size_t e) {
        EXPECT_EQ(t, 0u);
        covered += e - b;
    });
    EXPECT_EQ(covered, 123u);
}

TEST(BlockRange, BalancedWithinOne) {
    for (unsigned T : {2u, 3u, 7u, 16u}) {
        std::size_t min_len = ~0ul, max_len = 0;
        for (unsigned t = 0; t < T; ++t) {
            auto [b, e] = block_range(1000, t, T);
            min_len = std::min(min_len, e - b);
            max_len = std::max(max_len, e - b);
        }
        EXPECT_LE(max_len - min_len, 1u);
    }
}

TEST(RunThreads, AllThreadIdsFire) {
    std::atomic<unsigned> mask{0};
    run_threads(8, [&](unsigned t) { mask.fetch_or(1u << t); });
    EXPECT_EQ(mask.load(), 0xFFu);
}

TEST(ParallelBlocks, SumsMatchSequential) {
    std::vector<int> data(10000);
    std::iota(data.begin(), data.end(), 0);
    std::atomic<long long> sum{0};
    parallel_blocks(data.size(), 4, [&](unsigned, std::size_t b, std::size_t e) {
        long long local = 0;
        for (std::size_t i = b; i < e; ++i) local += data[i];
        sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 10000LL * 9999 / 2);
}

// -- Cli ------------------------------------------------------------------------

TEST(Cli, ParsesFlagsAndValues) {
    const char* argv[] = {"prog", "--full", "--n=500", "--name=abc",
                          "--threads=1,2,4"};
    Cli cli(5, const_cast<char**>(argv));
    EXPECT_TRUE(cli.get_bool("full"));
    EXPECT_FALSE(cli.get_bool("absent"));
    EXPECT_EQ(cli.get_u64("n", 0), 500u);
    EXPECT_EQ(cli.get_u64("absent", 7), 7u);
    EXPECT_EQ(cli.get_str("name", ""), "abc");
    const auto threads = cli.get_list("threads", {});
    ASSERT_EQ(threads.size(), 3u);
    EXPECT_EQ(threads[0], 1u);
    EXPECT_EQ(threads[2], 4u);
    EXPECT_TRUE(cli.has("full"));
    EXPECT_FALSE(cli.has("missing"));
}

TEST(Cli, DefaultListWhenAbsent) {
    const char* argv[] = {"prog"};
    Cli cli(1, const_cast<char**>(argv));
    const auto def = cli.get_list("threads", {1, 2});
    ASSERT_EQ(def.size(), 2u);
}

// Regression: numeric accessors used strtoull, so `--jobs=abc` silently
// became 0 and values past 2^64 wrapped. They must reject instead.
TEST(Cli, RejectsNonNumericValues) {
    const char* argv[] = {"prog", "--jobs=abc", "--n=12x", "--neg=-3",
                          "--empty=", "--threads=1,abc,4"};
    Cli cli(6, const_cast<char**>(argv));
    EXPECT_THROW(cli.get_u64("jobs", 0), std::runtime_error);
    EXPECT_THROW(cli.get_u64("n", 0), std::runtime_error);
    EXPECT_THROW(cli.get_u64("neg", 0), std::runtime_error);
    EXPECT_THROW(cli.get_u64("empty", 0), std::runtime_error);
    EXPECT_THROW(cli.get_list("threads", {}), std::runtime_error);
}

TEST(Cli, RejectsOverflowingValues) {
    // 2^64 = 18446744073709551616: one past the largest u64.
    const char* argv[] = {"prog", "--n=18446744073709551616",
                          "--m=18446744073709551615",
                          // List elements must additionally fit `unsigned`.
                          "--threads=1,4294967296"};
    Cli cli(4, const_cast<char**>(argv));
    EXPECT_THROW(cli.get_u64("n", 0), std::runtime_error);
    EXPECT_EQ(cli.get_u64("m", 0), std::numeric_limits<std::uint64_t>::max());
    EXPECT_THROW(cli.get_list("threads", {}), std::runtime_error);
}

// A misspelt or retired flag must be reported, not silently ignored: a
// tool with a closed flag set exits on the first unknown name.
TEST(Cli, FirstUnknownNamesAFlagOutsideTheKnownSet) {
    const char* argv[] = {"prog", "--jobs=4", "--stats", "--sched=blocks",
                          "--grain=8"};
    Cli cli(5, const_cast<char**>(argv));
    EXPECT_EQ(cli.first_unknown({"jobs", "stats"}), "grain");
    EXPECT_EQ(cli.first_unknown({"jobs", "stats", "grain"}), "sched");
    EXPECT_EQ(cli.first_unknown({"jobs", "stats", "grain", "sched"}), "");

    const char* bare[] = {"prog", "positional"};
    Cli none(2, const_cast<char**>(bare));
    EXPECT_EQ(none.first_unknown({}), "") << "positionals are not flags";
}

// -- RNG helpers ---------------------------------------------------------------

TEST(Random, UniformIntWithinBounds) {
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        auto v = uniform_int<std::uint64_t>(rng, 10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Random, PermutationIsABijection) {
    Rng rng(2);
    auto p = permutation(1000, rng);
    std::vector<bool> seen(1000, false);
    for (auto v : p) {
        ASSERT_LT(v, 1000u);
        EXPECT_FALSE(seen[v]);
        seen[v] = true;
    }
}

TEST(Random, ZipfIsSkewedTowardLowRanks) {
    Rng rng(3);
    dtree::util::Zipf zipf(1000, 1.0);
    std::size_t low = 0, total = 20000;
    for (std::size_t i = 0; i < total; ++i) {
        if (zipf(rng) < 10) ++low;
    }
    // With s=1, ranks 0-9 carry ~39% of the mass; uniform would give 1%.
    EXPECT_GT(low, total / 5);
}

TEST(Random, DeterministicUnderSeed) {
    Rng a(42), b(42), c(43);
    EXPECT_EQ(a(), b());
    Rng a2(42);
    EXPECT_NE(a2(), c());
}

// -- Spinlock --------------------------------------------------------------------

TEST(SpinlockTest, MutualExclusion) {
    Spinlock lock;
    std::uint64_t counter = 0;
    run_threads(8, [&](unsigned) {
        for (int i = 0; i < 20000; ++i) {
            std::lock_guard guard(lock);
            ++counter;
        }
    });
    EXPECT_EQ(counter, 8u * 20000u);
}

TEST(SpinlockTest, TryLock) {
    Spinlock lock;
    EXPECT_TRUE(lock.try_lock());
    EXPECT_FALSE(lock.try_lock());
    lock.unlock();
    EXPECT_TRUE(lock.try_lock());
    lock.unlock();
}

// -- SeriesTable ------------------------------------------------------------------

TEST(SeriesTableTest, PrintsAlignedRows) {
    SeriesTable t("metric", "threads");
    t.set_x({"1", "2"});
    t.add("alpha", 1.5);
    t.add("alpha", 2.5);
    t.add("beta", 3.0);
    t.add("beta", 4.0);
    std::ostringstream ss;
    t.print(ss);
    const std::string out = ss.str();
    EXPECT_NE(out.find("metric"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("1.500"), std::string::npos);
    EXPECT_NE(out.find("4.000"), std::string::npos);
    // alpha's row appears before beta's.
    EXPECT_LT(out.find("alpha"), out.find("beta"));
}

// -- Histogram ---------------------------------------------------------------------

TEST(HistogramTest, EmptyIsAllZero) {
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.p50(), 0u);
    EXPECT_EQ(h.p999(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, SmallValuesAreExact) {
    // Values below 2^kSubBits (= 16) land in unit buckets: exact quantiles.
    Histogram h;
    for (std::uint64_t v = 1; v <= 10; ++v) h.record(v);
    EXPECT_EQ(h.count(), 10u);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 10u);
    EXPECT_EQ(h.p50(), 5u);
    EXPECT_EQ(h.quantile(1.0), 10u);
    EXPECT_DOUBLE_EQ(h.mean(), 5.5);
}

TEST(HistogramTest, QuantileRankIsACeiling) {
    // Regression: the rank of quantile q over n samples is ceil(q*n), never
    // round-half-up. With samples {1, 10}, q=0.6 targets rank ceil(1.2) = 2 —
    // the larger sample. The old rank (truncate q*n + 0.5) picked rank 1 and
    // reported p60 = 1 for this population.
    Histogram h;
    h.record(1);
    h.record(10);
    EXPECT_EQ(h.quantile(0.6), 10u);
    // q landing exactly on a sample boundary stays at that sample.
    EXPECT_EQ(h.quantile(0.5), 1u);
    EXPECT_EQ(h.quantile(1.0), 10u);
}

TEST(HistogramTest, TailQuantileOfSmallPopulationIsTheMax) {
    // ceil(0.99 * n) == n for every n <= 99: the p99 of a sub-100-sample
    // population is its maximum. Round-half-up gave rank n-1 for n in
    // [51, 99] and under-reported the tail (visible here at n = 60, where
    // ranks 59 and 60 land in different log-linear buckets).
    for (std::uint64_t n : {2, 10, 60, 99}) {
        Histogram h;
        for (std::uint64_t v = 1; v <= n; ++v) h.record(v);
        EXPECT_EQ(h.p99(), h.max()) << "n = " << n;
    }
}

TEST(HistogramTest, QuantileErrorIsBounded) {
    // Log-linear bucketing promises <= 1/16 relative error above the linear
    // range. Check a uniform ramp at several magnitudes.
    Histogram h;
    const std::uint64_t n = 10000;
    for (std::uint64_t i = 1; i <= n; ++i) h.record(i * 1000); // 1k .. 10M
    for (double q : {0.10, 0.50, 0.90, 0.99, 0.999}) {
        const double exact = q * static_cast<double>(n) * 1000.0;
        const double got = static_cast<double>(h.quantile(q));
        EXPECT_GE(got, exact * (1.0 - 1.0 / 16));
        EXPECT_LE(got, exact * (1.0 + 1.0 / 8) + 1000.0) << "q=" << q;
    }
    // The tail quantile never exceeds the recorded max.
    EXPECT_LE(h.p999(), h.max());
}

TEST(HistogramTest, MergeMatchesCombinedRecording) {
    Histogram a, b, all;
    for (std::uint64_t i = 1; i <= 500; ++i) {
        a.record(i * 7);
        all.record(i * 7);
    }
    for (std::uint64_t i = 1; i <= 300; ++i) {
        b.record(i * 1931);
        all.record(i * 1931);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_EQ(a.min(), all.min());
    EXPECT_EQ(a.max(), all.max());
    EXPECT_EQ(a.p50(), all.p50());
    EXPECT_EQ(a.p99(), all.p99());
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.p50(), 0u);
}

TEST(HistogramTest, WriteJsonEmitsTailFields) {
    Histogram h;
    for (std::uint64_t i = 1; i <= 100; ++i) h.record(i * 1000); // ns
    std::ostringstream ss;
    dtree::json::Writer w(ss);
    h.write_json(w); // default scale 1e3: ns in, us out
    const std::string out = ss.str();
    EXPECT_NE(out.find("\"count\": 100"), std::string::npos) << out;
    for (const char* key : {"\"p50_us\"", "\"p99_us\"", "\"p999_us\"",
                            "\"min_us\"", "\"max_us\"", "\"mean_us\""}) {
        EXPECT_NE(out.find(key), std::string::npos) << key << " missing: " << out;
    }
    // max = 100000 ns -> 100 us after the default 1e3 scale.
    EXPECT_NE(out.find("\"max_us\": 100"), std::string::npos) << out;
}

// -- Timer -------------------------------------------------------------------------

TEST(TimerTest, MeasuresElapsedTime) {
    Timer t;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_GE(t.elapsed_ns(), 15'000'000u);
    EXPECT_GE(t.elapsed_s(), 0.015);
    t.restart();
    EXPECT_LT(t.elapsed_s(), 0.015);
}

TEST(TimerTest, TimeSHelper) {
    const double secs = dtree::util::time_s(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(10)); });
    EXPECT_GE(secs, 0.005);
}

} // namespace
