#pragma once

// Minimal thread-team helpers. The library itself is runtime-agnostic (any
// thread may call insert concurrently); these helpers give tests and benches
// a uniform way to fan work out across T threads and to partition index
// ranges the way the paper's benchmarks do (contiguous blocks per thread,
// which on the paper's NUMA testbed keeps most traffic socket-local).
//
// Since the runtime/ subsystem landed, both helpers execute on the
// persistent worker pool (runtime/scheduler.h) instead of spawning a fresh
// std::thread team per call: thread ids map to stable pool worker ids, and
// repeated calls reuse the same parked threads. The observable contract is
// unchanged — fn runs concurrently on T distinct threads, the call returns
// after all of them finish (with the same happens-before as join), and
// exceptions escaping fn terminate. parallel_blocks is the paper's static
// block partition for bench harnesses — one call per thread with its
// contiguous block — not a scheduler mode: code that wants rebalancing calls
// runtime::Scheduler::parallel_for (work stealing) directly.

#include <cstddef>
#include <cstdlib>
#include <utility>

#include "runtime/scheduler.h"

namespace dtree::util {

/// Thread count for tests and torture harnesses: DATATREE_TEST_THREADS when
/// set (clamped to >= 1), else `def`. Lets CI legs and developers on small
/// machines scale every hard-coded thread team from one knob
/// (EXPERIMENTS.md "Test thread counts").
inline unsigned env_threads(unsigned def) {
    if (const char* s = std::getenv("DATATREE_TEST_THREADS")) {
        const long v = std::strtol(s, nullptr, 10);
        if (v >= 1) return static_cast<unsigned>(v);
    }
    return def;
}

/// Contiguous [begin, end) block for thread t of T over n items.
/// Remainder items are spread over the leading threads so block sizes differ
/// by at most one. T == 0 (reachable through parallel_blocks(n, 0, fn), e.g.
/// a bench harness passing a miscomputed thread count) is clamped to a
/// single-threaded team instead of dividing by zero.
inline std::pair<std::size_t, std::size_t> block_range(std::size_t n,
                                                       unsigned t,
                                                       unsigned T) {
    return runtime::split_range(n, t, T);
}

/// Runs fn(thread_id) on T distinct threads (the caller plus T-1 pool
/// workers) and returns when all are done. fn must be callable concurrently;
/// exceptions escaping fn terminate (as with raw std::thread).
template <typename Fn>
void run_threads(unsigned T, Fn&& fn) {
    runtime::Scheduler::instance().run_team(T, std::forward<Fn>(fn));
}

/// Parallel for over [0, n) as fn(thread_id, begin, end): fn is invoked
/// exactly once per thread id in [0, T) with block_range(n, thread_id, T),
/// including empty blocks when n < T.
template <typename Fn>
void parallel_blocks(std::size_t n, unsigned T, Fn&& fn) {
    runtime::Scheduler::instance().run_team(T, [&](unsigned t) {
        const auto [b, e] = block_range(n, t, T);
        fn(t, b, e);
    });
}

} // namespace dtree::util
