#pragma once

// TimedStorage<Inner>: a storage adapter that forwards every call to an inner
// adapter (storage::OurBTree in the traced pass) and charges the time spent
// inside the inner call to one of five kinds — insert, contains, range,
// bulk_merge, other. It plugs into datalog::Relation exactly like the adapter
// it wraps, so the engine above it runs the same code paths (the bulk-merge
// surface is forwarded; see the static_assert in runner.cpp).
//
// Accounting rules:
//   * per thread: each thread owns one counter slot (registered once, never
//     freed); only the owner writes it, readers sum all slots while the
//     engine is quiescent;
//   * callbacks are not storage time: scans pause their clock around every
//     call into the engine's callback, so a join nested inside a range scan
//     is charged to the engine and to the nested calls' own kinds;
//   * one span per call would dwarf the work, so calls are only counted and
//     their busy time summed;
//   * timing costs time: scope_cost() measures what an OpScope and a
//     pause/resume pair cost, so the traced pass can take it off again.
//
// The clock is the TSC on x86-64 (a few ns per read), calibrated once
// against steady_clock; elsewhere it is steady_clock itself.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "core/hints.h"

namespace perfbench {

enum class OpKind : unsigned { Insert, Contains, Range, BulkMerge, Other, kCount };
inline constexpr unsigned kOpKinds = static_cast<unsigned>(OpKind::kCount);
inline constexpr const char* kOpKindNames[kOpKinds] = {"insert", "contains", "range",
                                                       "bulk_merge", "other"};

inline std::uint64_t ticks() {
#if defined(__x86_64__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Seconds per tick, measured once over ~20 ms.
inline double seconds_per_tick() {
    static const double s = [] {
        using clock = std::chrono::steady_clock;
        const auto c0 = clock::now();
        const std::uint64_t t0 = ticks();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const auto c1 = clock::now();
        const std::uint64_t t1 = ticks();
        return std::chrono::duration<double>(c1 - c0).count() /
               static_cast<double>(t1 - t0);
    }();
    return s;
}

struct OpTotals {
    std::array<std::uint64_t, kOpKinds> calls{};
    std::array<std::uint64_t, kOpKinds> pauses{}; ///< engine callbacks excluded
    std::array<std::uint64_t, kOpKinds> busy_ticks{};

    OpTotals operator-(const OpTotals& o) const {
        OpTotals d;
        for (unsigned k = 0; k < kOpKinds; ++k) {
            d.calls[k] = calls[k] - o.calls[k];
            d.pauses[k] = pauses[k] - o.pauses[k];
            d.busy_ticks[k] = busy_ticks[k] - o.busy_ticks[k];
        }
        return d;
    }
};

/// Registry of per-thread counter slots.
class OpLedger {
public:
    struct Slot {
        std::array<std::atomic<std::uint64_t>, kOpKinds> calls{};
        std::array<std::atomic<std::uint64_t>, kOpKinds> pauses{};
        std::array<std::atomic<std::uint64_t>, kOpKinds> busy{};

        void add(OpKind k, std::uint64_t n_pauses, std::uint64_t busy_ticks) {
            const unsigned i = static_cast<unsigned>(k);
            // Owner-only writes: a relaxed load/store pair, no RMW needed.
            const auto bump = [](std::atomic<std::uint64_t>& c, std::uint64_t by) {
                c.store(c.load(std::memory_order_relaxed) + by, std::memory_order_relaxed);
            };
            bump(calls[i], 1);
            bump(pauses[i], n_pauses);
            bump(busy[i], busy_ticks);
        }
    };

    static OpLedger& instance() {
        static OpLedger l;
        return l;
    }

    Slot& local_slot() {
        thread_local Slot* slot = nullptr;
        if (!slot) {
            std::lock_guard<std::mutex> lk(mu_);
            slots_.push_back(std::make_unique<Slot>());
            slot = slots_.back().get();
        }
        return *slot;
    }

    /// Sum over every thread's slot. Call only while no storage call runs.
    OpTotals totals() const {
        std::lock_guard<std::mutex> lk(mu_);
        OpTotals t;
        for (const auto& s : slots_) {
            for (unsigned k = 0; k < kOpKinds; ++k) {
                t.calls[k] += s->calls[k].load(std::memory_order_relaxed);
                t.pauses[k] += s->pauses[k].load(std::memory_order_relaxed);
                t.busy_ticks[k] += s->busy[k].load(std::memory_order_relaxed);
            }
        }
        return t;
    }

private:
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Slot>> slots_;
};

/// Times one storage call; pause()/resume() bracket engine callbacks.
class OpScope {
public:
    explicit OpScope(OpKind k) : kind_(k), start_(ticks()) {}
    ~OpScope() {
        OpLedger::instance().local_slot().add(kind_, pauses_, busy_ + (ticks() - start_));
    }
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;

    void pause() {
        busy_ += ticks() - start_;
        ++pauses_;
    }
    void resume() { start_ = ticks(); }

    /// Wraps an engine callback so its run time is excluded from this call.
    template <typename Fn>
    auto excluding(Fn& fn) {
        return [this, &fn](const auto& k) {
            pause();
            fn(k);
            resume();
        };
    }

private:
    OpKind kind_;
    std::uint64_t start_;
    std::uint64_t busy_ = 0;
    std::uint64_t pauses_ = 0;
};

/// What the timing itself costs, in ticks: per call (an OpScope) and per
/// excluded callback (a pause/resume pair). `*_inside` is the part that the
/// clock reads charge to the call's busy time; `*_total` is all of it,
/// busy time and caller together.
struct ScopeCost {
    double call_inside = 0, call_total = 0;
    double pause_inside = 0, pause_total = 0;

    /// Busy ticks that were timing, not storage.
    double inside(const OpTotals& t, unsigned k) const {
        return static_cast<double>(t.calls[k]) * call_inside +
               static_cast<double>(t.pauses[k]) * pause_inside;
    }
    /// Ticks the timing added to the whole run.
    double total(const OpTotals& t) const {
        double sum = 0;
        for (unsigned k = 0; k < kOpKinds; ++k) {
            sum += static_cast<double>(t.calls[k]) * call_total +
                   static_cast<double>(t.pauses[k]) * pause_total;
        }
        return sum;
    }
};

/// Measured on the calling thread, on the CPU the run it corrects will use:
/// empty scopes, then scopes with kPauses empty pause/resume pairs; the
/// difference is the pairs' cost. Each figure is the minimum over trials, so
/// a trial the host interrupted does not count. The host's speed drifts, so
/// measure right next to that run, never during one (the empty scopes land
/// in the `other` counters).
inline ScopeCost scope_cost() {
    struct Cost {
        double inside = 1e30, total = 1e30;
    };
    constexpr unsigned kCalls = 1u << 15;
    constexpr unsigned kPauses = 4;
    constexpr unsigned kOther = static_cast<unsigned>(OpKind::Other);
    const auto& busy = OpLedger::instance().local_slot().busy[kOther];
    const auto measure = [&](Cost& best, unsigned pauses) {
        const std::uint64_t b0 = busy.load(std::memory_order_relaxed);
        const std::uint64_t t0 = ticks();
        for (unsigned i = 0; i < kCalls; ++i) {
            OpScope s(OpKind::Other);
            for (unsigned p = 0; p < pauses; ++p) {
                s.pause();
                __asm__ __volatile__("" ::: "memory");
                s.resume();
            }
            __asm__ __volatile__("" ::: "memory");
        }
        const std::uint64_t t1 = ticks();
        const double b = static_cast<double>(busy.load(std::memory_order_relaxed) - b0);
        best.inside = std::min(best.inside, b / kCalls);
        best.total = std::min(best.total, static_cast<double>(t1 - t0) / kCalls);
    };
    Cost plain, paused;
    for (int trial = 0; trial < 32; ++trial) {
        measure(plain, 0);
        measure(paused, kPauses);
    }
    ScopeCost out;
    out.call_inside = plain.inside;
    out.call_total = plain.total;
    out.pause_inside = std::max(0.0, (paused.inside - plain.inside) / kPauses);
    out.pause_total = std::max(0.0, (paused.total - plain.total) / kPauses);
    return out;
}

template <typename Inner>
class TimedStorage {
public:
    using key_type = typename Inner::key_type;
    using const_iterator = typename Inner::const_iterator;
    static constexpr bool thread_safe = Inner::thread_safe;
    static constexpr bool ordered = Inner::ordered;
    static const char* name() { return "timed"; }

    class local {
    public:
        explicit local(typename Inner::local in) : in_(std::move(in)) {}

        bool insert(const key_type& k) {
            OpScope s(OpKind::Insert);
            return in_.insert(k);
        }
        bool contains(const key_type& k) const {
            OpScope s(OpKind::Contains);
            return in_.contains(k);
        }
        template <typename Fn>
        void for_each_in_range(const key_type& lo, const key_type& hi, Fn&& fn) const {
            OpScope s(OpKind::Range);
            in_.for_each_in_range(lo, hi, s.excluding(fn));
        }
        template <typename It>
        std::size_t insert_sorted_run(It first, It last) {
            OpScope s(OpKind::BulkMerge);
            return in_.insert_sorted_run(first, last);
        }
        const dtree::HintStats& stats() const { return in_.stats(); }

    private:
        typename Inner::local in_;
    };

    bool insert(const key_type& k) {
        OpScope s(OpKind::Insert);
        return inner_.insert(k);
    }
    bool contains(const key_type& k) const {
        OpScope s(OpKind::Contains);
        return inner_.contains(k);
    }
    std::size_t size() const {
        OpScope s(OpKind::Range); // walks the tree
        return inner_.size();
    }
    bool empty() const {
        OpScope s(OpKind::Other);
        return inner_.empty();
    }
    void clear() {
        OpScope s(OpKind::Other);
        inner_.clear();
    }

    template <typename Fn>
    void for_each(Fn&& fn) const {
        OpScope s(OpKind::Range);
        inner_.for_each(s.excluding(fn));
    }
    template <typename Fn>
    void for_each_in_range(const key_type& lo, const key_type& hi, Fn&& fn) const {
        OpScope s(OpKind::Range);
        inner_.for_each_in_range(lo, hi, s.excluding(fn));
    }

    // Bulk-merge surface. Iterators are the inner adapter's: walking them
    // inside insert_sorted_run / build_sorted is charged to the merge.
    const_iterator begin() const { return inner_.begin(); }
    const_iterator end() const { return inner_.end(); }
    const_iterator lower_bound(const key_type& k) const {
        OpScope s(OpKind::BulkMerge);
        return inner_.lower_bound(k);
    }
    std::vector<key_type> partition_keys(std::size_t target) const {
        OpScope s(OpKind::BulkMerge);
        return inner_.partition_keys(target);
    }
    template <typename It>
    void build_sorted(It first, It last, std::size_t n) {
        OpScope s(OpKind::BulkMerge);
        inner_.build_sorted(first, last, n);
    }

    local make_local(unsigned tid) {
        OpScope s(OpKind::Other);
        return local(inner_.make_local(tid));
    }
    void finalize(unsigned threads) { inner_.finalize(threads); }

private:
    Inner inner_;
};

} // namespace perfbench
