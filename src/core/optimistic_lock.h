#pragma once

// The paper's optimistic read-write lock (§3.1, Fig. 2): an extension of
// Linux seqlocks for *read-potential-write* threads. A thread starts a read
// phase, inspects the protected data, and only then decides whether to
// upgrade to a write phase. The fast path — reading an inner B-tree node —
// performs no store at all, so no cache-line invalidation and no inter-socket
// bus traffic happens for pure reads.
//
// Protocol (version counter semantics, as in seqlocks):
//   * even version  -> unlocked; the value doubles as the reader's lease
//   * odd version   -> a writer is active
//   * a completed write advances the version by 2, invalidating all leases
//     issued before the write began
//
// The eight operations named in the paper are provided verbatim:
//   start_read, validate (aka "valid"), end_read, try_upgrade_to_write,
//   try_start_write, start_write, end_write, abort_write.
//
// Memory-model soundness follows Boehm's seqlock recipe ("Can seqlocks get
// along with programming language memory models?", MSPC'12), adapted as the
// paper describes: (1) the version is read with memory_order_acquire,
// (2) protected data is read with relaxed atomics (see race_access.h),
// (3) an acquire fence is issued before validating, (4) the validating read
// of the version is relaxed. Writers bump the version with acq_rel/release
// ordering so data written inside the critical section becomes visible no
// later than the closing version increment.

#include <atomic>
#include <cassert>
#include <cstdint>

#include "util/failpoint.h"
#include "util/metrics.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace dtree {

/// Polite spin hint for busy-wait loops.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

class OptimisticReadWriteLock {
public:
    /// A read lease: the (even) version observed when the read phase began.
    /// Leases are values, not resources — dropping one is always safe.
    struct Lease {
        std::uint64_t version = 0;
    };

    OptimisticReadWriteLock() = default;

    // Locks protect nodes that never move; copying a lock makes no sense.
    OptimisticReadWriteLock(const OptimisticReadWriteLock&) = delete;
    OptimisticReadWriteLock& operator=(const OptimisticReadWriteLock&) = delete;

    /// Begins a read phase: spins until the version is even and returns it as
    /// the lease. Non-blocking in the paper's sense (never waits on a reader,
    /// only on an in-flight writer).
    Lease start_read() const {
        std::uint64_t v = version_.load(std::memory_order_acquire);
        while (v & 1u) {
            cpu_relax();
            v = version_.load(std::memory_order_acquire);
        }
        return Lease{v};
    }

    /// True iff no write has begun since the lease was issued. Data read
    /// under the lease may be *used* only after a successful validation.
    bool validate(Lease lease) const {
        // Fault injection: a spurious failure only sends the caller down its
        // retry path, which the protocol must tolerate anyway.
        if (DTREE_FAILPOINT(validate_fail)) return false;
        std::atomic_thread_fence(std::memory_order_acquire);
        if (version_.load(std::memory_order_relaxed) == lease.version) return true;
        DTREE_METRIC_INC(lock_validations_failed);
        return false;
    }

    /// Ends a read phase; equivalent to a final validation.
    bool end_read(Lease lease) const { return validate(lease); }

    /// Attempts to atomically turn a valid read lease into write ownership.
    /// Fails (without blocking) if any write intervened since the lease was
    /// issued or another writer holds the lock.
    bool try_upgrade_to_write(Lease lease) {
        // Fault injection: a lost upgrade race; no CAS is attempted.
        if (DTREE_FAILPOINT(upgrade_fail)) return false;
        std::uint64_t expected = lease.version;
        assert((expected & 1u) == 0 && "lease versions are always even");
        if (version_.compare_exchange_strong(expected, expected + 1,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
            return true;
        }
        DTREE_METRIC_INC(lock_upgrades_lost);
        return false;
    }

    /// Attempts to enter a write phase directly; non-blocking.
    bool try_start_write() {
        std::uint64_t v = version_.load(std::memory_order_relaxed);
        if (v & 1u) return false;
        return version_.compare_exchange_strong(v, v + 1,
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed);
    }

    /// Enters a write phase, blocking (spinning) until granted. This is the
    /// only blocking operation of the lock; it is used by the bottom-up node
    /// splitting procedure (Alg. 2).
    ///
    /// Contended waits use truncated exponential backoff and only attempt the
    /// CAS when the version was observed even: a bare CAS loop keeps the
    /// cache line in exclusive state on every waiter, ping-ponging it across
    /// cores exactly on the hot leaves where start_write matters.
    void start_write() {
        if (try_start_write()) return;
        std::uint64_t delay = 1;
        for (;;) {
            std::uint64_t v = version_.load(std::memory_order_relaxed);
            if (v & 1u) {
                // Writer active: wait with loads only, no stores.
                DTREE_METRIC_INC(lock_write_backoffs);
                for (std::uint64_t i = 0; i < delay; ++i) cpu_relax();
                if (delay < kMaxBackoff) delay <<= 1;
                continue;
            }
            if (version_.compare_exchange_weak(v, v + 1,
                                               std::memory_order_acq_rel,
                                               std::memory_order_relaxed)) {
                return;
            }
            // Lost the race for an even version to another writer.
            DTREE_METRIC_INC(lock_write_spins);
            for (std::uint64_t i = 0; i < delay; ++i) cpu_relax();
            if (delay < kMaxBackoff) delay <<= 1;
        }
    }

    /// Ends a write phase, publishing all modifications: version becomes even
    /// again and differs from every lease issued before the write.
    void end_write() {
        assert(is_write_locked());
        version_.fetch_add(1, std::memory_order_release);
    }

    /// Ends a write phase in which *nothing* was modified: the version is
    /// rolled back so outstanding read leases stay valid. Used when Alg. 2
    /// discovers it locked a stale parent.
    void abort_write() {
        assert(is_write_locked());
        version_.fetch_sub(1, std::memory_order_release);
    }

    /// Diagnostic: is a writer currently active?
    bool is_write_locked() const {
        return (version_.load(std::memory_order_relaxed) & 1u) != 0;
    }

private:
    /// Backoff truncation for start_write: caps the wait at 64 cpu_relax
    /// rounds so a freshly released lock is picked up promptly.
    static constexpr std::uint64_t kMaxBackoff = 64;

    std::atomic<std::uint64_t> version_{0};
};

static_assert(sizeof(OptimisticReadWriteLock) == sizeof(std::uint64_t),
              "the lock must stay a single word so every node can afford one");

} // namespace dtree
