#pragma once

// Seqlock-safe access to node data that a writer may be storing concurrently.
//
// The tree's concurrency contract (core/btree.h) has exactly two kinds of
// reader:
//
//   * Phase reads — find / contains / lower_bound / upper_bound, iteration.
//     Semi-naive evaluation runs them only while no writer is active (the
//     paper's two-phase guarantee, §2/§3.1); a barrier separates them from
//     the previous write phase. They race nobody, so every instantiation
//     reads their keys through SeqAccess: plain loads, no lease. (Counts
//     and child pointers stay relaxed_value loads, plain moves on x86.)
//   * Racing reads — insert's own optimistic descent and containment check
//     (Alg. 1) and snapshot reads of live nodes. They intentionally race
//     writers and discard what they read when lease validation fails. C++
//     declares such races undefined behaviour unless the conflicting
//     accesses are atomic, so (as the paper describes, following Boehm)
//     these readers and every writer use relaxed atomic operations through
//     ConcurrentAccess:
//       - whole-word fields (counts, pointers) are std::atomic<T> behind the
//         relaxed_value<T> wrapper below;
//       - key payloads (tuples) stay plain objects in node arrays and are
//         read/written *per scalar element* through std::atomic_ref, which
//         C++20 provides exactly for this purpose.
//
// Racing readers mostly compare a stored key with a private probe rather
// than copy it out, so the policies offer compare(comp, stored, probe) next
// to load(): under a lexicographic tuple comparator ConcurrentAccess loads
// one element at a time and stops at the first difference, which usually
// means one atomic load per compare instead of one per column.
//
// The sequential tree variant bypasses all of this: SeqAccess compiles to
// plain loads and stores with zero overhead, which is what the paper's
// "seq btree" configuration measures.

#include <atomic>
#include <cstddef>
#include <type_traits>

namespace dtree {

/// Concept-ish trait: keys that expose element-wise access for racy copies.
/// Scalar keys qualify trivially; Tuple<N> specialises via data()/size().
template <typename T>
concept ScalarKey = std::is_scalar_v<T>;

template <typename T>
concept ElementwiseKey = requires(T t, const T ct) {
    { ct.data() } -> std::convertible_to<const typename T::value_type*>;
    { t.data() } -> std::convertible_to<typename T::value_type*>;
    { T::static_size() } -> std::convertible_to<std::size_t>;
};

/// Comparators whose order is the element-wise lexicographic `<` order of an
/// ElementwiseKey (core/comparator.h marks ThreeWayComparator<Tuple>).
template <typename Comp>
concept LexicographicComparator = requires { requires Comp::lexicographic; };

/// Access policy for the concurrent tree: all racy loads/stores relaxed.
struct ConcurrentAccess {
    static constexpr bool concurrent = true;

    // NB: atomic_ref<const T> is C++26; until then the const_cast below is
    // the sanctioned workaround (the referenced object is never modified).
    template <ScalarKey T>
    static T load(const T& src) {
        return std::atomic_ref<T>(const_cast<T&>(src)).load(std::memory_order_relaxed);
    }

    template <ScalarKey T>
    static void store(T& dst, T v) {
        std::atomic_ref<T>(dst).store(v, std::memory_order_relaxed);
    }

    template <ElementwiseKey T>
    static T load(const T& src) {
        using V = typename T::value_type;
        T out;
        for (std::size_t i = 0; i < T::static_size(); ++i) {
            out.data()[i] = std::atomic_ref<V>(const_cast<V&>(src.data()[i]))
                                .load(std::memory_order_relaxed);
        }
        return out;
    }

    template <ElementwiseKey T>
    static void store(T& dst, const T& v) {
        for (std::size_t i = 0; i < T::static_size(); ++i) {
            std::atomic_ref<typename T::value_type>(dst.data()[i])
                .store(v.data()[i], std::memory_order_relaxed);
        }
    }

    /// comp(stored, probe) for a racily read `stored` and a private `probe`.
    /// Lexicographic comparators load `stored` lazily, one relaxed element
    /// at a time up to the first difference; any other comparator sees a
    /// full load() copy.
    template <typename Comp, typename T>
    static int compare(const Comp& comp, const T& stored, const T& probe) {
        if constexpr (ElementwiseKey<T> && LexicographicComparator<Comp>) {
            using V = typename T::value_type;
            for (std::size_t i = 0; i < T::static_size(); ++i) {
                const V a = std::atomic_ref<V>(const_cast<V&>(stored.data()[i]))
                                .load(std::memory_order_relaxed);
                const V b = probe.data()[i];
                if (a < b) return -1;
                if (b < a) return 1;
            }
            return 0;
        } else {
            return comp(load(stored), probe);
        }
    }
};

/// Access policy for the sequential tree: plain loads/stores, no fences.
struct SeqAccess {
    static constexpr bool concurrent = false;

    template <typename T>
    static T load(const T& src) {
        return src;
    }

    template <typename T>
    static void store(T& dst, const T& v) {
        dst = v;
    }

    template <typename Comp, typename T>
    static int compare(const Comp& comp, const T& stored, const T& probe) {
        return comp(stored, probe);
    }
};

// ---------------------------------------------------------------------------
// Racy vector loads (the DATATREE_SIMD fingerprint kernel)
// ---------------------------------------------------------------------------
//
// The fingerprint probe of leaf layout v2 (detail::simd::fp_find,
// core/btree_detail.h, DESIGN.md §15) compares a leaf's one-byte fingerprint
// array with *plain* 256-bit vector loads (_mm256_cmpeq_epi8), NOT through
// the per-element atomic_ref discipline above. That is a deliberate,
// documented exception to the Boehm-style rules, and it is sound for the
// same reason the rules exist at all:
//
//   1. Scope. Vector loads are issued ONLY between start_read()/validate()
//      of the node's OptimisticReadWriteLock, while the caller holds the
//      node's write lock, or in a phase read with no writer active (the
//      last two race nothing). There is no fourth call site.
//   2. Discard-on-conflict. A fingerprint match is never acted on directly:
//      it only nominates a slot for full key verification, itself an
//      Access::compare racy read re-checked by the same validate(). A torn
//      fingerprint byte can therefore cause at most a spurious verify
//      (counted as fp_false_hits) or a miss that the seqlock retry repairs.
//      No value computed from the vector load survives a failed validation
//      — exactly the seqlock argument the paper makes for its relaxed
//      scalar reads. The array is padded to a whole vector
//      (fp_padded_size), so the load never leaves the node.
//   3. Formal UB vs. practice. The C++ abstract machine calls the racing
//      non-atomic load undefined; on every ISA the kernel compiles for, an
//      unordered vector load from validly-mapped memory yields *some* value
//      per lane and has no other effect. We confine the formal UB to this
//      one shim so sanitizers can reason about the rest of the tree: under
//      ThreadSanitizer (which instruments exactly the C++-level race) the
//      vector path is compiled OUT below, and fp_find's scalar fallback
//      reads the fingerprints through the caller's Access policy (per-byte
//      relaxed atomics for racing readers) — the TSan-clean path that
//      scripts/check.sh's TSan leg exercises.
//
// One ordering obligation comes with it: writers publish a slot's
// fingerprint with a RELEASE store ordered after the per-element key stores
// (Node::fp_publish), so any reader that observes the byte and then
// verifies the slot reads fully-written key elements. Readers that race
// with the pre-publish window simply don't see the slot yet; the
// append-zone protocol (count published after fingerprint) makes that
// window invisible to the merged view.
//
// DTREE_SIMD_VECTOR is the single gate the kernel tests: it folds the vector
// path away when the build disables SIMD (-DDATATREE_SIMD=OFF), the target
// is not x86-64, or a thread sanitizer is active.

#if !defined(DATATREE_SIMD)
// Standalone header use (no CMake configure): default to enabled where the
// toolchain supports the target("avx2") attribute + runtime dispatch.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DATATREE_SIMD 1
#else
#define DATATREE_SIMD 0
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define DTREE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DTREE_TSAN 1
#endif
#endif
#if !defined(DTREE_TSAN)
#define DTREE_TSAN 0
#endif

#if DATATREE_SIMD && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__)) && !DTREE_TSAN
#define DTREE_SIMD_VECTOR 1
#else
#define DTREE_SIMD_VECTOR 0
#endif

/// A word-sized field that is racy in concurrent mode and plain otherwise.
/// Loads/stores are relaxed; ordering comes from the enclosing lock protocol
/// (acquire on lease acquisition/validation, release on end_write).
template <typename T, bool Concurrent>
class relaxed_value;

template <typename T>
class relaxed_value<T, true> {
public:
    relaxed_value() : v_{} {}
    explicit relaxed_value(T v) : v_(v) {}

    T load() const { return v_.load(std::memory_order_relaxed); }
    void store(T v) { v_.store(v, std::memory_order_relaxed); }

    /// Publication accessors for pointers to freshly constructed nodes.
    /// A reader that dereferences such a pointer WITHOUT first validating a
    /// lease on the node that published it (the bottom-up split's parent
    /// walk, the root fetch before its lease is checked) gets no
    /// happens-before edge from the relaxed pair above, so the new node's
    /// lock/field initialisation would race with the reader's first access.
    /// Release-store on publish + acquire-load on those paths closes the
    /// gap; on x86 both compile to plain moves.
    T load_acquire() const { return v_.load(std::memory_order_acquire); }
    void store_release(T v) { v_.store(v, std::memory_order_release); }

private:
    std::atomic<T> v_;
};

template <typename T>
class relaxed_value<T, false> {
public:
    relaxed_value() : v_{} {}
    explicit relaxed_value(T v) : v_(v) {}

    T load() const { return v_; }
    void store(T v) { v_ = v; }

    T load_acquire() const { return v_; }
    void store_release(T v) { v_ = v; }

private:
    T v_;
};

} // namespace dtree
