#pragma once

// Node machinery, in-node search policies, and the in-order iterator of the
// specialized B-tree (§3). This is a *classic* B-tree — keys live in inner
// nodes too — matching the structure the paper describes: a split keeps half
// of the keys in the existing node, moves half to a new sibling, and promotes
// the median to the parent. The one deviation is on the right spine, where an
// append split keeps all but two keys (DESIGN.md §16).
//
// Concurrency-relevant layout rules (§3.1):
//   * every node carries its own OptimisticReadWriteLock;
//   * a node's keys, element count and child pointers are protected by the
//     node's own lock;
//   * a node's parent pointer and position-in-parent are protected by the
//     *parent's* lock (or the tree's root lock for the root node);
//   * nodes are never freed or moved while the tree lives, so stale pointers
//     read under a failed lease are always safe to *hold* (never to use).

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "core/comparator.h"
#include "core/optimistic_lock.h"
#include "core/race_access.h"
#include "core/tuple.h"
#include "util/metrics.h"

#if DTREE_SIMD_VECTOR
#include <immintrin.h>
#endif

namespace dtree::detail {

/// Prefetch the hot head of a node: its lock/header line plus the start of
/// the key array (which directly follows the header, see Node below).
/// Issued on the pointer loaded during descent, BEFORE the parent's lease is
/// validated — prefetching is side-effect-free, so even a stale pointer that
/// validation is about to reject is safe to prefetch (nodes are never freed
/// while the tree lives, §3.1).
template <typename NodePtr>
inline void prefetch_node(const NodePtr* n) {
    if (!n) return;
    const char* p = reinterpret_cast<const char*>(n);
    __builtin_prefetch(p, 0, 3);
    __builtin_prefetch(p + 64, 0, 3);
}

/// Default number of keys per node: targets ~512 bytes of key payload, the
/// sweet spot found by the ablation_node_size bench (several cache lines per
/// node amortise the per-node traversal cost; cf. Google's btree defaults).
template <typename Key>
constexpr unsigned default_block_size() {
    constexpr std::size_t target = 512;
    constexpr std::size_t n = target / sizeof(Key);
    return n < 3 ? 3u : static_cast<unsigned>(n);
}

// ---------------------------------------------------------------------------
// Nodes
// ---------------------------------------------------------------------------

template <typename Key, unsigned BlockSize, typename Access,
          bool WithSnapshots, bool WithFingerprints>
struct InnerNode;

// ---------------------------------------------------------------------------
// Snapshot images (DESIGN.md §11) — only instantiated for WithSnapshots trees
// ---------------------------------------------------------------------------

/// Immutable copy-on-write image of a node's content as of some epoch.
/// `epoch` is the mod_epoch the content carried when it was captured: the
/// image is the correct view of the node for every snapshot boundary B with
/// epoch < B <= (epoch of the NEXT-newer image, or the node's live
/// mod_epoch). Images chain newest-first through `next` with strictly
/// decreasing epochs and are allocated from the tree's RetainArena, tagged
/// with the epoch of the operation that captured them. The arena frees them
/// a chunk at a time once no live or future snapshot can reach them, so
/// `next` may dangle; a reader follows it only from an image whose epoch is
/// >= its boundary, and that target outlives the reader's pin (§11).
template <typename Key, unsigned BlockSize>
struct SnapImage {
    SnapImage* next = nullptr; ///< next-older image, or null (may dangle)
    std::uint64_t epoch = 0;   ///< mod_epoch of the captured content
    std::uint32_t n = 0;       ///< valid keys in keys[]
    bool inner = false;        ///< downcast marker for SnapInnerImage
    Key keys[BlockSize];
};

/// Inner-node image: additionally captures the child pointers. Children are
/// live node pointers — safe to hold forever (nodes are never freed or moved
/// while the tree lives); a snapshot reader recursing through them applies
/// the same per-node version selection, so post-boundary structural changes
/// below are invisible.
template <typename Key, unsigned BlockSize, typename NodeT>
struct SnapInnerImage : SnapImage<Key, BlockSize> {
    NodeT* children[BlockSize + 1];
};

/// Per-node snapshot state: the epoch of the node's last modification and
/// the head of its immutable version chain. Both are protected by the node's
/// write lock for writers; snapshot readers load them under a lease (or
/// follow the acquire-published chain). Specialised to an empty member for
/// non-snapshot trees so their node layout stays bit-identical to the seed.
template <typename Key, unsigned BlockSize, bool Concurrent, bool Present>
struct SnapState {
    using ImageT = SnapImage<Key, BlockSize>;
    /// Epoch of the last modification (0 until first touched/marked).
    relaxed_value<std::uint64_t, Concurrent> mod_epoch{};
    /// Newest-first chain of retained images; store_release on publish.
    relaxed_value<ImageT*, Concurrent> versions{};
};
template <typename Key, unsigned BlockSize, bool Concurrent>
struct SnapState<Key, BlockSize, Concurrent, false> {};

// ---------------------------------------------------------------------------
// Leaf layout v2 state (fingerprints + append zone, DESIGN.md §15)
// ---------------------------------------------------------------------------

/// Number of fingerprint bytes a v2 node stores: BlockSize rounded up to a
/// whole 256-bit vector so the AVX2 probe's unaligned loads never read past
/// the array (the tail bytes beyond the valid count are masked out).
constexpr unsigned fp_padded_size(unsigned block_size) {
    return (block_size + 31u) & ~31u;
}

/// Per-node leaf-layout-v2 state (WithFingerprints trees only; specialised
/// to an empty member otherwise so the default node layout stays
/// bit-identical to the seed — same discipline as SnapState):
///
///   fp[i]      one-byte fingerprint of keys[i] (dtree::key_fingerprint),
///              maintained by key_store/key_move/key_copy_from for LEAVES
///              under exactly the locks protecting keys[] itself. The
///              membership probe compares a whole vector of these bytes
///              before touching any key. Inner nodes carry the array (they
///              share the node header) but never read or maintain it.
///   sorted     length of the leaf's sorted prefix: slots [0, sorted) are in
///              key order, slots [sorted, n) are the append zone (arrival
///              order). Consolidation (split / bulk-fill time) merges the
///              zone back and restores sorted == n. Inner nodes are always
///              fully sorted and never read this.
///   min_key /  cached copies of the leaf's extreme keys, so leaf_covers
///   max_key    stays two comparisons even when keys[0]/keys[n-1] are no
///              longer the extremes (append zone). Updated incrementally on
///              append under the write lock; racy readers copy them via
///              Access and validate their lease, like any other node field.
template <typename Key, unsigned BlockSize, bool Concurrent, bool Present>
struct FpState {
    std::uint8_t fp[fp_padded_size(BlockSize)] = {};
    relaxed_value<std::uint32_t, Concurrent> sorted{0};
    Key min_key{};
    Key max_key{};
};
template <typename Key, unsigned BlockSize, bool Concurrent>
struct FpState<Key, BlockSize, Concurrent, false> {};

/// Common node header + key storage. Leaf nodes are exactly this; inner
/// nodes extend it with a child-pointer array.
template <typename Key, unsigned BlockSize, typename Access,
          bool WithSnapshots = false, bool WithFingerprints = false>
struct Node {
    static constexpr bool concurrent = Access::concurrent;
    static constexpr bool with_snapshots = WithSnapshots;
    static constexpr bool with_fingerprints = WithFingerprints;
    using Inner = InnerNode<Key, BlockSize, Access, WithSnapshots,
                            WithFingerprints>;
    using SnapImageT = SnapImage<Key, BlockSize>;
    using SnapInnerImageT = SnapInnerImage<Key, BlockSize, Node>;

    /// Per-node optimistic read-write lock (unused by the sequential
    /// instantiation; one idle word keeps the layouts identical).
    OptimisticReadWriteLock lock;

    /// Parent node, or nullptr for the root. Protected by the parent's lock.
    relaxed_value<Inner*, concurrent> parent{nullptr};

    /// Index of this node within parent->children. Protected by the parent's
    /// lock.
    relaxed_value<std::uint32_t, concurrent> position{0};

    /// Number of valid keys in keys[]. Protected by this node's lock.
    relaxed_value<std::uint32_t, concurrent> num_elements{0};

    /// Immutable after construction; distinguishes Inner from leaf nodes.
    const bool inner;

    /// Set on the last node of each level (the tree's right spine). Decides
    /// the split point (see split_and_propagate) and lets a spine leaf's
    /// hint cover every key above its first one. Written only under this
    /// node's write lock; racy readers validate their lease. Sits in the
    /// header padding before keys[], so node sizes do not change.
    relaxed_value<bool, concurrent> spine{false};

    /// Key storage; slots [0, num_elements) are valid. Protected by this
    /// node's lock; racy readers copy elements via Access and validate.
    Key keys[BlockSize];

    /// Snapshot version state (empty for non-snapshot trees; see SnapState).
    [[no_unique_address]] SnapState<Key, BlockSize, concurrent, WithSnapshots>
        snap;

    /// Leaf layout v2 state (empty for default trees; see FpState).
    [[no_unique_address]] FpState<Key, BlockSize, concurrent, WithFingerprints>
        fpst;

    explicit Node(bool is_inner) : inner(is_inner) {}

    std::uint32_t size() const { return num_elements.load(); }
    bool full() const { return size() == BlockSize; }

    // -- leaf layout v2 accessors (only instantiated when WithFingerprints) --

    const std::uint8_t* fp_bytes() const { return fpst.fp; }
    std::uint32_t fp_sorted() const { return fpst.sorted.load(); }
    void fp_sorted_store(std::uint32_t s) { fpst.sorted.store(s); }

    /// Publishes the fingerprint byte for slot i. Release-ordered in the
    /// concurrent tree so a probe that observes the published byte also
    /// observes the complete key the slot write just stored (the append
    /// path's publish ordering; the seqlock validation remains the actual
    /// safety net — see the race_access.h notes).
    template <typename A>
    void fp_publish(unsigned i, std::uint8_t b) {
        if constexpr (A::concurrent) {
            std::atomic_ref<std::uint8_t>(fpst.fp[i])
                .store(b, std::memory_order_release);
        } else {
            fpst.fp[i] = b;
        }
    }

    // -- key mutation (the ONLY writers of keys[] / the fingerprints) --------
    // A = SeqAccess for exclusive or unpublished nodes, the tree's Access
    // policy when racy readers may be scanning (i.e. under a held write
    // lock in the concurrent tree).

    /// keys[i] = k; a v2 leaf's fingerprint byte is kept in sync.
    template <typename A>
    void key_store(unsigned i, const Key& k) {
        A::store(keys[i], k);
        if constexpr (WithFingerprints) {
            // Fingerprint AFTER the key elements: a racy probe that sees the
            // byte sees the whole key (release publish, fp_publish above).
            // Inner separators are never fingerprint-probed — skip them.
            if (!inner) fp_publish<A>(i, dtree::key_fingerprint(k));
        }
    }

    /// keys[dst] = keys[src] within this node (shift loops). Plain reads of
    /// our own slots are fine: the caller has exclusive write access.
    template <typename A>
    void key_move(unsigned dst, unsigned src) {
        A::store(keys[dst], keys[src]);
        if constexpr (WithFingerprints) {
            if (!inner) fp_publish<A>(dst, fpst.fp[src]);
        }
    }

    /// keys[dst] = src_node.keys[src] (node splits; dst is unpublished or
    /// write-locked, src is write-locked; both sides are the same kind).
    template <typename A>
    void key_copy_from(unsigned dst, const Node& src_node, unsigned src) {
        A::store(keys[dst], src_node.keys[src]);
        if constexpr (WithFingerprints) {
            if (!inner) fp_publish<A>(dst, src_node.fpst.fp[src]);
        }
    }

    Inner* as_inner() {
        assert(inner);
        return static_cast<Inner*>(this);
    }
    const Inner* as_inner() const {
        assert(inner);
        return static_cast<const Inner*>(this);
    }
};

template <typename Key, unsigned BlockSize, typename Access,
          bool WithSnapshots = false, bool WithFingerprints = false>
struct InnerNode : Node<Key, BlockSize, Access, WithSnapshots,
                        WithFingerprints> {
    using Base = Node<Key, BlockSize, Access, WithSnapshots, WithFingerprints>;
    static constexpr bool concurrent = Access::concurrent;

    /// children[i] precedes keys[i]; children[num_elements] is the last.
    /// Protected by this node's lock.
    relaxed_value<Base*, concurrent> children[BlockSize + 1];

    InnerNode() : Base(/*is_inner=*/true) {
        for (auto& c : children) c.store(nullptr);
    }
};

/// Frees a node and, recursively, everything below it. Only safe without
/// concurrent users (destructor / clear()).
template <typename Key, unsigned BlockSize, typename Access,
          bool WithSnapshots, bool WithFingerprints>
void free_subtree(Node<Key, BlockSize, Access, WithSnapshots,
                       WithFingerprints>* n) {
    if (!n) return;
    if (n->inner) {
        auto* in = n->as_inner();
        const std::uint32_t cnt = in->num_elements.load();
        for (std::uint32_t i = 0; i <= cnt; ++i) free_subtree(in->children[i].load());
        delete in;
    } else {
        delete n;
    }
}

// ---------------------------------------------------------------------------
// In-node search policies (ablation: bench/ablation_search)
// ---------------------------------------------------------------------------

/// Linear scan with the 3-way comparator. For small nodes and cheap keys the
/// branch predictor makes this faster than binary search.
struct LinearSearch {
    /// First index in [0, n) whose key is >= k, else n.
    template <typename Access, typename Key, typename Comp>
    static unsigned lower(const Key* keys, unsigned n, const Key& k, const Comp& comp) {
        unsigned i = 0;
        while (i < n && Access::compare(comp, keys[i], k) < 0) ++i;
        return i;
    }

    /// First index in [0, n) whose key is > k, else n.
    template <typename Access, typename Key, typename Comp>
    static unsigned upper(const Key* keys, unsigned n, const Key& k, const Comp& comp) {
        unsigned i = 0;
        while (i < n && Access::compare(comp, keys[i], k) <= 0) ++i;
        return i;
    }
};

/// Binary search; O(log B) comparisons per node, the right choice for wide
/// nodes and expensive comparators.
struct BinarySearch {
    template <typename Access, typename Key, typename Comp>
    static unsigned lower(const Key* keys, unsigned n, const Key& k, const Comp& comp) {
        unsigned lo = 0, hi = n;
        while (lo < hi) {
            const unsigned mid = lo + (hi - lo) / 2;
            if (Access::compare(comp, keys[mid], k) < 0) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        return lo;
    }

    template <typename Access, typename Key, typename Comp>
    static unsigned upper(const Key* keys, unsigned n, const Key& k, const Comp& comp) {
        unsigned lo = 0, hi = n;
        while (lo < hi) {
            const unsigned mid = lo + (hi - lo) / 2;
            if (Access::compare(comp, keys[mid], k) <= 0) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        return lo;
    }
};

// ---------------------------------------------------------------------------
// Fingerprint byte kernel (leaf layout v2, DESIGN.md §15)
// ---------------------------------------------------------------------------

namespace simd {

#if DTREE_SIMD_VECTOR

/// One-shot runtime ISA dispatch: the kernel is compiled with the
/// target("avx2") attribute (no global -mavx2 codegen shift) and only taken
/// when the CPU reports AVX2.
inline bool have_avx2() {
    // __builtin_cpu_supports reads a libgcc global initialised before main —
    // no function-local static (whose thread-safe guard would cost an
    // acquire-load + branch on every probe).
    return __builtin_cpu_supports("avx2") != 0;
}

/// AVX2 byte-equality mask over one 32-byte fingerprint chunk: bit i of the
/// result is set iff p[i] == b. The load is RACY BY DESIGN (race_access.h
/// shim notes, extended for fingerprints): it runs only inside a
/// start_read/validate window or under a held write lock, a matching bit
/// only *nominates* a slot for full key verification, and the final answer
/// is discarded unless the lease validates.
__attribute__((target("avx2"))) inline std::uint32_t fp_eq_mask_avx2(
    const std::uint8_t* p, std::uint8_t b) {
    const __m256i needle = _mm256_set1_epi8(static_cast<char>(b));
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    return static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, needle)));
}

#else

inline bool have_avx2() { return false; }

#endif // DTREE_SIMD_VECTOR

/// Fingerprint membership probe over a v2 leaf's byte array (DESIGN.md §15):
/// compares all n fingerprint bytes against `b` — one _mm256_cmpeq_epi8 per
/// 32 slots on the vector path — and hands each matching slot to `verify`
/// (which loads the slot's key through the caller's Access discipline and
/// compares it). Returns the first verified slot, or -1. The common Datalog
/// case — a fresh derivation whose fingerprint matches no slot — answers
/// with ZERO key loads (fp_skips counts those; fp_false_hits counts byte
/// matches the key comparison rejected).
///
/// The fingerprint array is padded to a whole vector (fp_padded_size), so
/// the final unaligned load never reads out of bounds; bytes at and beyond
/// n are masked out. Bytes within [0, n) left stale by a racing writer can
/// only cause a spurious verify (discarded by the caller's lease validation)
/// or a missed match (the caller restarts on validation failure) — the same
/// discard-on-conflict argument as every other racy read.
template <typename Access, typename Verify>
inline int fp_find(const std::uint8_t* fp, unsigned n, std::uint8_t b,
                   Verify&& verify) {
    DTREE_METRIC_INC(fp_probes);
    bool any = false;
#if DTREE_SIMD_VECTOR
    if (have_avx2()) {
        for (unsigned base = 0; base < n; base += 32) {
            std::uint32_t m = fp_eq_mask_avx2(fp + base, b);
            const unsigned rem = n - base;
            if (rem < 32) m &= 0xffffffffu >> (32 - rem);
            while (m != 0) {
                const unsigned slot =
                    base + static_cast<unsigned>(__builtin_ctz(m));
                any = true;
                if (verify(slot)) return static_cast<int>(slot);
                DTREE_METRIC_INC(fp_false_hits);
                m &= m - 1;
            }
        }
        if (!any) DTREE_METRIC_INC(fp_skips);
        return -1;
    }
#endif
    // Scalar fallback (TSan builds, non-AVX2 hosts, -DDATATREE_SIMD=OFF):
    // byte loads through the Access discipline, same candidate handling.
    for (unsigned i = 0; i < n; ++i) {
        if (Access::load(fp[i]) != b) continue;
        any = true;
        if (verify(i)) return static_cast<int>(i);
        DTREE_METRIC_INC(fp_false_hits);
    }
    if (!any) DTREE_METRIC_INC(fp_skips);
    return -1;
}

} // namespace simd

// ---------------------------------------------------------------------------
// Search dispatch
// ---------------------------------------------------------------------------

/// In-node lower_bound / upper_bound over a node's key array. All call sites
/// in core/btree.h funnel through these two.
template <typename Search, typename Access, typename NodeT, typename Key,
          typename Comp>
inline unsigned node_lower(const NodeT* node, unsigned n, const Key& k,
                           const Comp& comp) {
    return Search::template lower<Access>(node->keys, n, k, comp);
}

template <typename Search, typename Access, typename NodeT, typename Key,
          typename Comp>
inline unsigned node_upper(const NodeT* node, unsigned n, const Key& k,
                           const Comp& comp) {
    return Search::template upper<Access>(node->keys, n, k, comp);
}

/// Sentinel for "no predicted slot" (core/hints.h hands these in).
inline constexpr std::uint32_t kNoSlotHint = 0xffffffffu;

/// Hinted lower_bound: operation hints remember the slot the previous
/// operation landed on; two boundary comparisons verify the guess — correct
/// iff keys[guess-1] < k <= keys[guess] with virtual sentinels at the ends —
/// and only a failed guess pays for the full in-node search. Sequential and
/// repeated probes (sorted merges, re-derived Datalog tuples) hit the guess
/// almost always.
template <typename Search, typename Access, typename NodeT, typename Key,
          typename Comp>
inline unsigned node_lower_hinted(const NodeT* node, unsigned n, const Key& k,
                                  const Comp& comp, std::uint32_t guess) {
    if (guess <= n) {
        const bool left_ok =
            guess == 0 || Access::compare(comp, node->keys[guess - 1], k) < 0;
        if (left_ok &&
            (guess == n || Access::compare(comp, node->keys[guess], k) >= 0)) {
            return guess;
        }
    }
    return node_lower<Search, Access>(node, n, k, comp);
}

/// Hinted upper_bound: correct iff keys[guess-1] <= k < keys[guess].
template <typename Search, typename Access, typename NodeT, typename Key,
          typename Comp>
inline unsigned node_upper_hinted(const NodeT* node, unsigned n, const Key& k,
                                  const Comp& comp, std::uint32_t guess) {
    if (guess <= n) {
        const bool left_ok =
            guess == 0 || Access::compare(comp, node->keys[guess - 1], k) <= 0;
        if (left_ok &&
            (guess == n || Access::compare(comp, node->keys[guess], k) > 0)) {
            return guess;
        }
    }
    return node_upper<Search, Access>(node, n, k, comp);
}

/// Default in-node search policy, keyed on the node's actual key payload:
/// the branch-predictable early-exit linear scan up to ~768 B of keys per
/// node, binary search beyond.
template <typename Key, typename Compare = ThreeWayComparator<Key>,
          unsigned BlockSize = default_block_size<Key>()>
using DefaultSearch =
    std::conditional_t<(std::size_t{BlockSize} * sizeof(Key) <= 768),
                       LinearSearch, BinarySearch>;

// ---------------------------------------------------------------------------
// Iterator
// ---------------------------------------------------------------------------

/// Rank→slot table for iterating a v2 leaf whose append zone is non-empty:
/// idx[rank] is the physical slot of the rank-th key in merged order (sorted
/// prefix and tail interleaved; ties keep prefix-before-tail, tail in slot
/// order — exactly the order point inserts into a sorted leaf would have
/// produced). Built lazily on first dereference so iterators created merely
/// for comparison (contains() == end()) never read the leaf's keys, and
/// cached per leaf (built_for). Empty when the policy is off.
template <unsigned BlockSize, bool Present>
struct IterOrder {
    const void* built_for = nullptr;
    bool active = false;
    std::uint16_t idx[BlockSize];
};
template <unsigned BlockSize>
struct IterOrder<BlockSize, false> {};

/// Placeholder comparator type for non-fingerprint iterators (the merged
/// view is the only thing an iterator ever compares keys for).
struct IterNoComp {};

/// Forward in-order iterator over a (phase-concurrently read) B-tree.
/// Holds (node, index); incrementing performs the classic in-order walk:
/// after consuming an inner key, descend to the leftmost leaf of the right
/// child; after the last key of a leaf, climb until a pending separator key
/// is found. Iteration is only defined while no writer is active (§2's
/// two-phase guarantee).
///
/// Leaf layout v2 (WithFingerprints): the index is a RANK in the leaf's
/// merged (sorted-prefix + append-zone) view; dereferencing maps it to the
/// physical slot through a lazily built order table. Positions and counts
/// are unchanged, so the walk itself is identical.
template <typename Key, unsigned BlockSize, typename Access,
          bool WithSnapshots = false, bool WithFingerprints = false,
          typename Compare = void>
class Iterator {
public:
    using NodeT = Node<Key, BlockSize, Access, WithSnapshots, WithFingerprints>;
    using value_type = Key;
    using reference = const Key&;
    using pointer = const Key*;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;
    using CompT = std::conditional_t<WithFingerprints, Compare, IterNoComp>;

    Iterator() = default;
    Iterator(const NodeT* node, unsigned pos, CompT comp = CompT{})
        : node_(node), pos_(pos), comp_(comp) {}

    reference operator*() const { return node_->keys[slot(pos_)]; }
    pointer operator->() const { return &node_->keys[slot(pos_)]; }

    Iterator& operator++() {
        if (node_->inner) {
            // Consumed separator keys[pos_]; next is the smallest key of the
            // right child's subtree.
            const NodeT* n = node_->as_inner()->children[pos_ + 1].load();
            while (n->inner) n = n->as_inner()->children[0].load();
            node_ = n;
            pos_ = 0;
        } else {
            ++pos_;
            climb_exhausted();
        }
        return *this;
    }

    Iterator operator++(int) {
        Iterator tmp = *this;
        ++*this;
        return tmp;
    }

    friend bool operator==(const Iterator& a, const Iterator& b) {
        return a.node_ == b.node_ && a.pos_ == b.pos_;
    }

    const NodeT* node() const { return node_; }
    unsigned pos() const { return pos_; }

private:
    /// While positioned one past the last key of a node, climb to the parent
    /// separator; reaching one past the root means end().
    void climb_exhausted() {
        while (node_ && pos_ == node_->num_elements.load()) {
            const NodeT* parent = node_->parent.load();
            pos_ = node_->position.load();
            node_ = parent;
        }
        if (!node_) {
            pos_ = 0; // normalise to end()
            return;
        }
        if (node_->inner) {
            // The walk resumes in children[pos_ + 1] right after this
            // separator is consumed: start pulling that subtree root in now,
            // overlapping its miss with the separator's consumption.
            prefetch_node(node_->as_inner()->children[pos_ + 1].load());
        }
    }

    /// Map a rank to a physical slot. Identity for inner nodes (always
    /// sorted), for v1 leaves, and for v2 leaves with an empty append zone.
    unsigned slot(unsigned rank) const {
        if constexpr (WithFingerprints) {
            if (!node_->inner) {
                if (order_.built_for != node_) build_order();
                if (order_.active) return order_.idx[rank];
            }
        }
        return rank;
    }

    /// Build the merged rank→slot table for the current leaf. Called only
    /// from dereference, i.e. during a read phase with no concurrent writer
    /// (the iterator contract) — plain reads of keys/sorted are fine here.
    void build_order() const requires WithFingerprints {
        const unsigned n = node_->num_elements.load();
        const unsigned s = node_->fp_sorted();
        order_.built_for = node_;
        order_.active = (s < n);
        if (!order_.active) return;
        for (unsigned i = 0; i < n; ++i)
            order_.idx[i] = static_cast<std::uint16_t>(i);
        // Stable insertion sort of the tail into the prefix: strict `> 0`
        // keeps prefix-before-tail at ties and tail entries in slot order —
        // the order point inserts into a sorted leaf would have produced.
        for (unsigned i = s; i < n; ++i) {
            const std::uint16_t v = order_.idx[i];
            unsigned j = i;
            while (j > 0 && comp_(node_->keys[order_.idx[j - 1]],
                                   node_->keys[v]) > 0) {
                order_.idx[j] = order_.idx[j - 1];
                --j;
            }
            order_.idx[j] = v;
        }
    }

    const NodeT* node_ = nullptr;
    unsigned pos_ = 0;
    mutable IterOrder<BlockSize, WithFingerprints> order_{};
    [[no_unique_address]] CompT comp_{};
};

} // namespace dtree::detail
