#pragma once

// The specialized concurrent B-tree for Datalog evaluation (paper §3).
//
// One template implements the three configurations the paper evaluates
// plus the two policy variants this repo's binaries run:
//
//   btree_set<K>           concurrent, with operation hints   ("btree")
//   btree_set<K>           same tree, hints simply not passed ("btree (n/h)")
//   seq_btree_set<K>       sequential: no locks, no atomics   ("seq btree")
//   snapshot_btree_set<K>  concurrent + epoch snapshots (DESIGN.md §11)
//   fp_btree_set<K>        concurrent + leaf layout v2 (DESIGN.md §15)
//
// Every configuration is a set: insert() reports whether the set changed,
// which is the verdict semi-naïve evaluation runs on.
//
// Concurrency contract (the paper's phase-concurrent model, §2/§3.1):
//   * insert() may be called from any number of threads concurrently with
//     other insert() calls — full internal synchronisation via per-node
//     optimistic read-write locks (Alg. 1) and bottom-up write-locked node
//     splitting (Alg. 2);
//   * find / contains / lower_bound / upper_bound / iteration / size are
//     UNSYNCHRONISED and must not overlap with writers. Semi-naïve Datalog
//     evaluation guarantees exactly this two-phase discipline;
//   * there is no erase — Datalog relations only grow — which is what makes
//     hint pointers permanently safe: nodes are never freed or moved while
//     the tree lives.
//
// Operation hints (§3.2): each of the four frequent operations keeps the
// leaf it last touched in an operation_hints object the caller owns (one per
// thread). When the next key falls inside the cached leaf's key range, the
// root-to-leaf traversal — and all its lock traffic — is skipped.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/btree_detail.h"
#include "core/comparator.h"
#include "core/hints.h"
#include "core/optimistic_lock.h"
#include "core/race_access.h"
#include "core/retain_arena.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/spinlock.h"

namespace dtree {

namespace detail {

/// Tree-level snapshot/epoch state (DESIGN.md §11), attached to the btree
/// through [[no_unique_address]] and specialised to an empty struct for
/// non-snapshot trees so the paper-faithful configuration stays bit-identical
/// in layout and behaviour (the same pattern as the per-node SnapState).
template <typename NodeT, bool Present>
struct SnapTreeState {
    /// One entry per *root replacement*: `root` is the PREVIOUS root pointer
    /// (nullptr when the tree was empty) and `epoch` the root_mod_epoch it
    /// carried — the entry resolves every snapshot boundary B with
    /// epoch < B <= (next-newer entry's epoch / the live root_mod_epoch).
    /// Entries chain newest-first and live in `arena`, tagged and reclaimed
    /// exactly like node images.
    struct RootVersion {
        NodeT* root;
        std::uint64_t epoch;
        RootVersion* next;
    };

    /// Global epoch; starts at 1. A snapshot pinned at boundary B observes
    /// exactly the mutations of epochs < B. seq_cst on the advance/pin/CoW
    /// loads: the single-location coherence order is what makes a writer's
    /// in-CoW epoch read never run behind a boundary some reader has already
    /// pinned (DESIGN.md §11.3).
    std::atomic<std::uint64_t> epoch{1};
    /// Epoch during which the live root pointer was last replaced; protected
    /// by root_lock_ for writers, lease-validated by snapshot readers.
    relaxed_value<std::uint64_t, true> root_mod_epoch{};
    /// Newest-first chain of former roots (see RootVersion).
    relaxed_value<RootVersion*, true> root_versions{};
    /// Former roots detached by move-assignment (steal): unlike the old root
    /// of a *growth* split — which stays reachable as a child of the new
    /// root — these subtrees must be freed separately at clear()/destruction.
    std::vector<NodeT*> detached;
    /// Epoch-tagged image storage (also holds RootVersion entries); chunks
    /// behind the oldest live pin are freed at every advance.
    RetainArena arena;
    /// Live Snapshot pins: (boundary, handle count), ascending by boundary.
    /// Guarded by pin_lock, which also orders pin registration against the
    /// epoch read of oldest_pin() (DESIGN.md §11).
    util::Spinlock pin_lock;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> live_pins;
    // Always-on per-tree stats (metrics.h counters are compile-gated; the
    // soufflette --stats/--profile JSON needs these unconditionally).
    std::atomic<std::uint64_t> advances{0};
    std::atomic<std::uint64_t> pins{0};
    std::atomic<std::uint64_t> cow_images{0};
};
template <typename NodeT>
struct SnapTreeState<NodeT, false> {};

} // namespace detail

/// Shape of one tree (btree::stats()): the same type for every key type
/// and node size, so relations of different arities aggregate into one.
struct btree_tree_stats {
    std::size_t elements = 0;
    std::size_t inner_nodes = 0;
    std::size_t leaf_nodes = 0;
    std::size_t depth = 0;       // 1 = root-only
    std::size_t memory_bytes = 0;
    unsigned block_size = 0;     ///< keys per node (the tree's BlockSize)

    /// Mean keys per node: BlockSize-2 on a tree grown by appends, more
    /// than 0.8 BlockSize in leaves grown by random inserts, whose overflows
    /// rotate keys into siblings before they split (DESIGN.md §16).
    double keys_per_node() const {
        const std::size_t nodes = inner_nodes + leaf_nodes;
        return nodes ? static_cast<double>(elements) / nodes : 0.0;
    }
};

/// Epoch/retention stats of one snapshot tree (btree::snap_stats()).
struct btree_snapshot_stats {
    std::uint64_t epoch = 0;
    std::uint64_t advances = 0;
    std::uint64_t pins = 0;
    std::uint64_t cow_images = 0;
    std::size_t retained_bytes = 0; ///< live: images not yet reclaimed
    std::size_t cow_bytes = 0;      ///< cumulative: every image made
};

template <typename Key,
          typename Compare = ThreeWayComparator<Key>,
          unsigned BlockSize = detail::default_block_size<Key>(),
          typename Search = detail::DefaultSearch<Key, Compare, BlockSize>,
          typename Access = ConcurrentAccess,
          bool WithSnapshots = false,
          bool WithFingerprints = false>
class btree {
    static_assert(BlockSize >= 3, "nodes must hold at least three keys");
    static_assert(!WithFingerprints ||
                      requires(const Key& k) { dtree::key_fingerprint(k); },
                  "leaf layout v2 needs a key_fingerprint overload for this "
                  "key type (core/tuple.h provides arithmetic keys and "
                  "Tuple<Arity>)");
    // Snapshots serve readers that race concurrent writers, and their
    // images hold sorted v1 leaves: the two compositions no binary runs
    // are not built (DESIGN.md §11 policy matrix).
    static_assert(!WithSnapshots || Access::concurrent,
                  "snapshots need the concurrent access policy");
    static_assert(!(WithSnapshots && WithFingerprints),
                  "leaf layout v2 does not compose with snapshots");
    using NodeT =
        detail::Node<Key, BlockSize, Access, WithSnapshots, WithFingerprints>;
    using InnerT = detail::InnerNode<Key, BlockSize, Access, WithSnapshots,
                                     WithFingerprints>;
    using Lease = OptimisticReadWriteLock::Lease;
    static constexpr bool concurrent = Access::concurrent;
    using ImageT = typename NodeT::SnapImageT;
    using InnerImageT = typename NodeT::SnapInnerImageT;
    using SnapStateT = detail::SnapTreeState<NodeT, WithSnapshots>;

public:
    using key_type = Key;
    using value_type = Key;
    using const_iterator =
        detail::Iterator<Key, BlockSize, Access, WithSnapshots,
                         WithFingerprints, Compare>;
    using iterator = const_iterator; // keys are immutable once stored
    static constexpr unsigned block_size = BlockSize;
    static constexpr bool with_snapshots = WithSnapshots;
    static constexpr bool with_fingerprints = WithFingerprints;

    /// The same access and leaf policies over keys K, at K's default
    /// comparator, block size and in-node search (what the public aliases
    /// give for K). Relations re-key their storage through this (DESIGN.md
    /// §17).
    template <typename K>
    using rebind = btree<K, ThreeWayComparator<K>, detail::default_block_size<K>(),
                         detail::DefaultSearch<K, ThreeWayComparator<K>>, Access,
                         WithSnapshots, WithFingerprints>;

    // -- operation hints ----------------------------------------------------

    /// Cached last-touched leaves, one slot per operation kind, plus hit/miss
    /// statistics. One instance per thread; never shared. A hints object is
    /// bound to the tree whose operations populated it: it must not be passed
    /// to a different tree (a cached leaf of tree A that happens to cover a
    /// key would misroute an insert into tree B), and it must not outlive
    /// clear()/destruction of its tree. reset() detaches it safely.
    ///
    /// Besides the cached leaf, each kind carries a predicted in-leaf slot
    /// (SlotHints, core/hints.h): the position the previous operation landed
    /// on, handed to the search kernel so that sequential/repeated probes
    /// settle with two boundary comparisons instead of a full in-node search.
    /// Slots are advisory — always validated against the live node before
    /// use — so they need no invalidation discipline beyond reset().
    class operation_hints {
    public:
        HintStats stats;
        SlotHints slots;

        NodeT* get(HintKind k) const { return slots_[static_cast<unsigned>(k)]; }
        void set(HintKind k, NodeT* leaf) { slots_[static_cast<unsigned>(k)] = leaf; }
        void reset() {
            slots_[0] = slots_[1] = slots_[2] = slots_[3] = nullptr;
            slots.reset();
        }

    private:
        NodeT* slots_[4] = {nullptr, nullptr, nullptr, nullptr};
    };

    /// Factory for fresh hints (§3.2: "a factory function for initial
    /// operation hints"); equivalent to default construction.
    operation_hints create_hints() const { return operation_hints{}; }

    // -- construction / destruction -----------------------------------------

    btree() = default;

    btree(const btree&) = delete;
    btree& operator=(const btree&) = delete;

    btree(btree&& other) noexcept { steal(other); }

    btree& operator=(btree&& other) noexcept {
        if (this != &other) {
            // Snapshot-enabled trees must NOT clear here: snapshots pinned
            // before this move-assignment (the delta->full rotation pattern)
            // stay valid — steal() retires the outgoing tree into the
            // version chain instead of freeing it.
            if constexpr (!WithSnapshots) clear();
            steal(other);
        }
        return *this;
    }

    ~btree() {
        release_snapshot_state();
        detail::free_subtree(root_.load());
    }

    /// Removes all elements and frees all nodes. NOT thread-safe; every hint
    /// pointing into this tree becomes invalid and must be reset. For
    /// snapshot-enabled trees this also frees every retained image and
    /// detached subtree: outstanding Snapshot handles become invalid (the
    /// same lifetime contract hints already have).
    void clear() {
        release_snapshot_state();
        detail::free_subtree(root_.load());
        root_.store(nullptr);
    }

    // -- insertion ----------------------------------------------------------

    /// Inserts k; returns true iff the set changed.
    /// Thread-safe against concurrent insert() calls in the concurrent
    /// instantiation.
    bool insert(const Key& k) {
        operation_hints h;
        return insert(k, h);
    }

    /// Hinted insert: consults/updates the caller's cached leaf first.
    bool insert(const Key& k, operation_hints& hints) {
        if constexpr (concurrent) {
            return insert_concurrent(k, hints);
        } else {
            return insert_sequential(k, hints);
        }
    }

    /// Bulk insert of an ordered (or arbitrary) sequence, reusing one hint
    /// across the whole run — the specialised-merge tuning of §3: when the
    /// source is sorted, nearly every insert is a hint hit.
    template <typename It>
    void insert_all(It first, It last, operation_hints& hints) {
        for (; first != last; ++first) insert(*first, hints);
    }

    template <typename It>
    void insert_all(It first, It last) {
        operation_hints h;
        insert_all(first, last, h);
    }

    /// Merges another tree of the same type into this one as one sorted run:
    /// the source's iteration order is sorted, so the whole merge collapses
    /// to a handful of descents and lock upgrades per leaf segment instead
    /// of one per key (the specialised merge of §3).
    template <typename OtherTree>
    void insert_all(const OtherTree& other) {
        operation_hints h;
        insert_sorted_run(other.begin(), other.end(), h);
    }

    /// Bulk insert of a SORTED run (equal keys are deduplicated). Locates the
    /// target leaf once per run segment, merges keys into it in bulk up to
    /// its upper separator under ONE lock upgrade (concurrent policy) or as
    /// a plain in-place merge (seq policy), and splits in bulk. Returns the
    /// number of genuinely new keys. Thread-safe against concurrent inserts
    /// and other runs in the concurrent instantiation.
    ///
    /// Unsorted input stays CORRECT — an out-of-order key simply terminates
    /// the current segment and re-descends, degrading to per-key cost — it
    /// just forfeits the amortisation.
    template <typename It>
    std::size_t insert_sorted_run(It first, It last, operation_hints& hints) {
        if (first == last) return 0;
        DTREE_METRIC_INC(btree_bulk_runs);
        std::size_t inserted = 0;
        while (first != last) {
            if constexpr (concurrent) {
                if (root_.load_acquire() == nullptr) {
                    first = bulk_init_root(first, last, hints, inserted);
                    continue;
                }
                // The hint outcome is tallied once per SEGMENT, not per key —
                // that per-segment accounting is exactly the probe saving the
                // bulk path buys (segments ~ 2n/BlockSize vs n probes).
                if (auto next = try_bulk_hint(first, last, hints, inserted)) {
                    first = *next;
                    continue;
                }
                for (;;) { // miss tallied above; restart without re-tallying
                    if (auto next =
                            try_bulk_segment(first, last, hints, inserted)) {
                        first = *next;
                        break;
                    }
                    DTREE_METRIC_INC(btree_restarts);
                }
            } else {
                first = bulk_segment_seq(first, last, hints, inserted);
            }
        }
        return inserted;
    }

    template <typename It>
    std::size_t insert_sorted_run(It first, It last) {
        operation_hints h;
        return insert_sorted_run(first, last, h);
    }

    /// Bulk load: builds a packed tree from a strictly increasing
    /// random-access range in O(n). The adjacent-pair sortedness check runs
    /// UNCONDITIONALLY (it is O(n) against an O(n) build); unsorted or
    /// duplicate-laden input throws std::invalid_argument
    /// instead of silently constructing a structurally broken tree in
    /// release builds. Every node is filled to BlockSize-1 keys (one slot of
    /// slack so follow-up inserts do not split immediately), all leaves at
    /// equal depth. Not thread-safe (construction).
    template <typename It>
    static btree from_sorted(It first, It last) {
        return from_sorted_stream(
            first, last, static_cast<std::size_t>(std::distance(first, last)));
    }

    /// The same packed build from a forward (multipass) range of known
    /// length `n` — e.g. another tree's sorted iteration — without
    /// materialising a random-access copy: build_packed consumes its input
    /// strictly in order. Validates sortedness and that `n` matches the
    /// range BEFORE allocating any node (throws std::invalid_argument), so
    /// a failed load never leaks.
    template <typename It>
    static btree from_sorted_stream(It first, It last, std::size_t n) {
        btree out;
        {
            std::size_t count = 0;
            bool have_prev = false;
            Key prev{};
            for (It it = first; it != last; ++it) {
                if (++count > n) {
                    throw std::invalid_argument(
                        "from_sorted: range longer than declared length");
                }
                const Key k = *it;
                if (have_prev) {
                    const int c = out.comp_(prev, k);
                    if (c >= 0) {
                        throw std::invalid_argument("from_sorted: input not sorted");
                    }
                }
                prev = k;
                have_prev = true;
            }
            if (count != n) {
                throw std::invalid_argument(
                    "from_sorted: range shorter than declared length");
            }
        }
        if (n == 0) return out;
        unsigned depth = 0;
        while (packed_capacity(depth) < n) ++depth;
        It it = first;
        // `out` is unpublished (no concurrent readers or epoch ticks yet),
        // so one epoch load covers the whole build.
        const std::uint64_t se = out.snap_epoch_now();
        out.snap_retain_root(nullptr, se);
        out.root_.store(out.build_packed(it, n, depth, se, /*spine=*/true));
        return out;
    }

private:
    /// Maximum keys a packed subtree of the given depth holds (nodes filled
    /// to BlockSize-1 keys).
    static constexpr std::size_t packed_capacity(unsigned depth) {
        std::size_t cap = BlockSize - 1;
        for (unsigned d = 0; d < depth; ++d) {
            cap = (BlockSize - 1) + BlockSize * cap;
        }
        return cap;
    }

    /// Builds a packed subtree consuming `s` keys from the (by-reference)
    /// sorted stream; all leaves end up at distance `depth` below the
    /// returned node. Consumption is exactly in-order — leaf keys, then the
    /// separator, then the next child — which is what lets the packed
    /// loader run off a forward iterator. `spine` marks the subtree's root
    /// as the last node on its level; its last child inherits the mark.
    template <typename It>
    NodeT* build_packed(It& it, std::size_t s, unsigned depth,
                        std::uint64_t snap_e, bool spine) {
        if (depth == 0) {
            assert(s >= 1 && s <= BlockSize);
            NodeT* leaf = make_leaf(spine);
            for (std::size_t i = 0; i < s; ++i, ++it) {
                leaf->template key_store<SeqAccess>(static_cast<unsigned>(i), *it);
            }
            leaf->num_elements.store(static_cast<std::uint32_t>(s));
            fp_reset_leaf(leaf); // packed leaves are born fully consolidated
            snap_mark_fresh(leaf, snap_e);
            return leaf;
        }
        const std::size_t child_cap = packed_capacity(depth - 1);
        // Fewest children that fit: c children absorb c*child_cap + (c-1)
        // keys (the c-1 separators live in this node).
        const std::size_t c =
            std::max<std::size_t>(2, (s + 1 + child_cap) / (child_cap + 1));
        assert(c <= BlockSize + 1);
        InnerT* node = make_inner(spine);
        const std::size_t r = s - (c - 1); // keys going into the children
        for (std::size_t i = 0; i < c; ++i) {
            const std::size_t share = r / c + (i < r % c ? 1 : 0);
            NodeT* child = build_packed(it, share, depth - 1, snap_e,
                                        spine && i + 1 == c);
            node->children[i].store(child);
            child->parent.store(node);
            child->position.store(static_cast<std::uint32_t>(i));
            if (i + 1 < c) {
                node->template key_store<SeqAccess>(static_cast<unsigned>(i),
                                                    *it); // separator
                ++it;
            }
        }
        node->num_elements.store(static_cast<std::uint32_t>(c - 1));
        snap_mark_fresh(node, snap_e);
        return node;
    }

public:

    // -- queries (phase-concurrent: no active writers allowed) --------------
    //
    // Every query reads keys through SeqAccess — plain loads, no lease —
    // on every instantiation: the read phase has no writer to race (file
    // header contract; core/race_access.h).

    bool contains(const Key& k) const {
        operation_hints h;
        return contains(k, h);
    }

    /// First-class membership test: the same leaf-local probe as find() (the
    /// sorted search on v1 leaves, the fingerprint array on v2 leaves)
    /// without building an iterator. Phase-concurrent like every query:
    /// readers that must race writers use Snapshot::contains or, inside
    /// insert, the validated Alg. 1 containment check. Equivalent to
    /// find(k, hints) != end(); a regression test pins the equivalence.
    bool contains(const Key& k, operation_hints& hints) const {
        return probe(k, hints).node != nullptr;
    }

    const_iterator find(const Key& k) const {
        operation_hints h;
        return find(k, h);
    }

    const_iterator find(const Key& k, operation_hints& hints) const {
        const ProbeHit hit = probe(k, hints);
        if (!hit.node) return end();
        if constexpr (WithFingerprints) {
            // v2 leaf: the iterator position is the key's merged-view rank.
            if (!hit.node->inner) {
                return make_iter(hit.node,
                                 leaf_rank_lower(hit.node,
                                                 hit.node->num_elements.load(),
                                                 k));
            }
        }
        return make_iter(hit.node, hit.slot);
    }

    /// First element >= k, or end().
    const_iterator lower_bound(const Key& k) const {
        operation_hints h;
        return lower_bound(k, h);
    }

    const_iterator lower_bound(const Key& k, operation_hints& hints) const {
        const NodeT* cur = root_.load();
        if (!cur) {
            hints.stats.miss(HintKind::Lower);
            return end();
        }
        if (NodeT* leaf = hints.get(HintKind::Lower)) {
            const unsigned n = leaf->num_elements.load();
            // k inside the leaf's range => the answer is in the leaf.
            if (n > 0 && leaf_edge_le(leaf, k) &&
                leaf_edge_ge(leaf, n, k, /*strict_right=*/false)) {
                hints.stats.hit(HintKind::Lower);
                unsigned pos;
                if constexpr (WithFingerprints) {
                    pos = leaf_rank_lower(leaf, n, k);
                } else {
                    pos = detail::node_lower_hinted<Search, SeqAccess>(
                        leaf, n, k, comp_, hints.slots.get(HintKind::Lower));
                    hints.slots.set(HintKind::Lower, pos);
                }
                return make_iter(leaf, pos);
            }
        }
        hints.stats.miss(HintKind::Lower);
        const_iterator best = end();
        for (;;) {
            const unsigned n = cur->num_elements.load();
            unsigned pos;
            if constexpr (WithFingerprints) {
                pos = cur->inner
                          ? detail::node_lower<Search, SeqAccess>(cur, n, k, comp_)
                          : leaf_rank_lower(cur, n, k);
            } else {
                pos = detail::node_lower<Search, SeqAccess>(cur, n, k, comp_);
            }
            if (!cur->inner) {
                if (pos < n) {
                    hints.set(HintKind::Lower, const_cast<NodeT*>(cur));
                    if constexpr (!WithFingerprints) {
                        hints.slots.set(HintKind::Lower, pos);
                    }
                    return make_iter(cur, pos);
                }
                return best;
            }
            // An equal separator IS the lower bound.
            if (pos < n && comp_.equal(cur->keys[pos], k)) {
                return make_iter(cur, pos);
            }
            if (pos < n) best = make_iter(cur, pos);
            const NodeT* next = cur->as_inner()->children[pos].load();
            detail::prefetch_node(next);
            cur = next;
        }
    }

    /// First element > k, or end().
    const_iterator upper_bound(const Key& k) const {
        operation_hints h;
        return upper_bound(k, h);
    }

    const_iterator upper_bound(const Key& k, operation_hints& hints) const {
        const NodeT* cur = root_.load();
        if (!cur) {
            hints.stats.miss(HintKind::Upper);
            return end();
        }
        if (NodeT* leaf = hints.get(HintKind::Upper)) {
            const unsigned n = leaf->num_elements.load();
            // need k < last key so the strictly-greater element is local
            if (n > 0 && leaf_edge_le(leaf, k) &&
                leaf_edge_ge(leaf, n, k, /*strict_right=*/true)) {
                hints.stats.hit(HintKind::Upper);
                unsigned pos;
                if constexpr (WithFingerprints) {
                    pos = leaf_rank_upper(leaf, n, k);
                } else {
                    pos = detail::node_upper_hinted<Search, SeqAccess>(
                        leaf, n, k, comp_, hints.slots.get(HintKind::Upper));
                    hints.slots.set(HintKind::Upper, pos);
                }
                return make_iter(leaf, pos);
            }
        }
        hints.stats.miss(HintKind::Upper);
        const_iterator best = end();
        for (;;) {
            const unsigned n = cur->num_elements.load();
            unsigned pos;
            if constexpr (WithFingerprints) {
                pos = cur->inner
                          ? detail::node_upper<Search, SeqAccess>(cur, n, k, comp_)
                          : leaf_rank_upper(cur, n, k);
            } else {
                pos = detail::node_upper<Search, SeqAccess>(cur, n, k, comp_);
            }
            if (!cur->inner) {
                if (pos < n) {
                    hints.set(HintKind::Upper, const_cast<NodeT*>(cur));
                    if constexpr (!WithFingerprints) {
                        hints.slots.set(HintKind::Upper, pos);
                    }
                    return make_iter(cur, pos);
                }
                return best;
            }
            if (pos < n) best = make_iter(cur, pos);
            const NodeT* next = cur->as_inner()->children[pos].load();
            detail::prefetch_node(next);
            cur = next;
        }
    }

    const_iterator begin() const {
        const NodeT* cur = root_.load();
        if (!cur) return end();
        while (cur->inner) cur = cur->as_inner()->children[0].load();
        return make_iter(cur, 0);
    }

    const_iterator end() const { return const_iterator(); }

    bool empty() const { return root_.load() == nullptr; }

    /// Number of stored elements. O(#nodes): counts are summed by a tree
    /// walk; the concurrent tree deliberately maintains no global counter
    /// (it would serialise parallel inserts on one cache line).
    std::size_t size() const { return count_subtree(root_.load()); }

    // -- introspection (tests, benches, EXPERIMENTS.md) ----------------------

    using tree_stats = btree_tree_stats;

    tree_stats stats() const {
        tree_stats s;
        s.block_size = BlockSize;
        collect_stats(root_.load(), 1, s);
        return s;
    }

    /// Sorted sample of at most `target - 1` keys that partition the key
    /// space into ~`target` ranges of similar subtree weight, taken from the
    /// shallowest tree level holding enough separators (so each range spans
    /// whole subtrees). Used to fan a bulk merge out over workers: worker p
    /// gets [sep[p-1], sep[p]). Phase-concurrent read side (no writers);
    /// partition bounds only need to be sorted, not tight. Returns an empty
    /// vector (one range) when the tree is too small to partition.
    std::vector<Key> sample_separators(std::size_t target) const {
        std::vector<Key> out;
        if (target < 2) return out;
        const NodeT* root = root_.load();
        if (!root || !root->inner) return out;
        std::vector<const NodeT*> level{root};
        for (;;) {
            std::size_t keys = 0;
            for (const NodeT* n : level) keys += n->num_elements.load();
            const bool children_inner =
                level.front()->as_inner()->children[0].load()->inner;
            if (keys + 1 >= target || !children_inner) {
                // Concatenated keys of one level, left to right, are sorted.
                out.reserve(keys);
                for (const NodeT* n : level) {
                    const unsigned cnt = n->num_elements.load();
                    for (unsigned i = 0; i < cnt; ++i) {
                        out.push_back(Access::load(n->keys[i]));
                    }
                }
                break;
            }
            std::vector<const NodeT*> next;
            for (const NodeT* n : level) {
                const InnerT* in = n->as_inner();
                const unsigned cnt = in->num_elements.load();
                for (unsigned i = 0; i <= cnt; ++i) {
                    next.push_back(in->children[i].load());
                }
            }
            level.swap(next);
        }
        if (out.size() + 1 > target) {
            // Downsample evenly; indices stay strictly increasing because
            // out.size() >= target here.
            std::vector<Key> sampled;
            sampled.reserve(target - 1);
            const std::size_t m = out.size();
            for (std::size_t j = 0; j + 1 < target; ++j) {
                sampled.push_back(out[(j + 1) * m / target]);
            }
            out.swap(sampled);
        }
        return out;
    }

    /// Structural validation used by the test suite (sequential use only):
    /// checks ordering, separator bounds, fill grades, parent/position
    /// back-links and uniform leaf depth. Returns an empty string when the
    /// tree is well-formed, else a description of the first violation.
    std::string check_invariants() const {
        const NodeT* r = root_.load();
        if (!r) return {};
        if (r->parent.load() != nullptr) return "root has a parent";
        long leaf_depth = -1;
        return check_node(r, nullptr, nullptr, 1, leaf_depth, /*spine=*/true);
    }

    // -- snapshots (WithSnapshots instantiations only; DESIGN.md §11) --------
    //
    // A Snapshot pins the tree at an epoch boundary B and observes exactly
    // the mutations of epochs < B, CONCURRENTLY with writers: every node is
    // resolved either to its live content (when its mod_epoch < B, read
    // under a validated lease) or to the newest retained copy-on-write image
    // older than B (immutable once published). Both resolutions are pure
    // functions of B, so repeated reads of one snapshot are byte-identical —
    // the linearization point of all of a snapshot's reads is the epoch
    // advance that created its boundary.

    /// Read-only consistent view pinned at an epoch boundary. A handle
    /// registers its boundary with the tree for as long as it lives: copies
    /// register again, moves transfer, destruction unregisters. The images
    /// it reads are freed only once no registered boundary needs them.
    /// Reads are valid until the tree is cleared or move-assigned away
    /// from; the handle itself must be destroyed before its tree. All
    /// methods are safe concurrently with insert()/insert_sorted_run() and
    /// advance_epoch() on the tree.
    class Snapshot {
    public:
        Snapshot() = default;
        Snapshot(const Snapshot& o) : tree_(o.tree_), boundary_(o.boundary_) {
            if (tree_) tree_->snap_pin(boundary_);
        }
        Snapshot(Snapshot&& o) noexcept
            : tree_(std::exchange(o.tree_, nullptr)), boundary_(o.boundary_) {}
        Snapshot& operator=(Snapshot o) noexcept {
            std::swap(tree_, o.tree_);
            std::swap(boundary_, o.boundary_);
            return *this;
        }
        ~Snapshot() {
            if (tree_) tree_->snap_unpin(boundary_);
        }

        bool valid() const { return tree_ != nullptr; }
        /// The pinned boundary: mutations of epochs < epoch() are visible.
        std::uint64_t epoch() const { return boundary_; }

        bool contains(const Key& k) const { return find(k).has_value(); }

        /// The stored key equal to k (a copy), or nullopt.
        std::optional<Key> find(const Key& k) const {
            return tree_->snap_find(k, boundary_);
        }

        /// Smallest stored key >= k (a copy), or nullopt.
        std::optional<Key> lower_bound(const Key& k) const {
            return tree_->snap_lower_bound(k, boundary_);
        }

        /// In-order visit of every key in the snapshot.
        template <typename Fn>
        void for_each(Fn&& fn) const {
            tree_->snap_walk(tree_->snap_root(boundary_), boundary_, nullptr,
                             nullptr, fn);
        }

        /// In-order visit of every key in [lo, hi) (half-open).
        template <typename Fn>
        void for_each_in_range(const Key& lo, const Key& hi, Fn&& fn) const {
            tree_->snap_walk(tree_->snap_root(boundary_), boundary_, &lo, &hi,
                             fn);
        }

        /// Number of keys in the snapshot (walks the snapshot: O(n)).
        std::size_t size() const {
            std::size_t n = 0;
            for_each([&](const Key&) { ++n; });
            return n;
        }

    private:
        friend class btree;
        /// Adopts a registration snap_pin() already made.
        Snapshot(const btree* t, std::uint64_t b) : tree_(t), boundary_(b) {}

        const btree* tree_ = nullptr;
        std::uint64_t boundary_ = 0;
    };

    /// Current epoch (>= 1).
    std::uint64_t epoch() const {
        static_assert(WithSnapshots, "epoch(): configure WithSnapshots");
        return snap_.epoch.load(std::memory_order_seq_cst);
    }

    /// Advances the global epoch, making every mutation performed so far
    /// visible to snapshots pinned afterwards, then frees the retained
    /// images no live or future snapshot can reach. Thread-safe (any thread
    /// may advance concurrently with writers and readers); returns the NEW
    /// epoch.
    std::uint64_t advance_epoch() {
        static_assert(WithSnapshots, "advance_epoch(): configure WithSnapshots");
        const std::uint64_t e =
            snap_.epoch.fetch_add(1, std::memory_order_seq_cst) + 1;
        snap_.arena.reclaim(oldest_pin());
        snap_.advances.fetch_add(1, std::memory_order_relaxed);
        DTREE_METRIC_INC(epoch_advances);
        return e;
    }

    /// Pins a snapshot at the current epoch boundary: it observes exactly
    /// the mutations of epochs < epoch() — i.e. the tree's state as of the
    /// last advance_epoch(). Thread-safe against concurrent writers.
    Snapshot snapshot() const {
        static_assert(WithSnapshots, "snapshot(): configure WithSnapshots");
        snap_.pins.fetch_add(1, std::memory_order_relaxed);
        DTREE_METRIC_INC(snapshot_pins);
        std::uint64_t b = 0;
        {
            std::lock_guard guard(snap_.pin_lock);
            b = snap_.epoch.load(std::memory_order_seq_cst);
            snap_register(b);
        }
        return Snapshot(this, b);
    }

    /// Always-on snapshot/retention stats (soufflette --stats/--profile).
    using snapshot_stats = btree_snapshot_stats;

    snapshot_stats snap_stats() const {
        static_assert(WithSnapshots, "snap_stats(): configure WithSnapshots");
        snapshot_stats s;
        s.epoch = snap_.epoch.load(std::memory_order_relaxed);
        s.advances = snap_.advances.load(std::memory_order_relaxed);
        s.pins = snap_.pins.load(std::memory_order_relaxed);
        s.cow_images = snap_.cow_images.load(std::memory_order_relaxed);
        s.retained_bytes = snap_.arena.retained_bytes();
        s.cow_bytes = snap_.arena.cow_bytes();
        return s;
    }

private:
    // -- snapshot machinery (DESIGN.md §11) ----------------------------------

    /// The registry entry for boundary `b`, or where it would go. Caller
    /// holds pin_lock.
    auto snap_pin_slot(std::uint64_t b) const {
        return std::lower_bound(
            snap_.live_pins.begin(), snap_.live_pins.end(), b,
            [](const auto& p, std::uint64_t x) { return p.first < x; });
    }

    /// Counts one more handle at boundary `b`. Caller holds pin_lock.
    void snap_register(std::uint64_t b) const {
        const auto it = snap_pin_slot(b);
        if (it != snap_.live_pins.end() && it->first == b) {
            ++it->second;
        } else {
            snap_.live_pins.insert(it, {b, 1});
        }
    }

    /// Registers a further handle at an already pinned boundary (copies).
    void snap_pin(std::uint64_t b) const {
        std::lock_guard guard(snap_.pin_lock);
        snap_register(b);
    }

    /// The oldest boundary any live or future snapshot can hold: the minimum
    /// over registered pins and the current epoch. Read under pin_lock, so a
    /// snapshot() that registers after this call reads an epoch >= the
    /// returned value.
    std::uint64_t oldest_pin() const {
        std::lock_guard guard(snap_.pin_lock);
        const std::uint64_t e = snap_.epoch.load(std::memory_order_seq_cst);
        return snap_.live_pins.empty() ? e
                                       : std::min(e, snap_.live_pins.front().first);
    }

    void snap_unpin(std::uint64_t b) const {
        std::lock_guard guard(snap_.pin_lock);
        const auto it = snap_pin_slot(b);
        if (--it->second == 0) snap_.live_pins.erase(it);
    }

    /// A reader-private resolved copy of one node's content for boundary B:
    /// either the live content (copied under a validated lease) or a
    /// retained image. Plain arrays — no atomics — because it is a copy.
    struct NodeView {
        unsigned n = 0;
        bool inner = false;
        Key keys[BlockSize];
        NodeT* children[BlockSize + 1];
    };

    /// Resolves `node` to its content for boundary B. Retries on lease
    /// validation failure (same discipline as the optimistic descent).
    void snap_read_node(const NodeT* node, std::uint64_t B,
                        NodeView& out) const {
        for (;;) {
            const Lease lease = node->lock.start_read();
            const std::uint64_t m = node->snap.mod_epoch.load();
            if (m < B) {
                // Live content IS the content for B. Copy, then validate: a
                // failed validation discards the copy (seqlock discipline).
                const unsigned n = node->num_elements.load();
                if (n <= BlockSize) {
                    out.n = n;
                    out.inner = node->inner;
                    for (unsigned i = 0; i < n; ++i) {
                        out.keys[i] = Access::load(node->keys[i]);
                    }
                    if (node->inner) {
                        const InnerT* in = node->as_inner();
                        for (unsigned i = 0; i <= n; ++i) {
                            out.children[i] = in->children[i].load();
                        }
                    }
                    if (node->lock.validate(lease)) return;
                }
                continue; // torn read or writer interleaved: retry
            }
            // Modified at-or-after B: resolve through the immutable image
            // chain. The lease validation pins (m, versions-head) to one
            // quiescent node state, so the chain read here is guaranteed to
            // contain the image covering B (published before mod_epoch was
            // raised past it).
            const ImageT* img = node->snap.versions.load_acquire();
            if (!node->lock.validate(lease)) continue;
            while (img && img->epoch >= B) img = img->next;
            if (!img) {
                // Node born in an epoch >= B: it holds no pre-B content.
                // Unreachable from pre-B structure; defensively empty.
                out.n = 0;
                out.inner = false;
                return;
            }
            out.n = img->n;
            out.inner = img->inner;
            for (unsigned i = 0; i < img->n; ++i) out.keys[i] = img->keys[i];
            if (img->inner) {
                const auto* iimg = static_cast<const InnerImageT*>(img);
                for (unsigned i = 0; i <= img->n; ++i) {
                    out.children[i] = iimg->children[i];
                }
            }
            return;
        }
    }

    /// Resolves the root pointer for boundary B (nullptr = empty at B).
    NodeT* snap_root(std::uint64_t B) const {
        for (;;) {
            const Lease lease = root_lock_.start_read();
            NodeT* root = root_.load_acquire();
            const std::uint64_t rm = snap_.root_mod_epoch.load();
            const typename SnapStateT::RootVersion* rv =
                snap_.root_versions.load_acquire();
            if (!root_lock_.end_read(lease)) continue;
            if (rm < B) return root;
            while (rv && rv->epoch >= B) rv = rv->next;
            return rv ? rv->root : nullptr;
        }
    }

    /// First index in the view whose key is >= k (plain binary search over
    /// the private copy).
    unsigned view_lower(const NodeView& v, const Key& k) const {
        unsigned lo = 0, hi = v.n;
        while (lo < hi) {
            const unsigned mid = lo + (hi - lo) / 2;
            if (comp_(v.keys[mid], k) < 0) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        return lo;
    }

    /// In-order walk of the snapshot-resolved subtree under `node`,
    /// restricted to [lo, hi) when bounds are given (nullptr = unbounded).
    template <typename Fn>
    void snap_walk(NodeT* node, std::uint64_t B, const Key* lo, const Key* hi,
                   Fn&& fn) const {
        if (!node) return;
        NodeView v;
        snap_read_node(node, B, v);
        const unsigned from = lo ? view_lower(v, *lo) : 0;
        const unsigned to = hi ? view_lower(v, *hi) : v.n;
        if (!v.inner) {
            for (unsigned i = from; i < to; ++i) fn(v.keys[i]);
            return;
        }
        // Children outside [from, to] cannot intersect the range; separator
        // keys[i] for i in [from, to) lie inside it by construction.
        for (unsigned i = from;; ++i) {
            snap_walk(v.children[i], B, lo, hi, fn);
            if (i >= to || i >= v.n) break;
            fn(v.keys[i]);
        }
    }

    std::optional<Key> snap_find(const Key& k, std::uint64_t B) const {
        NodeT* cur = snap_root(B);
        while (cur) {
            NodeView v;
            snap_read_node(cur, B, v);
            const unsigned pos = view_lower(v, k);
            if (pos < v.n && comp_.equal(v.keys[pos], k)) return v.keys[pos];
            if (!v.inner) return std::nullopt;
            cur = v.children[pos];
        }
        return std::nullopt;
    }

    std::optional<Key> snap_lower_bound(const Key& k, std::uint64_t B) const {
        NodeT* cur = snap_root(B);
        std::optional<Key> best;
        while (cur) {
            NodeView v;
            snap_read_node(cur, B, v);
            const unsigned pos = view_lower(v, k);
            if (!v.inner) {
                if (pos < v.n) return v.keys[pos];
                return best;
            }
            // An equal separator is the answer.
            if (pos < v.n && comp_.equal(v.keys[pos], k)) return v.keys[pos];
            if (pos < v.n) best = v.keys[pos];
            cur = v.children[pos];
        }
        return best;
    }

    /// The operation epoch: every structural mutation loads this ONCE, after
    /// acquiring ALL the locks the operation will hold, and threads the value
    /// through each snap_retain / snap_mark_fresh / snap_retain_root it
    /// performs. One load per operation is what makes a multi-node mutation
    /// (a split touching leaf + sibling + parent + root) atomic with respect
    /// to epoch boundaries: if the epoch ticks mid-operation, every touched
    /// node is still stamped with the same pre-tick epoch, so any boundary
    /// sees the operation entirely or not at all. (Independent loads per
    /// node tear: leaf stamped E, parent stamped E+1 — a reader at B = E+1
    /// then resolves the parent to its pre-split image but the leaf live
    /// post-split, losing the keys moved to the sibling.) Loading AFTER the
    /// locks are held keeps per-node stamps monotonic: any earlier stamp on
    /// a locked node came from an operation that completed before our load,
    /// so it is <= the value we read. The seq_cst load also can never run
    /// behind a boundary a reader pinned before this write began (§11.3),
    /// which is what keeps pinned snapshots byte-stable.
    std::uint64_t snap_epoch_now() const {
        if constexpr (WithSnapshots) {
            return snap_.epoch.load(std::memory_order_seq_cst);
        } else {
            return 0;
        }
    }

    /// Copy-on-write hook: called by every mutation path with exclusive
    /// access to `node` (write lock held / sequential) and the operation
    /// epoch `e` from snap_epoch_now(). If the node's last modification
    /// predates `e`, its pre-mutation content is captured into an immutable
    /// image BEFORE the caller modifies it; at most one image per node per
    /// epoch. The image is tagged `e`: it serves boundaries (m, e], and its
    /// arena chunk is freed once the oldest pin passes `e`.
    void snap_retain(NodeT* node, std::uint64_t e) {
        if constexpr (WithSnapshots) {
            const std::uint64_t m = node->snap.mod_epoch.load();
            if (m >= e) return; // already touched this epoch
            const unsigned n = node->num_elements.load();
            auto fill = [&](ImageT& img) {
                img.epoch = m;
                img.n = n;
                img.inner = node->inner;
                for (unsigned i = 0; i < n; ++i) img.keys[i] = node->keys[i];
                img.next = node->snap.versions.load();
            };
            ImageT* img;
            if (node->inner) {
                img = snap_.arena.template make<InnerImageT>(
                    e, [&](InnerImageT& iimg) {
                        const InnerT* in = node->as_inner();
                        for (unsigned i = 0; i <= n; ++i) {
                            iimg.children[i] = in->children[i].load();
                        }
                        fill(iimg);
                    });
            } else {
                img = snap_.arena.template make<ImageT>(e, fill);
            }
            // Release: a reader following the chain head must see the image
            // fully constructed.
            node->snap.versions.store_release(img);
            node->snap.mod_epoch.store(e);
            snap_.cow_images.fetch_add(1, std::memory_order_relaxed);
            DTREE_METRIC_INC(snapshot_cow_images);
        } else {
            (void)node;
            (void)e;
        }
    }

    /// Marks a freshly created (still unpublished) node as born in the
    /// operation epoch `e`: snapshots at boundaries <= e resolve it to
    /// empty content instead of its live keys.
    void snap_mark_fresh(NodeT* node, std::uint64_t e) {
        if constexpr (WithSnapshots) {
            node->snap.mod_epoch.store(e);
        } else {
            (void)node;
            (void)e;
        }
    }

    /// Root-replacement hook: called with the root lock held (or exclusive
    /// access), BEFORE root_ is overwritten, with the operation epoch `e`.
    /// Retains the outgoing root in the root-version chain so snapshots at
    /// pre-replacement boundaries still resolve it.
    void snap_retain_root(NodeT* old_root, std::uint64_t e) {
        if constexpr (WithSnapshots) {
            const std::uint64_t m = snap_.root_mod_epoch.load();
            if (m < e) {
                using RootVersion = typename SnapStateT::RootVersion;
                auto* rv = snap_.arena.template make<RootVersion>(
                    e, [&](RootVersion& v) {
                        v.root = old_root;
                        v.epoch = m;
                        v.next = snap_.root_versions.load();
                    });
                snap_.root_versions.store_release(rv);
                snap_.root_mod_epoch.store(e);
            }
            // m == e: this epoch's chain entry already covers B <= e, and
            // boundaries > e read the live root.
        } else {
            (void)old_root;
            (void)e;
        }
    }

    /// Frees detached subtrees and all retained images/chains (clear() and
    /// the destructor). The epoch itself is NOT reset: it stays monotonic so
    /// stale Snapshot handles can never alias a future boundary. The pin
    /// registry is kept too — handles still unregister from it.
    void release_snapshot_state() {
        if constexpr (WithSnapshots) {
            for (NodeT* d : snap_.detached) detail::free_subtree(d);
            snap_.detached.clear();
            snap_.root_versions.store(nullptr);
            snap_.root_mod_epoch.store(0);
            snap_.arena.release();
        }
    }

    // -- sequential insertion -----------------------------------------------

    bool insert_sequential(const Key& k, operation_hints& hints) {
        // Tally the hint outcome exactly once per logical insert (the
        // post-split re-run below must not count again): cold/empty slots
        // and the empty tree are misses, per the Table 2 definition.
        NodeT* start = nullptr;
        if (NodeT* h = root_.load() ? hints.get(HintKind::Insert) : nullptr;
            h && leaf_covers(h, k)) {
            hints.stats.hit(HintKind::Insert);
            start = h;
        } else {
            hints.stats.miss(HintKind::Insert);
        }
        return insert_sequential_from(k, hints, start);
    }

    /// The actual sequential descent; `start` short-circuits to a hinted
    /// leaf already known to cover k (nullptr = descend from the root).
    bool insert_sequential_from(const Key& k, operation_hints& hints, NodeT* start) {
        NodeT* cur = root_.load();
        if (!cur) {
            NodeT* leaf = make_leaf(/*spine=*/true);
            leaf->template key_store<SeqAccess>(0, k);
            leaf->num_elements.store(1);
            fp_reset_leaf(leaf);
            const std::uint64_t se = snap_epoch_now();
            snap_mark_fresh(leaf, se);
            snap_retain_root(nullptr, se);
            root_.store(leaf);
            hints.set(HintKind::Insert, leaf);
            return true;
        }
        if (start) cur = start;

        unsigned pos = 0;
        for (;;) {
            if constexpr (WithFingerprints) {
                // v2 leaves are probed below (the append zone defeats the
                // sorted in-node search); inner nodes are handled as ever.
                if (!cur->inner) break;
            }
            const unsigned n = cur->num_elements.load();
            pos = detail::node_lower<Search, SeqAccess>(cur, n, k, comp_);
            if (pos < n && comp_.equal(cur->keys[pos], k)) {
                if (!cur->inner) hints.set(HintKind::Insert, cur);
                return false;
            }
            if (!cur->inner) break;
            NodeT* next = cur->as_inner()->children[pos].load();
            detail::prefetch_node(next);
            cur = next;
        }

        if constexpr (WithFingerprints) {
            if (leaf_fp_find(cur, cur->num_elements.load(), k) >= 0) {
                hints.set(HintKind::Insert, cur);
                return false;
            }
        }

        if (cur->full()) {
            // Re-run the insert on the leaf that now covers k.
            return insert_sequential_from(k, hints, make_room(cur, k));
        }

        const unsigned n = cur->num_elements.load();
        snap_retain(cur, snap_epoch_now());
        if constexpr (WithFingerprints) {
            leaf_append(cur, n, k); // slot write + fingerprint publish
        } else {
            for (unsigned i = n; i > pos; --i) {
                cur->template key_move<SeqAccess>(i, i - 1);
            }
            cur->template key_store<SeqAccess>(pos, k);
            cur->num_elements.store(n + 1);
        }
        hints.set(HintKind::Insert, cur);
        return true;
    }

    // -- concurrent insertion (Alg. 1) ---------------------------------------

    enum class LeafResult { Inserted, Duplicate, Retry };

    bool insert_concurrent(const Key& k, operation_hints& hints) {
        // Safe lazy initialisation of the root (Alg. 1 lines 2-9), fused with
        // the first insertion.
        while (root_.load_acquire() == nullptr) {
            if (!root_lock_.try_start_write()) {
                cpu_relax();
                continue;
            }
            if (root_.load() == nullptr) {
                NodeT* leaf = make_leaf(/*spine=*/true);
                // Unpublished: plain stores are fine.
                leaf->template key_store<SeqAccess>(0, k);
                leaf->num_elements.store(1);
                fp_reset_leaf(leaf);
                const std::uint64_t se = snap_epoch_now();
                snap_mark_fresh(leaf, se);
                snap_retain_root(nullptr, se);
                root_.store_release(leaf);
                root_lock_.end_write();
                hints.stats.miss(HintKind::Insert); // cold slot on first insert
                hints.set(HintKind::Insert, leaf);
                return true;
            }
            root_lock_.abort_write(); // lost the race; nothing modified
        }

        // Hint fast path (§3.2): jump straight to the cached leaf. A cold
        // (empty) slot counts as a miss — Table 2's hit rate is hits over
        // ALL hinted operations, not just those with a populated slot.
        if (NodeT* leaf = hints.get(HintKind::Insert)) {
            const Lease lease = leaf->lock.start_read();
            if (leaf_covers(leaf, k) && leaf->lock.validate(lease)) {
                hints.stats.hit(HintKind::Insert);
                const LeafResult r = leaf_insert(leaf, lease, k, hints);
                if (r != LeafResult::Retry) return r == LeafResult::Inserted;
                DTREE_METRIC_INC(btree_leaf_retries);
            } else {
                hints.stats.miss(HintKind::Insert);
            }
        } else {
            hints.stats.miss(HintKind::Insert);
        }

        for (;;) {
            const std::optional<bool> done = try_insert_from_root(k, hints);
            if (done) return *done;
            DTREE_METRIC_INC(btree_restarts);
        }
    }

    /// One full optimistic descent attempt; nullopt means "conflict detected,
    /// restart" (Alg. 1's goto restart).
    std::optional<bool> try_insert_from_root(const Key& k, operation_hints& hints) {
        // Safely obtain the root node and a lease on it (lines 13-17).
        Lease root_lease, cur_lease;
        NodeT* cur;
        do {
            root_lease = root_lock_.start_read();
            // Acquire: cur's lock is touched BEFORE the root lease validates,
            // so a freshly published root must be visible fully constructed.
            cur = root_.load_acquire();
            cur_lease = cur->lock.start_read();
        } while (!root_lock_.end_read(root_lease));

        // Descend (lines 20-33).
        for (;;) {
            if constexpr (WithFingerprints) {
                // v2 leaves skip the sorted in-node search; leaf_insert runs
                // the fingerprint membership probe itself.
                if (!cur->inner) {
                    const LeafResult r = leaf_insert(cur, cur_lease, k, hints);
                    switch (r) {
                        case LeafResult::Inserted: return true;
                        case LeafResult::Duplicate: return false;
                        case LeafResult::Retry:
                            DTREE_METRIC_INC(btree_leaf_retries);
                            return std::nullopt;
                    }
                }
            }
            const unsigned n = cur->num_elements.load();
            const unsigned pos =
                detail::node_lower<Search, Access>(cur, n, k, comp_);
            // Early containment check (line 22).
            if (pos < n && Access::compare(comp_, cur->keys[pos], k) == 0) {
                if (!cur->lock.validate(cur_lease)) return std::nullopt;
                if (!cur->inner) hints.set(HintKind::Insert, cur);
                return false;
            }
            if (cur->inner) {
                NodeT* next = cur->as_inner()->children[pos].load();
                // Prefetch the chosen child BEFORE the parent's lease
                // validates: the miss overlaps the validation fence + child
                // lease acquisition below, and prefetching a pointer a failed
                // validation is about to reject is harmless (nodes are never
                // freed while the tree lives).
                detail::prefetch_node(next);
                // Validate before dereferencing the child pointer: only a
                // committed pointer is guaranteed to reference a node.
                if (!cur->lock.validate(cur_lease)) return std::nullopt;
                const Lease next_lease = next->lock.start_read();
                if (!cur->lock.validate(cur_lease)) return std::nullopt;
                cur = next;
                cur_lease = next_lease;
                continue;
            }
            // Located the target leaf (lines 35-47).
            const LeafResult r = leaf_insert(cur, cur_lease, k, hints);
            switch (r) {
                case LeafResult::Inserted: return true;
                case LeafResult::Duplicate: return false;
                case LeafResult::Retry:
                    DTREE_METRIC_INC(btree_leaf_retries);
                    return std::nullopt;
            }
        }
    }

    /// Attempts the write phase on a leaf whose read lease is still pending
    /// validation. Returns Retry on any conflict (including a required
    /// split, after performing it — Alg. 1 lines 39-43).
    LeafResult leaf_insert(NodeT* leaf, Lease lease, const Key& k,
                           operation_hints& hints) {
        // Fault injection: force the Alg. 1 restart path (goto restart).
        if (DTREE_FAILPOINT(leaf_retry)) return LeafResult::Retry;
        const unsigned n = leaf->num_elements.load();
        if (n > BlockSize) return LeafResult::Retry; // torn read; impossible once validated
        if constexpr (WithFingerprints) {
            return leaf_insert_v2(leaf, lease, n, k, hints);
        }
        // The predicted slot from the previous insert steers the in-node
        // search; a stale guess is validated (racily — the upgrade below
        // re-validates the lease, restoring Alg. 1's guarantees) and at
        // worst falls back to the full search.
        const unsigned pos = detail::node_lower_hinted<Search, Access>(
            leaf, n, k, comp_, hints.slots.get(HintKind::Insert));
        if (pos < n && Access::compare(comp_, leaf->keys[pos], k) == 0) {
            if (!leaf->lock.validate(lease)) return LeafResult::Retry;
            // Duplicate inserts are the common case in Datalog (semi-naïve
            // evaluation re-derives tuples constantly); remember the leaf
            // so the next nearby duplicate skips the traversal too.
            hints.set(HintKind::Insert, leaf);
            hints.slots.set(HintKind::Insert, pos);
            return LeafResult::Duplicate;
        }
        // Fault injection: widen the window between the racy (n, pos)
        // snapshot above and the upgrade below — exactly what the upgrade's
        // atomic validation protects against (Alg. 1 line 36).
        DTREE_FAILPOINT_DELAY(upgrade_delay);
        if (!leaf->lock.try_upgrade_to_write(lease)) return LeafResult::Retry;
        // Lease validated atomically by the upgrade: n and pos are accurate.
        if (leaf->full()) {
            split_concurrent(leaf, k);
            leaf->lock.end_write();
            return LeafResult::Retry;
        }
        snap_retain(leaf, snap_epoch_now());
        for (unsigned i = n; i > pos; --i) {
            leaf->template key_move<Access>(i, i - 1);
        }
        leaf->template key_store<Access>(pos, k);
        leaf->num_elements.store(n + 1);
        leaf->lock.end_write();
        hints.set(HintKind::Insert, leaf);
        // Ascending runs (the dominant Datalog pattern) land each key one
        // slot right of the previous one.
        hints.slots.set(HintKind::Insert, pos + 1);
        return LeafResult::Inserted;
    }

    /// Layout-v2 leaf write phase (DESIGN.md §15): a racy fingerprint probe
    /// answers duplicates with zero key loads for the common miss, and the
    /// insert itself is an APPEND — slot write + release fingerprint publish
    /// + count bump — never an element shift. The probe's (n, verdict) pair
    /// is trusted only after the upgrade atomically validates the lease they
    /// were read under, exactly Alg. 1's argument. Slot hints are ignored:
    /// an append's position is always n.
    LeafResult leaf_insert_v2(NodeT* leaf, Lease lease, unsigned n,
                              const Key& k, operation_hints& hints)
        requires WithFingerprints
    {
        if (leaf_fp_find(leaf, n, k) >= 0) {
            if (!leaf->lock.validate(lease)) return LeafResult::Retry;
            hints.set(HintKind::Insert, leaf);
            return LeafResult::Duplicate;
        }
        DTREE_FAILPOINT_DELAY(upgrade_delay);
        if (!leaf->lock.try_upgrade_to_write(lease)) return LeafResult::Retry;
        if (leaf->full()) {
            split_concurrent(leaf, k);
            leaf->lock.end_write();
            return LeafResult::Retry;
        }
        snap_retain(leaf, snap_epoch_now());
        leaf_append(leaf, n, k);
        leaf->lock.end_write();
        hints.set(HintKind::Insert, leaf);
        return LeafResult::Inserted;
    }

    // -- node splitting -------------------------------------------------------

    /// Concurrent split (Alg. 2): write-locks the ancestor path bottom-up
    /// (every full ancestor plus the first non-full one, or the tree's root
    /// lock), performs the structural split, then unlocks top-down. A leaf
    /// first tries to shed keys into a sibling once its parent is locked
    /// (try_redistribute); only if that fails does the path walk go on.
    /// Precondition: `node` is write-locked by the caller and full, and
    /// `pending` is the key whose insertion overflowed it. Returns the leaf
    /// or half whose key range holds `pending` (see split_and_propagate).
    NodeT* split_concurrent(NodeT* node, const Key& pending) {
        // Fault injection: hold the write-locked leaf before acquiring any
        // ancestor lock, widening the window in which concurrent inserts see
        // an odd version and must spin or retry.
        DTREE_FAILPOINT_DELAY(split_delay);
        // Phase 1: lock the path bottom-up (lines 2-23). nullptr in `path`
        // denotes the tree's root lock.
        InnerT* path[64]; // bounded by tree depth; 64 levels is unreachable
        unsigned depth = 0;
        NodeT* cur = node;
        for (;;) {
            // Acquire loads: the parent pointer may name an inner node another
            // thread's split published moments ago (release-stored); its lock
            // is taken below without any prior lease validation on the
            // publisher, so this load is the only happens-before edge.
            InnerT* parent = cur->parent.load_acquire();
            for (;;) {
                if (parent) {
                    parent->lock.start_write();
                    if (parent == cur->parent.load()) break;
                    parent->lock.abort_write();
                    parent = cur->parent.load_acquire();
                } else {
                    root_lock_.start_write();
                    if (cur->parent.load() == nullptr) break;
                    root_lock_.abort_write();
                    parent = cur->parent.load_acquire();
                }
            }
            assert(depth < 64);
            path[depth++] = parent;
            if (depth == 1 && parent && !node->inner) {
                if (NodeT* target = try_redistribute(node, parent, pending)) {
                    parent->lock.end_write();
                    return target;
                }
            }
            if (!parent || !parent->full()) break;
            cur = parent;
        }

        // Fault injection: stretch the fully-locked split window (every
        // ancestor on `path` is write-locked here) before restructuring.
        DTREE_FAILPOINT_DELAY(split_delay);
        // Phase 2: the actual split, with exclusive access to everything it
        // will touch (line 26). Fresh inner siblings created along the way
        // are born write-locked (see split_and_propagate) and collected here.
        // The operation epoch is loaded HERE — after phase 1, so every node
        // the split will stamp is already locked (see snap_epoch_now) — and
        // used for every retention the whole restructuring performs.
        NodeT* created[64];
        unsigned n_created = 0;
        NodeT* const target = split_and_propagate(node, pending, snap_epoch_now(),
                                                  created, &n_created);

        // Phase 3: unlock top-down (lines 28-35).
        for (unsigned i = depth; i-- > 0;) {
            if (path[i]) {
                path[i]->lock.end_write();
            } else {
                root_lock_.end_write();
            }
        }
        for (unsigned i = n_created; i-- > 0;) {
            created[i]->lock.end_write();
        }
        return target;
    }

    /// Structural split of a full node; shared by the sequential path (called
    /// directly) and the concurrent path (called with all affected nodes
    /// write-locked). Keeps the lower keys in `node`, moves the upper ones to
    /// a fresh right sibling, promotes the key between them to the parent —
    /// splitting full parents recursively (they are locked, see
    /// split_concurrent). `pending` is the key whose insertion overflowed
    /// `node`; the split point depends on it (DESIGN.md §16):
    ///   * right-spine append — `node` is the last on its level and `pending`
    ///     sorts after all of its keys: `node` keeps BlockSize-2 keys and the
    ///     sibling starts with one, so ascending inserts leave nodes with
    ///     BlockSize-2 keys behind instead of half-full ones;
    ///   * every other split cuts at the median, as in the paper.
    /// The sibling inherits the spine flag. `snap_e` is the operation epoch
    /// (snap_epoch_now() loaded once with all locks held): every node the
    /// restructuring touches is stamped with it, so the split is visible to
    /// a boundary entirely or not at all. Returns the half whose key range
    /// holds `pending`.
    NodeT* split_and_propagate(NodeT* node, const Key& pending,
                               std::uint64_t snap_e, NodeT** created = nullptr,
                               unsigned* n_created = nullptr) {
        assert(node->full());
        if (node->inner) {
            DTREE_METRIC_INC(btree_inner_splits);
        } else {
            DTREE_METRIC_INC(btree_leaf_splits);
            // v2: merge the append zone into the sorted prefix FIRST — the
            // split-point read and the halving below assume sorted keys, and
            // the retained image (snap_retain) must be the merged view. We
            // hold the write lock / exclusive access, as consolidation
            // requires.
            if constexpr (WithFingerprints) leaf_consolidate(node);
        }
        // Exclusive access: plain reads of node's own keys and flag.
        const bool spine = node->spine.load();
        const unsigned mid = spine && comp_(node->keys[BlockSize - 1], pending) < 0
                                 ? BlockSize - 2
                                 : BlockSize / 2;
        // Pre-split content (keys AND children) for readers.
        snap_retain(node, snap_e);
        const Key median = node->keys[mid];

        NodeT* sibling = node->inner ? static_cast<NodeT*>(make_inner(spine))
                                     : make_leaf(spine);
        node->spine.store(false);
        snap_mark_fresh(sibling, snap_e);
        // A fresh *inner* sibling becomes reachable before this split
        // finishes: the rehoming loop below publishes it through its
        // children's parent pointers, which a concurrent bottom-up split
        // (Alg. 2 phase 1) can walk up and lock while we are still copying
        // keys into the sibling and inserting it into its parent. Hold its
        // write lock from birth; split_concurrent releases it once the whole
        // restructuring is done. (Leaf siblings only become reachable via
        // the parent's children array, which stays write-locked until
        // phase 3, so they do not need this.)
        if (created && node->inner) {
            sibling->lock.start_write(); // unpublished: always uncontended
            assert(*n_created < 64);
            created[(*n_created)++] = sibling;
        }
        const unsigned moved = BlockSize - mid - 1;
        for (unsigned i = 0; i < moved; ++i) {
            // Sibling unpublished: plain stores.
            sibling->template key_copy_from<SeqAccess>(i, *node, mid + 1 + i);
        }
        if (node->inner) {
            InnerT* in = node->as_inner();
            InnerT* sib = sibling->as_inner();
            for (unsigned i = 0; i <= moved; ++i) {
                NodeT* child = in->children[mid + 1 + i].load();
                sib->children[i].store(child);
                // Release: publishes the fresh sibling to any thread that
                // later splits `child` and walks its parent pointer.
                child->parent.store_release(sib);
                child->position.store(i);
            }
        }
        sibling->num_elements.store(moved);
        node->num_elements.store(mid); // racy readers re-validate
        if constexpr (WithFingerprints) {
            if (!node->inner) {
                // Both halves are consolidated (sorted) post-split. The
                // node's min is untouched; its max shrinks to the new last
                // key. Racy readers of the cached bounds re-validate.
                node->fp_sorted_store(mid);
                Access::store(node->fpst.max_key, node->keys[mid - 1]);
                fp_reset_leaf(sibling);
            }
        }

        NodeT* const target = comp_(pending, median) < 0 ? node : sibling;
        InnerT* parent = node->parent.load();
        if (!parent) {
            // node was the root: grow the tree (root lock is held /
            // sequential mode has exclusive access anyway).
            InnerT* new_root = make_inner(/*spine=*/true);
            snap_mark_fresh(new_root, snap_e);
            new_root->template key_store<SeqAccess>(0, median);
            new_root->children[0].store(node);
            new_root->children[1].store(sibling);
            new_root->num_elements.store(1);
            // Release stores: the new root is reachable through the parent
            // pointers (split walks) and the root pointer (descent starts)
            // before any lease on its publisher can be validated.
            node->parent.store_release(new_root);
            node->position.store(0);
            sibling->parent.store_release(new_root);
            sibling->position.store(1);
            snap_retain_root(node, snap_e); // root lock held / sequential
            root_.store_release(new_root);
            DTREE_METRIC_INC(btree_root_replacements);
            return target;
        }
        if (parent->full()) {
            // The median is the parent's pending key: a spine node's median
            // sorts after all of the (spine) parent's keys, so the bias
            // carries up the spine.
            split_and_propagate(parent, median, snap_e, created, n_created);
            // The parent's split may have rehomed `node` under the parent's
            // new sibling; its parent/position fields are up to date (we hold
            // the necessary locks in concurrent mode).
            parent = node->parent.load();
        }
        insert_child(parent, node->position.load(), median, sibling, snap_e);
        return target;
    }

    /// Inserts (median, right_child) into a non-full inner node directly
    /// after child position `pos`. Exclusive access required; `snap_e` is
    /// the enclosing split's operation epoch.
    void insert_child(InnerT* parent, unsigned pos, const Key& median,
                      NodeT* right_child, std::uint64_t snap_e) {
        const unsigned n = parent->num_elements.load();
        assert(n < BlockSize);
        snap_retain(parent, snap_e);
        for (unsigned i = n; i > pos; --i) {
            parent->template key_move<Access>(i, i - 1);
        }
        for (unsigned i = n + 1; i > pos + 1; --i) {
            NodeT* c = parent->children[i - 1].load();
            parent->children[i].store(c);
            c->position.store(i);
        }
        parent->template key_store<Access>(pos, median);
        parent->children[pos + 1].store(right_child);
        right_child->parent.store(parent);
        right_child->position.store(pos + 1);
        parent->num_elements.store(n + 1);
    }

    /// Leaf overflow without a split (DESIGN.md §16): rotates keys of the
    /// full `leaf` through the parent separator into the neighbour under
    /// the same parent with more room, so the two leaves end up balanced
    /// once `pending` lands. Separators are elements: the old separator
    /// moves down into one leaf and a leaf key moves up in its place.
    /// Declines (nullptr) on a right-spine append, which keeps its append
    /// split, and when no neighbour can take keys. The caller holds `leaf`
    /// and `parent` exclusively (write locks / sequential). The sibling is
    /// only try-locked: its holder may be waiting for `parent`, which we
    /// hold, so blocking could deadlock. Returns the leaf whose key range
    /// holds `pending`, as split_and_propagate does.
    NodeT* try_redistribute(NodeT* leaf, InnerT* parent, const Key& pending) {
        // v2: the rank and the moves below read the sorted view.
        if constexpr (WithFingerprints) leaf_consolidate(leaf);
        if (leaf->spine.load() && comp_(leaf->keys[BlockSize - 1], pending) < 0) {
            return nullptr;
        }
        const unsigned pos = leaf->position.load();
        NodeT* left = pos > 0 ? parent->children[pos - 1].load() : nullptr;
        NodeT* right = pos < parent->num_elements.load()
                           ? parent->children[pos + 1].load()
                           : nullptr;
        // Racy counts pick the sibling; its lock makes the count exact.
        const unsigned nl = left ? left->num_elements.load() : BlockSize;
        const unsigned nr = right ? right->num_elements.load() : BlockSize;
        if (nl >= BlockSize && nr >= BlockSize) return nullptr;
        const bool into_left = nl <= nr;
        NodeT* const sib = into_left ? left : right;
        DTREE_FAILPOINT_DELAY(redistribute_delay);
        if constexpr (concurrent) {
            // Fault injection: a sibling held by another writer.
            if (DTREE_FAILPOINT(sibling_busy) || !sib->lock.try_start_write()) {
                DTREE_METRIC_INC(btree_redistribute_busy);
                return nullptr;
            }
        }
        // The pair in key order, a | separator s | c.
        NodeT* const a = into_left ? sib : leaf;
        NodeT* const c = into_left ? leaf : sib;
        const unsigned s = into_left ? pos - 1 : pos;
        const unsigned na = a->num_elements.load();
        const unsigned nc = c->num_elements.load();
        const unsigned total = na + nc + 1;
        // Rank of pending among a's keys, the separator and c's keys.
        const unsigned r =
            (into_left ? na + 1 : 0) +
            detail::node_lower<Search, SeqAccess>(leaf, BlockSize, pending, comp_);
        // `keep` keys stay left of the new separator; pending's side must
        // keep a free slot.
        unsigned keep = (total - 1) / 2;
        if (r > keep && total - keep > BlockSize) ++keep;
        if (keep + (r <= keep) > BlockSize ||
            total - 1 - keep + (r > keep) > BlockSize) {
            if constexpr (concurrent) sib->lock.abort_write(); // untouched
            return nullptr;
        }
        DTREE_METRIC_INC(btree_leaf_redistributions);
        if constexpr (WithFingerprints) leaf_consolidate(sib);
        // All three nodes are exclusive now: one epoch stamps them all.
        const std::uint64_t se = snap_epoch_now();
        snap_retain(a, se);
        snap_retain(c, se);
        snap_retain(parent, se);
        Key buf[2 * BlockSize + 1]; // exclusive: plain reads
        unsigned m = 0;
        for (unsigned i = 0; i < na; ++i) buf[m++] = a->keys[i];
        buf[m++] = parent->keys[s];
        for (unsigned i = 0; i < nc; ++i) buf[m++] = c->keys[i];
        for (unsigned i = std::min(na, keep); i < keep; ++i) {
            a->template key_store<Access>(i, buf[i]);
        }
        a->num_elements.store(keep);
        parent->template key_store<Access>(s, buf[keep]);
        for (unsigned i = keep + 1; i < total; ++i) {
            c->template key_store<Access>(i - keep - 1, buf[i]);
        }
        c->num_elements.store(total - 1 - keep);
        fp_reset_leaf(a);
        fp_reset_leaf(c);
        if constexpr (concurrent) sib->lock.end_write();
        return r <= keep ? a : c;
    }

    /// Leaf overflow on the sequential paths: the rotation of
    /// try_redistribute, else the split.
    NodeT* make_room(NodeT* leaf, const Key& pending) {
        if (InnerT* parent = leaf->parent.load()) {
            if (NodeT* target = try_redistribute(leaf, parent, pending)) {
                return target;
            }
        }
        return split_and_propagate(leaf, pending, snap_epoch_now());
    }

    // -- sorted bulk merge (insert_sorted_run machinery) ----------------------

    /// Merges keys from the sorted stream [first, last) into `leaf`, to which
    /// the caller holds EXCLUSIVE access (write lock / seq policy). Stops at
    /// the first key that is out of order, beyond the bound `hi` (exclusive
    /// unless hi_inclusive), or that no longer fits. In-tree duplicates are
    /// consumed without insertion — including keys equal to an exclusive
    /// `hi`, because in this classic B-tree a separator IS an element of the
    /// set. It reports need_split when input is still pending and
    /// the leaf is (or just became) exactly full, which is precisely the
    /// split precondition. Returns the first unconsumed iterator; consumes at
    /// least one key unless it requests a split.
    template <typename It>
    It leaf_fill_sorted(NodeT* leaf, It first, It last, const Key* hi,
                        bool hi_inclusive, std::size_t& inserted,
                        bool& need_split) {
        // v2: the merge below walks the leaf's keys in sorted order — fold
        // the append zone in first (we hold exclusive access). Bulk loads
        // thus always emit fully-consolidated leaves.
        if constexpr (WithFingerprints) leaf_consolidate(leaf);
        const unsigned n = leaf->num_elements.load();
        Key buf[BlockSize]; // merged image; committed only if keys were taken
        unsigned nb = 0;    // keys staged into buf
        unsigned i = 0;     // existing keys consumed into buf
        unsigned taken = 0; // incoming keys admitted
        const unsigned room = BlockSize - n;
        std::size_t consumed = 0;
        Key prev{};
        bool have_prev = false;
        need_split = false;
        while (first != last) {
            const Key k = *first;
            // Out-of-order input ends the segment (correct, just unamortised).
            if (have_prev && comp_(k, prev) < 0) break;
            if (hi) {
                const int c = comp_(k, *hi);
                if (hi_inclusive ? c > 0 : c >= 0) {
                    if (!hi_inclusive && c == 0) {
                        // Equal to the ancestor separator => already an
                        // element of the set: consume, don't insert.
                        ++first;
                        ++consumed;
                        prev = k;
                        have_prev = true;
                        continue;
                    }
                    break; // key belongs beyond this leaf
                }
            }
            // Stage existing keys preceding k.
            while (i < n && comp_(leaf->keys[i], k) < 0) { // exclusive: plain read
                buf[nb++] = leaf->keys[i++];
            }
            if ((i < n && comp_.equal(leaf->keys[i], k)) ||
                (nb > 0 && comp_.equal(buf[nb - 1], k))) {
                ++first; // duplicate of an existing or just-admitted key
                ++consumed;
                prev = k;
                have_prev = true;
                continue;
            }
            if (taken == room) {
                need_split = true; // pending input, full leaf after write-back
                break;
            }
            buf[nb++] = k;
            ++taken;
            ++inserted;
            ++consumed;
            ++first;
            prev = k;
            have_prev = true;
        }
        if (taken > 0) {
            // Pre-merge image, before buf is written back.
            snap_retain(leaf, snap_epoch_now());
            while (i < n) buf[nb++] = leaf->keys[i++];
            assert(!need_split || nb == BlockSize);
            for (unsigned j = 0; j < nb; ++j) {
                leaf->template key_store<Access>(j, buf[j]);
            }
            leaf->num_elements.store(nb);
            fp_reset_leaf(leaf); // merged image is sorted: watermark = nb
        }
        DTREE_METRIC_ADD(btree_bulk_keys, consumed);
        return first;
    }

    /// Creates the root leaf from the head of the run, filled to the packed
    /// grade (BlockSize-1 keys). Losing the creation race consumes nothing;
    /// the caller re-dispatches.
    template <typename It>
    It bulk_init_root(It first, It last, operation_hints& hints,
                      std::size_t& inserted) {
        if (!root_lock_.try_start_write()) {
            cpu_relax();
            return first;
        }
        if (root_.load() != nullptr) {
            root_lock_.abort_write(); // lost the race; nothing modified
            return first;
        }
        NodeT* leaf = make_leaf(/*spine=*/true); // unpublished: plain stores
        unsigned nb = 0;
        std::size_t consumed = 0;
        Key prev{};
        bool have_prev = false;
        while (first != last && nb < BlockSize - 1) {
            const Key k = *first;
            if (have_prev) {
                const int c = comp_(prev, k);
                if (c > 0) break; // out of order: next segment re-descends
                if (c == 0) {
                    ++first;
                    ++consumed;
                    continue;
                }
            }
            leaf->template key_store<SeqAccess>(nb++, k);
            ++inserted;
            ++consumed;
            ++first;
            prev = k;
            have_prev = true;
        }
        leaf->num_elements.store(nb);
        fp_reset_leaf(leaf);
        const std::uint64_t se = snap_epoch_now();
        snap_mark_fresh(leaf, se);
        snap_retain_root(nullptr, se);
        root_.store_release(leaf);
        root_lock_.end_write();
        hints.stats.miss(HintKind::Insert); // cold slot on first insert
        hints.set(HintKind::Insert, leaf);
        DTREE_METRIC_ADD(btree_bulk_keys, consumed);
        return first;
    }

    /// Hint fast path for one bulk segment: upgrade the cached leaf directly
    /// and fill up to its own last key (inclusive — within [keys[0],
    /// keys[n-1]] the leaf is authoritative regardless of ancestor
    /// separators), or without bound on the right spine's last leaf, which
    /// owns every key above its first. The covering check runs under the
    /// lease the upgrade validates, so a split or rotation of the leaf in
    /// between fails the upgrade. nullopt falls through to the descent
    /// path.
    template <typename It>
    std::optional<It> try_bulk_hint(It first, It last, operation_hints& hints,
                                    std::size_t& inserted) {
        NodeT* leaf = hints.get(HintKind::Insert);
        if (!leaf) {
            hints.stats.miss(HintKind::Insert);
            return std::nullopt;
        }
        const Lease lease = leaf->lock.start_read();
        if (!leaf_covers(leaf, *first) || !leaf->lock.validate(lease)) {
            hints.stats.miss(HintKind::Insert);
            return std::nullopt;
        }
        DTREE_FAILPOINT_DELAY(upgrade_delay);
        if (!leaf->lock.try_upgrade_to_write(lease)) {
            hints.stats.miss(HintKind::Insert);
            return std::nullopt;
        }
        hints.stats.hit(HintKind::Insert);
        // v2: consolidate before reading the last key — with a live append
        // zone, keys[n-1] is not the leaf's maximum. (leaf_fill_sorted
        // consolidates again; that second call is a no-op.)
        if constexpr (WithFingerprints) leaf_consolidate(leaf);
        const unsigned n = leaf->num_elements.load(); // exact: write-locked
        const Key hi = leaf->keys[n - 1];
        bool need_split = false;
        It next = leaf_fill_sorted(leaf, first, last,
                                   leaf->spine.load() ? nullptr : &hi,
                                   /*hi_inclusive=*/true, inserted, need_split);
        if (need_split) {
            hints.set(HintKind::Insert, split_concurrent(leaf, *next));
        }
        leaf->lock.end_write();
        return next;
    }

    /// One optimistic descent to the leaf covering *first, then a bulk fill
    /// of that leaf under a single lock upgrade — the amortisation the whole
    /// path exists for. Tracks the tightest upper separator passed on the
    /// way down; the bound stays valid while the leaf's version holds (a
    /// leaf's key range changes only under that leaf's write lock — its own
    /// split, or a rotation that takes keys from it or gives keys to it —
    /// and ending that write bumps the version the upgrade validates: the
    /// same argument Alg. 1 makes for point inserts). nullopt means
    /// "conflict detected, restart".
    template <typename It>
    std::optional<It> try_bulk_segment(It first, It last,
                                       operation_hints& hints,
                                       std::size_t& inserted) {
        // Safely obtain the root node and a lease on it (as Alg. 1).
        Lease root_lease, cur_lease;
        NodeT* cur;
        do {
            root_lease = root_lock_.start_read();
            cur = root_.load_acquire();
            cur_lease = cur->lock.start_read();
        } while (!root_lock_.end_read(root_lease));

        const Key k = *first;
        Key hi{};
        bool has_hi = false;
        for (;;) {
            const unsigned n = cur->num_elements.load();
            const unsigned pos =
                detail::node_lower<Search, Access>(cur, n, k, comp_);
            if (cur->inner) {
                // Copy the separator BEFORE validating; commit it after.
                // Descending right of all keys (pos == n) keeps the
                // ancestor's bound, else keys[pos] is tighter.
                Key hi_cand{};
                bool cand = false;
                if (pos < n) {
                    hi_cand = Access::load(cur->keys[pos]);
                    cand = true;
                }
                NodeT* next = cur->as_inner()->children[pos].load();
                // As in the point-insert descent: start the child's miss
                // before the validation fence below.
                detail::prefetch_node(next);
                if (!cur->lock.validate(cur_lease)) return std::nullopt;
                if (cand) {
                    hi = hi_cand;
                    has_hi = true;
                }
                const Lease next_lease = next->lock.start_read();
                if (!cur->lock.validate(cur_lease)) return std::nullopt;
                cur = next;
                cur_lease = next_lease;
                continue;
            }
            // Located the target leaf: one upgrade covers the whole segment.
            if (DTREE_FAILPOINT(leaf_retry)) {
                DTREE_METRIC_INC(btree_leaf_retries);
                return std::nullopt;
            }
            DTREE_FAILPOINT_DELAY(upgrade_delay);
            if (!cur->lock.try_upgrade_to_write(cur_lease)) {
                DTREE_METRIC_INC(btree_leaf_retries);
                return std::nullopt;
            }
            bool need_split = false;
            It next = leaf_fill_sorted(cur, first, last,
                                       has_hi ? &hi : nullptr,
                                       /*hi_inclusive=*/false, inserted,
                                       need_split);
            hints.set(HintKind::Insert,
                      need_split ? split_concurrent(cur, *next) : cur);
            cur->lock.end_write();
            return next;
        }
    }

    /// Sequential bulk segment: hinted or plain descent, then an in-place
    /// merge into the target leaf (plain stores — no lock, no atomics);
    /// splits via split_and_propagate and lets the caller re-dispatch.
    template <typename It>
    It bulk_segment_seq(It first, It last, operation_hints& hints,
                        std::size_t& inserted) {
        NodeT* cur = root_.load();
        if (!cur) {
            NodeT* leaf = make_leaf(/*spine=*/true);
            unsigned nb = 0;
            std::size_t consumed = 0;
            Key prev{};
            bool have_prev = false;
            while (first != last && nb < BlockSize - 1) {
                const Key k = *first;
                if (have_prev) {
                    const int c = comp_(prev, k);
                    if (c > 0) break;
                    if (c == 0) {
                        ++first;
                        ++consumed;
                        continue;
                    }
                }
                leaf->template key_store<SeqAccess>(nb++, k);
                ++inserted;
                ++consumed;
                ++first;
                prev = k;
                have_prev = true;
            }
            leaf->num_elements.store(nb);
            fp_reset_leaf(leaf);
            const std::uint64_t se = snap_epoch_now();
            snap_mark_fresh(leaf, se);
            snap_retain_root(nullptr, se);
            root_.store(leaf);
            hints.stats.miss(HintKind::Insert);
            hints.set(HintKind::Insert, leaf);
            DTREE_METRIC_ADD(btree_bulk_keys, consumed);
            return first;
        }
        const Key k = *first;
        if (NodeT* h = hints.get(HintKind::Insert); h && leaf_covers(h, k)) {
            hints.stats.hit(HintKind::Insert);
            // v2: keys[n-1] is only the maximum on a consolidated leaf.
            if constexpr (WithFingerprints) leaf_consolidate(h);
            const unsigned n = h->num_elements.load();
            const Key hi = h->keys[n - 1];
            bool need_split = false;
            It next = leaf_fill_sorted(h, first, last,
                                       h->spine.load() ? nullptr : &hi,
                                       /*hi_inclusive=*/true, inserted,
                                       need_split);
            if (need_split) {
                hints.set(HintKind::Insert, make_room(h, *next));
            }
            return next;
        }
        hints.stats.miss(HintKind::Insert);
        Key hi{};
        bool has_hi = false;
        for (;;) {
            const unsigned n = cur->num_elements.load();
            const unsigned pos =
                detail::node_lower<Search, SeqAccess>(cur, n, k, comp_);
            if (!cur->inner) break;
            if (pos < n) {
                hi = cur->keys[pos];
                has_hi = true;
            }
            NodeT* next = cur->as_inner()->children[pos].load();
            detail::prefetch_node(next);
            cur = next;
        }
        bool need_split = false;
        It next = leaf_fill_sorted(cur, first, last, has_hi ? &hi : nullptr,
                                   /*hi_inclusive=*/false, inserted,
                                   need_split);
        hints.set(HintKind::Insert, need_split ? make_room(cur, *next) : cur);
        return next;
    }

    // -- helpers --------------------------------------------------------------

    /// Node allocation. Nodes are freed only wholesale, by
    /// detail::free_subtree from clear()/the destructor (or when a retired
    /// snapshot subtree is dropped).
    /// `spine` marks the node as the last on its level; set only while
    /// the node is unpublished.
    NodeT* make_leaf(bool spine = false) {
        DTREE_METRIC_INC(alloc_leaf_nodes);
        NodeT* leaf = new NodeT(/*is_inner=*/false);
        leaf->spine.store(spine);
        return leaf;
    }
    InnerT* make_inner(bool spine = false) {
        DTREE_METRIC_INC(alloc_inner_nodes);
        InnerT* node = new InnerT();
        node->spine.store(spine);
        return node;
    }

    /// A leaf's smallest and largest key (n = its count, n > 0). Layout v2
    /// reads the cached bounds: keys[0]/keys[n-1] carry no range meaning
    /// once an append zone exists.
    static const Key& leaf_min(const NodeT* leaf) {
        if constexpr (WithFingerprints) {
            return leaf->fpst.min_key;
        } else {
            return leaf->keys[0];
        }
    }
    static const Key& leaf_max(const NodeT* leaf, unsigned n) {
        if constexpr (WithFingerprints) {
            (void)n;
            return leaf->fpst.max_key;
        } else {
            return leaf->keys[n - 1];
        }
    }

    /// Does the (leaf) node's current key range contain k? That range is
    /// [min, max], or [min, +inf) for the right spine's last leaf: no key
    /// above it can live anywhere else, so appends hit the insert hint.
    /// Racing callers (A = Access) must validate the node's lease
    /// afterwards; phase reads pass SeqAccess.
    template <typename A = Access>
    bool leaf_covers(const NodeT* leaf, const Key& k) const {
        const unsigned n = leaf->num_elements.load();
        if (n == 0 || n > BlockSize) return false;
        return A::compare(comp_, leaf_min(leaf), k) <= 0 &&
               (leaf->spine.load() ||
                A::compare(comp_, leaf_max(leaf, n), k) >= 0);
    }

    /// Left-edge test for the bound-query hint paths (phase reads):
    /// smallest leaf key <= k.
    bool leaf_edge_le(const NodeT* leaf, const Key& k) const {
        return comp_(leaf_min(leaf), k) <= 0;
    }

    /// Right-edge test: k < largest leaf key (strict) or <= it.
    bool leaf_edge_ge(const NodeT* leaf, unsigned n, const Key& k,
                      bool strict_right) const {
        const int c = comp_(k, leaf_max(leaf, n));
        return strict_right ? c < 0 : c <= 0;
    }

    // -- leaf layout v2 primitives (WithFingerprints; DESIGN.md §15) ---------

    /// Fingerprint membership probe: a physical slot in [0, n) holding a key
    /// equal to k, or -1. One AVX2 byte-compare nominates candidate slots;
    /// only those compare actual key elements. Racing callers (A = Access)
    /// trust the verdict only after validating the lease the probe ran
    /// under; phase reads pass SeqAccess.
    template <typename A = Access>
    int leaf_fp_find(const NodeT* leaf, unsigned n, const Key& k) const
        requires WithFingerprints
    {
        if (n > BlockSize) n = BlockSize; // torn count: stay in bounds
        return detail::simd::fp_find<A>(
            leaf->fp_bytes(), n, dtree::key_fingerprint(k),
            [&](unsigned slot) {
                return A::compare(comp_, leaf->keys[slot], k) == 0;
            });
    }

    /// Rank (merged-view position) of the first key >= k in a v2 leaf: the
    /// configured in-node search over the sorted prefix plus a linear count
    /// over the append zone. Phase reads only.
    unsigned leaf_rank_lower(const NodeT* leaf, unsigned n, const Key& k) const
        requires WithFingerprints
    {
        unsigned s = leaf->fp_sorted();
        if (s > n) s = n; // torn watermark
        unsigned r = detail::node_lower<Search, SeqAccess>(leaf, s, k, comp_);
        for (unsigned i = s; i < n; ++i) {
            if (comp_(leaf->keys[i], k) < 0) ++r;
        }
        return r;
    }

    /// Rank of the first key > k (upper bound twin of leaf_rank_lower).
    unsigned leaf_rank_upper(const NodeT* leaf, unsigned n, const Key& k) const
        requires WithFingerprints
    {
        unsigned s = leaf->fp_sorted();
        if (s > n) s = n;
        unsigned r = detail::node_upper<Search, SeqAccess>(leaf, s, k, comp_);
        for (unsigned i = s; i < n; ++i) {
            if (comp_(leaf->keys[i], k) <= 0) ++r;
        }
        return r;
    }

    /// The v2 in-leaf insert (exclusive access, leaf not full): write the
    /// key into slot n — key_store publishes the fingerprint byte with a
    /// release store AFTER the key elements — refresh the cached bounds,
    /// advance the sorted watermark when the append keeps the prefix
    /// sorted (ascending runs, the dominant Datalog pattern), then bump the
    /// count. No element ever moves.
    void leaf_append(NodeT* leaf, unsigned n, const Key& k)
        requires WithFingerprints
    {
        leaf->template key_store<Access>(n, k);
        if (n == 0) {
            Access::store(leaf->fpst.min_key, k);
            Access::store(leaf->fpst.max_key, k);
            leaf->fp_sorted_store(1);
        } else {
            if (Access::compare(comp_, leaf->fpst.min_key, k) > 0) {
                Access::store(leaf->fpst.min_key, k);
            }
            if (Access::compare(comp_, leaf->fpst.max_key, k) < 0) {
                Access::store(leaf->fpst.max_key, k);
            }
            if (leaf->fp_sorted() == n &&
                comp_(leaf->keys[n - 1], k) <= 0) { // exclusive: plain read
                leaf->fp_sorted_store(n + 1);
            }
        }
        leaf->num_elements.store(n + 1);
        DTREE_METRIC_INC(append_inserts);
    }

    /// Merges the append zone into the sorted prefix (exclusive access).
    /// The logical key set is unchanged, so there is NO snap_retain and
    /// mod_epoch stays untouched — snapshots resolve the leaf identically
    /// before and after. key_store rewrites fingerprints alongside.
    void leaf_consolidate(NodeT* leaf) requires WithFingerprints {
        const unsigned n = leaf->num_elements.load();
        const unsigned s = leaf->fp_sorted();
        if (s >= n) {
            if (s != n) leaf->fp_sorted_store(n); // normalise (fresh node)
            return;
        }
        DTREE_METRIC_INC(leaf_consolidations);
        Key buf[BlockSize];
        for (unsigned i = 0; i < n; ++i) buf[i] = leaf->keys[i]; // exclusive
        sort_tail(buf, s, n);
        for (unsigned i = 0; i < n; ++i) {
            leaf->template key_store<Access>(i, buf[i]);
        }
        leaf->fp_sorted_store(n);
        Access::store(leaf->fpst.min_key, buf[0]);
        Access::store(leaf->fpst.max_key, buf[n - 1]);
    }

    /// Marks a leaf wholly sorted and refreshes its cached bounds from its
    /// keys (exclusive access; used wherever a leaf is [re]built already in
    /// order: packed loads, bulk merges, split halves). No-op without v2.
    void fp_reset_leaf(NodeT* leaf) {
        if constexpr (WithFingerprints) {
            const unsigned n = leaf->num_elements.load();
            leaf->fp_sorted_store(n);
            if (n > 0) {
                Access::store(leaf->fpst.min_key, leaf->keys[0]);
                Access::store(leaf->fpst.max_key, leaf->keys[n - 1]);
            }
        } else {
            (void)leaf;
        }
    }

    /// Stable insertion sort of keys[s, n) into the sorted keys[0, s):
    /// strict `> 0` keeps prefix-before-tail at ties and tail entries in
    /// slot order — the exact order point inserts into a sorted leaf would
    /// have produced (what the iterator's merged view replays).
    void sort_tail(Key* keys, unsigned s, unsigned n) const {
        for (unsigned i = s; i < n; ++i) {
            const Key k = keys[i];
            unsigned j = i;
            while (j > 0 && comp_(keys[j - 1], k) > 0) {
                keys[j] = keys[j - 1];
                --j;
            }
            keys[j] = k;
        }
    }

    /// Iterator factory: v2 iterators carry the comparator (their merged
    /// leaf view orders ranks with it).
    const_iterator make_iter(const NodeT* n, unsigned pos) const {
        if constexpr (WithFingerprints) {
            return const_iterator(n, pos, comp_);
        } else {
            return const_iterator(n, pos);
        }
    }

    /// Where a phase-concurrent point probe found k: the node and physical
    /// slot of an equal key, or node == nullptr.
    struct ProbeHit {
        const NodeT* node = nullptr;
        unsigned slot = 0;
    };

    /// The point probe behind find() and contains(): hinted leaf first, else
    /// one descent. Inner separators are elements too, so membership can
    /// resolve on the way down. Phase reads only (SeqAccess, no lease).
    ProbeHit probe(const Key& k, operation_hints& hints) const {
        const NodeT* cur = root_.load();
        // Table 2 definition: every hinted operation is a hit or a miss, so a
        // cold (empty) hint slot — and an empty tree — count as misses too.
        if (!cur) {
            hints.stats.miss(HintKind::Contains);
            return {};
        }
        if (NodeT* leaf = hints.get(HintKind::Contains);
            leaf && leaf_covers<SeqAccess>(leaf, k)) {
            hints.stats.hit(HintKind::Contains);
            // The covering leaf would have to contain k.
            return leaf_probe(leaf, k, hints, hints.slots.get(HintKind::Contains));
        }
        hints.stats.miss(HintKind::Contains);
        for (;;) {
            if (!cur->inner) {
                hints.set(HintKind::Contains, const_cast<NodeT*>(cur));
                return leaf_probe(cur, k, hints, detail::kNoSlotHint);
            }
            const unsigned n = cur->num_elements.load();
            const unsigned pos =
                detail::node_lower<Search, SeqAccess>(cur, n, k, comp_);
            if (pos < n && comp_.equal(cur->keys[pos], k)) return {cur, pos};
            const NodeT* next = cur->as_inner()->children[pos].load();
            detail::prefetch_node(next);
            cur = next;
        }
    }

    /// Membership inside one leaf: the fingerprint probe on v2 leaves, the
    /// sorted search on v1 leaves, steered by `guess` unless it is
    /// kNoSlotHint (a fresh descent). Phase reads only.
    ProbeHit leaf_probe(const NodeT* leaf, const Key& k, operation_hints& hints,
                        [[maybe_unused]] std::uint32_t guess) const {
        const unsigned n = leaf->num_elements.load();
        if constexpr (WithFingerprints) {
            const int slot = leaf_fp_find<SeqAccess>(leaf, n, k);
            if (slot < 0) return {};
            return {leaf, static_cast<unsigned>(slot)};
        } else {
            const unsigned pos =
                guess == detail::kNoSlotHint
                    ? detail::node_lower<Search, SeqAccess>(leaf, n, k, comp_)
                    : detail::node_lower_hinted<Search, SeqAccess>(
                          leaf, n, k, comp_, guess);
            hints.slots.set(HintKind::Contains, pos);
            if (pos < n && comp_.equal(leaf->keys[pos], k)) return {leaf, pos};
            return {};
        }
    }

    static std::size_t count_subtree(const NodeT* n) {
        if (!n) return 0;
        std::size_t total = n->num_elements.load();
        if (n->inner) {
            const InnerT* in = n->as_inner();
            for (unsigned i = 0; i <= in->num_elements.load(); ++i) {
                total += count_subtree(in->children[i].load());
            }
        }
        return total;
    }

    static void collect_stats(const NodeT* n, std::size_t depth, tree_stats& s) {
        if (!n) return;
        s.elements += n->num_elements.load();
        s.depth = std::max(s.depth, depth);
        if (n->inner) {
            ++s.inner_nodes;
            s.memory_bytes += sizeof(InnerT);
            const InnerT* in = n->as_inner();
            for (unsigned i = 0; i <= in->num_elements.load(); ++i) {
                collect_stats(in->children[i].load(), depth + 1, s);
            }
        } else {
            ++s.leaf_nodes;
            s.memory_bytes += sizeof(NodeT);
        }
    }

    std::string check_leaf_v2(const NodeT* n, const Key* lo, const Key* hi,
                              unsigned cnt) const
        requires WithFingerprints
    {
        const unsigned s = n->fp_sorted();
        if (s > cnt) return "sorted watermark beyond count";
        for (unsigned i = 0; i + 1 < s; ++i) {
            if (comp_(n->keys[i], n->keys[i + 1]) >= 0) {
                return "unsorted v2 leaf prefix";
            }
        }
        for (unsigned i = 0; i < cnt; ++i) {
            for (unsigned j = i + 1; j < cnt; ++j) {
                if (comp_.equal(n->keys[i], n->keys[j])) {
                    return "duplicate key in v2 leaf";
                }
            }
        }
        for (unsigned i = 0; i < cnt; ++i) {
            if (n->fp_bytes()[i] != dtree::key_fingerprint(n->keys[i])) {
                return "stale fingerprint byte";
            }
        }
        unsigned mn = 0, mx = 0;
        for (unsigned i = 1; i < cnt; ++i) {
            if (comp_(n->keys[i], n->keys[mn]) < 0) mn = i;
            if (comp_(n->keys[mx], n->keys[i]) < 0) mx = i;
        }
        if (!comp_.equal(n->fpst.min_key, n->keys[mn])) return "stale cached min";
        if (!comp_.equal(n->fpst.max_key, n->keys[mx])) return "stale cached max";
        if (lo && comp_(*lo, n->keys[mn]) >= 0) {
            return "key below subtree lower bound";
        }
        if (hi && comp_(n->keys[mx], *hi) >= 0) {
            return "key above subtree upper bound";
        }
        return {};
    }

    /// `spine`: n is the last node on its level (the root, or the last
    /// child of a spine node).
    std::string check_node(const NodeT* n, const Key* lo, const Key* hi,
                           long depth, long& leaf_depth, bool spine) const {
        const unsigned cnt = n->num_elements.load();
        if (cnt == 0) return "empty node";
        if (cnt > BlockSize) return "over-full node";
        if (n->spine.load() != spine) {
            return spine ? "right-spine node without spine flag"
                         : "spine flag off the right spine";
        }
        // A node off the spine was left behind by a median split or by a
        // spine split keeping BlockSize-2 keys, and can since only have
        // grown or given keys to a sibling in a rotation that left both
        // leaves above half full: minimum fill is BlockSize/2 - 1. Spine
        // nodes may start with a single key (split_and_propagate).
        if (!spine && cnt + 1 < BlockSize / 2) return "under-filled node";
        if constexpr (WithFingerprints) {
            // v2 leaves are sorted only up to their watermark; their range
            // lives in the cached bounds, and every occupied slot carries a
            // fingerprint byte that must mirror its key.
            if (!n->inner) {
                if (auto err = check_leaf_v2(n, lo, hi, cnt); !err.empty()) {
                    return err;
                }
                if (leaf_depth == -1) leaf_depth = depth;
                if (leaf_depth != depth) return "leaves at different depths";
                return {};
            }
        }
        for (unsigned i = 0; i + 1 < cnt; ++i) {
            if (comp_(n->keys[i], n->keys[i + 1]) >= 0) return "unsorted keys";
        }
        // Separator bounds: child keys lie strictly between the surrounding
        // separators.
        if (lo && comp_(*lo, n->keys[0]) >= 0) {
            return "key below subtree lower bound";
        }
        if (hi && comp_(n->keys[cnt - 1], *hi) >= 0) {
            return "key above subtree upper bound";
        }
        if (!n->inner) {
            if (leaf_depth == -1) leaf_depth = depth;
            if (leaf_depth != depth) return "leaves at different depths";
            return {};
        }
        const InnerT* in = n->as_inner();
        for (unsigned i = 0; i <= cnt; ++i) {
            const NodeT* child = in->children[i].load();
            if (!child) return "missing child";
            if (child->parent.load() != in) return "bad parent back-link";
            if (child->position.load() != i) return "bad position back-link";
            const Key* clo = (i == 0) ? lo : &n->keys[i - 1];
            const Key* chi = (i == cnt) ? hi : &n->keys[i];
            if (auto err = check_node(child, clo, chi, depth + 1, leaf_depth,
                                      spine && i == cnt);
                !err.empty()) {
                return err;
            }
        }
        return {};
    }

    void steal(btree& other) {
        if constexpr (WithSnapshots) {
            // Snapshots pinned on *this* before the move must keep resolving
            // the outgoing tree: retire the old root into the version chain
            // and keep its subtree alive until clear()/destruction (the
            // never-free lifetime model, extended across move-assignment).
            // No writer is active during a move, but snapshot readers may be
            // resolving snap_root() concurrently (soufflette --serve-probe):
            // hold the root seqlock across the whole transition so their
            // leases fail and they retry against the published chain.
            root_lock_.start_write();
            NodeT* old_root = root_.load();
            snap_retain_root(old_root, snap_epoch_now());
            if (old_root) snap_.detached.push_back(old_root);
            // Any subtrees the donor was itself keeping alive become ours.
            snap_.detached.insert(snap_.detached.end(),
                                  other.snap_.detached.begin(),
                                  other.snap_.detached.end());
            other.snap_.detached.clear();
            other.snap_.root_versions.store(nullptr);
            other.snap_.root_mod_epoch.store(0);
            // Epochs only move forward, even across move-assignment — a
            // stale Snapshot must never alias a future boundary.
            const std::uint64_t oe =
                other.snap_.epoch.load(std::memory_order_seq_cst);
            if (oe > snap_.epoch.load(std::memory_order_seq_cst)) {
                snap_.epoch.store(oe, std::memory_order_seq_cst);
            }
            // Adopt the donor's retained images (its nodes become ours).
            // Their tags are epochs of the donor's clock: re-tag them with
            // the post-steal epoch, which bounds every boundary they serve.
            snap_.arena.adopt(std::move(other.snap_.arena),
                              snap_.epoch.load(std::memory_order_seq_cst));
            root_.store(other.root_.load());
            other.root_.store(nullptr);
            root_lock_.end_write();
        } else {
            root_.store(other.root_.load());
            other.root_.store(nullptr);
        }
    }

    // -- state ---------------------------------------------------------------

    /// Root pointer; protected by root_lock_ (§3.1: "an additional root_lock
    /// protects the root node pointer").
    relaxed_value<NodeT*, concurrent> root_{nullptr};
    OptimisticReadWriteLock root_lock_;
    [[no_unique_address]] Compare comp_;
    /// Epoch/snapshot state; empty (zero-size) unless WithSnapshots. Mutable
    /// because pinning a snapshot from a const tree bumps the pin counter.
    [[no_unique_address]] mutable SnapStateT snap_;
};

// ---------------------------------------------------------------------------
// Public aliases — the configurations named in the paper's evaluation.
// ---------------------------------------------------------------------------

/// "btree": the concurrent set (pass operation_hints for the hinted flavour).
template <typename Key, typename Compare = ThreeWayComparator<Key>,
          unsigned BlockSize = detail::default_block_size<Key>(),
          typename Search = detail::DefaultSearch<Key, Compare, BlockSize>>
using btree_set = btree<Key, Compare, BlockSize, Search, ConcurrentAccess>;

/// "seq btree": identical structure, zero synchronisation cost.
template <typename Key, typename Compare = ThreeWayComparator<Key>,
          unsigned BlockSize = detail::default_block_size<Key>(),
          typename Search = detail::DefaultSearch<Key, Compare, BlockSize>>
using seq_btree_set = btree<Key, Compare, BlockSize, Search, SeqAccess>;

/// Snapshot-enabled set (DESIGN.md §11): the concurrent tree plus the
/// epoch/Snapshot API. The plain aliases above stay bit-identical to the
/// paper-faithful layout — their per-node SnapState is an empty member.
template <typename Key, typename Compare = ThreeWayComparator<Key>,
          unsigned BlockSize = detail::default_block_size<Key>(),
          typename Search = detail::DefaultSearch<Key, Compare, BlockSize>>
using snapshot_btree_set =
    btree<Key, Compare, BlockSize, Search, ConcurrentAccess, true>;

/// Leaf-layout-v2 set (DESIGN.md §15): per-leaf fingerprint arrays
/// answering membership with SIMD byte compares, plus append-zone inserts
/// that never shift elements. The plain aliases above stay bit-identical to
/// the paper-faithful layout — their FpState is an empty member and every
/// v2 branch folds out.
template <typename Key, typename Compare = ThreeWayComparator<Key>,
          unsigned BlockSize = detail::default_block_size<Key>(),
          typename Search = detail::DefaultSearch<Key, Compare, BlockSize>>
using fp_btree_set =
    btree<Key, Compare, BlockSize, Search, ConcurrentAccess, false, true>;

} // namespace dtree
