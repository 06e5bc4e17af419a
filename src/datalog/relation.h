#pragma once

// Relation storage for the soufflette engine.
//
// A Relation is a set of fixed-arity tuples held in one or more *indexes*:
// copies of the tuple set stored under permuted column orders, so that every
// body-atom lookup the program needs is a single range query (see
// index_selection.h). The actual container is a template parameter — this is
// the seam where the paper's Fig. 5 experiment plugs in the specialized
// B-tree, the STL containers, the concurrent hash set, etc.
//
// Threading contract = the paper's phase-concurrency (§2): during a rule
// evaluation phase many threads insert into the *new* relations and read the
// *full/delta* relations; no relation is read and written in the same phase.
// Storage adapters must be thread-safe for insert if the engine runs with
// more than one thread.
//
// Per-thread LocalView objects carry the adapter's per-thread state
// (operation hints!) and plain op counters that are aggregated afterwards —
// this is what produces the Table 2 statistics and the §4.3 hint hit rates.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/hints.h"
#include "datalog/ast.h"
#include "datalog/index_selection.h"

namespace dtree::datalog {

/// Computes the half-open storage range covering every tuple whose first
/// `prefix` columns equal `bound[0..prefix)`: `lo` is the prefix zero-padded,
/// `hi` the prefix incremented as a number with carry. Returns false when the
/// range has no exclusive upper bound (prefix == 0, or all prefix columns are
/// already at max) — callers must then scan to the end and filter. Shared by
/// the snapshot scan, the quiescent Relation scan, and the wire-protocol
/// RANGE handler so all three agree on range semantics.
inline bool prefix_bounds(const StorageTuple& bound, unsigned prefix,
                          StorageTuple& lo, StorageTuple& hi) {
    lo = StorageTuple{};
    hi = StorageTuple{};
    for (unsigned c = 0; c < prefix; ++c) {
        lo[c] = bound[c];
        hi[c] = bound[c];
    }
    for (unsigned c = prefix; c-- > 0;) {
        if (hi[c] != std::numeric_limits<Value>::max()) {
            ++hi[c];
            for (unsigned d = c + 1; d < kMaxArity; ++d) hi[d] = 0;
            return true;
        }
    }
    return false;
}

/// Operation counters (Table 2's "Evaluation Statistics" row group).
struct OpCounters {
    std::uint64_t inserts = 0;
    std::uint64_t membership_tests = 0;
    std::uint64_t lower_bound_calls = 0;
    std::uint64_t upper_bound_calls = 0;

    OpCounters& operator+=(const OpCounters& o) {
        inserts += o.inserts;
        membership_tests += o.membership_tests;
        lower_bound_calls += o.lower_bound_calls;
        upper_bound_calls += o.upper_bound_calls;
        return *this;
    }
};

template <typename Storage>
class Relation {
public:
    Relation(std::string name, unsigned arity, std::vector<IndexOrder> orders)
        : name_(std::move(name)), arity_(arity), orders_(std::move(orders)) {
        if constexpr (!Storage::ordered) {
            // Unordered storage cannot serve range queries; secondary
            // indexes would be pure overhead. Keep only the primary.
            orders_.resize(1);
        }
        for (std::size_t i = 0; i < orders_.size(); ++i) {
            indexes_.push_back(std::make_unique<Storage>());
        }
    }

    const std::string& name() const { return name_; }
    unsigned arity() const { return arity_; }
    std::size_t index_count() const { return orders_.size(); }
    const IndexOrder& order(unsigned idx) const { return orders_[idx]; }

    bool empty() const {
        // O(1) where the storage offers it; the concurrent B-tree keeps no
        // element counter (size() walks the tree), so this matters: the
        // fixpoint loop checks delta emptiness every iteration.
        if constexpr (requires(const Storage& s) { s.empty(); }) {
            return indexes_[0]->empty();
        } else {
            return indexes_[0]->size() == 0;
        }
    }
    std::size_t size() const { return indexes_[0]->size(); }

    /// Sequential insert (loading facts, tests). Not counted.
    bool insert(const StorageTuple& t) {
        const bool fresh = indexes_[0]->insert(permute(t, 0));
        if (fresh) {
            for (unsigned i = 1; i < indexes_.size(); ++i) {
                indexes_[i]->insert(permute(t, i));
            }
        }
        return fresh;
    }

    /// Unsynchronised full scan over the primary index (tuples come back in
    /// source column order; primary order is the identity permutation).
    template <typename Fn>
    void for_each(Fn&& fn) const {
        indexes_[0]->for_each(fn);
    }

    /// Moves the contents of another relation in (delta := new).
    void swap_contents(Relation& other) { indexes_.swap(other.indexes_); }

    // -- sorted bulk merge (delta->full rotation) ----------------------------

    /// Does the storage expose the full bulk-merge surface (sorted iteration,
    /// bound slicing, separator sampling, packed build)? True for the B-tree
    /// adapters; false routes the evaluator to the generic point-insert path.
    static constexpr bool bulk_mergeable = requires(
        Storage& s, const Storage& cs, typename Storage::local& l,
        const StorageTuple& t) {
        l.insert_sorted_run(cs.begin(), cs.end());
        cs.lower_bound(t);
        cs.partition_keys(std::size_t{});
        s.build_sorted(cs.begin(), cs.end(), std::size_t{});
    };

    bool index_empty(unsigned idx) const
        requires(bulk_mergeable)
    {
        return indexes_[idx]->empty();
    }

    /// Separator keys splitting index `idx`'s key space into ~`target`
    /// ranges of similar weight (keys are in the INDEX's permuted order).
    std::vector<StorageTuple> partition_keys(unsigned idx, std::size_t target) const
        requires(bulk_mergeable)
    {
        return indexes_[idx]->partition_keys(target);
    }

    /// Packed O(n) rebuild of index `idx` from the same index of `src`
    /// (identical index orders assumed — the evaluator's scratch relations
    /// share the relation's order list). Precondition: this index is empty.
    void bulk_load_index_from(unsigned idx, const Relation& src)
        requires(bulk_mergeable)
    {
        const Storage& s = *src.indexes_[idx];
        indexes_[idx]->build_sorted(s.begin(), s.end(), src.size());
    }

    void clear() {
        for (auto& idx : indexes_) idx->clear();
    }

    /// Packed load of an ingest batch into an EMPTY relation: `sorted` must
    /// be sorted and deduplicated in source column order (= the primary
    /// index's order). The primary gets a direct packed build; each
    /// secondary permutes the batch, re-sorts, and packed-builds, so a
    /// group-committed serve batch becomes a delta relation in O(n log n)
    /// without touching the point-insert path. Falls back to sequential
    /// inserts for storages without the bulk surface.
    void load_sorted_batch(const std::vector<StorageTuple>& sorted) {
        if constexpr (bulk_mergeable) {
            indexes_[0]->build_sorted(sorted.begin(), sorted.end(), sorted.size());
            std::vector<StorageTuple> scratch;
            for (unsigned i = 1; i < indexes_.size(); ++i) {
                scratch.resize(sorted.size());
                for (std::size_t j = 0; j < sorted.size(); ++j) {
                    scratch[j] = permute(sorted[j], i);
                }
                std::sort(scratch.begin(), scratch.end());
                indexes_[i]->build_sorted(scratch.begin(), scratch.end(),
                                          scratch.size());
            }
        } else {
            for (const auto& t : sorted) insert(t);
        }
    }

    // -- tree shape -----------------------------------------------------------

    /// True for storages backed by the B-tree (index_shape is available).
    static constexpr bool shape_capable =
        requires(const Storage& s) { s.tree().stats(); };

    /// Shape of index `idx` (the tree's tree_stats: elements, leaf and inner
    /// nodes, depth, bytes, keys per node): how full the split policy and
    /// the relation's insert pattern left it. O(#nodes) tree walk; reads the
    /// tree unsynchronised, so call it while no writer runs.
    auto index_shape(unsigned idx) const
        requires(shape_capable)
    {
        return indexes_[idx]->tree().stats();
    }

    // -- snapshot reads (DESIGN.md §11) --------------------------------------

    /// Does the storage expose the epoch/snapshot surface? True for the
    /// snapshot-enabled B-tree adapter (storage::OurBTreeSnap); false keeps
    /// the paper-faithful phase-concurrent contract untouched.
    static constexpr bool snapshot_capable =
        requires(const Storage& cs, Storage& s) {
            cs.snapshot();
            s.advance_epoch();
        };

    /// A pinned, consistent view of this relation: every query observes
    /// exactly the tuples published up to one epoch boundary, CONCURRENTLY
    /// with evaluation threads inserting. Queries run against the primary
    /// index (tuples come back in source column order). Valid until the
    /// relation is cleared or destroyed.
    class SnapshotView {
    public:
        std::uint64_t epoch() const { return snap_.epoch(); }

        bool contains(const StorageTuple& t) const { return snap_.contains(t); }

        template <typename Fn>
        void for_each(Fn&& fn) const {
            snap_.for_each(fn);
        }

        /// All tuples whose first `prefix` columns equal `bound[0..prefix)`,
        /// in lexicographic order (the snapshot analogue of scan_prefix on
        /// the primary index).
        template <typename Fn>
        void scan_prefix(const StorageTuple& bound, unsigned prefix,
                         Fn&& fn) const {
            StorageTuple lo, hi;
            if (!prefix_bounds(bound, prefix, lo, hi)) {
                snap_.for_each([&](const StorageTuple& t) {
                    for (unsigned c = 0; c < prefix; ++c) {
                        if (t[c] < lo[c]) return;
                    }
                    fn(t);
                });
            } else {
                snap_.for_each_in_range(lo, hi, fn);
            }
        }

        /// Tuple count at the pinned boundary (walks the snapshot: O(n)).
        std::size_t size() const { return snap_.size(); }

    private:
        friend class Relation;
        explicit SnapshotView(typename Storage::snapshot_type s)
            : snap_(std::move(s)) {}

        typename Storage::snapshot_type snap_;
    };

    /// Pins a snapshot of the primary index at the current epoch boundary.
    /// Thread-safe against concurrent evaluation.
    SnapshotView snapshot() const
        requires(snapshot_capable)
    {
        return SnapshotView(indexes_[0]->snapshot());
    }

    /// Publishes all tuples inserted so far to future snapshots (every
    /// index advances; the primary's new epoch is returned). Called by the
    /// evaluator at each delta->full rotation.
    std::uint64_t advance_epoch()
        requires(snapshot_capable)
    {
        std::uint64_t e = 0;
        for (auto& idx : indexes_) e = idx->advance_epoch();
        return e;
    }

    /// Aggregated epoch-retention stats over every index of this relation.
    auto snap_stats() const
        requires(snapshot_capable)
    {
        decltype(indexes_[0]->snap_stats()) total{};
        for (const auto& idx : indexes_) {
            const auto s = idx->snap_stats();
            total.epoch = std::max(total.epoch, s.epoch);
            total.advances += s.advances;
            total.pins += s.pins;
            total.cow_images += s.cow_images;
            total.retained_bytes += s.retained_bytes;
            total.cow_bytes += s.cow_bytes;
        }
        return total;
    }

    // -- quiescent reads -----------------------------------------------------
    // Read surface for a QUIESCENT engine (the stdin serve loop between
    // commits, tests): unsynchronised against writers. Concurrent readers —
    // the wire-protocol sessions — must pin snapshot() instead.

    /// Membership test on the primary index. Unordered storages fall back to
    /// a full scan (they serve no ranged lookup outside evaluation).
    bool contains(const StorageTuple& t) const {
        if constexpr (requires(const Storage& s) {
                          s.contains(std::declval<const StorageTuple&>());
                      }) {
            return indexes_[0]->contains(t);
        } else {
            bool found = false;
            indexes_[0]->for_each([&](const StorageTuple& u) {
                if (u == t) found = true;
            });
            return found;
        }
    }

    /// All tuples whose first `prefix` columns equal `bound[0..prefix)`, in
    /// lexicographic order on ordered storages (primary index; tuples come
    /// back in source column order).
    template <typename Fn>
    void scan_prefix(const StorageTuple& bound, unsigned prefix, Fn&& fn) const {
        StorageTuple lo, hi;
        const bool bounded = prefix_bounds(bound, prefix, lo, hi);
        auto filtered = [&](const StorageTuple& t) {
            for (unsigned c = 0; c < prefix; ++c) {
                if (t[c] != bound[c]) return;
            }
            fn(t);
        };
        if constexpr (Storage::ordered) {
            if (bounded) {
                indexes_[0]->for_each_in_range(lo, hi, fn);
            } else {
                indexes_[0]->for_each(filtered);
            }
        } else {
            indexes_[0]->for_each(filtered);
        }
    }

    /// Aggregated counters from all retired LocalViews.
    OpCounters counters() const {
        OpCounters c;
        c.inserts = inserts_.load(std::memory_order_relaxed);
        c.membership_tests = membership_.load(std::memory_order_relaxed);
        c.lower_bound_calls = lower_.load(std::memory_order_relaxed);
        c.upper_bound_calls = upper_.load(std::memory_order_relaxed);
        return c;
    }

    /// Aggregated hint statistics from all retired LocalViews (zero for
    /// storages without hints).
    HintStats hint_stats() const {
        HintStats s;
        for (int i = 0; i < 4; ++i) {
            s.hits[i] = hint_hits_[i].load(std::memory_order_relaxed);
            s.misses[i] = hint_misses_[i].load(std::memory_order_relaxed);
        }
        return s;
    }

    // -- per-thread access ---------------------------------------------------

    /// A thread's private handle: adapter-local state (hints) + counters.
    /// Destroying the view flushes its counters into the relation.
    class LocalView {
    public:
        LocalView(Relation& rel, unsigned tid) : rel_(&rel) {
            locals_.reserve(rel.indexes_.size());
            for (auto& idx : rel.indexes_) locals_.push_back(idx->make_local(tid));
        }

        LocalView(LocalView&& o) noexcept
            : rel_(o.rel_), locals_(std::move(o.locals_)), counters_(o.counters_) {
            o.rel_ = nullptr; // the moved-from view must not retire
        }
        LocalView(const LocalView&) = delete;

        ~LocalView() {
            if (rel_) rel_->retire(*this);
        }

        /// Thread-safe insert into every index (set semantics decided by the
        /// primary).
        bool insert(const StorageTuple& t) {
            ++counters_.inserts;
            const bool fresh = locals_[0].insert(rel_->permute(t, 0));
            if (fresh) {
                for (unsigned i = 1; i < locals_.size(); ++i) {
                    locals_[i].insert(rel_->permute(t, i));
                }
            }
            return fresh;
        }

        /// Membership test on the primary index (hinted where supported).
        bool contains(const StorageTuple& t) {
            ++counters_.membership_tests;
            return locals_[0].contains(rel_->permute(t, 0));
        }

        /// Range query: all tuples whose first `prefix` columns of index
        /// `idx` equal `bound[0..prefix)`; fn receives tuples in SOURCE
        /// column order.
        template <typename Fn>
        void scan_prefix(unsigned idx, const StorageTuple& bound, unsigned prefix,
                         Fn&& fn) {
            ++counters_.lower_bound_calls;
            ++counters_.upper_bound_calls;
            StorageTuple lo, hi;
            for (unsigned c = 0; c < kMaxArity; ++c) {
                if (c < prefix) {
                    lo[c] = bound[c];
                    hi[c] = bound[c];
                } else {
                    lo[c] = 0;
                    hi[c] = std::numeric_limits<Value>::max();
                }
            }
            const IndexOrder& order = rel_->orders_[idx];
            if constexpr (has_local_range) {
                locals_[idx].for_each_in_range(lo, hi, [&](const StorageTuple& stored) {
                    fn(rel_->unpermute(stored, order));
                });
            } else {
                rel_->indexes_[idx]->for_each_in_range(
                    lo, hi,
                    [&](const StorageTuple& stored) { fn(rel_->unpermute(stored, order)); });
            }
        }

        /// Full scan (primary index).
        template <typename Fn>
        void scan_all(Fn&& fn) {
            rel_->indexes_[0]->for_each(fn);
        }

        /// Streams the [lo, hi) slice — nullptr = open end — of `src`'s
        /// index `idx` into the same index of this view's relation as ONE
        /// sorted run: no staging vector, one descent + lock upgrade per
        /// leaf segment. Bounds are keys in the index's permuted order
        /// (e.g. from partition_keys), so disjoint slices land in disjoint
        /// leaf ranges and workers merging them rarely contend. Returns the
        /// number of genuinely new tuples.
        std::size_t insert_sorted_run(unsigned idx, const Relation& src,
                                      const StorageTuple* lo,
                                      const StorageTuple* hi)
            requires(bulk_mergeable)
        {
            const Storage& s = *src.indexes_[idx];
            auto first = lo ? s.lower_bound(*lo) : s.begin();
            auto last = hi ? s.lower_bound(*hi) : s.end();
            const std::size_t fresh = locals_[idx].insert_sorted_run(first, last);
            // Table 2 accounting: the primary index decides set semantics,
            // and NEW is disjoint from FULL by construction (the engine
            // filters against FULL before inserting into NEW), so every
            // streamed tuple is one logical insert.
            if (idx == 0) counters_.inserts += fresh;
            return fresh;
        }

        const OpCounters& counters() const { return counters_; }

    private:
        friend class Relation;

        static constexpr bool has_local_range = requires(
            typename Storage::local& l, const StorageTuple& t) {
            l.for_each_in_range(t, t, [](const StorageTuple&) {});
        };

        Relation* rel_;
        std::vector<typename Storage::local> locals_;
        OpCounters counters_;
    };

    LocalView local_view(unsigned tid) { return LocalView(*this, tid); }

private:
    friend class LocalView;

    StorageTuple permute(const StorageTuple& t, unsigned idx) const {
        const IndexOrder& o = orders_[idx];
        if (idx == 0) return t; // primary is the identity
        StorageTuple out;
        for (unsigned c = 0; c < o.arity; ++c) out[c] = t[o.order[c]];
        return out;
    }

    StorageTuple unpermute(const StorageTuple& stored, const IndexOrder& o) const {
        if (&o == &orders_[0]) return stored;
        StorageTuple out;
        for (unsigned c = 0; c < o.arity; ++c) out[o.order[c]] = stored[c];
        return out;
    }

    void retire(LocalView& view) {
        inserts_.fetch_add(view.counters_.inserts, std::memory_order_relaxed);
        membership_.fetch_add(view.counters_.membership_tests, std::memory_order_relaxed);
        lower_.fetch_add(view.counters_.lower_bound_calls, std::memory_order_relaxed);
        upper_.fetch_add(view.counters_.upper_bound_calls, std::memory_order_relaxed);
        if constexpr (requires(typename Storage::local& l) { l.stats(); }) {
            for (auto& local : view.locals_) {
                const HintStats& s = local.stats();
                for (int i = 0; i < 4; ++i) {
                    hint_hits_[i].fetch_add(s.hits[i], std::memory_order_relaxed);
                    hint_misses_[i].fetch_add(s.misses[i], std::memory_order_relaxed);
                }
            }
        }
    }

    std::string name_;
    unsigned arity_;
    std::vector<IndexOrder> orders_;
    std::vector<std::unique_ptr<Storage>> indexes_;

    std::atomic<std::uint64_t> inserts_{0}, membership_{0}, lower_{0}, upper_{0};
    std::atomic<std::uint64_t> hint_hits_[4] = {};
    std::atomic<std::uint64_t> hint_misses_[4] = {};
};

} // namespace dtree::datalog
