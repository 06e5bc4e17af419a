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
// Per-arity keys (DESIGN.md §17): the storage is named by its padded
// StorageTuple instantiation, but an arity-A relation stores every index
// under Tuple<A> — the storage re-keyed with rebind_storage_t, so a binary
// relation's B-tree holds 16-byte keys at its own default block size. The
// arity is picked once, at construction; every call switches on it. Keys
// narrow on the way in (tuples, bounds, separators) and widen, zero-filled,
// on the way out: StorageTuple stays the type at the Relation boundary.
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
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
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
/// the snapshot scan and the wire-protocol RANGE handler so both agree on
/// range semantics.
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

// -- re-keying a storage -------------------------------------------------------

/// `rebind_storage<Storage, Key>::type` is `Storage` holding `Key` elements.
/// An adapter re-keys itself through a member `template <class K> using
/// rebind`; a single-argument wrapper without one (GlobalLockAdapter<Inner>,
/// a timing wrapper) is re-keyed through its argument. Anything else has no
/// definition here, so a storage that cannot be re-keyed fails to compile
/// rather than keep padded keys.
template <typename Storage, typename Key>
struct rebind_storage;

template <typename Storage, typename Key>
    requires requires { typename Storage::template rebind<Key>; }
struct rebind_storage<Storage, Key> {
    using type = typename Storage::template rebind<Key>;
};

template <template <typename> class Wrapper, typename Inner, typename Key>
    requires(!requires { typename Wrapper<Inner>::template rebind<Key>; })
struct rebind_storage<Wrapper<Inner>, Key> {
    using type = Wrapper<typename rebind_storage<Inner, Key>::type>;
};

template <typename Storage, typename Key>
using rebind_storage_t = typename rebind_storage<Storage, Key>::type;

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

namespace relation_detail {

template <std::size_t A>
using Arity = std::integral_constant<std::size_t, A>;

/// The first A columns of a padded tuple.
template <std::size_t A>
Tuple<A> narrow(const StorageTuple& t) {
    Tuple<A> out;
    for (std::size_t c = 0; c < A; ++c) out[c] = t[c];
    return out;
}

/// A stored key as a StorageTuple, columns past A zero.
template <std::size_t A>
StorageTuple widen(const Tuple<A>& k) {
    StorageTuple out{};
    for (std::size_t c = 0; c < A; ++c) out[c] = k[c];
    return out;
}

/// The sorted bulk-merge surface (sorted iteration, bound slicing, separator
/// sampling, packed build) on one index storage.
template <typename S>
concept bulk_merge_storage =
    requires(S& s, const S& cs, typename S::local& l, const typename S::key_type& k) {
        l.insert_sorted_run(cs.begin(), cs.end());
        cs.lower_bound(k);
        cs.partition_keys(std::size_t{});
        s.build_sorted(cs.begin(), cs.end(), std::size_t{});
    };

template <typename S>
concept shape_storage = requires(const S& s) { s.tree().stats(); };

template <typename S>
concept snapshot_storage = requires(const S& cs, S& s) {
    cs.snapshot();
    s.advance_epoch();
};

} // namespace relation_detail

template <typename Storage>
class Relation {
    template <std::size_t A>
    using Arity = relation_detail::Arity<A>;

public:
    /// The storage of each index of an arity-A relation: `Storage` re-keyed
    /// to Tuple<A> (DESIGN.md §17).
    template <std::size_t A>
    using index_type = rebind_storage_t<Storage, Tuple<A>>;

    Relation(std::string name, unsigned arity, std::vector<IndexOrder> orders)
        : name_(std::move(name)), arity_(arity), orders_(std::move(orders)) {
        if (arity_ == 0 || arity_ > kMaxArity) {
            throw std::invalid_argument("relation " + name_ + ": arity " +
                                        std::to_string(arity_) + " outside 1.." +
                                        std::to_string(kMaxArity));
        }
        if constexpr (!Storage::ordered) {
            // Unordered storage cannot serve range queries; secondary
            // indexes would be pure overhead. Keep only the primary.
            orders_.resize(1);
        }
        with_arity([&](auto a) {
            constexpr std::size_t A = decltype(a)::value;
            auto& set = indexes_.template emplace<A - 1>();
            for (std::size_t i = 0; i < orders_.size(); ++i) {
                set.push_back(std::make_unique<index_type<A>>());
            }
        });
    }

    const std::string& name() const { return name_; }
    unsigned arity() const { return arity_; }
    std::size_t index_count() const { return orders_.size(); }
    const IndexOrder& order(unsigned idx) const { return orders_[idx]; }

    bool empty() const {
        // O(1) where the storage offers it; the concurrent B-tree keeps no
        // element counter (size() walks the tree), so this matters: the
        // fixpoint loop checks delta emptiness every iteration.
        return with_arity([&](auto a) {
            constexpr std::size_t A = decltype(a)::value;
            const auto& primary = *indexes<A>()[0];
            if constexpr (requires { primary.empty(); }) {
                return primary.empty();
            } else {
                return primary.size() == 0;
            }
        });
    }
    std::size_t size() const {
        return with_arity([&](auto a) { return indexes<decltype(a)::value>()[0]->size(); });
    }

    /// Sequential insert (loading facts, tests). Not counted. Columns past
    /// the arity are not stored: the engine rejects facts that set them.
    bool insert(const StorageTuple& t) {
        return with_arity([&](auto a) {
            constexpr std::size_t A = decltype(a)::value;
            auto& set = indexes<A>();
            const bool fresh = set[0]->insert(permute<A>(t, 0));
            if (fresh) {
                for (unsigned i = 1; i < set.size(); ++i) {
                    set[i]->insert(permute<A>(t, i));
                }
            }
            return fresh;
        });
    }

    /// Unsynchronised full scan over the primary index (tuples come back in
    /// source column order, zero-padded).
    template <typename Fn>
    void for_each(Fn&& fn) const {
        with_arity([&](auto a) {
            constexpr std::size_t A = decltype(a)::value;
            indexes<A>()[0]->for_each(
                [&](const Tuple<A>& k) { fn(relation_detail::widen<A>(k)); });
        });
    }

    /// Moves the contents of another relation of the same arity in
    /// (delta := new).
    void swap_contents(Relation& other) { indexes_.swap(other.indexes_); }

    // -- sorted bulk merge (delta->full rotation) ----------------------------

    /// Does the storage expose the full bulk-merge surface at every arity?
    /// True for the B-tree adapters; false routes the evaluator to the
    /// generic point-insert path.
    static constexpr bool bulk_mergeable =
        relation_detail::bulk_merge_storage<index_type<1>> &&
        relation_detail::bulk_merge_storage<index_type<2>> &&
        relation_detail::bulk_merge_storage<index_type<3>> &&
        relation_detail::bulk_merge_storage<index_type<4>>;

    bool index_empty(unsigned idx) const
        requires(bulk_mergeable)
    {
        return with_arity([&](auto a) { return indexes<decltype(a)::value>()[idx]->empty(); });
    }

    /// Separator keys splitting index `idx`'s key space into ~`target`
    /// ranges of similar weight (keys are in the INDEX's permuted order,
    /// zero-padded).
    std::vector<StorageTuple> partition_keys(unsigned idx, std::size_t target) const
        requires(bulk_mergeable)
    {
        return with_arity([&](auto a) {
            constexpr std::size_t A = decltype(a)::value;
            std::vector<StorageTuple> out;
            for (const auto& k : indexes<A>()[idx]->partition_keys(target)) {
                out.push_back(relation_detail::widen<A>(k));
            }
            return out;
        });
    }

    /// Packed O(n) rebuild of index `idx` from the same index of `src`
    /// (identical arity and index orders assumed — the evaluator's scratch
    /// relations share the relation's order list). Precondition: this index
    /// is empty.
    void bulk_load_index_from(unsigned idx, const Relation& src)
        requires(bulk_mergeable)
    {
        with_arity([&](auto a) {
            constexpr std::size_t A = decltype(a)::value;
            const auto& s = *src.indexes<A>()[idx];
            indexes<A>()[idx]->build_sorted(s.begin(), s.end(), src.size());
        });
    }

    void clear() {
        with_arity([&](auto a) {
            constexpr std::size_t A = decltype(a)::value;
            for (auto& idx : indexes<A>()) idx->clear();
        });
    }

    /// Packed load of an ingest batch into an EMPTY relation: `sorted` must
    /// be sorted and deduplicated in source column order (= the primary
    /// index's order). Every index permutes the batch into its own key type,
    /// re-sorts (secondaries only) and packed-builds, so a group-committed
    /// serve batch becomes a delta relation in O(n log n) without touching
    /// the point-insert path. Falls back to sequential inserts for storages
    /// without the bulk surface.
    void load_sorted_batch(const std::vector<StorageTuple>& sorted) {
        if constexpr (bulk_mergeable) {
            with_arity([&](auto a) {
                constexpr std::size_t A = decltype(a)::value;
                auto& set = indexes<A>();
                std::vector<Tuple<A>> keys(sorted.size());
                for (unsigned i = 0; i < set.size(); ++i) {
                    for (std::size_t j = 0; j < sorted.size(); ++j) {
                        keys[j] = permute<A>(sorted[j], i);
                    }
                    if (i != 0) std::sort(keys.begin(), keys.end());
                    set[i]->build_sorted(keys.begin(), keys.end(), keys.size());
                }
            });
        } else {
            for (const auto& t : sorted) insert(t);
        }
    }

    // -- tree shape -----------------------------------------------------------

    /// True for storages backed by the B-tree (index_shape is available).
    static constexpr bool shape_capable =
        relation_detail::shape_storage<index_type<1>> &&
        relation_detail::shape_storage<index_type<2>> &&
        relation_detail::shape_storage<index_type<3>> &&
        relation_detail::shape_storage<index_type<4>>;

    /// Shape of index `idx` (the tree's tree_stats: elements, leaf and inner
    /// nodes, depth, bytes, block size, keys per node): how full the split
    /// policy and the relation's insert pattern left it. One stats type for
    /// every arity. O(#nodes) tree walk; reads the tree unsynchronised, so
    /// call it while no writer runs.
    auto index_shape(unsigned idx) const
        requires(shape_capable)
    {
        return with_arity(
            [&](auto a) { return indexes<decltype(a)::value>()[idx]->tree().stats(); });
    }

    // -- snapshot reads (DESIGN.md §11) --------------------------------------

    /// Does the storage expose the epoch/snapshot surface? True for the
    /// snapshot-enabled B-tree adapter (storage::OurBTreeSnap); false keeps
    /// the paper-faithful phase-concurrent contract untouched.
    static constexpr bool snapshot_capable =
        relation_detail::snapshot_storage<index_type<1>> &&
        relation_detail::snapshot_storage<index_type<2>> &&
        relation_detail::snapshot_storage<index_type<3>> &&
        relation_detail::snapshot_storage<index_type<4>>;

    /// A pinned, consistent view of this relation: every query observes
    /// exactly the tuples published up to one epoch boundary, CONCURRENTLY
    /// with evaluation threads inserting. Queries run against the primary
    /// index (tuples come back in source column order, zero-padded). Valid
    /// until the relation is cleared or destroyed.
    class SnapshotView {
        template <std::size_t A>
        using Snap = typename index_type<A>::snapshot_type;

    public:
        std::uint64_t epoch() const {
            return with_snap([](auto, const auto& s) { return s.epoch(); });
        }

        bool contains(const StorageTuple& t) const {
            return with_snap([&](auto a, const auto& s) {
                return s.contains(relation_detail::narrow<decltype(a)::value>(t));
            });
        }

        template <typename Fn>
        void for_each(Fn&& fn) const {
            with_snap([&](auto a, const auto& s) {
                constexpr std::size_t A = decltype(a)::value;
                s.for_each([&](const Tuple<A>& k) { fn(relation_detail::widen<A>(k)); });
            });
        }

        /// All tuples whose first `prefix` columns equal `bound[0..prefix)`,
        /// in lexicographic order (the snapshot analogue of scan_prefix on
        /// the primary index).
        template <typename Fn>
        void scan_prefix(const StorageTuple& bound, unsigned prefix,
                         Fn&& fn) const {
            StorageTuple lo, hi;
            const bool bounded = prefix_bounds(bound, prefix, lo, hi);
            with_snap([&](auto a, const auto& s) {
                constexpr std::size_t A = decltype(a)::value;
                auto emit = [&](const Tuple<A>& k) { fn(relation_detail::widen<A>(k)); };
                if (bounded) {
                    s.for_each_in_range(relation_detail::narrow<A>(lo),
                                        relation_detail::narrow<A>(hi), emit);
                    return;
                }
                s.for_each([&](const Tuple<A>& k) {
                    for (unsigned c = 0; c < prefix; ++c) {
                        if (k[c] < lo[c]) return;
                    }
                    emit(k);
                });
            });
        }

        /// Tuple count at the pinned boundary (walks the snapshot: O(n)).
        std::size_t size() const {
            return with_snap([](auto, const auto& s) { return s.size(); });
        }

    private:
        friend class Relation;
        using Snaps = std::variant<Snap<1>, Snap<2>, Snap<3>, Snap<4>>;

        explicit SnapshotView(Snaps s) : snap_(std::move(s)) {}

        /// Calls fn(Arity<A>{}, snapshot) for the pinned relation's arity A.
        template <typename Fn>
        decltype(auto) with_snap(Fn&& fn) const {
            switch (snap_.index()) {
                case 0: return fn(Arity<1>{}, *std::get_if<0>(&snap_));
                case 1: return fn(Arity<2>{}, *std::get_if<1>(&snap_));
                case 2: return fn(Arity<3>{}, *std::get_if<2>(&snap_));
                default: return fn(Arity<4>{}, *std::get_if<3>(&snap_));
            }
        }

        Snaps snap_;
    };

    /// Pins a snapshot of the primary index at the current epoch boundary.
    /// Thread-safe against concurrent evaluation.
    SnapshotView snapshot() const
        requires(snapshot_capable)
    {
        return with_arity([&](auto a) {
            constexpr std::size_t A = decltype(a)::value;
            return SnapshotView(typename SnapshotView::Snaps(
                std::in_place_index<A - 1>, indexes<A>()[0]->snapshot()));
        });
    }

    /// Publishes all tuples inserted so far to future snapshots (every
    /// index advances; the primary's new epoch is returned). Called by the
    /// evaluator at each delta->full rotation.
    std::uint64_t advance_epoch()
        requires(snapshot_capable)
    {
        return with_arity([&](auto a) {
            constexpr std::size_t A = decltype(a)::value;
            std::uint64_t e = 0;
            for (auto& idx : indexes<A>()) e = idx->advance_epoch();
            return e;
        });
    }

    /// Aggregated epoch-retention stats over every index of this relation
    /// (one stats type for every arity).
    auto snap_stats() const
        requires(snapshot_capable)
    {
        return with_arity([&](auto a) {
            constexpr std::size_t A = decltype(a)::value;
            decltype(indexes<A>()[0]->snap_stats()) total{};
            for (const auto& idx : indexes<A>()) {
                const auto s = idx->snap_stats();
                total.epoch = std::max(total.epoch, s.epoch);
                total.advances += s.advances;
                total.pins += s.pins;
                total.cow_images += s.cow_images;
                total.retained_bytes += s.retained_bytes;
                total.cow_bytes += s.cow_bytes;
            }
            return total;
        });
    }

    // -- quiescent reads -----------------------------------------------------
    // Read surface for a QUIESCENT engine (the stdin serve loop between
    // commits, tests): unsynchronised against writers. Concurrent readers —
    // the wire-protocol sessions — must pin snapshot() instead.

    /// Membership test on the primary index. Unordered storages fall back to
    /// a full scan (they serve no ranged lookup outside evaluation).
    bool contains(const StorageTuple& t) const {
        return with_arity([&](auto a) {
            constexpr std::size_t A = decltype(a)::value;
            const auto& primary = *indexes<A>()[0];
            const Tuple<A> k = relation_detail::narrow<A>(t);
            if constexpr (requires { primary.contains(k); }) {
                return primary.contains(k);
            } else {
                bool found = false;
                primary.for_each([&](const Tuple<A>& u) {
                    if (u == k) found = true;
                });
                return found;
            }
        });
    }

    /// All tuples whose first `prefix` columns equal `bound[0..prefix)`, in
    /// lexicographic order on ordered storages (primary index; tuples come
    /// back in source column order, zero-padded).
    template <typename Fn>
    void scan_prefix(const StorageTuple& bound, unsigned prefix, Fn&& fn) const {
        with_arity([&](auto a) {
            constexpr std::size_t A = decltype(a)::value;
            const auto& primary = *indexes<A>()[0];
            auto emit = [&](const Tuple<A>& k) { fn(relation_detail::widen<A>(k)); };
            if constexpr (Storage::ordered) {
                Tuple<A> lo, hi;
                inclusive_bounds(bound, prefix, lo, hi);
                primary.for_each_in_range(lo, hi, emit);
            } else {
                primary.for_each([&](const Tuple<A>& k) {
                    for (unsigned c = 0; c < prefix; ++c) {
                        if (k[c] != bound[c]) return;
                    }
                    emit(k);
                });
            }
        });
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
        template <std::size_t A>
        using Locals = std::vector<typename index_type<A>::local>;

    public:
        LocalView(Relation& rel, unsigned tid) : rel_(&rel) {
            rel.with_arity([&](auto a) {
                constexpr std::size_t A = decltype(a)::value;
                auto& mine = locals_.template emplace<A - 1>();
                mine.reserve(rel.index_count());
                for (auto& idx : rel.indexes<A>()) mine.push_back(idx->make_local(tid));
            });
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
            return rel_->with_arity([&](auto a) {
                constexpr std::size_t A = decltype(a)::value;
                auto& mine = locals<A>();
                const bool fresh = mine[0].insert(rel_->permute<A>(t, 0));
                if (fresh) {
                    for (unsigned i = 1; i < mine.size(); ++i) {
                        mine[i].insert(rel_->permute<A>(t, i));
                    }
                }
                return fresh;
            });
        }

        /// Membership test on the primary index (hinted where supported).
        bool contains(const StorageTuple& t) {
            ++counters_.membership_tests;
            return rel_->with_arity([&](auto a) {
                constexpr std::size_t A = decltype(a)::value;
                return locals<A>()[0].contains(relation_detail::narrow<A>(t));
            });
        }

        /// Range query: all tuples whose first `prefix` columns of index
        /// `idx` equal `bound[0..prefix)`; fn receives tuples in SOURCE
        /// column order, zero-padded.
        template <typename Fn>
        void scan_prefix(unsigned idx, const StorageTuple& bound, unsigned prefix,
                         Fn&& fn) {
            ++counters_.lower_bound_calls;
            ++counters_.upper_bound_calls;
            rel_->with_arity([&](auto a) {
                constexpr std::size_t A = decltype(a)::value;
                Tuple<A> lo, hi;
                inclusive_bounds(bound, prefix, lo, hi);
                auto emit = [&](const Tuple<A>& stored) {
                    fn(rel_->unpermute<A>(stored, idx));
                };
                if constexpr (has_local_range<A>) {
                    locals<A>()[idx].for_each_in_range(lo, hi, emit);
                } else {
                    rel_->indexes<A>()[idx]->for_each_in_range(lo, hi, emit);
                }
            });
        }

        /// Full scan (primary index).
        template <typename Fn>
        void scan_all(Fn&& fn) {
            rel_->for_each(fn);
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
            const std::size_t fresh = rel_->with_arity([&](auto a) {
                constexpr std::size_t A = decltype(a)::value;
                const auto& s = *src.indexes<A>()[idx];
                auto first = lo ? s.lower_bound(relation_detail::narrow<A>(*lo)) : s.begin();
                auto last = hi ? s.lower_bound(relation_detail::narrow<A>(*hi)) : s.end();
                return locals<A>()[idx].insert_sorted_run(first, last);
            });
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

        template <std::size_t A>
        static constexpr bool has_local_range = requires(
            typename index_type<A>::local& l, const Tuple<A>& t) {
            l.for_each_in_range(t, t, [](const Tuple<A>&) {});
        };

        template <std::size_t A>
        Locals<A>& locals() {
            return *std::get_if<A - 1>(&locals_);
        }

        Relation* rel_;
        std::variant<Locals<1>, Locals<2>, Locals<3>, Locals<4>> locals_;
        OpCounters counters_;
    };

    LocalView local_view(unsigned tid) { return LocalView(*this, tid); }

private:
    friend class LocalView;

    template <std::size_t A>
    using IndexSet = std::vector<std::unique_ptr<index_type<A>>>;

    /// Calls fn(Arity<A>{}) for this relation's arity A: the one switch
    /// every operation takes to reach its typed indexes.
    template <typename Fn>
    decltype(auto) with_arity(Fn&& fn) const {
        switch (arity_) {
            case 1: return fn(Arity<1>{});
            case 2: return fn(Arity<2>{});
            case 3: return fn(Arity<3>{});
            default: return fn(Arity<4>{});
        }
    }

    template <std::size_t A>
    IndexSet<A>& indexes() {
        return *std::get_if<A - 1>(&indexes_);
    }
    template <std::size_t A>
    const IndexSet<A>& indexes() const {
        return *std::get_if<A - 1>(&indexes_);
    }

    /// Inclusive key range of every tuple whose first `prefix` columns equal
    /// `bound[0..prefix)`: the prefix padded with 0 (lo) and with max (hi).
    template <std::size_t A>
    static void inclusive_bounds(const StorageTuple& bound, unsigned prefix,
                                 Tuple<A>& lo, Tuple<A>& hi) {
        for (unsigned c = 0; c < A; ++c) {
            if (c < prefix) {
                lo[c] = bound[c];
                hi[c] = bound[c];
            } else {
                lo[c] = 0;
                hi[c] = std::numeric_limits<Value>::max();
            }
        }
    }

    /// Source tuple -> index `idx`'s key (its first A permuted columns).
    template <std::size_t A>
    Tuple<A> permute(const StorageTuple& t, unsigned idx) const {
        if (idx == 0) return relation_detail::narrow<A>(t); // primary is the identity
        const IndexOrder& o = orders_[idx];
        Tuple<A> out;
        for (unsigned c = 0; c < A; ++c) out[c] = t[o.order[c]];
        return out;
    }

    /// Index `idx`'s key -> source tuple, zero-padded.
    template <std::size_t A>
    StorageTuple unpermute(const Tuple<A>& stored, unsigned idx) const {
        if (idx == 0) return relation_detail::widen<A>(stored);
        const IndexOrder& o = orders_[idx];
        StorageTuple out{};
        for (unsigned c = 0; c < A; ++c) out[o.order[c]] = stored[c];
        return out;
    }

    void retire(LocalView& view) {
        inserts_.fetch_add(view.counters_.inserts, std::memory_order_relaxed);
        membership_.fetch_add(view.counters_.membership_tests, std::memory_order_relaxed);
        lower_.fetch_add(view.counters_.lower_bound_calls, std::memory_order_relaxed);
        upper_.fetch_add(view.counters_.upper_bound_calls, std::memory_order_relaxed);
        with_arity([&](auto a) {
            constexpr std::size_t A = decltype(a)::value;
            for (auto& local : view.template locals<A>()) {
                if constexpr (requires { local.stats(); }) {
                    const HintStats& s = local.stats();
                    for (int i = 0; i < 4; ++i) {
                        hint_hits_[i].fetch_add(s.hits[i], std::memory_order_relaxed);
                        hint_misses_[i].fetch_add(s.misses[i], std::memory_order_relaxed);
                    }
                }
            }
        });
    }

    std::string name_;
    unsigned arity_;
    std::vector<IndexOrder> orders_;
    std::variant<IndexSet<1>, IndexSet<2>, IndexSet<3>, IndexSet<4>> indexes_;

    std::atomic<std::uint64_t> inserts_{0}, membership_{0}, lower_{0}, upper_{0};
    std::atomic<std::uint64_t> hint_hits_[4] = {};
    std::atomic<std::uint64_t> hint_misses_[4] = {};
};

} // namespace dtree::datalog
