#pragma once

// Uniform adapter concept over every data structure in the evaluation
// (Table 1). Each adapter exposes:
//
//   using key_type;             element type
//   static thread_safe;         may insert() be called concurrently?
//   static ordered;             does it support ordered scans/range queries?
//   static name();              label used in the printed tables
//   insert/contains/size/clear  the obvious
//   for_each(fn);               full scan (ordered iff `ordered`)
//   make_local(tid) -> local    per-thread handle carrying hints / private
//                               state; local.insert(k), local.contains(k)
//   finalize(threads);          post-insert completion step (reduction merge;
//                               no-op elsewhere) — included in timings
//   rebind<K>                   the same adapter over keys K (the engine's
//                               storages; datalog/relation.h re-keys each
//                               relation to its arity; wrappers such as
//                               GlobalLockAdapter re-key through Inner)
//
// This is what lets one benchmark loop produce every row of Figs. 3-4.

#include <cstddef>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_set>
#include <vector>

#include "baselines/classic_btree.h"
#include "baselines/concurrent_hashset.h"
#include "baselines/global_lock_set.h"
#include "baselines/reduction_set.h"
#include "core/btree.h"

namespace dtree::baselines {

// -- trivially forwarding local handle ---------------------------------------

template <typename Adapter>
class forwarding_local {
public:
    explicit forwarding_local(Adapter& a) : a_(&a) {}
    bool insert(const typename Adapter::key_type& k) { return a_->insert(k); }
    bool contains(const typename Adapter::key_type& k) const { return a_->contains(k); }

private:
    Adapter* a_;
};

// -- STL rbtset ---------------------------------------------------------------

template <typename Key>
class StlSetAdapter {
public:
    using key_type = Key;
    static constexpr bool thread_safe = false;
    static constexpr bool ordered = true;
    static const char* name() { return "STL rbtset"; }
    template <typename K>
    using rebind = StlSetAdapter<K>;

    using local = forwarding_local<StlSetAdapter>;

    bool insert(const Key& k) { return set_.insert(k).second; }
    bool contains(const Key& k) const { return set_.count(k) > 0; }
    std::size_t size() const { return set_.size(); }
    bool empty() const { return set_.empty(); }
    void clear() { set_.clear(); }

    template <typename Fn>
    void for_each(Fn&& fn) const {
        for (const auto& k : set_) fn(k);
    }

    template <typename Fn>
    void for_each_in_range(const Key& lo, const Key& hi, Fn&& fn) const {
        for (auto it = set_.lower_bound(lo); it != set_.end() && !(hi < *it); ++it) fn(*it);
    }

    local make_local(unsigned) { return local(*this); }
    void finalize(unsigned) {}

private:
    std::set<Key> set_;
};

// -- STL hashset ----------------------------------------------------------------

template <typename Key>
class StlHashSetAdapter {
public:
    using key_type = Key;
    static constexpr bool thread_safe = false;
    static constexpr bool ordered = false;
    static const char* name() { return "STL hashset"; }
    template <typename K>
    using rebind = StlHashSetAdapter<K>;

    using local = forwarding_local<StlHashSetAdapter>;

    bool insert(const Key& k) { return set_.insert(k).second; }
    bool contains(const Key& k) const { return set_.count(k) > 0; }
    std::size_t size() const { return set_.size(); }
    bool empty() const { return set_.empty(); }
    void clear() { set_.clear(); }

    template <typename Fn>
    void for_each(Fn&& fn) const {
        for (const auto& k : set_) fn(k);
    }

    local make_local(unsigned) { return local(*this); }
    void finalize(unsigned) {}

private:
    std::unordered_set<Key> set_;
};

// -- google-style btree ----------------------------------------------------------

template <typename Key>
class ClassicBTreeAdapter {
public:
    using key_type = Key;
    static constexpr bool thread_safe = false;
    static constexpr bool ordered = true;
    static const char* name() { return "google btree"; }
    template <typename K>
    using rebind = ClassicBTreeAdapter<K>;

    bool insert(const Key& k) { return tree_.insert(k); }
    bool contains(const Key& k) const { return tree_.contains(k); }
    std::size_t size() const { return tree_.size(); }
    bool empty() const { return tree_.empty(); }
    void clear() { tree_.clear(); }

    template <typename Fn>
    void for_each(Fn&& fn) const {
        tree_.for_each(fn);
    }

    template <typename Fn>
    void for_each_in_range(const Key& lo, const Key& hi, Fn&& fn) const {
        tree_.for_each_in_range(lo, hi, fn);
    }

    using local = forwarding_local<ClassicBTreeAdapter>;
    local make_local(unsigned) { return local(*this); }
    void finalize(unsigned) {}

private:
    classic_btree<Key> tree_;
};

// -- our B-tree (4 flavours: {concurrent, sequential} x {hints, no hints}) -------

template <typename Tree, bool UseHints, bool ThreadSafe>
class BTreeAdapterImpl {
public:
    using key_type = typename Tree::key_type;
    static constexpr bool thread_safe = ThreadSafe;
    static constexpr bool ordered = true;
    static const char* name() {
        if constexpr (Tree::with_fingerprints) {
            return "btree (fp)";
        } else if constexpr (ThreadSafe) {
            return UseHints ? "btree" : "btree (n/h)";
        } else {
            return UseHints ? "seq btree" : "seq btree (n/h)";
        }
    }

    /// This flavour over keys K, on the tree the public alias gives for K.
    template <typename K>
    using rebind = BTreeAdapterImpl<typename Tree::template rebind<K>, UseHints, ThreadSafe>;

    class local {
    public:
        explicit local(Tree& t) : t_(&t), hints_(t.create_hints()) {}
        bool insert(const key_type& k) {
            if constexpr (UseHints) {
                return t_->insert(k, hints_);
            } else {
                return t_->insert(k);
            }
        }
        bool contains(const key_type& k) const {
            if constexpr (UseHints) {
                return t_->contains(k, hints_);
            } else {
                return t_->contains(k);
            }
        }

        /// Inclusive range scan; hinted bound lookups when enabled (this is
        /// where the §4.3 lower/upper-bound hint hits come from).
        template <typename Fn>
        void for_each_in_range(const key_type& lo, const key_type& hi, Fn&& fn) const {
            auto it = UseHints ? t_->lower_bound(lo, hints_) : t_->lower_bound(lo);
            auto e = UseHints ? t_->upper_bound(hi, hints_) : t_->upper_bound(hi);
            for (; it != e; ++it) fn(*it);
        }

        /// Sorted bulk merge (the §3 specialised merge): one descent + lock
        /// upgrade per leaf segment instead of one per key. Returns the
        /// number of genuinely new keys.
        template <typename It>
        std::size_t insert_sorted_run(It first, It last) {
            if constexpr (UseHints) {
                return t_->insert_sorted_run(first, last, hints_);
            } else {
                return t_->insert_sorted_run(first, last);
            }
        }

        const HintStats& stats() const { return hints_.stats; }

    private:
        Tree* t_;
        mutable typename Tree::operation_hints hints_;
    };

    bool insert(const key_type& k) {
        if constexpr (UseHints) {
            return tree_.insert(k, hints_);
        } else {
            return tree_.insert(k);
        }
    }
    bool contains(const key_type& k) const {
        if constexpr (UseHints) {
            return tree_.contains(k, hints_);
        } else {
            return tree_.contains(k);
        }
    }
    std::size_t size() const { return tree_.size(); }
    bool empty() const { return tree_.empty(); }
    void clear() {
        tree_.clear();
        hints_.reset();
    }

    template <typename Fn>
    void for_each(Fn&& fn) const {
        for (const auto& k : tree_) fn(k);
    }

    template <typename Fn>
    void for_each_in_range(const key_type& lo, const key_type& hi, Fn&& fn) const {
        for (auto it = tree_.lower_bound(lo), e = tree_.upper_bound(hi); it != e; ++it) fn(*it);
    }

    // -- sorted bulk-merge surface (datalog delta->full rotation) ----------

    using const_iterator = typename Tree::const_iterator;
    const_iterator begin() const { return tree_.begin(); }
    const_iterator end() const { return tree_.end(); }

    /// Unhinted bound lookup over the sorted iteration — used to slice
    /// another relation's index into per-worker sub-runs.
    const_iterator lower_bound(const key_type& k) const {
        return tree_.lower_bound(k);
    }

    /// Separator keys partitioning the key space into ~`target` ranges of
    /// similar tree weight (see btree::sample_separators).
    std::vector<key_type> partition_keys(std::size_t target) const {
        return tree_.sample_separators(target);
    }

    /// Packed O(n) build from a sorted stream of known length; precondition:
    /// this adapter is empty. Hints are reset — the empty tree had no nodes,
    /// so no cached leaf can dangle into the new one.
    template <typename It>
    void build_sorted(It first, It last, std::size_t n) {
        tree_ = Tree::from_sorted_stream(first, last, n);
        hints_.reset();
    }

    local make_local(unsigned) { return local(tree_); }
    void finalize(unsigned) {}

    Tree& tree() { return tree_; }
    const Tree& tree() const { return tree_; }

    // -- snapshot surface (DESIGN.md §11; snapshot-enabled trees only) -------

    /// True for adapters over snapshot_btree_set trees; relation.h keys its
    /// Relation::snapshot() availability off this.
    static constexpr bool snapshot_capable = Tree::with_snapshots;

    using snapshot_type = typename Tree::Snapshot;

    /// Pins a consistent view at the current epoch boundary; safe while
    /// writer threads are inserting (serving reads mid-evaluation).
    snapshot_type snapshot() const
        requires(Tree::with_snapshots)
    {
        return tree_.snapshot();
    }

    /// Publishes all mutations so far to future snapshots; returns the new
    /// epoch. Called at the delta->full rotation by the evaluator.
    std::uint64_t advance_epoch()
        requires(Tree::with_snapshots)
    {
        return tree_.advance_epoch();
    }

    std::uint64_t epoch() const
        requires(Tree::with_snapshots)
    {
        return tree_.epoch();
    }

    typename Tree::snapshot_stats snap_stats() const
        requires(Tree::with_snapshots)
    {
        return tree_.snap_stats();
    }

private:
    Tree tree_;
    mutable typename Tree::operation_hints hints_;
};

template <typename Key>
using OurBTreeAdapter = BTreeAdapterImpl<btree_set<Key>, true, true>;
/// Snapshot-enabled flavour: same tree + the epoch/Snapshot API (§11).
template <typename Key>
using OurBTreeSnapAdapter = BTreeAdapterImpl<snapshot_btree_set<Key>, true, true>;
/// Leaf-layout-v2 flavour: fingerprint membership + append-zone inserts (§15).
template <typename Key>
using OurBTreeFpAdapter = BTreeAdapterImpl<fp_btree_set<Key>, true, true>;
template <typename Key>
using OurBTreeNoHintsAdapter = BTreeAdapterImpl<btree_set<Key>, false, true>;
template <typename Key>
using SeqBTreeAdapter = BTreeAdapterImpl<seq_btree_set<Key>, true, false>;
template <typename Key>
using SeqBTreeNoHintsAdapter = BTreeAdapterImpl<seq_btree_set<Key>, false, false>;

// -- TBB-like concurrent hash set --------------------------------------------------

template <typename Key>
class TbbLikeHashSetAdapter {
public:
    using key_type = Key;
    static constexpr bool thread_safe = true;
    static constexpr bool ordered = false;
    static const char* name() { return "TBB hashset"; }
    template <typename K>
    using rebind = TbbLikeHashSetAdapter<K>;

    bool insert(const Key& k) { return set_.insert(k); }
    bool contains(const Key& k) const { return set_.contains(k); }
    std::size_t size() const { return set_.size(); }
    bool empty() const { return set_.empty(); }
    void clear() { set_.clear(); }

    template <typename Fn>
    void for_each(Fn&& fn) const {
        set_.for_each(fn);
    }

    using local = forwarding_local<TbbLikeHashSetAdapter>;
    local make_local(unsigned) { return local(*this); }
    void finalize(unsigned) {}

private:
    concurrent_hashset<Key> set_;
};

// -- globally locked google-style btree --------------------------------------------

template <typename Key>
class GlobalLockBTreeAdapter {
public:
    using key_type = Key;
    static constexpr bool thread_safe = true;
    static constexpr bool ordered = true;
    static const char* name() { return "google btree"; } // Fig. 4's label

    bool insert(const Key& k) { return set_.insert(k); }
    bool contains(const Key& k) const { return set_.contains(k); }
    std::size_t size() const { return set_.size(); }
    bool empty() const { return set_.empty(); }
    void clear() { set_.clear(); }

    template <typename Fn>
    void for_each(Fn&& fn) const {
        set_.unsynchronized().for_each(fn);
    }

    /// Range scan on the unsynchronised tree (phase-concurrent reads only).
    template <typename Fn>
    void for_each_in_range(const Key& lo, const Key& hi, Fn&& fn) const {
        set_.unsynchronized().for_each_in_range(lo, hi, fn);
    }

    using local = forwarding_local<GlobalLockBTreeAdapter>;
    local make_local(unsigned) { return local(*this); }
    void finalize(unsigned) {}

private:
    global_lock_set<classic_btree<Key>> set_;
};

// -- reduction btree -----------------------------------------------------------------

template <typename Key>
class ReductionBTreeAdapter {
public:
    using key_type = Key;
    static constexpr bool thread_safe = true; // via thread-private instances
    static constexpr bool ordered = true;
    static const char* name() { return "reduction btree"; }

    explicit ReductionBTreeAdapter(unsigned threads = 1)
        : set_(std::make_unique<reduction_set<classic_btree<Key>>>(threads)) {}

    class local {
    public:
        local(reduction_set<classic_btree<Key>>& s, unsigned tid) : s_(&s), tid_(tid) {}
        bool insert(const Key& k) { return s_->insert(tid_, k); }
        bool contains(const Key& k) const { return s_->result().contains(k); }

    private:
        reduction_set<classic_btree<Key>>* s_;
        unsigned tid_;
    };

    bool insert(const Key& k) { return set_->insert(0, k); }
    bool contains(const Key& k) const { return set_->result().contains(k); }
    std::size_t size() const { return set_->result().size(); }
    void clear() { set_ = std::make_unique<reduction_set<classic_btree<Key>>>(set_->threads()); }

    template <typename Fn>
    void for_each(Fn&& fn) const {
        set_->result().for_each(fn);
    }

    local make_local(unsigned tid) { return local(*set_, tid); }

    /// The terminal parallel merge — part of the measured insertion time.
    void finalize(unsigned) { set_->reduce(); }

private:
    std::unique_ptr<reduction_set<classic_btree<Key>>> set_;
};

// -- generic global-lock wrapper -----------------------------------------------
//
// Fig. 5 runs thread-unsafe reference structures (STL set, STL hashset,
// google btree) inside the parallel engine "with global locks"; this wrapper
// makes any sequential adapter phase-safe the same way.

template <typename Inner>
class GlobalLockAdapter {
public:
    using key_type = typename Inner::key_type;
    static constexpr bool thread_safe = true;
    static constexpr bool ordered = Inner::ordered;
    static const char* name() { return Inner::name(); }

    bool insert(const key_type& k) {
        std::lock_guard guard(mutex_);
        return inner_.insert(k);
    }
    bool contains(const key_type& k) const {
        std::lock_guard guard(mutex_);
        return inner_.contains(k);
    }
    std::size_t size() const {
        std::lock_guard guard(mutex_);
        return inner_.size();
    }
    bool empty() const {
        std::lock_guard guard(mutex_);
        return inner_.size() == 0;
    }
    void clear() {
        std::lock_guard guard(mutex_);
        inner_.clear();
    }

    /// Phase-concurrent reads bypass the lock (no writers active).
    template <typename Fn>
    void for_each(Fn&& fn) const {
        inner_.for_each(fn);
    }

    template <typename Fn>
    void for_each_in_range(const key_type& lo, const key_type& hi, Fn&& fn) const
        requires(Inner::ordered)
    {
        inner_.for_each_in_range(lo, hi, fn);
    }

    using local = forwarding_local<GlobalLockAdapter>;
    local make_local(unsigned) { return local(*this); }
    void finalize(unsigned) {}

private:
    mutable std::mutex mutex_;
    Inner inner_;
};

} // namespace dtree::baselines
