#pragma once

// Node allocation policies for the B-tree.
//
// The tree's "nodes are never freed or moved" guarantee (§3.2 — it is what
// keeps hint pointers valid forever) makes node allocation a perfect match
// for an arena: allocation is a bump, deallocation happens wholesale when
// the tree dies. bench/ablation_allocator quantifies what that saves over
// the default operator new on allocation-heavy (random insertion) loads.
//
// Policies provide make_leaf()/make_inner()/release(root) and must be safe
// to call from concurrent insert() paths.
//
// The snapshot layer (DESIGN.md §11) extends the same lifetime model to
// copy-on-write images: RetainArena below is a chunked bump allocator whose
// blocks are never individually freed — an image, once published into a
// node's version chain, stays valid until the owning tree is cleared or
// destroyed, exactly like the nodes themselves.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/btree_detail.h"
#include "util/metrics.h"
#include "util/spinlock.h"

namespace dtree {

/// Never-free arena for snapshot copy-on-write images. Allocation is a
/// locked chunked bump (CoW happens at most once per node per epoch, so the
/// lock is cold); nothing is freed until release(), which the owning tree
/// calls only from clear()/its destructor — after which every outstanding
/// Snapshot handle is invalid anyway (same contract as operation hints).
class RetainArena {
public:
    RetainArena() = default;
    RetainArena(RetainArena&& o) noexcept : chunks_(std::move(o.chunks_)) {
        used_ = o.used_;
        bytes_total_ = o.bytes_total_;
        o.used_ = kChunkBytes;
        o.bytes_total_ = 0;
    }
    RetainArena& operator=(RetainArena&& o) noexcept {
        if (this != &o) {
            chunks_ = std::move(o.chunks_);
            used_ = o.used_;
            bytes_total_ = o.bytes_total_;
            o.used_ = kChunkBytes;
            o.bytes_total_ = 0;
        }
        return *this;
    }

    /// Constructs a T in the arena. T must be trivially destructible (release
    /// drops the chunks without running destructors).
    template <typename T, typename... Args>
    T* make(Args&&... args) {
        static_assert(std::is_trivially_destructible_v<T>,
                      "retain arena release skips destructors");
        void* mem = allocate(sizeof(T), alignof(T));
        return ::new (mem) T(std::forward<Args>(args)...);
    }

    /// Takes ownership of another arena's chunks (tree move-assignment keeps
    /// the donor's retained images alive under the new owner). The donor's
    /// chunks are inserted BEHIND ours so our current bump chunk stays
    /// chunks_.back(); the donor is left empty.
    void adopt(RetainArena&& o) {
        std::scoped_lock guard(lock_, o.lock_);
        chunks_.insert(chunks_.begin(),
                       std::make_move_iterator(o.chunks_.begin()),
                       std::make_move_iterator(o.chunks_.end()));
        bytes_total_ += o.bytes_total_;
        o.chunks_.clear();
        o.used_ = kChunkBytes;
        o.bytes_total_ = 0;
    }

    void release() {
        std::lock_guard guard(lock_);
        chunks_.clear();
        used_ = kChunkBytes;
        bytes_total_ = 0;
    }

    /// Bytes handed out since construction/release (retention footprint).
    std::size_t retained_bytes() const {
        std::lock_guard guard(lock_);
        return bytes_total_;
    }

private:
    static constexpr std::size_t kChunkBytes = 1u << 18; // 256 KiB chunks

    void* allocate(std::size_t bytes, std::size_t align) {
        std::lock_guard guard(lock_);
        std::size_t offset = (used_ + align - 1) & ~(align - 1);
        if (chunks_.empty() || offset + bytes > kChunkBytes) {
            chunks_.push_back(std::make_unique<std::byte[]>(kChunkBytes));
            offset = 0;
        }
        used_ = offset + bytes;
        bytes_total_ += bytes;
        DTREE_METRIC_ADD(snapshot_cow_bytes, bytes);
        return chunks_.back().get() + offset;
    }

    mutable util::Spinlock lock_;
    std::vector<std::unique_ptr<std::byte[]>> chunks_;
    std::size_t used_ = kChunkBytes;
    std::size_t bytes_total_ = 0;
};

/// Default policy: plain new/delete (thread-safe by the C++ runtime).
/// WithSnapshots / WithFingerprints must match the owning tree: they select
/// the node variants carrying per-node snapshot state and the v2 leaf
/// layout (DESIGN.md §15).
template <typename Key, unsigned BlockSize, typename Access,
          bool WithSnapshots = false, bool WithFingerprints = false>
struct NewDeleteNodeAlloc {
    using NodeT =
        detail::Node<Key, BlockSize, Access, WithSnapshots, WithFingerprints>;
    using InnerT = detail::InnerNode<Key, BlockSize, Access, WithSnapshots,
                                     WithFingerprints>;

    NodeT* make_leaf() {
        DTREE_METRIC_INC(alloc_leaf_nodes);
        return new NodeT(/*is_inner=*/false);
    }
    InnerT* make_inner() {
        DTREE_METRIC_INC(alloc_inner_nodes);
        return new InnerT();
    }

    /// Frees the whole tree below (and including) root.
    void release(NodeT* root) { detail::free_subtree(root); }

    NewDeleteNodeAlloc() = default;
    NewDeleteNodeAlloc(NewDeleteNodeAlloc&&) noexcept = default;
    NewDeleteNodeAlloc& operator=(NewDeleteNodeAlloc&&) noexcept = default;
};

/// Arena policy: chunked bump allocation under a spinlock (splits — and thus
/// allocations — are ~1/(BlockSize/2) of inserts, so the lock is cold),
/// wholesale release. Individual nodes are never returned — exactly the
/// tree's lifetime model.
template <typename Key, unsigned BlockSize, typename Access,
          bool WithSnapshots = false, bool WithFingerprints = false>
class ArenaNodeAlloc {
public:
    using NodeT =
        detail::Node<Key, BlockSize, Access, WithSnapshots, WithFingerprints>;
    using InnerT = detail::InnerNode<Key, BlockSize, Access, WithSnapshots,
                                     WithFingerprints>;

    ArenaNodeAlloc() = default;
    ArenaNodeAlloc(ArenaNodeAlloc&& o) noexcept : chunks_(std::move(o.chunks_)) {
        used_ = o.used_;
        o.used_ = kChunkBytes; // force fresh chunk on next allocation
    }
    ArenaNodeAlloc& operator=(ArenaNodeAlloc&& o) noexcept {
        if (this != &o) {
            chunks_ = std::move(o.chunks_);
            used_ = o.used_;
            o.used_ = kChunkBytes;
        }
        return *this;
    }

    NodeT* make_leaf() {
        DTREE_METRIC_INC(alloc_leaf_nodes);
        void* mem = allocate(sizeof(NodeT), alignof(NodeT));
        return ::new (mem) NodeT(/*is_inner=*/false);
    }

    InnerT* make_inner() {
        DTREE_METRIC_INC(alloc_inner_nodes);
        void* mem = allocate(sizeof(InnerT), alignof(InnerT));
        return ::new (mem) InnerT();
    }

    /// Wholesale release; the node pointer is irrelevant — every node of the
    /// owning tree lives in this arena. Nodes are trivially destructible
    /// apart from their (trivially destructible) members, so dropping the
    /// chunks is sufficient.
    void release(NodeT* /*root*/) {
        chunks_.clear();
        used_ = kChunkBytes;
    }

private:
    static_assert(std::is_trivially_destructible_v<Key>,
                  "arena release skips node destructors");

    static constexpr std::size_t kChunkBytes = 1u << 20; // 1 MiB chunks

    void* allocate(std::size_t bytes, std::size_t align) {
        std::lock_guard guard(lock_);
        std::size_t offset = (used_ + align - 1) & ~(align - 1);
        if (chunks_.empty() || offset + bytes > kChunkBytes) {
            chunks_.push_back(std::make_unique<std::byte[]>(kChunkBytes));
            offset = 0;
            DTREE_METRIC_INC(arena_chunks);
        }
        used_ = offset + bytes;
        DTREE_METRIC_ADD(arena_bytes, bytes);
        return chunks_.back().get() + offset;
    }

    util::Spinlock lock_;
    std::vector<std::unique_ptr<std::byte[]>> chunks_;
    std::size_t used_ = kChunkBytes;
};

} // namespace dtree
