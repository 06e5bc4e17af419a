#pragma once

// Epoch-tagged chunk storage for snapshot copy-on-write images (DESIGN.md
// §11).
//
// The tree never frees or moves a node while it lives (§3.2 — it is what
// keeps hint pointers valid forever). Copy-on-write images are different:
// an image is only needed while some snapshot boundary it serves can still
// be pinned. RetainArena is a chunked bump allocator whose chunks carry a
// tag — the largest operation epoch of any image allocated in them — and
// reclaim(before) frees whole chunks once every image in them serves only
// boundaries older than `before` (the tree passes its oldest live pin).
// Images are never freed one by one.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/metrics.h"
#include "util/spinlock.h"

namespace dtree {

/// Chunked arena for snapshot copy-on-write images, reclaimed a whole chunk
/// at a time. Allocation is a locked bump (CoW happens at most once per node
/// per epoch, so the lock is cold). A chunk is freed by reclaim() once its
/// tag falls behind the caller's bound, or by release(), which the owning
/// tree calls from clear()/its destructor.
class RetainArena {
public:
    /// Constructs a T in the arena, tags its chunk with `tag` (the operation
    /// epoch of the image) and runs `init` on it BEFORE the arena lock is
    /// dropped. Every write the caller makes into the new object must happen
    /// inside `init`: once the lock is released, a concurrent reclaim() may
    /// free the chunk as soon as the epoch and every pin have moved past
    /// `tag`. T must be trivially destructible (chunks are dropped without
    /// running destructors).
    template <typename T, typename Init>
    T* make(std::uint64_t tag, Init&& init) {
        static_assert(std::is_trivially_destructible_v<T>,
                      "retain arena drops chunks without destructors");
        std::lock_guard guard(lock_);
        T* obj = ::new (allocate(sizeof(T), alignof(T), tag)) T();
        init(*obj);
        return obj;
    }

    /// Takes ownership of another arena's chunks (tree move-assignment keeps
    /// the donor's images alive under the new owner), tagging each with
    /// `tag`. The donor's chunks are inserted BEHIND ours so our current
    /// bump chunk stays chunks_.back(); the donor is left empty.
    void adopt(RetainArena&& o, std::uint64_t tag) {
        std::scoped_lock guard(lock_, o.lock_);
        for (auto& c : o.chunks_) c.tag = tag;
        chunks_.insert(chunks_.begin(),
                       std::make_move_iterator(o.chunks_.begin()),
                       std::make_move_iterator(o.chunks_.end()));
        live_bytes_ += o.live_bytes_;
        cow_bytes_ += o.cow_bytes_;
        o.chunks_.clear();
        o.used_ = kChunkBytes;
        o.live_bytes_ = 0;
        o.cow_bytes_ = 0;
    }

    /// Frees the longest prefix of non-current chunks whose tag is < before.
    /// Safe concurrently with make() and with readers, provided no reader
    /// can still dereference an object tagged below `before` (the tree's
    /// invariant, DESIGN.md §11). Chunks are freed after the lock is
    /// dropped.
    void reclaim(std::uint64_t before) {
        std::vector<Chunk> dead;
        {
            std::lock_guard guard(lock_);
            std::size_t k = 0;
            while (k + 1 < chunks_.size() && chunks_[k].tag < before) {
                live_bytes_ -= chunks_[k].bytes;
                ++k;
            }
            if (k == 0) return;
            dead.assign(std::make_move_iterator(chunks_.begin()),
                        std::make_move_iterator(chunks_.begin() + k));
            chunks_.erase(chunks_.begin(), chunks_.begin() + k);
        }
    }

    /// Frees every chunk; the cumulative counter is kept.
    void release() {
        std::lock_guard guard(lock_);
        chunks_.clear();
        used_ = kChunkBytes;
        live_bytes_ = 0;
    }

    /// Bytes handed out in chunks not yet freed (the live footprint).
    std::size_t retained_bytes() const {
        std::lock_guard guard(lock_);
        return live_bytes_;
    }

    /// Bytes handed out since construction, freed or not.
    std::size_t cow_bytes() const {
        std::lock_guard guard(lock_);
        return cow_bytes_;
    }

    static constexpr std::size_t kChunkBytes = 1u << 18; // 256 KiB chunks

private:
    struct Chunk {
        std::unique_ptr<std::byte[]> mem;
        std::uint64_t tag = 0;   ///< max operation epoch allocated here
        std::size_t bytes = 0;   ///< bytes handed out from this chunk
    };

    /// Caller holds lock_.
    void* allocate(std::size_t bytes, std::size_t align, std::uint64_t tag) {
        std::size_t offset = (used_ + align - 1) & ~(align - 1);
        if (chunks_.empty() || offset + bytes > kChunkBytes) {
            // Uninitialised: pages are touched only as the bump reaches them.
            chunks_.push_back(
                {std::unique_ptr<std::byte[]>(new std::byte[kChunkBytes]), 0, 0});
            offset = 0;
        }
        Chunk& c = chunks_.back();
        if (tag > c.tag) c.tag = tag;
        c.bytes += bytes;
        used_ = offset + bytes;
        live_bytes_ += bytes;
        cow_bytes_ += bytes;
        DTREE_METRIC_ADD(snapshot_cow_bytes, bytes);
        return c.mem.get() + offset;
    }

    mutable util::Spinlock lock_;
    std::vector<Chunk> chunks_; ///< oldest first; back() is the bump chunk
    std::size_t used_ = kChunkBytes;
    std::size_t live_bytes_ = 0;
    std::size_t cow_bytes_ = 0;
};

} // namespace dtree
