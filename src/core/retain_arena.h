#pragma once

// Never-free storage for snapshot copy-on-write images (DESIGN.md §11).
//
// The tree never frees or moves a node while it lives (§3.2 — it is what
// keeps hint pointers valid forever). The snapshot layer extends the same
// lifetime model to copy-on-write images: RetainArena is a chunked bump
// allocator whose blocks are never individually freed — an image, once
// published into a node's version chain, stays valid until the owning tree
// is cleared or destroyed, exactly like the nodes themselves.

#include <cstddef>
#include <iterator>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

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

} // namespace dtree
