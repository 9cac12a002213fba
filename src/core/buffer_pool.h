// BufferPool — cache-line-aligned, size-classed freelist pools for the
// messaging fast path.
//
// PAMI's injection/reception path on BG/Q never calls a general-purpose
// allocator per message: payload staging comes from recycled, fixed-class
// buffers. This header reproduces that discipline:
//
//   * `Buf`   — a move-only RAII handle to one pooled block. 16 bytes, so
//               it rides inside MuPacket/ShmPacket/MuDescriptor by value.
//   * `BufferPool` — per-owner freelists over a fixed set of size classes.
//     Acquire is owner-thread-only (single consumer, zero atomics on the
//     hit path); release may happen on ANY thread and pushes the block
//     onto a reclaim list guarded by an L2AtomicMutex, matching the
//     paper's "lockless on the critical path, L2-mutex on the rare path"
//     split.
//
// Lifetime: blocks routinely outlive their pool (a packet delivered to a
// peer node's reception FIFO survives the sender's teardown; tests tear
// machines down with traffic in flight). Each block therefore carries a
// shared_ptr to its pool's core: release() under the core mutex either
// recycles the block (pool still open) or frees it to the heap (pool
// gone). No destruction-order contract is imposed on callers.
//
// Counters: acquisitions served from a freelist count `alloc.pool_hits`;
// freelist misses that had to allocate count `alloc.pool_misses`; requests
// larger than the biggest class count `alloc.heap_fallbacks`. A bound
// PvarSet is optional — pools work untracked.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <memory>
#include <new>

#include "hw/l2_atomics.h"
#include "obs/pvar.h"

namespace pamix::core {

/// Payload size classes, chosen around the stack's natural shapes: small
/// control headers (128), an MU packet payload (512), eager staging of a
/// few packets (2K), and two coarse classes for large eager/RTS staging.
inline constexpr std::size_t kBufClassSizes[] = {128, 512, 2048, 8192, 32768};
inline constexpr std::size_t kBufClassCount =
    sizeof(kBufClassSizes) / sizeof(kBufClassSizes[0]);
inline constexpr std::size_t kBufMaxPooledBytes = kBufClassSizes[kBufClassCount - 1];

namespace detail {

struct BufBlock;

/// The part of a pool that blocks can outlive: the cross-thread reclaim
/// lists and the open/closed flag. Blocks hold a shared_ptr to this, so a
/// release that arrives after the pool's destruction simply frees to heap.
struct PoolCore {
  hw::L2AtomicMutex mu;
  bool open = true;                      // guarded by mu
  BufBlock* reclaim[kBufClassCount]{};   // guarded by mu
  // Relaxed hint so the owner's acquire path can skip taking `mu` when
  // nothing has been released cross-thread (the common case).
  std::atomic<std::uint32_t> reclaim_count[kBufClassCount]{};
};

/// Block header. Exactly one cache line; payload starts at offset 64 so
/// data is cache-line-aligned and never false-shares with the header's
/// freelist link. `core == nullptr` marks a heap-fallback (oversize)
/// block that is simply deleted on release.
struct alignas(64) BufBlock {
  std::shared_ptr<PoolCore> core;
  BufBlock* next = nullptr;
  std::uint32_t class_idx = 0;
  std::size_t capacity = 0;

  std::byte* data() { return reinterpret_cast<std::byte*>(this) + sizeof(BufBlock); }
  const std::byte* data() const {
    return reinterpret_cast<const std::byte*>(this) + sizeof(BufBlock);
  }

  static BufBlock* create(std::shared_ptr<PoolCore> core, std::uint32_t class_idx,
                          std::size_t capacity) {
    void* raw = ::operator new(sizeof(BufBlock) + capacity, std::align_val_t{64});
    auto* b = ::new (raw) BufBlock();
    b->core = std::move(core);
    b->class_idx = class_idx;
    b->capacity = capacity;
    return b;
  }

  static void destroy(BufBlock* b) {
    b->~BufBlock();
    ::operator delete(static_cast<void*>(b), std::align_val_t{64});
  }
};

static_assert(sizeof(BufBlock) == 64, "block header must be exactly one cache line");

/// Return a block to its pool (any thread) or to the heap.
inline void release_block(BufBlock* b) {
  if (b == nullptr) return;
  if (b->core == nullptr) {
    BufBlock::destroy(b);
    return;
  }
  // Move the shared_ptr out first: if the pool core's last reference is
  // this block's, destroying the block inside the locked region would
  // destroy the mutex we hold.
  std::shared_ptr<PoolCore> core = std::move(b->core);
  bool recycled = false;
  {
    std::lock_guard<hw::L2AtomicMutex> g(core->mu);
    if (core->open) {
      b->core = core;  // re-arm for the next acquire/release cycle
      b->next = core->reclaim[b->class_idx];
      core->reclaim[b->class_idx] = b;
      core->reclaim_count[b->class_idx].fetch_add(1, std::memory_order_relaxed);
      recycled = true;
    }
  }
  if (!recycled) BufBlock::destroy(b);
}

}  // namespace detail

/// Move-only handle to pooled (or heap-fallback) bytes. `size()` is the
/// logical length; `capacity()` the class size. Destruction returns the
/// block to its pool from any thread.
class Buf {
 public:
  Buf() = default;
  Buf(detail::BufBlock* b, std::size_t size) : b_(b), size_(size) {}

  Buf(Buf&& o) noexcept : b_(o.b_), size_(o.size_) {
    o.b_ = nullptr;
    o.size_ = 0;
  }
  Buf& operator=(Buf&& o) noexcept {
    if (this != &o) {
      reset();
      b_ = o.b_;
      size_ = o.size_;
      o.b_ = nullptr;
      o.size_ = 0;
    }
    return *this;
  }
  Buf(const Buf&) = delete;
  Buf& operator=(const Buf&) = delete;
  ~Buf() { reset(); }

  void reset() {
    detail::release_block(b_);
    b_ = nullptr;
    size_ = 0;
  }

  std::byte* data() { return b_ != nullptr ? b_->data() : nullptr; }
  const std::byte* data() const { return b_ != nullptr ? b_->data() : nullptr; }
  std::byte& operator[](std::size_t i) { return data()[i]; }
  const std::byte& operator[](std::size_t i) const { return data()[i]; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return b_ != nullptr ? b_->capacity : 0; }

  /// Shrink or grow within capacity (no reallocation — callers size the
  /// acquire correctly up front).
  void resize(std::size_t n) {
    assert(n <= capacity());
    size_ = n;
  }

  /// Copy `n` bytes in, setting size. Must fit capacity.
  void assign(const void* src, std::size_t n) {
    assert(n <= capacity());
    if (n > 0) std::memcpy(b_->data(), src, n);
    size_ = n;
  }

  /// Pool-independent heap block, for oversize payloads and for deep
  /// copies whose lifetime nobody can bound (deposit-bit broadcast hops).
  static Buf heap(std::size_t n) {
    if (n == 0) return Buf();
    detail::BufBlock* b = detail::BufBlock::create(nullptr, 0, n);
    return Buf(b, n);
  }

  /// Deep copy into a heap block.
  Buf clone() const {
    Buf c = Buf::heap(size_);
    if (size_ > 0) std::memcpy(c.b_->data(), b_->data(), size_);
    return c;
  }

 private:
  detail::BufBlock* b_ = nullptr;
  std::size_t size_ = 0;
};

/// Size-classed freelist pool. `acquire` must be called only by the
/// owning (single-consumer) thread; `Buf` destruction may happen anywhere.
class BufferPool {
 public:
  explicit BufferPool(obs::PvarSet* pvars = nullptr)
      : core_(std::make_shared<detail::PoolCore>()), pvars_(pvars) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  ~BufferPool() {
    for (std::size_t c = 0; c < kBufClassCount; ++c) free_list(free_[c]);
    detail::BufBlock* orphans[kBufClassCount];
    {
      std::lock_guard<hw::L2AtomicMutex> g(core_->mu);
      core_->open = false;
      for (std::size_t c = 0; c < kBufClassCount; ++c) {
        orphans[c] = core_->reclaim[c];
        core_->reclaim[c] = nullptr;
      }
    }
    for (std::size_t c = 0; c < kBufClassCount; ++c) free_list(orphans[c]);
  }

  /// Acquire a buffer of logical size `n` (owner thread only). Sizes above
  /// the largest class fall back to the heap and count as such.
  Buf acquire(std::size_t n) {
    if (n == 0) return Buf();
    const std::size_t cls = class_for(n);
    if (cls == kBufClassCount) {
      count(obs::Pvar::AllocHeapFallbacks);
      return Buf::heap(n);
    }
    detail::BufBlock* b = free_[cls];
    if (b == nullptr && core_->reclaim_count[cls].load(std::memory_order_relaxed) > 0) {
      // Steal the whole cross-thread reclaim list in one lock acquisition.
      std::lock_guard<hw::L2AtomicMutex> g(core_->mu);
      free_[cls] = core_->reclaim[cls];
      core_->reclaim[cls] = nullptr;
      core_->reclaim_count[cls].store(0, std::memory_order_relaxed);
      b = free_[cls];
    }
    if (b != nullptr) {
      free_[cls] = b->next;
      b->next = nullptr;
      count(obs::Pvar::AllocPoolHits);
      return Buf(b, n);
    }
    count(obs::Pvar::AllocPoolMisses);
    ++owned_[cls];
    return Buf(detail::BufBlock::create(core_, static_cast<std::uint32_t>(cls),
                                        kBufClassSizes[cls]),
               n);
  }

  /// Acquire + copy in one step.
  Buf acquire_copy(const void* src, std::size_t n) {
    Buf b = acquire(n);
    if (n > 0) std::memcpy(b.data(), src, n);
    return b;
  }

  /// Grow the pool to `count` blocks of the class serving `n`-byte
  /// acquires, so `count` concurrent acquires cannot miss (owner thread
  /// only). Checked-out blocks count: sizing by what is free at the call
  /// would make the pool track release timing. Pre-sized blocks count as
  /// neither hits nor misses — a miss is demand the owner did not predict.
  void reserve(std::size_t n, std::size_t count) {
    if (n == 0) return;
    const std::size_t cls = class_for(n);
    if (cls == kBufClassCount) return;  // oversize requests never pool
    for (; owned_[cls] < count; ++owned_[cls]) {
      detail::BufBlock* b =
          detail::BufBlock::create(core_, static_cast<std::uint32_t>(cls),
                                   kBufClassSizes[cls]);
      b->next = free_[cls];
      free_[cls] = b;
    }
  }

  /// Size class serving an `n`-byte acquire (kBufClassCount: oversize).
  static std::size_t class_for(std::size_t n) {
    for (std::size_t c = 0; c < kBufClassCount; ++c) {
      if (n <= kBufClassSizes[c]) return c;
    }
    return kBufClassCount;
  }

 private:
  void count(obs::Pvar p) {
    if (pvars_ != nullptr) pvars_->add(p);
  }

  static void free_list(detail::BufBlock* b) {
    while (b != nullptr) {
      detail::BufBlock* next = b->next;
      detail::BufBlock::destroy(b);
      b = next;
    }
  }

  std::shared_ptr<detail::PoolCore> core_;
  obs::PvarSet* pvars_;
  detail::BufBlock* free_[kBufClassCount]{};  // owner-thread private freelists
  std::size_t owned_[kBufClassCount]{};       // pooled blocks created, free or not
};

}  // namespace pamix::core
