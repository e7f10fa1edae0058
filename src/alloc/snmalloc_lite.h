/**
 * @file
 * A size-classed slab allocator in the spirit of snmalloc, operating
 * entirely on simulated memory.
 *
 * Small objects come from per-size-class slabs carved out of 64 KiB
 * chunks inside 1 MiB arenas; large objects get page-granular,
 * representability-aligned carve-outs. Free lists are *in-band*:
 * each free object's first granule holds a capability to the next
 * free object, so allocator metadata traffic (and its interaction
 * with the load barrier — the allocator is just another userspace
 * capability user) is faithfully accounted.
 *
 * Size classes are chosen so every (base, size) pair the allocator
 * produces is exactly representable under cap/compression.h — the
 * discipline a real CHERI malloc must follow (paper §2.1).
 *
 * The returned capability's bounds cover exactly the size class, so a
 * correct client cannot touch neighbours (spatial safety); temporal
 * safety is layered on by QuarantineShim.
 *
 * There is one heap for the whole machine, as in the paper's mrs
 * shim over snmalloc: every core allocates from and frees onto the
 * same free lists, serialised by the shim's heap lock.
 */

#ifndef CREV_ALLOC_SNMALLOC_LITE_H_
#define CREV_ALLOC_SNMALLOC_LITE_H_

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "base/types.h"
#include "cap/capability.h"
#include "kern/kernel.h"
#include "sim/scheduler.h"
#include "vm/mmu.h"

namespace crev::alloc {

/** Small-object size classes (bytes); all exactly representable. */
constexpr std::array<std::size_t, 20> kSizeClasses = {
    16,   32,   48,   64,   96,   128,  192,  256,   384,   512,
    768,  1024, 1536, 2048, 3072, 4096, 6144, 8192, 12288, 16384};

/** Largest small-object size. */
constexpr std::size_t kMaxSmall = kSizeClasses.back();

/** Allocator activity counters. */
struct AllocStats
{
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t bytes_allocated_total = 0;
    std::uint64_t bytes_freed_total = 0;
};

/** The slab allocator. */
class SnmallocLite
{
  public:
    SnmallocLite(kern::Kernel &kernel, vm::Mmu &mmu);

    /**
     * Allocate at least @p size bytes; returns a tagged capability
     * bounded to the rounded size (the size class, or page-rounded
     * for large allocations).
     */
    cap::Capability alloc(sim::SimThread &t, std::size_t size);

    /**
     * Return an object to the free lists immediately (no quarantine;
     * the baseline configuration). Detects double-free of a live
     * pointer.
     */
    void dealloc(sim::SimThread &t, const cap::Capability &c);

    /** Dequarantine path: free by base address onto the free lists. */
    void deallocRaw(sim::SimThread &t, Addr base);

    /**
     * Remove @p base from the live set (quarantine entry point): the
     * object stops counting toward the live heap but is not yet
     * reusable. Throws std::logic_error on double free, whichever core
     * the second free comes from.
     */
    void retire(Addr base);

    /** Rounded allocation size for @p base (must be a live or
     *  quarantined object base). */
    std::size_t objectSize(Addr base) const;

    /** Bytes in live allocations (rounded sizes). */
    std::size_t liveBytes() const { return live_bytes_; }

    /**
     * Address-space bytes an alloc(@p size) would have to mmap right
     * now — 0 when it can be served from free lists, the current
     * slab, the current arena, or the large-chunk cache. The
     * quarantine shim probes this before allocating so address-space
     * exhaustion can degrade to emergency reclaim instead of
     * asserting.
     */
    std::size_t mmapDemandFor(std::size_t size) const;

    const AllocStats &stats() const { return stats_; }

    /** The size class index holding @p size, or -1 if large. */
    static int sizeClassFor(std::size_t size);

  private:
    struct ClassState
    {
        Addr free_head = 0; //!< VA of first free object (0 = empty)
        cap::Capability free_head_cap; //!< allocator-retained pointer
        Addr bump = 0;      //!< next never-used object in current slab
        Addr slab_end = 0;
    };

    struct ChunkMeta
    {
        Addr base = 0;
        std::size_t length = 0;
        int size_class = -1; //!< -1 for large chunks
        /** Allocator-retained capability spanning the chunk. */
        cap::Capability chunk_cap;
    };

    /** Carve a new chunk of @p bytes (page multiple) from the arena. */
    Addr carveChunk(sim::SimThread &t, std::size_t bytes,
                    std::size_t align);

    const ChunkMeta &chunkFor(Addr va) const;

    /** Mirror a chunks_ insertion into the per-page index. */
    void noteChunk(const ChunkMeta &m);

    // --- live-set granule bitmap ---
    std::size_t liveBitIndex(Addr base) const;
    void liveBitSet(Addr base);
    /** Clear the bit; returns whether it was set. */
    bool liveBitClear(Addr base);

    kern::Kernel &kernel_;
    vm::Mmu &mmu_;
    std::array<ClassState, kSizeClasses.size()> classes_{};
    std::map<std::size_t, std::vector<cap::Capability>>
        large_free_; //!< cached free large chunks, by length
    cap::Capability arena_cap_; //!< current arena root
    Addr arena_bump_ = 0;
    Addr arena_end_ = 0;
    std::map<Addr, ChunkMeta> chunks_; //!< by chunk base
    // Flat lookup structures (DESIGN.md §14.4). Chunks are
    // page-granular, non-overlapping and never erased, and object
    // bases are 16-byte aligned inside the heap window.
    /** Heap page -> owning chunk; never invalidated. */
    std::vector<const ChunkMeta *> chunk_by_page_;
    /** One bit per heap granule: live object base. */
    std::vector<std::uint64_t> live_bits_;
    std::size_t live_bytes_ = 0;
    AllocStats stats_;
};

} // namespace crev::alloc

#endif // CREV_ALLOC_SNMALLOC_LITE_H_
