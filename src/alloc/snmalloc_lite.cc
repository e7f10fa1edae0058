#include "alloc/snmalloc_lite.h"

#include <stdexcept>

#include "base/logging.h"
#include "cap/compression.h"

namespace crev::alloc {

namespace {
constexpr std::size_t kChunkSize = 64 * 1024;
constexpr std::size_t kArenaSize = 1024 * 1024;
constexpr std::size_t kHeapPages = static_cast<std::size_t>(
    (vm::kHeapCeiling - vm::kHeapBase) / kPageSize);
constexpr std::size_t kHeapGranules = static_cast<std::size_t>(
    (vm::kHeapCeiling - vm::kHeapBase) / kGranuleSize);

/** Granule-indexed size-class table: entry g holds the class for all
 *  sizes in (16*(g-1), 16*g]. Built at compile time from kSizeClasses
 *  so the two can never drift (equivalence pinned exhaustively in
 *  tests/alloc_test.cpp). */
constexpr auto kClassLut = [] {
    std::array<std::int8_t, kMaxSmall / 16 + 1> lut{};
    std::size_t c = 0;
    for (std::size_t g = 0; g < lut.size(); ++g) {
        while (g * 16 > kSizeClasses[c])
            ++c;
        lut[g] = static_cast<std::int8_t>(c);
    }
    return lut;
}();
} // namespace

SnmallocLite::SnmallocLite(kern::Kernel &kernel, vm::Mmu &mmu,
                           unsigned shards)
    : kernel_(kernel), mmu_(mmu), chunk_by_page_(kHeapPages, nullptr),
      live_bits_(kHeapGranules / 64, 0)
{
    CREV_ASSERT(shards >= 1);
    shards_.resize(shards);
}

int
SnmallocLite::sizeClassFor(std::size_t size)
{
    if (size > kMaxSmall)
        return -1;
    return kClassLut[(size + 15) >> 4];
}

Addr
SnmallocLite::carveChunk(sim::SimThread &t, Shard &sh,
                         std::size_t bytes, std::size_t align)
{
    CREV_ASSERT(bytes % kPageSize == 0);
    Addr base = roundUp(sh.arena_bump, align);
    if (base + bytes > sh.arena_end) {
        const std::size_t arena_bytes = std::max<std::size_t>(
            kArenaSize, roundUp(bytes, kPageSize));
        sh.arena_cap = kernel_.sysMmap(t, arena_bytes);
        sh.arena_bump = sh.arena_cap.base;
        sh.arena_end = sh.arena_cap.top;
        base = roundUp(sh.arena_bump, align);
        CREV_ASSERT(base + bytes <= sh.arena_end);
    }
    sh.arena_bump = base + bytes;
    return base;
}

const SnmallocLite::ChunkMeta &
SnmallocLite::chunkFor(Addr va) const
{
    CREV_ASSERT(va >= vm::kHeapBase && va < vm::kHeapCeiling);
    const ChunkMeta *m = chunk_by_page_[(va - vm::kHeapBase) / kPageSize];
    CREV_ASSERT(m != nullptr);
    CREV_ASSERT(va >= m->base && va < m->base + m->length);
    return *m;
}

void
SnmallocLite::noteChunk(const ChunkMeta &m)
{
    for (Addr va = m.base; va < m.base + m.length; va += kPageSize)
        chunk_by_page_[(va - vm::kHeapBase) / kPageSize] = &m;
}

std::size_t
SnmallocLite::liveBitIndex(Addr base) const
{
    CREV_ASSERT(base >= vm::kHeapBase && base < vm::kHeapCeiling);
    CREV_ASSERT(base % kGranuleSize == 0);
    return static_cast<std::size_t>((base - vm::kHeapBase) >>
                                    kGranuleBits);
}

bool
SnmallocLite::liveBitTest(Addr base) const
{
    const std::size_t i = liveBitIndex(base);
    return (live_bits_[i >> 6] >> (i & 63)) & 1u;
}

void
SnmallocLite::liveBitSet(Addr base)
{
    const std::size_t i = liveBitIndex(base);
    live_bits_[i >> 6] |= std::uint64_t{1} << (i & 63);
}

bool
SnmallocLite::liveBitClear(Addr base)
{
    const std::size_t i = liveBitIndex(base);
    std::uint64_t &w = live_bits_[i >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if ((w & bit) == 0)
        return false;
    w &= ~bit;
    return true;
}

cap::Capability
SnmallocLite::alloc(sim::SimThread &t, std::size_t size,
                    unsigned shard)
{
    CREV_ASSERT(size > 0);
    CREV_ASSERT(shard < shards_.size());
    Shard &sh = shards_[shard];
    t.accrue(mmu_.costs().malloc_overhead);

    const int sc = sizeClassFor(size);
    cap::Capability result;

    if (sc < 0) {
        // Large allocation: its own page-granular carve-out, reusing a
        // cached free chunk of the same length when available
        // (snmalloc never munmaps — paper §6.2).
        const std::size_t bytes = roundUp(size, kPageSize);
        auto it = sh.large_free.find(bytes);
        if (it != sh.large_free.end() && !it->second.empty()) {
            result = it->second.back();
            it->second.pop_back();
        } else {
            result = kernel_.sysMmap(t, bytes);
            ChunkMeta &m = chunks_[result.base];
            m = ChunkMeta{result.base, bytes, -1, shard, result};
            noteChunk(m);
        }
    } else {
        const std::size_t csize = kSizeClasses[sc];
        ClassState &cs = sh.classes[sc];
        Addr base;
        if (cs.free_head != 0) {
            // Pop the in-band free list; this capability load goes
            // through the load barrier like any other.
            base = cs.free_head;
            const cap::Capability next = mmu_.loadCap(t, base);
            cs.free_head = next.tag ? next.address : 0;
            cs.free_head_cap = next;
        } else {
            if (cs.bump + csize > cs.slab_end) {
                const Addr chunk =
                    carveChunk(t, sh, kChunkSize, kPageSize);
                const cap::Capability ccap = sh.arena_cap.setBounds(
                    chunk, chunk + kChunkSize);
                CREV_ASSERT(ccap.tag);
                ChunkMeta &m = chunks_[chunk];
                m = ChunkMeta{chunk, kChunkSize, sc, shard, ccap};
                noteChunk(m);
                cs.bump = chunk;
                cs.slab_end = chunk + kChunkSize;
            }
            base = cs.bump;
            cs.bump += csize;
        }
        const ChunkMeta &m = chunkFor(base);
        result = m.chunk_cap.setBounds(base, base + csize);
    }

    CREV_ASSERT(result.tag);
    liveBitSet(result.base);
    live_bytes_ += result.length();
    ++stats_.allocs;
    stats_.bytes_allocated_total += result.length();
    ++sh.stats.allocs;
    sh.stats.bytes_allocated_total += result.length();
    return result;
}

std::size_t
SnmallocLite::mmapDemandFor(std::size_t size, unsigned shard) const
{
    CREV_ASSERT(shard < shards_.size());
    const Shard &sh = shards_[shard];
    const int sc = sizeClassFor(size);
    if (sc < 0) {
        const std::size_t bytes = roundUp(size, kPageSize);
        auto it = sh.large_free.find(bytes);
        if (it != sh.large_free.end() && !it->second.empty())
            return 0;
        return bytes;
    }
    const ClassState &cs = sh.classes[sc];
    if (cs.free_head != 0)
        return 0;
    if (cs.bump + kSizeClasses[sc] <= cs.slab_end)
        return 0;
    // A fresh chunk is needed; in the worst case the arena is
    // exhausted too and carveChunk() mmaps a whole new one.
    const Addr base = roundUp(sh.arena_bump, kPageSize);
    if (base + kChunkSize <= sh.arena_end)
        return 0;
    return std::max<std::size_t>(kArenaSize,
                                 roundUp(kChunkSize, kPageSize));
}

std::size_t
SnmallocLite::objectSize(Addr base) const
{
    const ChunkMeta &m = chunkFor(base);
    if (m.size_class < 0) {
        CREV_ASSERT(base == m.base);
        return m.length;
    }
    const std::size_t csize = kSizeClasses[m.size_class];
    CREV_ASSERT((base - m.base) % csize == 0);
    return csize;
}

void
SnmallocLite::markInFlight(Addr base)
{
    if (!isLive(base) || !in_flight_.insert(base).second)
        throw std::logic_error(
            "remote free of a pointer that is not live "
            "(double free or invalid free)");
}

void
SnmallocLite::clearInFlight(Addr base)
{
    const std::size_t erased = in_flight_.erase(base);
    CREV_ASSERT(erased == 1);
}

void
SnmallocLite::retire(Addr base)
{
    if (!in_flight_.empty() && in_flight_.count(base) != 0)
        throw std::logic_error(
            "free of a pointer whose remote free is still in flight "
            "(double free)");
    if (!liveBitClear(base))
        throw std::logic_error("free of a pointer that is not live "
                               "(double free or invalid free)");
    const std::size_t size = objectSize(base);
    CREV_ASSERT(live_bytes_ >= size);
    live_bytes_ -= size;
    ++stats_.frees;
    stats_.bytes_freed_total += size;
    Shard &owner = shards_[chunkFor(base).owner];
    ++owner.stats.frees;
    owner.stats.bytes_freed_total += size;
}

void
SnmallocLite::deallocRaw(sim::SimThread &t, Addr base)
{
    t.accrue(mmu_.costs().free_overhead);
    const ChunkMeta &m = chunkFor(base);
    Shard &sh = shards_[m.owner];
    if (m.size_class < 0) {
        sh.large_free[m.length].push_back(m.chunk_cap);
        return;
    }
    const std::size_t csize = kSizeClasses[m.size_class];
    ClassState &cs = sh.classes[m.size_class];
    // Push onto the in-band free list: the (possibly null) old head
    // capability is stored into the object's first granule.
    mmu_.storeCap(t, base, cs.free_head_cap);
    cs.free_head = base;
    cs.free_head_cap = m.chunk_cap.setBounds(base, base + csize);
    CREV_ASSERT(cs.free_head_cap.tag);
}

void
SnmallocLite::dealloc(sim::SimThread &t, const cap::Capability &c)
{
    if (!c.tag)
        throw std::logic_error("free of an untagged capability");
    retire(c.base);
    deallocRaw(t, c.base);
}

} // namespace crev::alloc
