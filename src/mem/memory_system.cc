#include "mem/memory_system.h"

#include "base/logging.h"

namespace crev::mem {

MemorySystem::MemorySystem(unsigned num_cores, const CacheConfig &l1,
                           const CacheConfig &llc, const MemLatency &lat)
    : llc_(llc), lat_(lat), counters_(num_cores)
{
    CREV_ASSERT(num_cores > 0);
    l1_.reserve(num_cores);
    for (unsigned c = 0; c < num_cores; ++c)
        l1_.emplace_back(l1);
}

Cycles
MemorySystem::accessLineFast(unsigned core, Addr line_paddr, bool write,
                             bool l1_hint)
{
    // Through accessInline (DESIGN.md §14.4), so the L1 and LLC state
    // machines fuse into this frame with no cross-TU calls.
    MemCounters &ctr = counters_[core];
    ++ctr.accesses;

    const CacheResult l1r =
        l1_[core].accessInline(line_paddr, write, l1_hint);
    if (l1r.hit)
        return lat_.l1_hit;
    ++ctr.l1_misses;

    if (l1r.evicted_dirty) {
        // LLC legs of a miss: the streaming sweeps that dominate the
        // heavy cells rarely repeat an LLC set back-to-back, so the
        // hint probe is skipped (mru_ is still refreshed by the scan).
        const CacheResult wb =
            llc_.accessInline(l1r.victim_line, true, false);
        if (!wb.hit) {
            ++ctr.bus_reads;
            if (wb.evicted_dirty)
                ++ctr.bus_writes;
        } else if (wb.evicted_dirty) {
            ++ctr.bus_writes;
        }
    }

    const CacheResult llcr = llc_.accessInline(line_paddr, false, false);
    if (llcr.hit)
        return lat_.l1_hit + lat_.llc_hit;

    ++ctr.bus_reads;
    if (llcr.evicted_dirty)
        ++ctr.bus_writes;
    return lat_.l1_hit + lat_.llc_hit + lat_.dram;
}

Cycles
MemorySystem::accessSlow(unsigned core, Addr paddr, std::size_t len,
                         bool write)
{
    CREV_ASSERT(core < l1_.size());
    CREV_ASSERT(len > 0);
    Cycles total = 0;
    const Addr first = roundDown(paddr, kLineSize);
    const Addr last = roundDown(paddr + len - 1, kLineSize);
    for (Addr line = first; line <= last; line += kLineSize)
        total += accessLineFast(core, line, write);
    return total;
}

void
MemorySystem::invalidateFrame(Addr pfn)
{
    // Each cache proves absence in O(1) via its per-frame resident
    // count before any per-line walk (frame reuse mostly hits caches
    // that never touched the frame).
    for (auto &l1 : l1_)
        l1.invalidateFrame(pfn);
    llc_.invalidateFrame(pfn);
}

const MemCounters &
MemorySystem::counters(unsigned core) const
{
    CREV_ASSERT(core < counters_.size());
    return counters_[core];
}

MemCounters
MemorySystem::totalCounters() const
{
    MemCounters total;
    for (const auto &c : counters_) {
        total.accesses += c.accesses;
        total.l1_misses += c.l1_misses;
        total.bus_reads += c.bus_reads;
        total.bus_writes += c.bus_writes;
    }
    return total;
}

} // namespace crev::mem
