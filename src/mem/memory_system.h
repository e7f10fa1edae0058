/**
 * @file
 * The machine's memory hierarchy timing model.
 *
 * Per-core private L1 caches in front of a shared last-level cache in
 * front of DRAM. "Bus transactions" are counted at the LLC<->DRAM
 * boundary and attributed to the requesting core — the analogue of the
 * paper's system-mode pmcstat bus-access counters used as a proxy for
 * DRAM traffic (figs. 4 and 6).
 */

#ifndef CREV_MEM_MEMORY_SYSTEM_H_
#define CREV_MEM_MEMORY_SYSTEM_H_

#include <cstdint>
#include <vector>

#include "base/types.h"
#include "mem/cache.h"

namespace crev::mem {

/** Latency parameters (cycles). */
struct MemLatency
{
    Cycles l1_hit = 4;
    Cycles llc_hit = 14;
    Cycles dram = 100;
};

/** Per-core traffic counters. */
struct MemCounters
{
    std::uint64_t accesses = 0;  //!< CPU-side accesses
    std::uint64_t l1_misses = 0;
    std::uint64_t bus_reads = 0;  //!< LLC miss fills from DRAM
    std::uint64_t bus_writes = 0; //!< LLC dirty writebacks to DRAM

    std::uint64_t
    busTransactions() const
    {
        return bus_reads + bus_writes;
    }
};

/**
 * Timing and traffic model for all simulated memory operations. Data
 * movement is handled separately by PhysMem; this class only accounts
 * for latency and traffic given the physical addresses touched.
 */
class MemorySystem
{
  public:
    MemorySystem(unsigned num_cores, const CacheConfig &l1,
                 const CacheConfig &llc, const MemLatency &lat);

    /**
     * Perform an access of @p len bytes at physical address @p paddr
     * from @p core; returns the latency in cycles. Accesses spanning
     * line boundaries touch each line once.
     */
    Cycles
    access(unsigned core, Addr paddr, std::size_t len, bool write)
    {
        // Single-line fast path (DESIGN.md §14.4): the common L1
        // MRU-way hit skips the per-line loop and cross-TU calls.
        // Counter and cache transitions are identical to accessSlow's
        // (tryHintAccess performs exactly the scan's hit updates).
        // `len - 1 < kLineSize` also routes len == 0 to the slow
        // path's assert.
        if (len - 1 < kLineSize &&
            (paddr & ~Addr{kLineSize - 1}) ==
                ((paddr + len - 1) & ~Addr{kLineSize - 1})) {
            if (l1_[core].tryHintAccess(paddr, write)) {
                ++counters_[core].accesses;
                return lat_.l1_hit;
            }
            // The hint already missed: take the fused line path with
            // the redundant L1 hint probe skipped.
            return accessLineFast(core, paddr & ~Addr{kLineSize - 1},
                                  write, false);
        }
        return accessSlow(core, paddr, len, write);
    }

    /** Invalidate all cached copies of a frame (on frame reuse). */
    void invalidateFrame(Addr pfn);

    const MemCounters &counters(unsigned core) const;
    /** Aggregate over all cores. */
    MemCounters totalCounters() const;

    unsigned numCores() const { return static_cast<unsigned>(l1_.size()); }

  private:
    Cycles accessSlow(unsigned core, Addr paddr, std::size_t len,
                      bool write);
    /** One line's L1/LLC transitions, built on Cache::accessInline.
     *  @p l1_hint: probe the L1 MRU hint (false when the caller
     *  already did). */
    Cycles accessLineFast(unsigned core, Addr line_paddr, bool write,
                          bool l1_hint = true);

    std::vector<Cache> l1_;
    Cache llc_;
    MemLatency lat_;
    std::vector<MemCounters> counters_;
};

} // namespace crev::mem

#endif // CREV_MEM_MEMORY_SYSTEM_H_
