#include "mem/cache.h"

#include "base/logging.h"

namespace crev::mem {

Cache::Cache(const CacheConfig &cfg) : assoc_(cfg.assoc)
{
    CREV_ASSERT(cfg.assoc > 0);
    num_sets_ = cfg.size_bytes / (kLineSize * cfg.assoc);
    CREV_ASSERT(num_sets_ > 0);
    CREV_ASSERT((num_sets_ & (num_sets_ - 1)) == 0);
    lines_.resize(num_sets_ * assoc_);
    mru_.assign(num_sets_, 0);
}

std::size_t
Cache::setIndex(Addr line_addr) const
{
    return static_cast<std::size_t>(line_addr) & (num_sets_ - 1);
}

CacheResult
Cache::access(Addr addr, bool write)
{
    return accessInline(addr, write);
}

void
Cache::invalidateLine(Addr addr)
{
    const Addr line_addr = addr >> kLineBits;
    Line *ways = &lines_[setIndex(line_addr) * assoc_];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (ways[w].valid && ways[w].tag == line_addr) {
            ways[w].valid = false;
            ways[w].dirty = false;
            trackDrop(line_addr);
        }
    }
}

unsigned
Cache::residentLinesOf(Addr pfn) const
{
    return pfn < frame_lines_.size()
               ? frame_lines_[static_cast<std::size_t>(pfn)]
               : 0u;
}

void
Cache::invalidateFrame(Addr pfn)
{
    unsigned remaining = residentLinesOf(pfn);
    if (remaining == 0)
        return;
    const Addr base = pfn << kPageBits;
    for (Addr off = 0; off < kPageSize && remaining > 0;
         off += kLineSize) {
        const Addr line_addr = (base + off) >> kLineBits;
        Line *ways = &lines_[setIndex(line_addr) * assoc_];
        for (unsigned w = 0; w < assoc_; ++w) {
            if (ways[w].valid && ways[w].tag == line_addr) {
                ways[w].valid = false;
                ways[w].dirty = false;
                trackDrop(line_addr);
                --remaining;
            }
        }
    }
    CREV_ASSERT(residentLinesOf(pfn) == 0);
}

bool
Cache::contains(Addr addr) const
{
    const Addr line_addr = addr >> kLineBits;
    const Line *ways = &lines_[setIndex(line_addr) * assoc_];
    for (unsigned w = 0; w < assoc_; ++w)
        if (ways[w].valid && ways[w].tag == line_addr)
            return true;
    return false;
}

} // namespace crev::mem
