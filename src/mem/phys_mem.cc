#include "mem/phys_mem.h"

#include <cstring>

#include "base/logging.h"

namespace crev::mem {

Addr
PhysMem::allocFrame()
{
    Addr pfn;
    if (!free_list_.empty()) {
        pfn = free_list_.back();
        free_list_.pop_back();
        *frames_[pfn] = Frame{}; // zero on reuse
    } else {
        pfn = next_pfn_++;
        auto f = std::make_unique<Frame>();
        by_pfn_.push_back(f.get());
        frames_[pfn] = std::move(f);
    }
    ++in_use_;
    peak_ = std::max(peak_, in_use_);
    return pfn;
}

void
PhysMem::freeFrame(Addr pfn)
{
    CREV_ASSERT(frames_.count(pfn));
    CREV_ASSERT(in_use_ > 0);
    --in_use_;
    free_list_.push_back(pfn);
}

Frame *
PhysMem::lookupFrame(Addr pfn) const
{
    if (dense_index_) {
        CREV_ASSERT(pfn < by_pfn_.size());
        Frame *f = by_pfn_[pfn];
        CREV_ASSERT(f != nullptr);
        return f;
    }
    if (pfn == cached_pfn_)
        return cached_frame_;
    auto it = frames_.find(pfn);
    CREV_ASSERT(it != frames_.end());
    cached_pfn_ = pfn;
    cached_frame_ = it->second.get();
    return cached_frame_;
}

Frame &
PhysMem::frame(Addr pfn)
{
    return *lookupFrame(pfn);
}

const Frame &
PhysMem::frame(Addr pfn) const
{
    return *lookupFrame(pfn);
}

void
PhysMem::read(Addr paddr, void *out, std::size_t len) const
{
    CREV_ASSERT(pageOffset(paddr) + len <= kPageSize);
    const Frame &f = frame(pageOf(paddr));
    std::memcpy(out, f.bytes.data() + pageOffset(paddr), len);
}

void
PhysMem::write(Addr paddr, const void *data, std::size_t len)
{
    CREV_ASSERT(pageOffset(paddr) + len <= kPageSize);
    Frame &f = frame(pageOf(paddr));
    std::memcpy(f.bytes.data() + pageOffset(paddr), data, len);
    // Data stores clear the tags of all granules they touch.
    const std::size_t first = granuleIndex(paddr);
    const std::size_t last = granuleIndex(paddr + len - 1);
    for (std::size_t g = first; g <= last; ++g)
        f.clearTag(g);
}

bool
PhysMem::tagAt(Addr paddr) const
{
    return frame(pageOf(paddr)).testTag(granuleIndex(paddr));
}

void
PhysMem::clearTag(Addr paddr)
{
    frame(pageOf(paddr)).clearTag(granuleIndex(paddr));
}

bool
PhysMem::frameHasTags(Addr pfn) const
{
    return frame(pfn).anyTags();
}

unsigned
PhysMem::lineTagNibble(Addr paddr) const
{
    return frame(pageOf(paddr))
        .lineNibble(static_cast<std::size_t>(pageOffset(paddr)) >>
                    kLineBits);
}

void
PhysMem::storeCap(Addr paddr, const cap::CapBits &bits, bool tag)
{
    CREV_ASSERT(pageOffset(paddr) % kGranuleSize == 0);
    Frame &f = frame(pageOf(paddr));
    std::memcpy(f.bytes.data() + pageOffset(paddr), &bits.lo, 8);
    std::memcpy(f.bytes.data() + pageOffset(paddr) + 8, &bits.hi, 8);
    f.setTag(granuleIndex(paddr), tag);
}

bool
PhysMem::loadCap(Addr paddr, cap::CapBits &bits) const
{
    CREV_ASSERT(pageOffset(paddr) % kGranuleSize == 0);
    const Frame &f = frame(pageOf(paddr));
    std::memcpy(&bits.lo, f.bytes.data() + pageOffset(paddr), 8);
    std::memcpy(&bits.hi, f.bytes.data() + pageOffset(paddr) + 8, 8);
    return f.testTag(granuleIndex(paddr));
}

} // namespace crev::mem
