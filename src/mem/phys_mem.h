/**
 * @file
 * Sparse tagged physical memory.
 *
 * Memory is organised as 4 KiB frames; each frame carries 256 tag bits,
 * one per 16-byte capability granule, mirroring Morello's tagged DRAM
 * (paper §2.1: "machinery is required to associate tags with memory
 * words"). Frames are allocated/freed by the simulated VM layer;
 * occupancy high-water marks feed the peak-RSS experiment (fig. 3).
 *
 * Host-performance layer (DESIGN.md §9): tags are stored as packed
 * 64-bit *tag-summary words* so the sweep can scan a whole cache
 * line's granules with one shift instead of per-granule calls, and
 * every frame maintains a 64-bit *line-tag summary* (one bit per cache
 * line, set iff any granule of the line is tagged) kept up to date on
 * every tag set/clear. Neither structure affects simulated cycle
 * accounting; the Auditor cross-checks the summary invariant.
 */

#ifndef CREV_MEM_PHYS_MEM_H_
#define CREV_MEM_PHYS_MEM_H_

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "base/logging.h"
#include "base/types.h"
#include "cap/compression.h"

namespace crev::mem {

/** Granules per cache line (the sweep's nibble width). */
constexpr std::size_t kGranulesPerLine = kLineSize / kGranuleSize;

/** Packed per-granule tag bits of one frame (the summary words). */
class TagWords
{
  public:
    static constexpr std::size_t kWords = kGranulesPerPage / 64;

    bool
    test(std::size_t g) const
    {
        return (w_[g >> 6] >> (g & 63)) & 1u;
    }

    void
    set(std::size_t g)
    {
        w_[g >> 6] |= std::uint64_t{1} << (g & 63);
    }

    void
    reset(std::size_t g)
    {
        w_[g >> 6] &= ~(std::uint64_t{1} << (g & 63));
    }

    bool
    any() const
    {
        for (std::uint64_t w : w_)
            if (w != 0)
                return true;
        return false;
    }

    std::size_t
    count() const
    {
        std::size_t c = 0;
        for (std::uint64_t w : w_)
            c += static_cast<std::size_t>(std::popcount(w));
        return c;
    }

    /** Raw word @p k (64 granule bits), for ctz-driven scans. */
    std::uint64_t word(std::size_t k) const { return w_[k]; }

    /** The 4 tag bits of intra-page cache line @p line. */
    unsigned
    lineNibble(std::size_t line) const
    {
        return static_cast<unsigned>(
                   w_[line >> 4] >> ((line & 15) * kGranulesPerLine)) &
               0xFu;
    }

  private:
    std::array<std::uint64_t, kWords> w_{};
};

/** One physical frame: data bytes plus per-granule capability tags. */
class Frame
{
  public:
    std::array<std::uint8_t, kPageSize> bytes{};

    /** Tag bit of granule @p g. */
    bool testTag(std::size_t g) const { return tags_.test(g); }

    /** Set/clear granule @p g's tag, maintaining the line summary. */
    void
    setTag(std::size_t g, bool v)
    {
        if (v) {
            tags_.set(g);
            line_summary_ |= std::uint64_t{1} << lineOf(g);
        } else {
            clearTag(g);
        }
    }

    void
    clearTag(std::size_t g)
    {
        tags_.reset(g);
        const std::size_t line = lineOf(g);
        if (tags_.lineNibble(line) == 0)
            line_summary_ &= ~(std::uint64_t{1} << line);
    }

    /** Whether any granule of the frame is tagged (O(1)). */
    bool anyTags() const { return line_summary_ != 0; }

    /** Tagged-granule count (audit/debug). */
    std::size_t tagCount() const { return tags_.count(); }

    /** The packed tag words (read-only; mutate via set/clearTag). */
    const TagWords &tagWords() const { return tags_; }

    /** One bit per cache line: set iff the line holds a tagged
     *  granule. The sweep's clean-line skip reads this. */
    std::uint64_t lineTagSummary() const { return line_summary_; }

    /** Tag nibble of intra-page cache line @p line. */
    unsigned lineNibble(std::size_t line) const
    {
        return tags_.lineNibble(line);
    }

    /**
     * Summary invariant check (Auditor): every line-summary bit must
     * be set iff the line's nibble is non-zero. Returns true when
     * consistent.
     */
    bool
    summaryConsistent() const
    {
        std::uint64_t recomputed = 0;
        for (std::size_t line = 0; line < kPageSize / kLineSize; ++line)
            if (tags_.lineNibble(line) != 0)
                recomputed |= std::uint64_t{1} << line;
        return recomputed == line_summary_;
    }

  private:
    static std::size_t lineOf(std::size_t g)
    {
        return g / kGranulesPerLine;
    }

    TagWords tags_;
    std::uint64_t line_summary_ = 0;
};

/**
 * The machine's physical memory. Frame numbers (pfns) are dense
 * indices; a free list recycles released frames.
 */
class PhysMem
{
  public:
    PhysMem() { frames_.emplace_back(); } // pfn 0 reserved as "invalid"

    /** Allocate a zeroed frame; returns its pfn. */
    Addr allocFrame();

    /** Release a frame back to the free pool. */
    void freeFrame(Addr pfn);

    /** Frames currently allocated. */
    std::size_t framesInUse() const { return in_use_; }

    /** High-water mark of allocated frames (peak RSS proxy). */
    std::size_t peakFrames() const { return peak_; }

    /** Direct access to a frame (must be allocated). */
    Frame &
    frame(Addr pfn)
    {
        CREV_ASSERT(pfn < frames_.size() && frames_[pfn] != nullptr);
        return *frames_[pfn];
    }

    const Frame &
    frame(Addr pfn) const
    {
        CREV_ASSERT(pfn < frames_.size() && frames_[pfn] != nullptr);
        return *frames_[pfn];
    }

    /** Read @p len bytes at physical address @p paddr (intra-page). */
    void
    read(Addr paddr, void *out, std::size_t len) const
    {
        CREV_ASSERT(pageOffset(paddr) + len <= kPageSize);
        const Frame &f = frame(pageOf(paddr));
        std::memcpy(out, f.bytes.data() + pageOffset(paddr), len);
    }

    /**
     * Write @p len bytes at @p paddr (intra-page). Clears the tags of
     * every granule the write overlaps: ordinary data stores always
     * invalidate capabilities (CHERI tag semantics).
     */
    void
    write(Addr paddr, const void *data, std::size_t len)
    {
        CREV_ASSERT(pageOffset(paddr) + len <= kPageSize);
        Frame &f = frame(pageOf(paddr));
        std::memcpy(f.bytes.data() + pageOffset(paddr), data, len);
        const std::size_t first = granuleIndex(paddr);
        const std::size_t last = granuleIndex(paddr + len - 1);
        for (std::size_t g = first; g <= last; ++g)
            f.clearTag(g);
    }

    /** Tag bit of the granule containing @p paddr. */
    bool
    tagAt(Addr paddr) const
    {
        return frame(pageOf(paddr)).testTag(granuleIndex(paddr));
    }

    /** Clear the tag of the granule containing @p paddr. */
    void
    clearTag(Addr paddr)
    {
        frame(pageOf(paddr)).clearTag(granuleIndex(paddr));
    }

    /** Whether any granule of frame @p pfn is tagged. */
    bool frameHasTags(Addr pfn) const { return frame(pfn).anyTags(); }

    /** Tag nibble of the cache line containing @p paddr. */
    unsigned
    lineTagNibble(Addr paddr) const
    {
        return frame(pageOf(paddr))
            .lineNibble(static_cast<std::size_t>(pageOffset(paddr)) >>
                        kLineBits);
    }

    /** Store a capability (16-byte aligned @p paddr) with its tag. */
    void
    storeCap(Addr paddr, const cap::CapBits &bits, bool tag)
    {
        CREV_ASSERT(pageOffset(paddr) % kGranuleSize == 0);
        Frame &f = frame(pageOf(paddr));
        std::memcpy(f.bytes.data() + pageOffset(paddr), &bits.lo, 8);
        std::memcpy(f.bytes.data() + pageOffset(paddr) + 8, &bits.hi, 8);
        f.setTag(granuleIndex(paddr), tag);
    }

    /** Load a capability; returns the tag bit. */
    bool
    loadCap(Addr paddr, cap::CapBits &bits) const
    {
        CREV_ASSERT(pageOffset(paddr) % kGranuleSize == 0);
        const Frame &f = frame(pageOf(paddr));
        std::memcpy(&bits.lo, f.bytes.data() + pageOffset(paddr), 8);
        std::memcpy(&bits.hi, f.bytes.data() + pageOffset(paddr) + 8, 8);
        return f.testTag(granuleIndex(paddr));
    }

    /** Granule index of @p paddr within its page. */
    static std::size_t
    granuleIndex(Addr paddr)
    {
        return static_cast<std::size_t>(pageOffset(paddr) >>
                                        kGranuleBits);
    }

  private:
    /** Frames indexed by pfn (pfn 0 = null). Pfns are dense from 1 and
     *  frames are never erased (freed ones are recycled from the free
     *  list), so a lookup is one bounds-checked vector index. */
    std::vector<std::unique_ptr<Frame>> frames_;
    std::vector<Addr> free_list_;
    std::size_t in_use_ = 0;
    std::size_t peak_ = 0;
};

} // namespace crev::mem

#endif // CREV_MEM_PHYS_MEM_H_
