/**
 * @file
 * A set-associative, write-back, write-allocate cache timing model.
 *
 * The cache tracks only line addresses and dirtiness; actual data lives
 * in PhysMem. That is all the paper's bus-traffic experiments need: a
 * bus transaction happens when a line is fetched from, or written back
 * to, the level below.
 *
 * A host-side per-frame resident-line count is maintained alongside
 * (updated on fill/eviction/invalidation, i.e. only on misses), so
 * frame-reuse invalidation can prove in O(1) that a cache holds no
 * line of a frame instead of walking all of the frame's sets.
 *
 * A per-set MRU-way hint is probed before the set scan (DESIGN.md
 * §14.4). A hint hit performs exactly the transitions the scan would,
 * so hit/miss outcomes, LRU victim choices and writeback sequences are
 * those of the plain scan.
 */

#ifndef CREV_MEM_CACHE_H_
#define CREV_MEM_CACHE_H_

#include <cstdint>
#include <vector>

#include "base/logging.h"
#include "base/types.h"

namespace crev::mem {

/** Cache geometry. */
struct CacheConfig
{
    std::size_t size_bytes = 32 * 1024;
    unsigned assoc = 4;
};

/** Outcome of a cache access. */
struct CacheResult
{
    bool hit = false;
    bool evicted_dirty = false; //!< a dirty victim was written back
    Addr victim_line = 0;       //!< line address of the writeback
};

/** One level of cache. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * Access the line containing @p addr; allocates on miss.
     * @param write marks the line dirty.
     */
    CacheResult access(Addr addr, bool write);

    /** Drop a line if present (no writeback); used on frame reuse. */
    void invalidateLine(Addr addr);

    /**
     * Drop every resident line of frame @p pfn (no writebacks).
     * Returns immediately when the frame provably has no lines here;
     * otherwise walks the frame's sets, stopping once the resident
     * count says the rest cannot match.
     */
    void invalidateFrame(Addr pfn);

    /** Resident lines belonging to frame @p pfn (host-side count). */
    unsigned residentLinesOf(Addr pfn) const;

    /** Whether the line containing @p addr is resident. */
    bool contains(Addr addr) const;

    /**
     * Hint-only probe backing MemorySystem's single-line fast path
     * (DESIGN.md §14.4). On an MRU-way hit it performs exactly the
     * transitions access() would (tick/lru/dirty/hits) and returns
     * true; otherwise it changes nothing and returns false so the
     * caller can fall back to the full access() path.
     */
    bool
    tryHintAccess(Addr addr, bool write)
    {
        const Addr line_addr = addr >> kLineBits;
        const std::size_t set =
            static_cast<std::size_t>(line_addr) & (num_sets_ - 1);
        Line &h = lines_[set * assoc_ + mru_[set]];
        if (h.valid && h.tag == line_addr) {
            h.lru = ++tick_;
            h.dirty |= write;
            ++hits_;
            return true;
        }
        return false;
    }

    /**
     * The access state machine, inline so MemorySystem's miss path
     * (DESIGN.md §14.4) can fuse the L1 and LLC transitions into one
     * frame with no cross-TU calls. access() is a thin wrapper around
     * this.
     */
    CacheResult
    accessInline(Addr addr, bool write, bool try_hint = true)
    {
        const Addr line_addr = addr >> kLineBits;
        const std::size_t set =
            static_cast<std::size_t>(line_addr) & (num_sets_ - 1);
        Line *ways = &lines_[set * assoc_];
        ++tick_;

        CacheResult res;
        // @p try_hint lets callers that already probed the hint (or
        // know it rarely pays, e.g. the LLC legs of a miss) skip the
        // redundant probe; the scan still refreshes mru_ on every hit
        // and fill, so later probes stay accurate either way.
        if (try_hint) {
            // MRU-way hint: a hint hit performs exactly the
            // transitions the set scan below would have (same
            // lru/dirty/hit updates); a mismatch falls through to the
            // unmodified scan.
            Line &h = ways[mru_[set]];
            if (h.valid && h.tag == line_addr) {
                h.lru = tick_;
                h.dirty |= write;
                ++hits_;
                res.hit = true;
                return res;
            }
        }
        Line *victim = &ways[0];
        for (unsigned w = 0; w < assoc_; ++w) {
            Line &line = ways[w];
            if (line.valid && line.tag == line_addr) {
                line.lru = tick_;
                line.dirty |= write;
                ++hits_;
                res.hit = true;
                mru_[set] = static_cast<std::uint8_t>(w);
                return res;
            }
            if (!line.valid) {
                victim = &line;
            } else if (victim->valid && line.lru < victim->lru) {
                victim = &line;
            }
        }

        ++misses_;
        mru_[set] = static_cast<std::uint8_t>(victim - ways);
        if (victim->valid) {
            trackDrop(victim->tag);
            if (victim->dirty) {
                res.evicted_dirty = true;
                res.victim_line = victim->tag << kLineBits;
            }
        }
        victim->tag = line_addr;
        victim->valid = true;
        victim->dirty = write;
        victim->lru = tick_;
        trackFill(line_addr);
        return res;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lru = 0;
    };

    std::size_t setIndex(Addr line_addr) const;

    /** Frame of a line address (line_addr is already >> kLineBits). */
    static Addr
    frameOfLine(Addr line_addr)
    {
        return line_addr >> (kPageBits - kLineBits);
    }

    void
    trackFill(Addr line_addr)
    {
        const auto pfn = static_cast<std::size_t>(frameOfLine(line_addr));
        if (pfn >= frame_lines_.size())
            frame_lines_.resize(pfn + 1, 0);
        ++frame_lines_[pfn];
    }

    void
    trackDrop(Addr line_addr)
    {
        const auto pfn = static_cast<std::size_t>(frameOfLine(line_addr));
        CREV_ASSERT(pfn < frame_lines_.size() && frame_lines_[pfn] > 0);
        --frame_lines_[pfn];
    }

    unsigned assoc_;
    std::size_t num_sets_;
    std::vector<Line> lines_; // num_sets_ * assoc_
    std::uint64_t tick_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;

    std::vector<std::uint8_t> mru_; //!< per-set last-touched way

    /** pfn -> resident line count, indexed directly (PhysMem hands
     *  out dense pfns, so this stays small); grown on first fill. */
    std::vector<unsigned> frame_lines_;
};

} // namespace crev::mem

#endif // CREV_MEM_CACHE_H_
