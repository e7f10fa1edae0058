/**
 * @file
 * A per-core translation lookaside buffer.
 *
 * Caches PTE snapshots keyed by virtual page number with FIFO
 * replacement (deterministic). Shootdowns — needed whenever the
 * revoker updates a PTE's generation or permissions — invalidate a
 * single page on every core and are charged to the updater.
 *
 * The backing is a small open-addressed linear-probe table with
 * backward-shift deletion (DESIGN.md §14.4).
 */

#ifndef CREV_VM_TLB_H_
#define CREV_VM_TLB_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "base/types.h"
#include "vm/pte.h"

namespace crev::vm {

/** A single core's TLB. */
class Tlb
{
  public:
    explicit Tlb(std::size_t capacity = 128);

    /** Look up @p vpn; returns nullptr on miss. */
    const Pte *
    lookup(Addr vpn) const
    {
        const Pte *p = peek(vpn);
        if (p == nullptr) {
            ++misses_;
            return nullptr;
        }
        ++hits_;
        return p;
    }

    /**
     * Counter-free lookup for host-side fast paths that must observe
     * the TLB without perturbing hit/miss statistics.
     */
    const Pte *
    peek(Addr vpn) const
    {
        const std::size_t i = findIndex(vpn);
        return i == kNone ? nullptr : &slot_pte_[i];
    }

    /** Install a translation, evicting FIFO if full. */
    void insert(Addr vpn, const Pte &pte);

    /** Drop one page's translation. */
    void invalidatePage(Addr vpn);

    /** Drop everything (e.g. on generation flip). */
    void invalidateAll();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    std::size_t slotMask() const { return slot_vpn_.size() - 1; }

    std::size_t
    homeOf(Addr vpn) const
    {
        // Fibonacci hashing: deterministic, good spread for
        // page-aligned keys.
        return static_cast<std::size_t>(
                   (vpn * 0x9E3779B97F4A7C15ull) >> 32) &
               slotMask();
    }

    static constexpr std::size_t kNone = ~std::size_t{0};

    /** Index of @p vpn's slot, or kNone when absent. */
    std::size_t
    findIndex(Addr vpn) const
    {
        for (std::size_t i = homeOf(vpn); slot_vpn_[i] != 0;
             i = (i + 1) & slotMask())
            if (slot_vpn_[i] == vpn)
                return i;
        return kNone;
    }

    /** Backward-shift delete; false when @p vpn is absent. */
    bool erase(Addr vpn);

    std::size_t capacity_;
    std::deque<Addr> fifo_;
    /** Open-addressed keys (0 = empty: the zero page is never mapped).
     *  Structure-of-arrays, so probes touch only this small array and
     *  PTE payloads are read only on a hit. */
    std::vector<Addr> slot_vpn_;
    std::vector<Pte> slot_pte_; //!< payloads, parallel to slot_vpn_
    std::size_t size_ = 0;
    mutable std::uint64_t hits_ = 0;
    mutable std::uint64_t misses_ = 0;
};

} // namespace crev::vm

#endif // CREV_VM_TLB_H_
