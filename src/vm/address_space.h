/**
 * @file
 * The simulated process address space.
 *
 * Virtual memory is handed out as *reservations* (paper §6.2): each
 * mmap-like request is padded to CHERI-representable alignment and
 * backed by guard mappings once partially unmapped, so holes can never
 * be refilled by a later mapping. A fully unmapped reservation is
 * *quarantined* and only released after a revocation pass has erased
 * capabilities referencing it.
 *
 * Pages are demand-zero: the first touch allocates a physical frame.
 * The page table is an ordered map so sweeps iterate deterministically.
 */

#ifndef CREV_VM_ADDRESS_SPACE_H_
#define CREV_VM_ADDRESS_SPACE_H_

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "base/types.h"
#include "mem/phys_mem.h"
#include "sim/sync.h"
#include "vm/pte.h"

namespace crev::check {
class RaceChecker;
}

namespace crev::vm {

/** Lifecycle of a reservation. */
enum class ReservationState {
    kActive,      //!< at least one page still mapped
    kQuarantined, //!< fully unmapped; awaiting revocation
    kFreed,       //!< revoked and released
};

/** One mmap-style reservation. */
struct Reservation
{
    Addr base = 0;
    Addr length = 0; //!< padded to representable alignment
    Addr requested = 0;
    ReservationState state = ReservationState::kActive;
    Addr mapped_bytes = 0;
    /** Epoch in which quarantine began (set by the kernel layer). */
    std::uint64_t quarantine_epoch = 0;
};

/** Fixed address-space layout. */
constexpr Addr kHeapBase = 0x0000'4000'0000ull;
constexpr Addr kHeapCeiling = 0x0000'8000'0000ull;
/** Shadow (revocation bitmap) region: byte for VA v at base + (v>>7). */
constexpr Addr kShadowBase = 0x2000'0000'0000ull;

/** Shadow-bitmap byte address covering virtual address @p va. */
constexpr Addr
shadowByteFor(Addr va)
{
    return kShadowBase + (va >> (kGranuleBits + 3));
}

/**
 * Locking context a caller claims when publishing an in-place PTE
 * mutation (clearing CapDirty, setting CLG/trap bits): either the pmap
 * lock is held, or the caller owns an active stop-the-world window.
 */
enum class PteContext {
    kLocked, //!< publisher holds the pmap lock
    kStw,    //!< publisher owns the stop-the-world window
};

/** The vmspace: reservations, page table, pmap lock. */
class AddressSpace
{
  public:
    explicit AddressSpace(mem::PhysMem &pm);

    /**
     * Reserve @p length bytes of zeroed anonymous memory; the
     * reservation is padded per capability representability. Returns
     * the base address.
     */
    Addr reserve(Addr length, bool cap_store = true);

    /**
     * Whether a reserve(@p length) would fit below the heap ceiling
     * (same padding/alignment math, no side effects). The allocator
     * probes this before mmap so address-space exhaustion can degrade
     * to emergency quarantine reclaim instead of tripping reserve()'s
     * assertion.
     */
    bool canReserve(Addr length) const;

    /**
     * Unmap [base, base+length) inside one reservation. Freed frames
     * return to the physical pool immediately; the virtual range
     * becomes guard pages. When the whole reservation is unmapped it
     * transitions to kQuarantined and is reported via
     * takeNewlyQuarantined() for the revoker to process.
     */
    void unmap(sim::SimThread &t, Addr base, Addr length);

    /** Reservations that became quarantined since the last call. */
    std::vector<Reservation *> takeNewlyQuarantined(sim::SimThread &t);

    /** Release a revoked reservation (kernel layer, post-epoch). */
    void release(sim::SimThread &t, Reservation *r);

    /** The reservation containing @p va, or nullptr. */
    Reservation *reservationFor(Addr va);

    /** PTE for @p va, creating an empty entry if absent. */
    Pte &pte(Addr va);
    /** PTE lookup without creation. */
    Pte *findPte(Addr va);

    /** Classify a touch of @p va (no side effects). */
    FaultKind classify(Addr va, bool is_store, bool is_cap_store) const;

    /** Make the page containing @p va resident (demand-zero). */
    Pte &makeResident(Addr va);

    /**
     * Iterate over resident pages in ascending VA order. @p fn
     * receives the page's base VA and its PTE.
     */
    void forEachResidentPage(
        const std::function<void(Addr, Pte &)> &fn);

    /** Number of resident pages (RSS in pages). */
    std::size_t residentPages() const { return resident_; }

    // --- host-side page indexes (zero simulated cost) ---
    //
    // Ordered sets of page base VAs maintained at the existing
    // residency / storeCap / publishPage choke points, so sweeps can
    // enumerate candidate pages without walking the whole page table.
    // residentPageSet() is an exact mirror of the valid PTEs; the
    // cap-ever and cap-dirty indexes are *supersets* of the pages
    // whose live PTE flag is set (flags are only ever raised through
    // storeCap, but tests may lower them directly), so consumers must
    // re-check the live PTE. Ascending order keeps index-driven sweeps
    // visiting pages in exactly the page-table walk's order.

    /** Base VAs of all resident pages, ascending. */
    const std::set<Addr> &residentPageSet() const
    {
        return resident_pages_;
    }
    /** Superset of pages with the cap_ever PTE flag set. */
    const std::set<Addr> &capEverPages() const
    {
        return cap_ever_pages_;
    }
    /** Superset of pages with the cap_dirty PTE flag set. */
    const std::set<Addr> &capDirtyPages() const
    {
        return cap_dirty_pages_;
    }

    /** Index hook for the storeCap choke point (tag stored to page). */
    void noteCapStore(Addr page_va)
    {
        cap_ever_pages_.insert(page_va);
        cap_dirty_pages_.insert(page_va);
    }
    /**
     * Index hook for the publishPage choke point: cap_dirty was just
     * cleared; cap_ever too when @p ever_cleared.
     */
    void noteCapPublish(Addr page_va, bool ever_cleared)
    {
        cap_dirty_pages_.erase(page_va);
        if (ever_cleared)
            cap_ever_pages_.erase(page_va);
    }

    /** The pmap lock serialising PTE updates during revocation. */
    sim::SimMutex &pmapLock() { return pmap_lock_; }

    /**
     * Declare that @p t is about to publish an in-place mutation of the
     * PTE for @p va under locking context @p ctx. With a race checker
     * attached this forwards the (uncharged) observation and lets the
     * run continue so the checker can report; without one it is a hard
     * assertion that the claimed discipline actually holds.
     */
    void notePtePublish(sim::SimThread &t, Addr va, PteContext ctx);

    /** Attach the race checker (null = off); names the pmap lock. */
    void setChecker(check::RaceChecker *c);

    /** Frames freed since construction whose caches must be purged. */
    std::vector<Addr> takeFreedFrames();

    mem::PhysMem &physMem() { return pm_; }

    /** Bytes currently mapped across active reservations. */
    Addr mappedBytes() const { return mapped_bytes_; }

    /** Whether @p va lies in the shadow-bitmap region. */
    static bool inShadow(Addr va);

    /**
     * Monotone counter bumped whenever page-table entries are erased
     * (reservation release). Host-side translation caches holding Pte
     * pointers must revalidate against it; insertions never move
     * existing entries, so they need no bump.
     */
    std::uint64_t pageTableEpoch() const { return pt_epoch_; }

  private:
    /** Turn the page containing @p va into a guard page. */
    void guardPage(Addr va);

    /** Whether page base @p page is a guard page (guards exist only
     *  inside heap reservations). */
    bool
    isGuarded(Addr page) const
    {
        return page >= kHeapBase && page < kHeapCeiling &&
               heap_guard_[(page - kHeapBase) / kPageSize] != 0;
    }

    /** Flat-window slot for page base @p page; null if outside. */
    Pte **fastSlot(Addr page);

    mem::PhysMem &pm_;
    std::map<Addr, Pte> pages_; //!< keyed by page base VA
    std::map<Addr, Reservation> reservations_; //!< keyed by base
    std::set<Addr> resident_pages_;  //!< exact mirror of valid PTEs
    std::set<Addr> cap_ever_pages_;  //!< superset: cap_ever pages
    std::set<Addr> cap_dirty_pages_; //!< superset: cap_dirty pages
    std::vector<Reservation *> newly_quarantined_;
    std::vector<Addr> freed_frames_;
    // Flat page-table windows (DESIGN.md §14.4): direct-indexed
    // Pte-pointer mirrors of pages_ for the heap and shadow regions,
    // plus the heap's guard-page byte map, so classify(),
    // findPte() and pte() resolve without ordered-map lookups. Slots
    // point at std::map nodes (stable until release() erases them,
    // which also nulls the slot).
    std::vector<Pte *> heap_pte_;   //!< heap-window mirror of pages_
    std::vector<Pte *> shadow_pte_; //!< shadow-window mirror
    std::vector<std::uint8_t> heap_guard_; //!< 1 = heap guard page
    sim::SimMutex pmap_lock_;
    check::RaceChecker *checker_ = nullptr;
    std::uint64_t pt_epoch_ = 0;
    Addr next_va_ = kHeapBase;
    Addr mapped_bytes_ = 0;
    std::size_t resident_ = 0;
};

} // namespace crev::vm

#endif // CREV_VM_ADDRESS_SPACE_H_
