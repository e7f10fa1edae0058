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
 * The page table is one array of lazily allocated 512-PTE blocks over
 * the heap window, then the shadow window; resident pages are
 * enumerated in ascending VA order from per-block bitmaps.
 */

#ifndef CREV_VM_ADDRESS_SPACE_H_
#define CREV_VM_ADDRESS_SPACE_H_

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <utility>
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

    /** One page-table walk: the fault a touch raises, and the PTE. */
    struct Walk
    {
        FaultKind fault;
        Pte *pte; //!< findPte() of the page (may be set on a fault)
    };

    /** Walk the page table for a touch of @p va (no side effects). */
    Walk walk(Addr va, bool is_store, bool is_cap_store) const;

    /**
     * PTE lookup without creation: null where no reserve() (or, in the
     * shadow window, no touch) has created an entry, and after
     * release().
     */
    Pte *findPte(Addr va) { return walk(va, false, false).pte; }

    /** Classify a touch of @p va (no side effects). */
    FaultKind
    classify(Addr va, bool is_store, bool is_cap_store) const
    {
        return walk(va, is_store, is_cap_store).fault;
    }

    /** Make the page containing @p va resident (demand-zero). */
    Pte &makeResident(Addr va);

    /**
     * Iterate over resident pages in ascending VA order. @p fn
     * receives the page's base VA and its PTE. A page @p fn makes
     * resident is visited iff it lies above the current one.
     */
    void forEachResidentPage(
        const std::function<void(Addr, Pte &)> &fn);

    /** Number of resident pages (RSS in pages). */
    std::size_t residentPages() const { return resident_; }

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

  private:
    // The page-table store (DESIGN.md §14.4).
    static constexpr std::size_t kBlockPages = 512;

    /** One bit per slot of a block. */
    struct Bits
    {
        std::array<std::uint64_t, kBlockPages / 64> w{};
        bool test(std::size_t j) const { return w[j / 64] >> (j % 64) & 1; }
        void set(std::size_t j) { w[j / 64] |= 1ull << (j % 64); }
        void clear(std::size_t j) { w[j / 64] &= ~(1ull << (j % 64)); }
    };

    /** 512 PTEs and their bitmaps; allocated on first touch and
     *  never freed, so a held Pte* stays valid for the run. */
    struct PteBlock
    {
        std::array<Pte, kBlockPages> ptes{};
        Bits mapped;   //!< slot holds a PTE (findPte non-null)
        Bits guard;    //!< guard page (heap reservations only)
        Bits resident; //!< ptes[j].valid
    };

    /** The block (allocated on first touch) and in-block index of
     *  the slot of @p va, which must lie in a window. */
    std::pair<PteBlock *, std::size_t> touch(Addr va);

    mem::PhysMem &pm_;
    std::map<Addr, Reservation> reservations_; //!< keyed by base
    /** Heap-window blocks, then shadow-window blocks (null until
     *  first touched). */
    std::vector<std::unique_ptr<PteBlock>> pte_blocks_;
    std::vector<Reservation *> newly_quarantined_;
    std::vector<Addr> freed_frames_;
    sim::SimMutex pmap_lock_;
    check::RaceChecker *checker_ = nullptr;
    Addr next_va_ = kHeapBase;
    std::size_t resident_ = 0;
};

} // namespace crev::vm

#endif // CREV_VM_ADDRESS_SPACE_H_
