/**
 * @file
 * Page table entry, including the experimental CHERI bits.
 *
 * Two capability-tracking facilities coexist (paper §4.1, §4.2):
 *
 *  - `clg` is the per-PTE capability load generation bit, compared by
 *    the MMU against the per-core generation register on every tagged
 *    capability load; a mismatch traps (Reloaded's load barrier).
 *  - `cap_dirty` is the store-side tracker: set by hardware when a
 *    tagged capability is stored to the page. Cornucopia's two phases
 *    consume it; Reloaded only uses it to skip the *contents* of
 *    capability-clean pages.
 *  - `cap_ever` is the sticky "page has held capabilities" bit: our
 *    Cornucopia re-implementation never clears it (paper §4.5);
 *    Reloaded may (it detects pages becoming clean).
 *  - `cap_load_trap` is the §7.6 "always trap on capability load"
 *    disposition, an ablation option.
 */

#ifndef CREV_VM_PTE_H_
#define CREV_VM_PTE_H_

#include "base/types.h"

namespace crev::vm {

/** A page table entry. */
struct Pte
{
    Addr pfn = 0;         //!< physical frame (0 = not resident)
    bool valid = false;   //!< resident and translatable
    bool write = true;    //!< user stores permitted
    bool cap_store = true; //!< tagged capability stores permitted
    bool cap_ever = false; //!< has ever contained capabilities
    bool cap_dirty = false; //!< capability stored since last sweep
    unsigned clg = 0;     //!< capability load generation bit (0/1)
    bool cap_load_trap = false; //!< §7.6: all capability loads trap
};

/** Why a translation could not complete. */
enum class FaultKind {
    kNone,
    kNotMapped,     //!< address outside any reservation
    kGuard,         //!< guard page (munmap hole / reservation padding)
    kDemandZero,    //!< first touch of an anonymous page
    kWriteProtect,  //!< store to a read-only page
    kCapStore,      //!< tagged store to a page without cap_store
};

} // namespace crev::vm

#endif // CREV_VM_PTE_H_
