/**
 * @file
 * The memory management unit: translation, permission checks, the
 * capability load barrier, and capability-dirty store tracking.
 *
 * Every simulated memory operation flows through here. The barrier
 * semantics follow paper §4.1: each core carries a capability load
 * generation register; a *tagged* capability load from a page whose
 * (TLB-cached) PTE generation mismatches the core's traps into the
 * registered handler — Reloaded's self-healing fault path — and then
 * retries. Capability stores set the PTE's cap-dirty and cap-ever
 * bits, hardware-DBM style (§4.2).
 */

#ifndef CREV_VM_MMU_H_
#define CREV_VM_MMU_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "base/types.h"
#include "cap/capability.h"
#include "mem/memory_system.h"
#include "mem/phys_mem.h"
#include "sim/cost_model.h"
#include "sim/scheduler.h"
#include "vm/address_space.h"
#include "vm/tlb.h"

namespace crev::check {
class SafetyOracle;
} // namespace crev::check

namespace crev::revoker {
class RecoveryManager;
} // namespace crev::revoker

namespace crev::sim {
class FaultInjector;
} // namespace crev::sim

namespace crev::vm {

/** MMU event counters. */
struct MmuStats
{
    std::uint64_t demand_faults = 0;
    std::uint64_t load_barrier_faults = 0;
    std::uint64_t tlb_shootdowns = 0;
    /** Ack-based shootdown rounds beyond the first (lost/late IPIs). */
    std::uint64_t shootdown_resends = 0;
};

/** The machine's MMU (one per simulated process/machine). */
class Mmu
{
  public:
    /**
     * Handler invoked on a capability load-generation fault. It runs
     * on the faulting thread (costs accrue there), must bring the
     * page's PTE up to the current generation, and is responsible for
     * TLB shootdowns.
     */
    using LoadFaultHandler =
        std::function<void(sim::SimThread &, Addr va)>;

    /**
     * Inline load filter (CHERIoT-style, paper §6.3): invoked for
     * every *tagged* capability load with the decoded value; returning
     * true strips the tag from the value entering the register file
     * (the in-memory copy is untouched — not self-healing).
     */
    using LoadFilter =
        std::function<bool(sim::SimThread &, const cap::Capability &)>;

    /**
     * Extra latency charged on every memory access (fault injection's
     * memory-contention spikes). Must be a pure function of the
     * thread's virtual time.
     */
    using AccessPenaltyHook = std::function<Cycles(sim::SimThread &)>;

    Mmu(mem::PhysMem &pm, mem::MemorySystem &ms, AddressSpace &as,
        const sim::CostModel &cm);

    // --- user-mode access paths (barriered) ---

    /** Load @p len bytes at @p va (may span pages). */
    void loadData(sim::SimThread &t, Addr va, void *out,
                  std::size_t len);
    /** Store @p len bytes at @p va; clears overlapped tags. */
    void storeData(sim::SimThread &t, Addr va, const void *in,
                   std::size_t len);
    std::uint64_t loadU64(sim::SimThread &t, Addr va);
    void storeU64(sim::SimThread &t, Addr va, std::uint64_t v);

    /** Tagged capability load; subject to the load barrier. */
    cap::Capability loadCap(sim::SimThread &t, Addr va);
    /** Capability store; sets cap-dirty/cap-ever when tagged. */
    void storeCap(sim::SimThread &t, Addr va, const cap::Capability &c);

    // --- kernel/revoker access paths (no barrier, no dirtying) ---

    /** Load a capability bypassing the load barrier (sweeper). */
    cap::Capability kernelLoadCap(sim::SimThread &t, Addr va);
    /** Clear a granule's tag without touching dirty tracking. */
    void kernelClearTag(sim::SimThread &t, Addr va);
    /** Tag peek with no cost (the sweep charges line reads itself). */
    bool peekTag(Addr va);
    /** Whether any granule of the page containing @p va is tagged
     *  right now (clean-page detection re-check; no cost). */
    bool pageHasTags(Addr va);
    /** Charge a read of @p len bytes at @p va (sweep line fetches). */
    void chargeRead(sim::SimThread &t, Addr va, std::size_t len);
    /**
     * chargeRead for a caller that already resolved the physical
     * address (the fast sweep resolves its page's frame once):
     * identical simulated charge, no host-side PTE lookup.
     */
    void
    chargeReadPaddr(sim::SimThread &t, Addr paddr, std::size_t len)
    {
        chargeAccess(t, t.core(), paddr, len, false);
    }
    /** Charge a write (tag clears dirty a line). */
    void chargeWrite(sim::SimThread &t, Addr va, std::size_t len);

    /**
     * Packed live tag bits (bit g = granule g of the line) for the
     * cache line containing @p va; 0 if the page is absent or not
     * resident. No cost — this is peekTag for four granules at once.
     */
    unsigned peekLineTagNibble(Addr va);

    /**
     * Fast path for the revocation bitmap's single-byte shadow loads.
     * Succeeds only when the calling core's TLB already holds a valid
     * translation for the shadow page, in which case the charge
     * sequence is identical to loadData()'s TLB-hit path (one memory
     * access, no fill). Returns false with no side effects otherwise;
     * the caller must then take the ordinary loadData() path.
     */
    bool tryKernelShadowLoad(sim::SimThread &t, Addr va,
                             std::uint8_t *out);

    /** Attach an event tracer (null = off); shootdowns become
     *  kTlbShootdown instants. */
    void setTracer(trace::Tracer *t) { tracer_ = t; }

    /** Attach the fault injector (null = off): arms the lost/late
     *  shootdown-IPI domain in shootdownPage's ack protocol. */
    void setFaultInjector(sim::FaultInjector *fi) { injector_ = fi; }

    /** Attach the recovery manager (null = off): shootdown re-send
     *  rounds become kShootdownResend tickets. */
    void setRecoveryManager(revoker::RecoveryManager *rm)
    {
        recovery_ = rm;
    }

    /** Attach the temporal-safety oracle (null = off): every tagged
     *  capability entering a register file is checked against the
     *  revoked-generation record. Zero simulated cost. */
    void setSafetyOracle(check::SafetyOracle *o) { oracle_ = o; }

    /**
     * Uncharged single-byte peek of simulated memory (via the page
     * tables, no TLB, no cost): the Auditor's summary-repair path
     * reads ground-truth shadow bytes with it. Returns false when the
     * page is not resident.
     */
    bool peekByte(Addr va, std::uint8_t *out);

    // --- load-generation plumbing ---

    void setLoadFaultHandler(LoadFaultHandler h) { handler_ = std::move(h); }
    void setLoadFilter(LoadFilter f) { filter_ = std::move(f); }
    void setAccessPenaltyHook(AccessPenaltyHook h)
    {
        penalty_ = std::move(h);
    }
    /** Current per-core generation bit. */
    unsigned coreGen(unsigned core) const;
    /** Flip every core's generation register (STW entry). */
    void flipAllCoreGens(sim::SimThread &t);
    /** The generation new PTEs should carry to be "current". */
    unsigned currentGen() const { return gen_; }

    // --- TLB management ---

    Tlb &tlb(unsigned core);
    /** Invalidate one page in all TLBs, charging the caller. */
    void shootdownPage(sim::SimThread &t, Addr va);
    /** Drop freed frames from all caches (frame reuse hygiene). */
    void purgeFreedFrames();

    const MmuStats &stats() const { return stats_; }
    AddressSpace &addressSpace() { return as_; }
    mem::PhysMem &physMem() { return pm_; }
    mem::MemorySystem &memorySystem() { return ms_; }
    const sim::CostModel &costs() const { return cm_; }

  private:
    /**
     * Translate one intra-page access, resolving demand-zero faults
     * and throwing MemoryFault on violations. Returns the physical
     * address; @p pte_out receives the TLB-resident PTE snapshot.
     */
    Addr translate(sim::SimThread &t, Addr va, bool is_store,
                   bool is_cap_store, Pte *pte_out = nullptr);

    /** Per-page segment iteration helper. */
    template <typename Fn>
    void forSegments(Addr va, std::size_t len, Fn fn);

    /** Charge one memory access, applying any injected penalty. */
    void
    chargeAccess(sim::SimThread &t, unsigned core, Addr paddr,
                 std::size_t len, bool write)
    {
        Cycles c = ms_.access(core, paddr, len, write);
        if (penalty_)
            c += penalty_(t);
        t.accrue(c);
    }

    mem::PhysMem &pm_;
    mem::MemorySystem &ms_;
    AddressSpace &as_;
    const sim::CostModel &cm_;
    std::vector<Tlb> tlbs_;
    std::vector<unsigned> core_gen_;
    unsigned gen_ = 0;
    LoadFaultHandler handler_;
    LoadFilter filter_;
    AccessPenaltyHook penalty_;
    MmuStats stats_;
    sim::FaultInjector *injector_ = nullptr;
    revoker::RecoveryManager *recovery_ = nullptr;
    check::SafetyOracle *oracle_ = nullptr;

    trace::Tracer *tracer_ = nullptr;
};

} // namespace crev::vm

#endif // CREV_VM_MMU_H_
