#include "vm/mmu.h"

#include <cstring>

#include "base/logging.h"
#include "cap/compression.h"
#include "check/race_checker.h"
#include "check/safety_oracle.h"
#include "revoker/recovery.h"
#include "sim/fault_injector.h"
#include "trace/trace.h"
#include "vm/fault.h"

namespace crev::vm {

Mmu::Mmu(mem::PhysMem &pm, mem::MemorySystem &ms, AddressSpace &as,
         const sim::CostModel &cm)
    : pm_(pm), ms_(ms), as_(as), cm_(cm),
      core_gen_(ms.numCores(), 0)
{
    tlbs_.reserve(ms.numCores());
    for (unsigned c = 0; c < ms.numCores(); ++c)
        tlbs_.emplace_back();
}

Tlb &
Mmu::tlb(unsigned core)
{
    CREV_ASSERT(core < tlbs_.size());
    return tlbs_[core];
}

unsigned
Mmu::coreGen(unsigned core) const
{
    CREV_ASSERT(core < core_gen_.size());
    return core_gen_[core];
}

void
Mmu::flipAllCoreGens(sim::SimThread &t)
{
    if (auto *c = t.scheduler().checker())
        c->onGenFlip(t.id(), t.now());
    gen_ ^= 1u;
    for (auto &g : core_gen_)
        g = gen_;
    // Generation checks are made against TLB-resident PTE copies; the
    // flip takes effect immediately on all cores (they are already
    // synchronised: this happens inside the STW window).
    t.accrueNoYield(cm_.pte_update);
}

void
Mmu::shootdownPage(sim::SimThread &t, Addr va)
{
    const Addr page = pageBase(va);
    ++stats_.tlb_shootdowns;
    if (tracer_ != nullptr)
        tracer_->record(t.id(), t.core(), t.now(),
                        trace::EventType::kTlbShootdown, 0, page);

    // Ack-based IPI protocol. Each round sends an IPI to every core
    // that has not yet acked and charges one shootdown round on the
    // initiator (accrueNoYield: this runs under NoYield windows and
    // pmap locks, so it must never become a scheduling point). With no
    // injector — or the shootdown domains disarmed — every core acks
    // in round one and the charge sequence is exactly the PR 1
    // synchronous shootdown's. An injected drop leaves the target's
    // TLB stale for the round, which is *safe* for the barrier
    // designs (a stale generation only re-traps and self-heals); the
    // cost is the bounded re-send rounds below, ticketed through the
    // kShootdownResend recovery protocol with saturating backoff.
    CREV_ASSERT(tlbs_.size() <= 64);
    std::uint64_t pending =
        tlbs_.size() >= 64 ? ~0ull : (1ull << tlbs_.size()) - 1;
    revoker::RecoveryManager::Ticket ticket;
    for (;;) {
        Cycles ack_wait = 0;
        for (unsigned c = 0; c < tlbs_.size(); ++c) {
            if ((pending >> c & 1) == 0)
                continue;
            if (injector_ != nullptr &&
                injector_->dropShootdownIpi(t, c))
                continue; // IPI lost; the core never sees it
            tlbs_[c].invalidatePage(pageOf(page));
            if (injector_ != nullptr) {
                const Cycles late = injector_->shootdownAckDelay(t, c);
                ack_wait = late > ack_wait ? late : ack_wait;
            }
            pending &= ~(1ull << c);
        }
        t.accrueNoYield(cm_.tlb_shootdown + ack_wait);
        if (pending == 0)
            break;

        // Deadline passed with IPIs outstanding: re-send, bounded.
        if (recovery_ != nullptr && !ticket.open)
            ticket = recovery_->open(
                t, trace::RecoveryProtocol::kShootdownResend);
        if (recovery_ != nullptr && !recovery_->attempt(t, ticket)) {
            // Retry budget spent: NMI-grade fallback — invalidate the
            // stragglers synchronously so the machine never runs with
            // an unbounded-stale TLB, and record the failure.
            for (unsigned c = 0; c < tlbs_.size(); ++c)
                if (pending >> c & 1)
                    tlbs_[c].invalidatePage(pageOf(page));
            t.accrueNoYield(cm_.tlb_shootdown);
            recovery_->close(t, ticket,
                             recovery_->failureOutcome(t.now(), ticket));
            return;
        }
        ++stats_.shootdown_resends;
        if (recovery_ != nullptr)
            t.accrueNoYield(recovery_->backoff(ticket));
    }
    if (ticket.open)
        recovery_->close(t, ticket,
                         trace::RecoveryOutcome::kSucceeded);
}

void
Mmu::purgeFreedFrames()
{
    for (Addr pfn : as_.takeFreedFrames())
        ms_.invalidateFrame(pfn);
}

Addr
Mmu::translate(sim::SimThread &t, Addr va, bool is_store,
               bool is_cap_store, Pte *pte_out)
{
    const unsigned core = t.core();
    const Addr vpn = pageOf(va);

    for (;;) {
        const Pte *cached = tlbs_[core].lookup(vpn);
        if (cached != nullptr && cached->valid) {
            if (is_store && !cached->write) {
                // Fall through to the slow path for a precise check.
            } else if (is_cap_store && !cached->cap_store) {
                // Fall through likewise.
            } else {
                if (pte_out != nullptr)
                    *pte_out = *cached;
                return (cached->pfn << kPageBits) | pageOffset(va);
            }
        }

        // TLB miss (or cached entry is insufficient): walk.
        t.accrue(cm_.tlb_fill);
        const AddressSpace::Walk w = as_.walk(va, is_store, is_cap_store);
        Pte *p = w.pte;
        if (w.fault == FaultKind::kDemandZero) {
            t.accrue(cm_.trap + cm_.page_fault_service);
            p = &as_.makeResident(va);
            // New mappings adopt the current load generation so a
            // fresh page never traps spuriously (§4.1: pages kept up
            // to date).
            p->clg = gen_;
            ++stats_.demand_faults;
        } else if (w.fault != FaultKind::kNone) {
            t.accrue(cm_.trap);
            throw MemoryFault(w.fault, va);
        }

        CREV_ASSERT(p != nullptr && p->valid);
        tlbs_[core].insert(vpn, *p);
        // Loop: the next iteration hits in the TLB and re-checks.
    }
}

template <typename Fn>
void
Mmu::forSegments(Addr va, std::size_t len, Fn fn)
{
    while (len > 0) {
        const std::size_t in_page = static_cast<std::size_t>(
            std::min<Addr>(len, kPageSize - pageOffset(va)));
        fn(va, in_page);
        va += in_page;
        len -= in_page;
    }
}

void
Mmu::loadData(sim::SimThread &t, Addr va, void *out, std::size_t len)
{
    auto *dst = static_cast<std::uint8_t *>(out);
    forSegments(va, len, [&](Addr seg_va, std::size_t seg_len) {
        const Addr paddr = translate(t, seg_va, false, false);
        chargeAccess(t, t.core(), paddr, seg_len, false);
        pm_.read(paddr, dst, seg_len);
        dst += seg_len;
    });
}

void
Mmu::storeData(sim::SimThread &t, Addr va, const void *in,
               std::size_t len)
{
    const auto *src = static_cast<const std::uint8_t *>(in);
    forSegments(va, len, [&](Addr seg_va, std::size_t seg_len) {
        const Addr paddr = translate(t, seg_va, true, false);
        chargeAccess(t, t.core(), paddr, seg_len, true);
        pm_.write(paddr, src, seg_len);
        src += seg_len;
    });
}

std::uint64_t
Mmu::loadU64(sim::SimThread &t, Addr va)
{
    std::uint64_t v = 0;
    loadData(t, va, &v, sizeof(v));
    return v;
}

void
Mmu::storeU64(sim::SimThread &t, Addr va, std::uint64_t v)
{
    storeData(t, va, &v, sizeof(v));
}

cap::Capability
Mmu::loadCap(sim::SimThread &t, Addr va)
{
    CREV_ASSERT(va % kGranuleSize == 0);
    const unsigned core = t.core();

    for (;;) {
        Pte snapshot;
        const Addr paddr = translate(t, va, false, false, &snapshot);
        // Resolve the frame once and reuse the reference across the
        // charge below. paddr -> frame is immutable (frames are never
        // erased); the tag is still read before the charge and the
        // bits after it.
        const mem::Frame &fr = pm_.frame(pageOf(paddr));
        const std::size_t gi = mem::PhysMem::granuleIndex(paddr);
        const bool tagged = fr.testTag(gi);

        // The load barrier: a tagged load from a stale-generation page
        // (or an always-trap page, §7.6) traps before the value
        // reaches the register file.
        if (tagged &&
            (snapshot.clg != core_gen_[core] || snapshot.cap_load_trap)) {
            CREV_ASSERT(handler_ != nullptr);
            ++stats_.load_barrier_faults;
            t.accrue(cm_.trap);
            tlbs_[core].invalidatePage(pageOf(va));
            handler_(t, va);
            continue; // self-healing: retry the load
        }

        chargeAccess(t, core, paddr, kGranuleSize, false);
        cap::CapBits bits;
        std::memcpy(&bits.lo, fr.bytes.data() + pageOffset(paddr), 8);
        std::memcpy(&bits.hi, fr.bytes.data() + pageOffset(paddr) + 8, 8);
        cap::Capability c = cap::decode(bits, fr.testTag(gi));
        // CHERIoT-style inline filter (§6.3): strip revoked
        // capabilities on their way into the register file.
        if (c.tag && filter_ && filter_(t, c))
            c.tag = false;
        // Temporal-safety oracle: no revoked capability may reach a
        // register file after its revocation epoch completed. Pure
        // host-side observer — zero simulated cost.
        if (c.tag && oracle_ != nullptr)
            oracle_->onCapLoad(t.id(), t.now(), va, c.base);
        return c;
    }
}

void
Mmu::storeCap(sim::SimThread &t, Addr va, const cap::Capability &c)
{
    CREV_ASSERT(va % kGranuleSize == 0);
    const Addr paddr = translate(t, va, true, c.tag);
    chargeAccess(t, t.core(), paddr, kGranuleSize, true);
    pm_.storeCap(paddr, cap::encode(c), c.tag);
    if (c.tag) {
        Pte *p = as_.findPte(va);
        CREV_ASSERT(p != nullptr);
        if (!p->cap_dirty || !p->cap_ever) {
            // Hardware-managed dirty bit update (§4.2).
            p->cap_dirty = true;
            p->cap_ever = true;
            t.accrue(cm_.pte_update);
            tlbs_[t.core()].insert(pageOf(va), *p);
        }
    }
}

cap::Capability
Mmu::kernelLoadCap(sim::SimThread &t, Addr va)
{
    CREV_ASSERT(va % kGranuleSize == 0);
    Pte *p = as_.findPte(va);
    CREV_ASSERT(p != nullptr && p->valid);
    const Addr paddr = (p->pfn << kPageBits) | pageOffset(va);
    chargeAccess(t, t.core(), paddr, kGranuleSize, false);
    cap::CapBits bits;
    const bool tag = pm_.loadCap(paddr, bits);
    return cap::decode(bits, tag);
}

void
Mmu::kernelClearTag(sim::SimThread &t, Addr va)
{
    Pte *p = as_.findPte(va);
    CREV_ASSERT(p != nullptr && p->valid);
    const Addr paddr = (p->pfn << kPageBits) | pageOffset(va);
    chargeAccess(t, t.core(), paddr, 1, true);
    pm_.clearTag(paddr);
}

bool
Mmu::peekTag(Addr va)
{
    Pte *p = as_.findPte(va);
    if (p == nullptr || !p->valid)
        return false;
    const Addr paddr = (p->pfn << kPageBits) | pageOffset(va);
    return pm_.tagAt(paddr);
}

unsigned
Mmu::peekLineTagNibble(Addr va)
{
    Pte *p = as_.findPte(va);
    if (p == nullptr || !p->valid)
        return 0;
    return pm_.lineTagNibble((p->pfn << kPageBits) | pageOffset(va));
}

bool
Mmu::pageHasTags(Addr va)
{
    Pte *p = as_.findPte(va);
    if (p == nullptr || !p->valid)
        return false;
    return pm_.frameHasTags(p->pfn);
}

void
Mmu::chargeRead(sim::SimThread &t, Addr va, std::size_t len)
{
    Pte *p = as_.findPte(va);
    CREV_ASSERT(p != nullptr && p->valid);
    chargeAccess(t, t.core(), (p->pfn << kPageBits) | pageOffset(va),
                 len, false);
}

void
Mmu::chargeWrite(sim::SimThread &t, Addr va, std::size_t len)
{
    Pte *p = as_.findPte(va);
    CREV_ASSERT(p != nullptr && p->valid);
    chargeAccess(t, t.core(), (p->pfn << kPageBits) | pageOffset(va),
                 len, true);
}

bool
Mmu::peekByte(Addr va, std::uint8_t *out)
{
    Pte *p = as_.findPte(va);
    if (p == nullptr || !p->valid)
        return false;
    pm_.read((p->pfn << kPageBits) | pageOffset(va), out, 1);
    return true;
}

bool
Mmu::tryKernelShadowLoad(sim::SimThread &t, Addr va, std::uint8_t *out)
{
    const unsigned core = t.core();
    const Pte *cached = tlbs_[core].peek(pageOf(va));
    if (cached == nullptr || !cached->valid)
        return false;
    // Identical to loadData()'s TLB-hit path for a 1-byte read: one
    // charged access, no fill, no fault classification.
    const Addr paddr = (cached->pfn << kPageBits) | pageOffset(va);
    chargeAccess(t, core, paddr, 1, false);
    pm_.read(paddr, out, 1);
    return true;
}

} // namespace crev::vm
