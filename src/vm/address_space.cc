#include "vm/address_space.h"

#include <bit>

#include "base/logging.h"
#include "cap/compression.h"
#include "check/race_checker.h"

namespace crev::vm {

namespace {

// Every PTE lives in the heap window ([kHeapBase, kHeapCeiling), where
// reserve() hands out VA) or the shadow window (the implicit shadow
// object makeResident materialises). Slot i of the page-table store is
// heap page i, then shadow page i - kHeapWindowPages, so ascending
// slots are ascending VAs.
constexpr std::size_t kHeapWindowPages =
    static_cast<std::size_t>((kHeapCeiling - kHeapBase) / kPageSize);
constexpr Addr kShadowWindowEnd = shadowByteFor(kHeapCeiling) + kPageSize;
constexpr std::size_t kShadowWindowPages =
    static_cast<std::size_t>((kShadowWindowEnd - kShadowBase) /
                             kPageSize);
constexpr std::size_t kNoSlot = ~std::size_t{0};

/** Store slot of page base @p page; kNoSlot outside both windows. */
std::size_t
slotOf(Addr page)
{
    if (page >= kHeapBase && page < kHeapCeiling)
        return static_cast<std::size_t>((page - kHeapBase) / kPageSize);
    if (page >= kShadowBase && page < kShadowWindowEnd)
        return kHeapWindowPages +
               static_cast<std::size_t>((page - kShadowBase) / kPageSize);
    return kNoSlot;
}

} // namespace

AddressSpace::AddressSpace(mem::PhysMem &pm)
    : pm_(pm),
      pte_blocks_((kHeapWindowPages + kShadowWindowPages +
                   kBlockPages - 1) /
                  kBlockPages)
{
    static_assert(kHeapWindowPages % kBlockPages == 0);
}

std::pair<AddressSpace::PteBlock *, std::size_t>
AddressSpace::touch(Addr va)
{
    const std::size_t i = slotOf(pageBase(va));
    CREV_ASSERT(i != kNoSlot);
    std::unique_ptr<PteBlock> &b = pte_blocks_[i / kBlockPages];
    if (b == nullptr)
        b = std::make_unique<PteBlock>();
    return {b.get(), i % kBlockPages};
}

Addr
AddressSpace::reserve(Addr length, bool cap_store)
{
    CREV_ASSERT(length > 0);
    const Addr req = roundUp(length, kPageSize);
    const Addr align =
        std::max<Addr>(cap::representableAlignment(req), kPageSize);
    const Addr padded = roundUp(cap::representableLength(req), kPageSize);

    const Addr base = roundUp(next_va_, align);
    next_va_ = base + padded;
    CREV_ASSERT(next_va_ <= kHeapCeiling);

    Reservation r;
    r.base = base;
    r.length = padded;
    r.requested = req;
    r.mapped_bytes = req;
    // Reservation bases are strictly increasing (next_va_ is
    // monotone, never recycled), so the end hint makes this O(1)
    // instead of a root-to-leaf rb-tree descent.
    reservations_.emplace_hint(reservations_.end(), base, r);

    // Representability padding starts life as guard pages
    // (paper footnote 26); they are part of the reservation but any
    // touch faults.
    for (Addr va = base; va < base + padded; va += kPageSize) {
        auto [b, j] = touch(va);
        b->mapped.set(j);
        if (va >= base + req)
            b->guard.set(j);
        b->ptes[j] = Pte{};
        b->ptes[j].cap_store = cap_store;
    }
    return base;
}

bool
AddressSpace::canReserve(Addr length) const
{
    if (length == 0)
        return false;
    const Addr req = roundUp(length, kPageSize);
    const Addr align =
        std::max<Addr>(cap::representableAlignment(req), kPageSize);
    const Addr padded = roundUp(cap::representableLength(req), kPageSize);
    const Addr base = roundUp(next_va_, align);
    return base + padded <= kHeapCeiling;
}

void
AddressSpace::unmap(sim::SimThread &t, Addr base, Addr length)
{
    CREV_ASSERT(pageOffset(base) == 0);
    Reservation *r = reservationFor(base);
    CREV_ASSERT(r != nullptr);
    CREV_ASSERT(base + length <= r->base + r->requested);
    CREV_ASSERT(r->state == ReservationState::kActive);

    if (checker_ != nullptr) {
        const bool locked = pmap_lock_.heldBy(t) ||
                            t.scheduler().stwOwnedBy(t);
        for (Addr va = base; va < base + length; va += kPageSize)
            checker_->onPteTeardown(t.id(), t.now(), va, locked);
    }

    for (Addr va = base; va < base + length; va += kPageSize) {
        auto [b, j] = touch(va);
        if (b->guard.test(j))
            continue;
        CREV_ASSERT(b->mapped.test(j));
        Pte &p = b->ptes[j];
        if (p.valid) {
            pm_.freeFrame(p.pfn);
            freed_frames_.push_back(p.pfn);
            p.valid = false;
            p.pfn = 0;
            --resident_;
            b->resident.clear(j);
        }
        b->guard.set(j);
        CREV_ASSERT(r->mapped_bytes >= kPageSize);
        r->mapped_bytes -= kPageSize;
    }

    if (r->mapped_bytes == 0) {
        r->state = ReservationState::kQuarantined;
        newly_quarantined_.push_back(r);
    }
}

std::vector<Reservation *>
AddressSpace::takeNewlyQuarantined(sim::SimThread &t)
{
    std::vector<Reservation *> out;
    // The hand-off is only legal outside a revocation epoch (the
    // munmap quiesce barrier); the checker enforces the parity.
    if (checker_ != nullptr)
        checker_->onMappingHandoff(t.id(), t.now(),
                                   t.scheduler().shuttingDown());
    newly_quarantined_.swap(out);
    return out;
}

void
AddressSpace::release(sim::SimThread &t, Reservation *r)
{
    CREV_ASSERT(r->state == ReservationState::kQuarantined);
    r->state = ReservationState::kFreed;
    if (checker_ != nullptr) {
        const bool locked = pmap_lock_.heldBy(t) ||
                            t.scheduler().stwOwnedBy(t);
        for (Addr va = r->base; va < r->base + r->length;
             va += kPageSize)
            checker_->onPteTeardown(t.id(), t.now(), va, locked);
    }
    // Reset the entries in place (guard bits stay): blocks are never
    // freed, so no Pte* anyone still holds can dangle. The reset names
    // pte_blocks_ so crev_analyze sees the page-table teardown.
    for (Addr va = r->base; va < r->base + r->length; va += kPageSize) {
        const std::size_t i = slotOf(va);
        const std::size_t j = i % kBlockPages;
        pte_blocks_[i / kBlockPages]->ptes[j] = Pte{};
        pte_blocks_[i / kBlockPages]->mapped.clear(j);
        pte_blocks_[i / kBlockPages]->resident.clear(j);
    }

    // Virtual addresses are never recycled: address-space non-reuse is
    // exactly the property revocation protects.
}

Reservation *
AddressSpace::reservationFor(Addr va)
{
    auto it = reservations_.upper_bound(va);
    if (it == reservations_.begin())
        return nullptr;
    --it;
    Reservation &r = it->second;
    if (va >= r.base && va < r.base + r.length)
        return &r;
    return nullptr;
}

AddressSpace::Walk
AddressSpace::walk(Addr va, bool is_store, bool is_cap_store) const
{
    const std::size_t i = slotOf(pageBase(va));
    if (i == kNoSlot)
        return {FaultKind::kNotMapped, nullptr};
    PteBlock *b = pte_blocks_[i / kBlockPages].get();
    const std::size_t j = i % kBlockPages;
    Pte *p = b != nullptr && b->mapped.test(j) ? &b->ptes[j] : nullptr;
    if (b != nullptr && b->guard.test(j))
        return {FaultKind::kGuard, p};
    if (p == nullptr) {
        // The shadow window is an implicit kernel-provided anonymous
        // object; heap VA outside every reservation is unmapped.
        return {i >= kHeapWindowPages ? FaultKind::kDemandZero
                                      : FaultKind::kNotMapped,
                nullptr};
    }
    if (!p->valid)
        return {FaultKind::kDemandZero, p};
    if (is_store && !p->write)
        return {FaultKind::kWriteProtect, p};
    if (is_cap_store && !p->cap_store)
        return {FaultKind::kCapStore, p};
    return {FaultKind::kNone, p};
}

Pte &
AddressSpace::makeResident(Addr va)
{
    auto [b, j] = touch(va);
    CREV_ASSERT(!b->guard.test(j));
    b->mapped.set(j);
    Pte &p = b->ptes[j];
    if (!p.valid) {
        if (va >= kShadowBase) {
            // The shadow bitmap never carries capabilities.
            p.cap_store = false;
            p.write = true;
        }
        p.pfn = pm_.allocFrame();
        p.valid = true;
        ++resident_;
        b->resident.set(j);
    }
    return p;
}

void
AddressSpace::forEachResidentPage(
    const std::function<void(Addr, Pte &)> &fn)
{
    // Slots ascend with VA. Each word is re-read after every visit,
    // so a page fn makes resident (a shadow page a sweep touches) is
    // visited iff it lies above the current one, as in an ordered
    // walk.
    for (std::size_t bi = 0; bi < pte_blocks_.size(); ++bi) {
        PteBlock *b = pte_blocks_[bi].get();
        if (b == nullptr)
            continue;
        for (std::size_t w = 0; w < b->resident.w.size(); ++w) {
            std::uint64_t seen = 0;
            while (const std::uint64_t m = b->resident.w[w] & ~seen) {
                const unsigned k =
                    static_cast<unsigned>(std::countr_zero(m));
                seen = (2ull << k) - 1;
                const std::size_t j = w * 64 + k;
                const std::size_t i = bi * kBlockPages + j;
                const Addr va =
                    i < kHeapWindowPages
                        ? kHeapBase + i * kPageSize
                        : kShadowBase +
                              (i - kHeapWindowPages) * kPageSize;
                fn(va, b->ptes[j]);
            }
        }
    }
}

void
AddressSpace::notePtePublish(sim::SimThread &t, Addr va, PteContext ctx)
{
    const bool ok =
        pmap_lock_.heldBy(t) || t.scheduler().stwOwnedBy(t);
    if (checker_ != nullptr) {
        checker_->onPtePublish(t.id(), t.now(), pageBase(va), ok);
        return;
    }
    // No checker attached: enforce the claimed discipline outright.
    if (ctx == PteContext::kLocked)
        pmap_lock_.assertHeld(t);
    else
        CREV_ASSERT(ok);
}

void
AddressSpace::setChecker(check::RaceChecker *c)
{
    checker_ = c;
    if (c != nullptr)
        c->nameLock(&pmap_lock_, "pmap");
}

std::vector<Addr>
AddressSpace::takeFreedFrames()
{
    std::vector<Addr> out;
    out.swap(freed_frames_);
    return out;
}

} // namespace crev::vm
