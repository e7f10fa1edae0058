#include "vm/address_space.h"

#include "base/logging.h"
#include "cap/compression.h"
#include "check/race_checker.h"

namespace crev::vm {

namespace {

// Flat-window extents (DESIGN.md §14.4). Every PTE the simulator ever
// creates lives in the heap window (reserve() hands out only
// [kHeapBase, kHeapCeiling)) or the shadow window (implicit shadow
// object, materialised by makeResident); guard pages exist only inside
// heap reservations.
constexpr std::size_t kHeapWindowPages =
    static_cast<std::size_t>((kHeapCeiling - kHeapBase) / kPageSize);
constexpr Addr kShadowWindowEnd = shadowByteFor(kHeapCeiling) + kPageSize;
constexpr std::size_t kShadowWindowPages =
    static_cast<std::size_t>((kShadowWindowEnd - kShadowBase) /
                             kPageSize);

} // namespace

AddressSpace::AddressSpace(mem::PhysMem &pm)
    : pm_(pm), heap_pte_(kHeapWindowPages, nullptr),
      shadow_pte_(kShadowWindowPages, nullptr),
      heap_guard_(kHeapWindowPages, 0)
{
}

Pte **
AddressSpace::fastSlot(Addr page)
{
    if (page >= kHeapBase && page < kHeapCeiling)
        return &heap_pte_[(page - kHeapBase) / kPageSize];
    if (page >= kShadowBase && page < kShadowWindowEnd)
        return &shadow_pte_[(page - kShadowBase) / kPageSize];
    return nullptr;
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
    mapped_bytes_ += req;

    // Representability padding starts life as guard pages
    // (paper footnote 26); they are part of the reservation but any
    // touch faults.
    for (Addr va = base; va < base + padded; va += kPageSize) {
        Pte &p = pte(va);
        p = Pte{};
        p.cap_store = cap_store;
        p.write = true;
    }
    for (Addr va = base + req; va < base + padded; va += kPageSize)
        guardPage(va);
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
AddressSpace::guardPage(Addr va)
{
    const Addr page = pageBase(va);
    CREV_ASSERT(page >= kHeapBase && page < kHeapCeiling);
    heap_guard_[(page - kHeapBase) / kPageSize] = 1;
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
        if (isGuarded(va))
            continue;
        auto it = pages_.find(va);
        CREV_ASSERT(it != pages_.end());
        if (it->second.valid) {
            pm_.freeFrame(it->second.pfn);
            freed_frames_.push_back(it->second.pfn);
            it->second.valid = false;
            it->second.pfn = 0;
            --resident_;
            resident_pages_.erase(va);
            cap_ever_pages_.erase(va);
            cap_dirty_pages_.erase(va);
        }
        guardPage(va);
        CREV_ASSERT(r->mapped_bytes >= kPageSize);
        r->mapped_bytes -= kPageSize;
        mapped_bytes_ -= kPageSize;
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
    for (Addr va = r->base; va < r->base + r->length; va += kPageSize) {
        if (Pte **s = fastSlot(va))
            *s = nullptr;
        pages_.erase(va);
        resident_pages_.erase(va);
        cap_ever_pages_.erase(va);
        cap_dirty_pages_.erase(va);
    }
    ++pt_epoch_; // dangles any host-cached Pte pointers

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

Pte &
AddressSpace::pte(Addr va)
{
    const Addr page = pageBase(va);
    if (Pte **s = fastSlot(page)) {
        if (*s == nullptr)
            *s = &pages_[page];
        return **s;
    }
    return pages_[page];
}

Pte *
AddressSpace::findPte(Addr va)
{
    const Addr page = pageBase(va);
    if (Pte **s = fastSlot(page))
        return *s;
    auto it = pages_.find(page);
    return it == pages_.end() ? nullptr : &it->second;
}

bool
AddressSpace::inShadow(Addr va)
{
    return va >= kShadowBase &&
           va < shadowByteFor(kHeapCeiling) + kPageSize;
}

FaultKind
AddressSpace::classify(Addr va, bool is_store, bool is_cap_store) const
{
    const Addr page = pageBase(va);
    const Pte *p;
    if (page >= kHeapBase && page < kHeapCeiling) {
        const std::size_t i =
            static_cast<std::size_t>((page - kHeapBase) / kPageSize);
        if (heap_guard_[i])
            return FaultKind::kGuard;
        p = heap_pte_[i];
        if (p == nullptr) // heap VA: never in the shadow region
            return FaultKind::kNotMapped;
    } else if (page >= kShadowBase && page < kShadowWindowEnd) {
        // Shadow pages are never guarded (guards live inside heap
        // reservations only).
        p = shadow_pte_[(page - kShadowBase) / kPageSize];
        if (p == nullptr) // implicit kernel-provided anonymous object
            return FaultKind::kDemandZero;
    } else {
        // Outside both windows: no guards and no implicit object.
        auto pit = pages_.find(page);
        if (pit == pages_.end())
            return FaultKind::kNotMapped;
        p = &pit->second;
    }
    if (!p->valid)
        return FaultKind::kDemandZero;
    if (is_store && !p->write)
        return FaultKind::kWriteProtect;
    if (is_cap_store && !p->cap_store)
        return FaultKind::kCapStore;
    return FaultKind::kNone;
}

Pte &
AddressSpace::makeResident(Addr va)
{
    const Addr page = pageBase(va);
    CREV_ASSERT(!isGuarded(page));
    Pte &p = pte(page);
    if (!p.valid) {
        if (inShadow(va)) {
            // The shadow bitmap never carries capabilities.
            p.cap_store = false;
            p.write = true;
        }
        p.pfn = pm_.allocFrame();
        p.valid = true;
        ++resident_;
        resident_pages_.insert(page);
    }
    return p;
}

void
AddressSpace::forEachResidentPage(
    const std::function<void(Addr, Pte &)> &fn)
{
    for (auto &[va, p] : pages_)
        if (p.valid)
            fn(va, p);
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
