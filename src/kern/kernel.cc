#include "kern/kernel.h"

#include <algorithm>

#include "base/logging.h"
#include "check/race_checker.h"
#include "vm/address_space.h"

namespace crev::kern {

void
EpochCounter::advance(sim::SimThread &t)
{
    t.accrue(8);
    ++value_;
    if (checker_ != nullptr)
        checker_->onEpochAdvance(t.id(), t.now(), value_);
}

Kernel::Kernel(vm::Mmu &mmu, const sim::CostModel &cm)
    : mmu_(mmu), cm_(cm)
{
}

cap::Capability
Kernel::sysMmap(sim::SimThread &t, Addr length, bool cap_store)
{
    t.accrue(cm_.syscall);
    vm::AddressSpace &as = mmu_.addressSpace();
    const Addr base = as.reserve(length, cap_store);
    const Addr usable = roundUp(length, kPageSize);
    std::uint32_t perms = cap::kPermLoad | cap::kPermStore;
    if (cap_store)
        perms |= cap::kPermLoadCap | cap::kPermStoreCap;
    return cap::Capability::root(base, base + usable, perms);
}

void
Kernel::sysMunmap(sim::SimThread &t, Addr base, Addr length)
{
    t.accrue(cm_.syscall);
    // Bulk address-space operations are excluded while a revocation
    // sweep is in flight (paper §4.3).
    if (quiesce_)
        quiesce_(t);
    vm::AddressSpace &as = mmu_.addressSpace();
    as.unmap(t, base, roundUp(length, kPageSize));
    // Unmapped translations must not linger in any TLB.
    for (Addr va = base; va < base + length; va += kPageSize)
        mmu_.shootdownPage(t, va);
    mmu_.purgeFreedFrames();

    for (vm::Reservation *r : as.takeNewlyQuarantined(t)) {
        // Paint the entire reservation so the sweep revokes every
        // capability referencing it, then schedule its release for
        // after a full revocation epoch (§6.2 part 2).
        if (paint_)
            paint_(t, r->base, r->length);
        r->quarantine_epoch = epoch_.value();
        const std::uint64_t target =
            epoch_.dequarantineTarget(r->quarantine_epoch);
        quarantined_mappings_.push_back({r, target});
        min_release_target_ = std::min(min_release_target_, target);
    }
}

std::size_t
Kernel::reapQuarantinedMappings(sim::SimThread &t)
{
    // Nothing can be releasable below the minimum queued target.
    if (epoch_.value() < min_release_target_)
        return 0;
    std::size_t released = 0;
    std::uint64_t min_target = ~std::uint64_t{0};
    auto it = quarantined_mappings_.begin();
    while (it != quarantined_mappings_.end()) {
        if (epoch_.value() >= it->release_target) {
            if (clear_)
                clear_(t, it->reservation->base, it->reservation->length);
            mmu_.addressSpace().release(t, it->reservation);
            it = quarantined_mappings_.erase(it);
            ++released;
        } else {
            min_target = std::min(min_target, it->release_target);
            ++it;
        }
    }
    min_release_target_ = min_target;
    return released;
}

} // namespace crev::kern
