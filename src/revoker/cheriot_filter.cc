#include "revoker/cheriot_filter.h"

#include <vector>

#include "vm/address_space.h"

namespace crev::revoker {

CheriotFilterRevoker::CheriotFilterRevoker(sim::Scheduler &sched,
                                           vm::Mmu &mmu,
                                           kern::Kernel &kernel,
                                           RevocationBitmap &bitmap,
                                           const RevokerOptions &opts)
    : Revoker(sched, mmu, kernel, bitmap, opts)
{
}

bool
CheriotFilterRevoker::filterLoad(sim::SimThread &t,
                                 const cap::Capability &c)
{
    ++probes_;
    const bool revoked = sweep_.isRevoked(t, c);
    if (revoked)
        ++stripped_;
    // Not self-healing (paper footnote 28): the in-memory copy keeps
    // its tag until the background sweep visits it; only the value
    // entering the register file is stripped.
    return revoked;
}

void
CheriotFilterRevoker::doEpoch(sim::SimThread &self)
{
    kern::EpochCounter &epoch = kernel_.epoch();
    vm::AddressSpace &as = mmu_.addressSpace();

    epoch.advance(self); // odd
    snapshotAuditSet();

    EpochTiming timing;

    // Registers and hoards may hold pre-epoch capabilities that never
    // pass through a load again; scan them world-stopped. No
    // generation machinery exists to flip.
    const Cycles begin = stwBegin(self);
    tracePhaseBegin(self, trace::Phase::kStwScan);
    scanRegistersAndHoards(self);
    timing.stw_duration = self.now() - begin;
    tracePhaseEnd(self, trace::Phase::kStwScan);
    sched_.resumeWorld(self);

    // One background pass over every page that has ever held
    // capabilities. Stores during the sweep are filtered-clean values,
    // so no page needs a second visit (the same argument that lets
    // Reloaded skip re-sweeps, provided here by the load filter).
    const Cycles cbegin = self.now();
    tracePhaseBegin(self, trace::Phase::kConcurrentSweep);
    const std::vector<Addr> pages =
        collectPages([](const vm::Pte &p) { return p.cap_ever; });
    sim::SimMutex &pmap = as.pmapLock();
    for (Addr va : pages) {
        pmap.lock(self);
        vm::Pte *p = as.findPte(va);
        const bool valid = p != nullptr && p->valid;
        pmap.unlock(self);
        if (!valid)
            continue;
        const bool clean = sweep_.sweepPage(self, va);
        pmap.lock(self);
        if (p->valid) {
            PublishOptions o;
            o.clean = clean;
            o.clean_page_detection = opts_.clean_page_detection;
            o.set_generation = false;
            o.charge_and_shootdown = false;
            sweep_.publishPage(self, *p, va, o,
                               vm::PteContext::kLocked);
        }
        pmap.unlock(self);
    }
    tracePhaseEnd(self, trace::Phase::kConcurrentSweep);
    timing.concurrent_duration = self.now() - cbegin;

    finishEpoch(self); // even
    timings_.push_back(timing);
}

} // namespace crev::revoker
