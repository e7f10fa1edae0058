/**
 * @file
 * The mrs-style quarantine shim (paper §5, "modified mrs").
 *
 * Wraps SnmallocLite with temporal safety: free() validates the
 * capability, paints the revocation bitmap over the allocation, and
 * parks it in quarantine; the object only reaches a free list after a
 * full revocation epoch has both begun and ended since the paint
 * (epoch counter +2/+3 protocol, §2.2.3).
 *
 * The quarantine is double-buffered (§7.2): frees continue into the
 * second buffer while the first awaits its epoch. Revocation is
 * requested when quarantine exceeds the policy ratio of the live heap
 * (default: 1/3 of allocated heap ≡ 1/4 of total, paper §5) or the
 * configured minimum; operations *block* when quarantine exceeds
 * block_factor times the threshold, as mrs does (§5.3 discussion).
 *
 * One heap lock serialises malloc and free from every core: a free on
 * a core other than the allocating one retires, paints and
 * quarantines the object exactly as a local free does.
 */

#ifndef CREV_ALLOC_QUARANTINE_H_
#define CREV_ALLOC_QUARANTINE_H_

#include <cstdint>
#include <vector>

#include "alloc/snmalloc_lite.h"
#include "revoker/recovery.h"
#include "revoker/revoker.h"

namespace crev::check {
class RaceChecker;
}

namespace crev::sim {
class FaultInjector;
}

namespace crev::alloc {

/** Quarantine sizing policy (paper §5 defaults, scaled). */
struct QuarantinePolicy
{
    /** Revoke when quarantine exceeds this fraction of the live
     *  (allocated) heap — 1/3 of allocated == 1/4 of total. */
    double alloc_ratio = 1.0 / 3.0;
    /** ... unless less than this many bytes are quarantined (the
     *  paper uses 8 MiB; workloads here are scaled ~32x down). */
    std::size_t min_bytes = 256 * 1024;
    /** Block malloc/free when quarantine exceeds block_factor *
     *  threshold (mrs blocks at "over twice full"). */
    double block_factor = 2.0;
};

/** Revocation-rate statistics (Table 2). */
struct QuarantineStats
{
    std::uint64_t revocations_triggered = 0;
    std::uint64_t sum_freed_bytes = 0;   //!< total bytes quarantined
    std::uint64_t sum_alloc_at_trigger = 0; //!< Σ live heap @ trigger
    std::uint64_t sum_quar_at_trigger = 0;  //!< Σ quarantine @ trigger
    std::uint64_t blocked_ops = 0;       //!< ops that had to wait
    /** Virtual cycles mutators spent blocked on quarantine
     *  backpressure (sums each wait's duration). */
    std::uint64_t blocked_cycles = 0;
    /** High-water mark of bytes held in quarantine. */
    std::uint64_t max_quarantine_bytes = 0;
    /** Address-space exhaustion degraded to a forced full drain. */
    std::uint64_t emergency_reclaims = 0;
    /** Epoch hand-off requests re-sent after a detected loss. */
    std::uint64_t handoff_resends = 0;

    double
    meanAllocAtTrigger() const
    {
        return revocations_triggered == 0
                   ? 0.0
                   : static_cast<double>(sum_alloc_at_trigger) /
                         static_cast<double>(revocations_triggered);
    }
    double
    meanQuarantineAtTrigger() const
    {
        return revocations_triggered == 0
                   ? 0.0
                   : static_cast<double>(sum_quar_at_trigger) /
                         static_cast<double>(revocations_triggered);
    }
};

/** The malloc/free interposer providing heap temporal safety. */
class QuarantineShim
{
  public:
    /**
     * @param revoker may be null (shim disabled: baseline pass-through
     * to the allocator with no quarantine).
     */
    QuarantineShim(SnmallocLite &snm, kern::Kernel &kernel,
                   revoker::Revoker *revoker,
                   revoker::RevocationBitmap *bitmap,
                   const QuarantinePolicy &policy);

    cap::Capability malloc(sim::SimThread &t, std::size_t size);
    void free(sim::SimThread &t, const cap::Capability &c);

    /** Bytes currently in quarantine. */
    std::size_t quarantineBytes() const { return quarantine_bytes_; }

    bool enabled() const { return revoker_ != nullptr; }

    const QuarantineStats &stats() const { return stats_; }

    /** Drain: request revocation and wait until the quarantine
     *  empties (used by examples/tests to force determinism at the
     *  end). */
    void drain(sim::SimThread &t);

    /** Attach an event tracer (null = off); backpressure waits become
     *  kQuarantineBlock/kQuarantineUnblock spans. */
    void setTracer(trace::Tracer *t) { tracer_ = t; }

    /** Attach the race checker (null = off); names the heap lock and
     *  observes quarantine-buffer accesses. */
    void setChecker(check::RaceChecker *c);

    /** Attach the fault injector (null = off): arms the dropped /
     *  duplicated epoch hand-off domain. */
    void setFaultInjector(sim::FaultInjector *fi) { injector_ = fi; }

    /** Attach the recovery manager (null = off): lost hand-offs are
     *  re-sent under kQuarantineHandoff tickets. */
    void setRecoveryManager(revoker::RecoveryManager *rm)
    {
        recovery_ = rm;
    }

  private:
    struct Entry
    {
        Addr base;
        std::size_t size;
    };

    struct Buffer
    {
        std::vector<Entry> entries;
        std::size_t bytes = 0;
        bool awaiting = false;
        std::uint64_t target = 0; //!< epoch counter to wait for
    };

    /** Current policy threshold in bytes. */
    std::size_t threshold() const;
    /** Release any buffer whose epoch target has been reached. */
    void maybeDequarantine(sim::SimThread &t);
    /** Submit the current buffer for revocation if total quarantine
     *  is over policy. */
    void maybeTrigger(sim::SimThread &t);
    /** Block while quarantine is pathologically oversized. */
    void maybeBlock(sim::SimThread &t);

    /** Park an already-retired object (heap lock held): paint, push
     *  into the non-awaiting buffer, and maybe trigger. */
    void quarantineLocked(sim::SimThread &t, Addr base, std::size_t size);

    /**
     * Send the epoch request through the (possibly faulty) hand-off
     * channel: the injector may drop the message outright or deliver
     * it twice. Without an armed injector this is exactly
     * requestEpoch().
     */
    void sendEpochRequest(sim::SimThread &t);

    /**
     * Wait for the epoch counter to reach @p target, detecting and
     * re-sending lost hand-offs: when the counter is short, no request
     * is pending, and no epoch is in progress, the request was dropped
     * in flight — re-send it under a kQuarantineHandoff ticket with
     * saturating backoff, degrading to a direct (unfaultable) request
     * once retries are exhausted. Without the quarantine fault domain
     * armed this is exactly waitForEpochCounter().
     */
    void waitForCounterRecovering(sim::SimThread &t,
                                  std::uint64_t target);

    /** Whether the dropped/duplicated hand-off domain is armed. */
    bool handoffFaultsArmed() const;

    /** Drain both quarantine buffers; the heap lock must be held. */
    void drainLocked(sim::SimThread &t);

    /**
     * Ensure the allocator can satisfy an mmap for @p size bytes: on
     * address-space exhaustion, degrade to an emergency drain
     * (revoke-and-reclaim everything quarantined) and throw
     * std::bad_alloc only if the space is still insufficient.
     */
    void ensureAddressSpaceFor(sim::SimThread &t, std::size_t size);

    /** RAII heap lock: every malloc/free serialises here (snmalloc
     *  proper uses per-thread allocators; one locked heap is the
     *  simpler faithful-enough model). */
    class Locked
    {
      public:
        Locked(sim::SimMutex &m, sim::SimThread &t) : m_(m), t_(t)
        {
            m_.lock(t_);
        }
        ~Locked() { m_.unlock(t_); }

      private:
        sim::SimMutex &m_;
        sim::SimThread &t_;
    };

    SnmallocLite &snm_;
    kern::Kernel &kernel_;
    revoker::Revoker *revoker_;
    revoker::RevocationBitmap *bitmap_;
    QuarantinePolicy policy_;
    sim::SimMutex lock_;
    Buffer buffers_[2];
    int cur_ = 0;
    std::size_t quarantine_bytes_ = 0;
    QuarantineStats stats_;
    trace::Tracer *tracer_ = nullptr;
    check::RaceChecker *checker_ = nullptr;
    sim::FaultInjector *injector_ = nullptr;
    revoker::RecoveryManager *recovery_ = nullptr;
};

} // namespace crev::alloc

#endif // CREV_ALLOC_QUARANTINE_H_
