/**
 * @file
 * Deterministic virtual-time event tracing.
 *
 * The paper's argument is a phase-timeline argument (fig. 9): each
 * epoch decomposes into a world-stopped scan, a concurrent sweep, and
 * load-barrier fault work. RunMetrics only reports end-of-run
 * aggregates; the tracer records *when* each invariant-relevant
 * transition happened — scheduler grants/parks, STW windows, epoch
 * phases, quarantine backpressure, watchdog escalations, TLB
 * shootdowns, injected faults — each event stamped with virtual
 * cycles, core, and simulated-thread id.
 *
 * Two hard rules, both enforced by tier-1 tests (trace_test,
 * determinism_test):
 *
 *   1. Zero simulated cost. record() never accrues cycles and never
 *      yields; a traced run's RunMetrics are bit-identical to an
 *      untraced run's.
 *   2. The trace itself is deterministic: two same-seed runs export
 *      byte-identical JSON.
 *
 * The buffers are "lock-free in sim": the scheduler's single
 * execution token already serialises every simulated thread, so
 * record() touches plain data with no synchronisation of its own.
 * Each thread writes its own ring buffer; a full ring drops the
 * oldest events (deterministically), never blocks.
 */

#ifndef CREV_TRACE_TRACE_H_
#define CREV_TRACE_TRACE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "base/types.h"

namespace crev::trace {

/** Typed trace events (the taxonomy; DESIGN.md §10). */
enum class EventType : std::uint8_t {
    // Scheduler: token grants and returns.
    kThreadRun = 0, //!< thread granted the token on core `core`
    kThreadPark,    //!< thread gave up the token to sleep/block
    kThreadPreempt, //!< thread gave up the token but stays runnable
    // Stop-the-world windows (recorded on the initiating thread).
    kStwBegin,
    kStwEnd,
    // Epoch phase brackets (arg8 = Phase).
    kPhaseBegin,
    kPhaseEnd,
    // Quarantine backpressure (arg64 = epoch counter target).
    kQuarantineBlock,
    kQuarantineUnblock,
    // Watchdog degradation ladder (arg8 = rung, 1..4).
    kWatchdogEscalate,
    // TLB shootdown of one page (arg64 = page base VA).
    kTlbShootdown,
    // Fault injector firing (arg8 = FaultAction).
    kFaultInject,
    // RecoveryManager protocol attempt (arg8 = RecoveryProtocol,
    // arg64 = attempt number within the ticket, 1-based).
    kRecoveryAttempt,
    // RecoveryManager ticket closed (arg8 = RecoveryProtocol,
    // arg64 = RecoveryOutcome).
    kRecoveryOutcome,
};

/** Revocation-epoch phases (fig. 9's decomposition). */
enum class Phase : std::uint8_t {
    kPaint = 0,       //!< allocator painting the revocation bitmap
    kStwScan,         //!< world-stopped flip + register/hoard scan
    kConcurrentSweep, //!< background sweep of stale pages
    kLoadFaultSweep,  //!< one load-barrier fault's self-healing work
    kDrain,           //!< waiting out helpers and in-flight faults
};
constexpr unsigned kNumPhases = 5;

/** Which injected fault fired (EventType::kFaultInject arg8). */
enum class FaultAction : std::uint8_t {
    kSweeperStall = 0,
    kSweeperKill,
    kFaultDrop,
    kFaultDuplicate,
    kStwDelay,
    // PR 6 fault domains: the safety-critical mechanisms themselves.
    kShootdownDrop,      //!< one core's shootdown IPI lost
    kShootdownLate,      //!< one core's shootdown ack delayed
    kCoreStall,          //!< a simulated core freezes mid-run
    kSummaryCorrupt,     //!< a ShadowSummary L0 word bit-flipped
    kQuarantineDrop,     //!< quarantine epoch hand-off lost
    kQuarantineDuplicate, //!< quarantine epoch hand-off duplicated
};

/**
 * Named recovery protocols (EventType::kRecoveryAttempt /
 * kRecoveryOutcome arg8; revoker/recovery.h owns the semantics).
 * Declared here so the trace layer can name them without depending on
 * the revoker.
 */
enum class RecoveryProtocol : std::uint8_t {
    kEpochLadder = 0,   //!< watchdog nudge/force-complete ladder
    kShootdownResend,   //!< ack-based TLB shootdown re-send
    kSummaryRepair,     //!< ShadowSummary block rebuild
    kQuarantineHandoff, //!< quarantine epoch-request re-delivery
};
constexpr unsigned kNumRecoveryProtocols = 4;

/** Terminal state of a recovery ticket (kRecoveryOutcome arg64). */
enum class RecoveryOutcome : std::uint8_t {
    kSucceeded = 0,
    kRetriesExhausted,
    kDeadlineExpired,
    kAborted, //!< shutdown (or caller teardown) mid-recovery
};

const char *eventTypeName(EventType t);
const char *phaseName(Phase p);
const char *faultActionName(FaultAction a);
const char *recoveryProtocolName(RecoveryProtocol p);
const char *recoveryOutcomeName(RecoveryOutcome o);

/** One trace event: 24 bytes, plain data. */
struct Event
{
    Cycles at = 0;             //!< virtual time (cycles)
    std::uint64_t arg64 = 0;   //!< event-specific payload
    std::uint32_t tid = 0;     //!< simulated thread id
    std::uint16_t core = 0;    //!< core the thread occupied
    EventType type = EventType::kThreadRun;
    std::uint8_t arg8 = 0;     //!< Phase / rung / FaultAction
};

/**
 * A per-thread ring buffer of events. push() is O(1) and never
 * allocates after construction; once full, the oldest retained event
 * is overwritten (drop-oldest — deterministic, and it keeps the most
 * recent window, which is what a timeline viewer wants).
 */
class TraceBuffer
{
  public:
    explicit TraceBuffer(std::size_t capacity);

    void push(const Event &e);

    /** Total events ever pushed. */
    std::uint64_t recorded() const { return recorded_; }
    /** Events lost to ring wrap-around. */
    std::uint64_t dropped() const;
    /** Events currently retained. */
    std::size_t size() const;

    /** Visit retained events oldest-first, in record order. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        const std::size_t n = size();
        const std::size_t cap = ring_.size();
        const std::size_t first = (next_ + cap - n) % cap;
        for (std::size_t i = 0; i < n; ++i)
            fn(ring_[(first + i) % cap]);
    }

  private:
    std::vector<Event> ring_;
    std::size_t next_ = 0;
    std::uint64_t recorded_ = 0;
};

/**
 * The tracer: one ring buffer per simulated thread, indexed by thread
 * id. Owned by the Machine; every component that records is handed a
 * pointer (null = tracing off, the hot paths check one pointer).
 */
class Tracer
{
  public:
    static constexpr std::size_t kDefaultBufferEvents = 1u << 16;

    explicit Tracer(std::size_t buffer_capacity = kDefaultBufferEvents);

    /**
     * Record one event. Charges zero simulated cycles; callers pass
     * their thread's id/core/now so this layer never depends on the
     * scheduler. Safe without locks under the single-token discipline
     * (see file comment).
     */
    void record(unsigned tid, unsigned core, Cycles at, EventType type,
                std::uint8_t arg8 = 0, std::uint64_t arg64 = 0);

    /** Number of per-thread buffers allocated so far. */
    std::size_t numThreads() const { return buffers_.size(); }
    /** Buffer for @p tid, or null if it never recorded. */
    const TraceBuffer *buffer(unsigned tid) const;

    std::uint64_t totalRecorded() const;
    std::uint64_t totalDropped() const;
    std::size_t bufferCapacity() const { return capacity_; }

  private:
    std::size_t capacity_;
    std::vector<std::unique_ptr<TraceBuffer>> buffers_;
};

} // namespace crev::trace

#endif // CREV_TRACE_TRACE_H_
