/**
 * @file
 * Epoch watchdog: detects stuck revocation epochs and drives graceful
 * degradation.
 *
 * The temporal-safety story of every strategy rests on one liveness
 * property: the public epoch counter keeps advancing, because
 * allocators block on it (QuarantineShim::maybeBlock()'s mrs-style
 * backpressure and drain()). Concurrent revocation adds failure modes
 * a stop-the-world design never had — background sweepers can stall or
 * die, and load-fault completions can be lost — so the watchdog runs
 * as an independent daemon with a per-epoch deadline derived from the
 * work left (resident pages × per-page cost × slack) and escalates
 * through a degradation ladder when the deadline is missed:
 *
 *   1. *Nudge*: reap dead sweeper threads (repairing any epoch
 *      accounting they held), optionally respawn replacements with
 *      exponential backoff between attempts, and re-notify every event
 *      the daemon could be blocked on.
 *   2. *Request recovery*: ask the revoker daemon to finish the epoch
 *      itself in degraded mode (emergency CHERIvoke-style STW sweep).
 *   3. *Force-complete*: if the daemon is unresponsive, run the
 *      emergency sweep on the watchdog thread and advance the counter
 *      by fiat; if the daemon then stays wedged while new requests
 *      arrive, serve those as full emergency epochs too.
 *
 * Degraded epochs trade the paper's pause-time win for CHERIvoke's
 * simplicity — but never trade away safety or liveness.
 */

#ifndef CREV_REVOKER_WATCHDOG_H_
#define CREV_REVOKER_WATCHDOG_H_

#include <cstdint>
#include <functional>

#include "base/types.h"
#include "revoker/recovery.h"
#include "revoker/revoker.h"

namespace crev::revoker {

/** Deadline and escalation tuning for the epoch watchdog. */
struct WatchdogPolicy
{
    /** Spawn the watchdog even without fault injection. */
    bool enabled = false;

    /** How often the watchdog polls epoch progress. */
    Cycles poll_interval = 250'000;

    /** Floor on the per-epoch deadline (tiny heaps, empty epochs). */
    Cycles min_deadline = 2'000'000;
    /** Budgeted sweep cost per resident page. */
    Cycles per_page_cycles = 8'000;
    /** Multiplier on the budget before an epoch counts as stuck. */
    double slack = 4.0;

    /** Ladder rung 1 attempts before requesting degraded completion. */
    unsigned max_nudges = 2;
    /** Base of the exponential backoff between escalation attempts. */
    Cycles backoff_base = 250'000;
    /**
     * Ceiling on one backoff sleep. The doubling saturates here
     * instead of shifting past the width of Cycles: with a large
     * backoff_base the unclamped `base << attempt` overflows to a
     * tiny (or huge) sleep and the ladder either spins or parks the
     * watchdog beyond the end of the run.
     */
    Cycles max_backoff = 16'000'000;
    /** Total sweeper respawns allowed per run. */
    unsigned max_respawns = 2;
};

/** What the watchdog actually did (RunMetrics observability). */
struct RecoveryStats
{
    std::uint64_t deadline_misses = 0;   //!< epochs that went overdue
    std::uint64_t nudges = 0;            //!< rung-1 wakeup rounds
    std::uint64_t sweepers_reaped = 0;   //!< dead sweepers detected
    std::uint64_t sweepers_respawned = 0;
    std::uint64_t recovery_requests = 0; //!< rung-2 degraded requests
    std::uint64_t stw_fallbacks = 0;     //!< rung-3 force completions
    std::uint64_t emergency_epochs = 0;  //!< epochs run by the watchdog
    /** Stalled-thread observations while an epoch was overdue (one
     *  per stalled thread per escalation round). */
    std::uint64_t stalled_threads = 0;
};

/**
 * The watchdog daemon. The Machine spawns daemonBody() on its own
 * simulated thread whenever fault injection or the policy enables it.
 */
class EpochWatchdog
{
  public:
    /**
     * Respawns one background sweeper; returns the new thread (which
     * the callback must register with the revoker) or nullptr if the
     * strategy has no sweepers to respawn.
     */
    using RespawnFn = std::function<sim::SimThread *(sim::SimThread &)>;

    EpochWatchdog(sim::Scheduler &sched, Revoker &rev, vm::Mmu &mmu,
                  kern::Kernel &kernel, const WatchdogPolicy &policy)
        : sched_(sched), rev_(rev), mmu_(mmu), kernel_(kernel),
          policy_(policy)
    {
    }

    void setRespawnFn(RespawnFn fn) { respawn_ = std::move(fn); }

    /** The watchdog loop (bound to its daemon thread at spawn). */
    void daemonBody(sim::SimThread &self);

    const RecoveryStats &stats() const { return stats_; }
    const WatchdogPolicy &policy() const { return policy_; }

    /** Attach an event tracer (null = off); escalations become
     *  kWatchdogEscalate instants (arg8 = rung 1..4). */
    void setTracer(trace::Tracer *t) { tracer_ = t; }

    /**
     * Attach the recovery manager (null = off): each overdue epoch
     * becomes a kEpochLadder ticket whose attempts mirror the ladder's
     * escalation rounds. Purely observational — the ladder's own
     * timings and rung order are unchanged.
     */
    void setRecoveryManager(RecoveryManager *rm) { recovery_ = rm; }

  private:
    /** Deadline for the epoch in progress, from pages left to sweep. */
    Cycles deadline() const;

    /** Rung 1: reap/respawn dead sweepers and re-notify events. */
    void nudgeRound(sim::SimThread &self);

    /** Record one escalation rung in the trace. */
    void traceEscalation(sim::SimThread &self, unsigned rung);

    sim::Scheduler &sched_;
    Revoker &rev_;
    vm::Mmu &mmu_;
    kern::Kernel &kernel_;
    WatchdogPolicy policy_;
    RespawnFn respawn_;
    RecoveryStats stats_;
    trace::Tracer *tracer_ = nullptr;
    RecoveryManager *recovery_ = nullptr;
};

} // namespace crev::revoker

#endif // CREV_REVOKER_WATCHDOG_H_
