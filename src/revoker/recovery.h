/**
 * @file
 * The unified recovery manager: named recovery protocols with
 * per-protocol bounded retries, deadlines, and saturating backoff.
 *
 * PR 1's watchdog hard-coded its nudge/force-complete ladder; PR 6
 * adds fault domains whose repair paths (shootdown re-send, shadow-
 * summary rebuild, quarantine hand-off re-delivery) would each need
 * the same retry/deadline/backoff skeleton. The RecoveryManager is
 * that skeleton, factored once: a client opens a Ticket for a named
 * protocol, asks permission for each attempt (denied once retries are
 * exhausted or the protocol deadline has passed), spaces attempts with
 * the saturating exponential backoff the watchdog ladder uses (both
 * call saturatingBackoff()), and closes the ticket with a terminal
 * outcome. Every attempt and outcome emits a trace instant
 * and feeds per-protocol counters plus a recovery-latency histogram
 * exported through the MetricsRegistry.
 *
 * The manager itself is an off-clock observer: it never accrues
 * simulated cycles and never yields. All simulated cost of a recovery
 * (the re-sent IPI, the rebuilt summary block, the retried hand-off)
 * is charged by the client at the client's site, so attaching the
 * manager — like attaching the tracer or race checker — cannot perturb
 * a single scheduling decision.
 */

#ifndef CREV_REVOKER_RECOVERY_H_
#define CREV_REVOKER_RECOVERY_H_

#include <array>
#include <cstdint>

#include "base/types.h"
#include "sim/scheduler.h"
#include "stats/summary.h"
#include "trace/metrics_registry.h"
#include "trace/trace.h"

namespace crev::revoker {

using trace::RecoveryOutcome;
using trace::RecoveryProtocol;

/**
 * Saturating exponential backoff: base << min(attempt, 6), capped at
 * @p cap, with a zero base or cap counted as 1. Never overflows
 * Cycles: `base << shift` would once base > 2^58, so the base is
 * compared against the pre-shifted cap instead.
 */
constexpr Cycles
saturatingBackoff(Cycles base, Cycles cap, unsigned attempt)
{
    cap = cap > 1 ? cap : 1;
    base = base > 1 ? base : 1;
    const unsigned shift = attempt < 6u ? attempt : 6u;
    if (base > (cap >> shift))
        return cap;
    const Cycles shifted = base << shift;
    return shifted < cap ? shifted : cap;
}

/** Per-protocol retry/deadline/backoff envelope. */
struct RecoveryPolicy
{
    /** Attempts permitted per ticket (attempt() denies afterwards). */
    unsigned max_retries = 8;
    /** Ticket lifetime in virtual cycles; 0 = no deadline. */
    Cycles deadline = 0;
    /** First backoff delay; doubles per attempt (saturating). */
    Cycles backoff_base = 250'000;
    /** Backoff saturation cap. */
    Cycles max_backoff = 16'000'000;
};

/** What one protocol did across the run (RunMetrics observability). */
struct RecoveryProtocolStats
{
    std::uint64_t tickets = 0;
    std::uint64_t attempts = 0;
    std::uint64_t successes = 0;
    std::uint64_t retries_exhausted = 0;
    std::uint64_t deadline_expiries = 0;
    std::uint64_t aborts = 0; //!< closed kAborted (shutdown mid-flight)
    Cycles total_latency = 0; //!< summed open->close virtual time
    Cycles max_latency = 0;
};

class RecoveryManager
{
  public:
    /** One in-flight recovery attempt sequence. Plain data, owned by
     *  the client (stack-local or member), keyed back to the manager
     *  through its protocol id. */
    struct Ticket
    {
        RecoveryProtocol proto = RecoveryProtocol::kEpochLadder;
        Cycles opened_at = 0;
        unsigned attempts = 0;
        bool open = false;
    };

    RecoveryManager();

    void
    setPolicy(RecoveryProtocol p, const RecoveryPolicy &policy)
    {
        policies_[index(p)] = policy;
    }
    const RecoveryPolicy &
    policy(RecoveryProtocol p) const
    {
        return policies_[index(p)];
    }

    /** Attach an event tracer (null = off); attempts/outcomes become
     *  kRecoveryAttempt/kRecoveryOutcome instants. */
    void setTracer(trace::Tracer *t) { tracer_ = t; }

    // Ticket operations are header-inline so the vm layer (a client
    // via Mmu's shootdown re-send) needs no crev_revoker symbols — the
    // static-library dependency stays acyclic.

    /** Open a ticket for @p p at @p t's current virtual time. */
    Ticket
    open(sim::SimThread &t, RecoveryProtocol p)
    {
        Ticket tk;
        tk.proto = p;
        tk.opened_at = t.now();
        tk.open = true;
        ++stats_[index(p)].tickets;
        return tk;
    }

    /**
     * Ask permission for the next attempt on @p tk. Returns false —
     * without consuming an attempt — once retries are exhausted or the
     * protocol deadline (measured from open) has passed; the caller
     * should then close with the matching terminal outcome (see
     * failureOutcome()). On true the attempt is counted and traced;
     * the client performs (and charges) the actual repair work.
     */
    bool
    attempt(sim::SimThread &t, Ticket &tk)
    {
        if (!tk.open || retriesExhausted(tk) ||
            deadlineExpired(t.now(), tk))
            return false;
        ++tk.attempts;
        ++stats_[index(tk.proto)].attempts;
        if (tracer_ != nullptr)
            tracer_->record(t.id(), t.core(), t.now(),
                            trace::EventType::kRecoveryAttempt,
                            static_cast<std::uint8_t>(tk.proto),
                            tk.attempts);
        return true;
    }

    /**
     * Saturating exponential backoff before the ticket's *next*
     * attempt (saturatingBackoff() of the protocol's envelope); a 0/0
     * envelope means no backoff at all.
     */
    Cycles
    backoff(const Ticket &tk) const
    {
        const RecoveryPolicy &pol = policy(tk.proto);
        if (pol.backoff_base == 0 && pol.max_backoff == 0)
            return 0;
        return saturatingBackoff(pol.backoff_base, pol.max_backoff,
                                 tk.attempts);
    }

    /** True when the ticket's attempt budget is spent. */
    bool
    retriesExhausted(const Ticket &tk) const
    {
        return tk.attempts >= policy(tk.proto).max_retries;
    }

    /** True when the protocol deadline has passed at @p now. */
    bool
    deadlineExpired(Cycles now, const Ticket &tk) const
    {
        const Cycles d = policy(tk.proto).deadline;
        return d != 0 && now - tk.opened_at > d;
    }

    /** The terminal outcome attempt()'s denial implies at @p now. */
    RecoveryOutcome
    failureOutcome(Cycles now, const Ticket &tk) const
    {
        return deadlineExpired(now, tk)
                   ? RecoveryOutcome::kDeadlineExpired
                   : RecoveryOutcome::kRetriesExhausted;
    }

    /** Close @p tk with @p outcome, recording open->close latency. */
    void
    close(sim::SimThread &t, Ticket &tk, RecoveryOutcome outcome)
    {
        if (!tk.open)
            return;
        tk.open = false;
        RecoveryProtocolStats &st = stats_[index(tk.proto)];
        switch (outcome) {
          case RecoveryOutcome::kSucceeded:
            ++st.successes;
            break;
          case RecoveryOutcome::kRetriesExhausted:
            ++st.retries_exhausted;
            break;
          case RecoveryOutcome::kDeadlineExpired:
            ++st.deadline_expiries;
            break;
          case RecoveryOutcome::kAborted:
            ++st.aborts;
            break;
        }
        const Cycles latency = t.now() - tk.opened_at;
        st.total_latency += latency;
        if (latency > st.max_latency)
            st.max_latency = latency;
        latencies_[index(tk.proto)].add(static_cast<double>(latency));
        if (tracer_ != nullptr)
            tracer_->record(t.id(), t.core(), t.now(),
                            trace::EventType::kRecoveryOutcome,
                            static_cast<std::uint8_t>(tk.proto),
                            static_cast<std::uint64_t>(outcome));
    }

    const RecoveryProtocolStats &
    stats(RecoveryProtocol p) const
    {
        return stats_[index(p)];
    }
    const stats::Samples &
    latencies(RecoveryProtocol p) const
    {
        return latencies_[index(p)];
    }

  private:
    static std::size_t
    index(RecoveryProtocol p)
    {
        return static_cast<std::size_t>(p);
    }

    std::array<RecoveryPolicy, trace::kNumRecoveryProtocols> policies_;
    std::array<RecoveryProtocolStats, trace::kNumRecoveryProtocols>
        stats_;
    std::array<stats::Samples, trace::kNumRecoveryProtocols> latencies_;
    trace::Tracer *tracer_ = nullptr;
};

} // namespace crev::revoker

#endif // CREV_REVOKER_RECOVERY_H_
