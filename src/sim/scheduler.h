/**
 * @file
 * Deterministic cooperative virtual-time scheduler.
 *
 * Every simulated thread is backed by a host thread, but exactly one
 * simulated thread executes at a time: the scheduler hands a token to
 * the runnable thread with the smallest virtual clock (conservative
 * discrete-event execution). Simulated threads are pinned to cores via
 * a core mask; threads sharing a core are timesliced with a preemption
 * quantum. Because scheduling decisions depend only on virtual clocks,
 * entire runs are deterministic and race-free, yet workload bodies are
 * written as ordinary sequential C++.
 *
 * Two engines drive that policy (DESIGN.md §14):
 *
 *  - The serial *token engine* is the reference implementation: every
 *    cross-core interaction is applied at the instant it is posted, on
 *    the thread that holds the execution token.
 *  - The *lockstep engine* (MachineConfig::par_cores) is the
 *    conservative virtual-time generation: virtual time advances in
 *    preemption-quantum frontiers, cross-core wakes travel through
 *    per-core mailboxes drained in fixed (core-id, thread-id) order at
 *    resolution points. Because the simulated machine's shared state
 *    (allocator, page tables, caches) is visible with zero latency,
 *    the sound conservative lookahead is zero: the committing slice is
 *    granted in exact policy order, and the engine's host speedup
 *    comes from fibers and its flat lookup structures, not from
 *    speculating on virtual time. RunMetrics are bit-identical between
 *    the engines (tests/determinism_test.cpp).
 *
 * The scheduler also provides the stop-the-world service used by the
 * revokers: parked threads' clocks are advanced to the STW end time,
 * while threads sleeping past the window are unaffected — reproducing
 * the paper's observation that STW phases can hide inside idle time
 * (§5.2 Discussion).
 */

#ifndef CREV_SIM_SCHEDULER_H_
#define CREV_SIM_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/types.h"
#include "cap/capability.h"
#include "sim/cost_model.h"

/**
 * Fiber execution mode for the lockstep engine (DESIGN.md §14.5):
 * because exactly one simulated thread runs at a time, the engine can
 * run bodies as ucontext fibers on the driving host thread, turning
 * every token handoff from a kernel futex round-trip into a user-space
 * stack switch. Disabled under the sanitizers (they must observe real
 * host-thread switches to instrument stacks correctly) and off-Linux.
 */
#if defined(__linux__) && !defined(__SANITIZE_THREAD__) && \
    !defined(__SANITIZE_ADDRESS__)
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define CREV_SCHED_FIBERS 0
#else
#define CREV_SCHED_FIBERS 1
#endif
#else
#define CREV_SCHED_FIBERS 1
#endif
#else
#define CREV_SCHED_FIBERS 0
#endif

#if CREV_SCHED_FIBERS
#include <ucontext.h>
#endif

namespace crev::trace {
class Tracer;
}

namespace crev::check {
class RaceChecker;
}

namespace crev::sim {

class Scheduler;

namespace detail {
/** makecontext entry thunk for fiber mode (internal). */
void fiberTrampoline(unsigned hi, unsigned lo);
} // namespace detail

/** Lifecycle states of a simulated thread. */
enum class ThreadStatus {
    kReady,    //!< runnable, waiting for the token
    kRunning,  //!< holds the token
    kSleeping, //!< waiting for virtual time to pass
    kBlocked,  //!< waiting for an explicit wake()
    kDone,     //!< body returned
};

/**
 * A simulated thread: a virtual clock, a capability register file, and
 * a pinned set of cores. Workload code receives a reference and calls
 * accrue()/sleep()/reg() as it executes.
 */
class SimThread
{
  public:
    static constexpr unsigned kNumRegs = 32;

    SimThread(const SimThread &) = delete;
    SimThread &operator=(const SimThread &) = delete;

    const std::string &name() const { return name_; }
    unsigned id() const { return id_; }

    /** Core the thread is currently scheduled on. */
    unsigned core() const { return core_; }

    /** Current virtual time of this thread. */
    Cycles now() const { return clock_; }

    /** Cycles spent executing (excludes sleep and CPU wait). */
    Cycles busyCycles() const { return busy_; }

    /** Scheduling events this thread has passed through (heartbeat
     *  counter; feeds the stall detector). */
    std::uint64_t heartbeats() const { return heartbeats_; }
    /** Virtual time of the last heartbeat. */
    Cycles lastBeatAt() const { return last_beat_at_; }

    /**
     * Account @p c cycles of work. May hand the token to another
     * thread if this one has run past its yield horizon.
     */
    void
    accrue(Cycles c)
    {
        clock_ += c;
        busy_ += c;
        if (clock_ >= yield_horizon_ && noyield_depth_ == 0)
            yieldSlow();
    }

    /** Accrue without permitting a yield (critical sections). */
    void
    accrueNoYield(Cycles c)
    {
        clock_ += c;
        busy_ += c;
    }

    /** Explicit scheduling point (e.g. an idle server loop). */
    void yieldNow();

    /** Sleep until virtual time @p t (no CPU consumed). */
    void sleepUntil(Cycles t);
    /** Sleep for @p dt cycles. */
    void sleep(Cycles dt) { sleepUntil(clock_ + dt); }

    /** Capability register file (scanned during STW phases). */
    cap::Capability &reg(unsigned i);
    const cap::Capability &reg(unsigned i) const;

    /** Whole register file, for the revoker's STW scan. */
    std::vector<cap::Capability> &registerFile() { return regs_; }

    /** Whether a NoYield critical section is active (used by the
     *  race checker's remote-queue domain to verify splices happen
     *  inside the modeled atomic exchange window). */
    bool inNoYield() const { return noyield_depth_ > 0; }

    /** RAII guard suppressing yields (virtual critical section). */
    class NoYield
    {
      public:
        explicit NoYield(SimThread &t) : t_(t) { ++t_.noyield_depth_; }
        ~NoYield() { --t_.noyield_depth_; }

      private:
        SimThread &t_;
    };

    Scheduler &scheduler() { return sched_; }

  private:
    friend class Scheduler;
    friend void detail::fiberTrampoline(unsigned hi, unsigned lo);

    SimThread(Scheduler &sched, unsigned id, std::string name,
              std::uint32_t core_mask, bool daemon,
              std::function<void(SimThread &)> body);

    void yieldSlow();
    void threadMain();
    /** Fiber-mode body wrapper (entered on the first grant). */
    void fiberMain();

    Scheduler &sched_;
    const unsigned id_;
    const std::string name_;
    const std::uint32_t core_mask_;
    const bool daemon_;
    std::function<void(SimThread &)> body_;

    // --- state below is written only by the owning host thread or by
    // the scheduler while the thread is parked (mutex hand-off orders
    // all accesses) ---
    Cycles clock_ = 0;
    Cycles busy_ = 0;
    std::uint64_t heartbeats_ = 0;
    Cycles last_beat_at_ = 0;
    Cycles yield_horizon_ = 0;
    Cycles wake_time_ = 0; //!< for kSleeping
    unsigned core_ = 0;
    int noyield_depth_ = 0;
    ThreadStatus status_ = ThreadStatus::kReady;
    /** Relative preemption quantum scale (<1 shortens; §7.7 knob). */
    double quantum_scale_ = 1.0;

    std::vector<cap::Capability> regs_;
    std::condition_variable cv_;
    std::thread host_;
#if CREV_SCHED_FIBERS
    ucontext_t fiber_ctx_{};
    std::unique_ptr<char[]> fiber_stack_;
#endif
};

/**
 * The scheduler: owns all simulated threads and the single execution
 * token, driven by one of the two engines described in the file
 * comment.
 */
class Scheduler
{
  public:
    /**
     * @p lockstep selects the engine: false = serial token engine (the
     * reference); true = lockstep engine.
     */
    Scheduler(unsigned num_cores, const CostModel &cm,
              bool lockstep = false);
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /**
     * Create a simulated thread pinned to the cores in @p core_mask.
     * Daemon threads (the revoker) do not keep the machine alive: when
     * every non-daemon thread finishes, shuttingDown() becomes true
     * and blocked daemons are woken to exit.
     */
    SimThread *spawn(std::string name, std::uint32_t core_mask,
                     std::function<void(SimThread &)> body,
                     bool daemon = false);

    /** Run until all non-daemon threads complete (then join daemons). */
    void run();

    /** Block the calling thread until wake()d. */
    void block(SimThread &self);

    /**
     * Make @p t runnable no earlier than virtual time @p at (callers
     * pass their own now()). No-op if @p t is not blocked.
     */
    void wake(SimThread &t, Cycles at);

    /**
     * Wake a batch of threads at once. Under the lockstep engine the
     * batch is posted to the per-core mailboxes and resolved in fixed
     * (core-id, thread-id) order; the serial engine applies it in call
     * order. The two orders produce identical state because each wake
     * clamps only its own target's clock and the waker's yield-horizon
     * shrink is a commutative min (DESIGN.md §14.2).
     */
    void wakeMany(SimThread *const *ts, std::size_t n, Cycles at);

    /** True once all non-daemon threads have finished. */
    bool shuttingDown() const { return shutting_down_; }

    /**
     * Whether @p t's body has returned (its host thread may still be
     * joinable). The epoch watchdog uses this to detect sweeper
     * threads that died mid-epoch.
     */
    bool finished(const SimThread &t);

    /**
     * Begin a stop-the-world phase on behalf of @p self. Returns the
     * STW begin time; the caller performs its world-stopped work
     * (accruing cycles) and then calls resumeWorld().
     */
    Cycles stopTheWorld(SimThread &self);

    /** End the stop-the-world phase; parked threads resume at stw end. */
    void resumeWorld(SimThread &self);

    /** All threads ever spawned (the revoker scans register files). */
    const std::vector<std::unique_ptr<SimThread>> &threads() const
    {
        return threads_;
    }

    /**
     * Largest virtual clock across all threads (wall-clock metric).
     * Takes the scheduler mutex: thread clocks belong to the owning
     * host threads, so off-token readers must synchronise (the
     * sched-unlocked-read checker rule covers regressions here).
     */
    Cycles maxClock() const;

    const CostModel &costs() const { return cm_; }
    unsigned numCores() const { return num_cores_; }

    /** Whether the lockstep engine is driving this scheduler. */
    bool lockstep() const { return lockstep_; }
    /**
     * Whether simulated threads run as fibers on the driving host
     * thread (lockstep engine only; see the CREV_SCHED_FIBERS comment
     * above). Purely a host execution mechanism: grant order, clocks,
     * and RunMetrics are identical with fibers on or off.
     */
    bool fibers() const { return fibers_; }

    /**
     * The current quantum frontier: the quantum-aligned floor of the
     * committing slice's grant time. Cross-core effects posted by a
     * slice resolve no later than the next frontier (in practice at
     * the next resolution point; see DESIGN.md §14.2). Exposed for
     * tests; 0 under the serial engine.
     */
    Cycles
    quantumFrontier() const
    {
        std::unique_lock<std::mutex> lk(mtx_);
        return frontier_;
    }

    /** Set a thread's preemption-quantum scale (§7.7 tuning knob). */
    void setQuantumScale(SimThread &t, double scale);

    /**
     * Attach an event tracer (null = off). record() charges zero
     * simulated cycles, so attaching one cannot perturb a run.
     */
    void setTracer(trace::Tracer *t) { tracer_ = t; }
    trace::Tracer *tracer() const { return tracer_; }

    /**
     * Attach the race checker (null = off). Like the tracer, every
     * hook is an off-clock observer: no simulated cycles, no yields,
     * so attaching one cannot perturb a run (DESIGN.md §11).
     */
    void setChecker(check::RaceChecker *c) { checker_ = c; }
    check::RaceChecker *checker() const { return checker_; }

    /** Whether @p t currently owns an active stop-the-world window. */
    bool stwOwnedBy(const SimThread &t);

    /**
     * Extra cycles a thread's core freezes for at a yield point (the
     * fault injector's stuck/slow-core domain). Charged with no yield,
     * so the stall is one opaque blackout, as a firmware excursion
     * would be. Null = off; returning 0 = no stall.
     */
    using StallHook = std::function<Cycles(SimThread &)>;
    void setStallHook(StallHook h) { stall_hook_ = std::move(h); }

    /**
     * Stall detector: ids of threads that are not done but have not
     * passed a scheduling event since @p now - @p horizon (their
     * heartbeat counter stopped while virtual time moved on). The
     * watchdog samples this while an epoch is overdue.
     */
    std::vector<unsigned> stalledThreads(Cycles now, Cycles horizon);

  private:
    friend class SimThread;
    friend class TokenEngine;
    friend class LockstepEngine;

    /** A wake in flight to a resolution point. */
    struct PendingWake
    {
        SimThread *t;
        Cycles at;
    };

    /**
     * How the scheduling policy is driven: wake delivery, boundary
     * resolution, and frontier bookkeeping. Both engines execute the
     * same policy (chooseNext/updateYieldHorizon/grant below); the
     * engine only decides *where* cross-core effects are applied.
     */
    class Engine
    {
      public:
        virtual ~Engine() = default;
        virtual const char *name() const = 0;
        /** Deliver a wake batch (mtx_ held, targets still blocked). */
        virtual void deliverWakes(Scheduler &s, PendingWake *w,
                                  std::size_t n) = 0;
        /** Called with mtx_ held before every policy decision. */
        virtual void onResolutionPoint(Scheduler &s) = 0;
        /** Called with mtx_ held after a slice is granted. */
        virtual void onGrant(Scheduler &s, SimThread &t) = 0;
    };

    /** Pick the next thread to grant; nullptr if none runnable. */
    SimThread *chooseNext();
    /** Grant the token to @p t (scheduler loop side). */
    void grant(SimThread *t);
    /** Called by a running thread to return the token. */
    void handoff(SimThread &self, ThreadStatus new_status);
    /** Recompute a running thread's yield horizon hint. */
    void updateYieldHorizon(SimThread &running);
    /** Apply one wake's clock clamp + horizon shrink (mtx_ held). */
    void applyWake(SimThread &t, Cycles at);
    /** Route a wake batch through the engine (mtx_ held). */
    void deliverWakesLocked(PendingWake *w, std::size_t n);

    const unsigned num_cores_;
    const CostModel cm_;
    const bool lockstep_;
    const bool fibers_;
#if CREV_SCHED_FIBERS
    /** The run() driver's context, resumed when no fiber is runnable. */
    ucontext_t sched_ctx_{};
#endif

    trace::Tracer *tracer_ = nullptr;
    check::RaceChecker *checker_ = nullptr;
    StallHook stall_hook_;

    mutable std::mutex mtx_;
    std::condition_variable sched_cv_;
    std::vector<std::unique_ptr<SimThread>> threads_;
    SimThread *current_ = nullptr;
    bool started_ = false;
    bool shutting_down_ = false;
    /** Set by the destructor so host threads parked before run() (a
     *  scheduler built but never run) unblock and exit instead of
     *  deadlocking the join. */
    bool tearing_down_ = false;

    // Stop-the-world state.
    bool stw_active_ = false;
    SimThread *stw_owner_ = nullptr;
    Cycles last_stw_begin_ = 0;
    Cycles last_stw_end_ = 0;

    // Per-core timeline: when the core's last slice ended and who ran.
    std::vector<Cycles> core_free_at_;
    std::vector<SimThread *> core_last_thread_;

    // Lockstep engine state: the quantum frontier and the per-core
    // wake mailboxes (drained in (core-id, thread-id) order).
    Cycles frontier_ = 0;
    std::vector<std::vector<PendingWake>> mailboxes_;
    std::size_t pending_wakes_ = 0;

    std::unique_ptr<Engine> engine_;
};

} // namespace crev::sim

#endif // CREV_SIM_SCHEDULER_H_
