#include "sim/scheduler.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "base/logging.h"
#include "check/race_checker.h"
#include "trace/trace.h"

namespace crev::sim {

namespace {

constexpr Cycles kInfinity = std::numeric_limits<Cycles>::max();

#if CREV_SCHED_FIBERS
/** Fiber stack size. Bodies are ordinary workload code; the generous
 *  size costs only address space (pages commit on first touch). */
constexpr std::size_t kFiberStackBytes = std::size_t{4} << 20;
#endif

/** Whether fiber execution is compiled in and not disabled via the
 *  CREV_FIBERS=0 escape hatch. */
bool
fibersEnabled()
{
    if (!CREV_SCHED_FIBERS)
        return false;
    const char *env = std::getenv("CREV_FIBERS");
    return env == nullptr || env[0] != '0';
}

} // namespace

namespace detail {

#if CREV_SCHED_FIBERS
void
fiberTrampoline(unsigned hi, unsigned lo)
{
    // makecontext passes only ints; the SimThread pointer travels as
    // two 32-bit halves.
    auto *t = reinterpret_cast<SimThread *>(
        (static_cast<std::uintptr_t>(hi) << 32) |
        static_cast<std::uintptr_t>(lo));
    t->fiberMain();
}
#else
void
fiberTrampoline(unsigned, unsigned)
{
    panic("fiber trampoline entered without fiber support");
}
#endif

} // namespace detail

// ---------------------------------------------------------------------
// Engines
// ---------------------------------------------------------------------

/**
 * The serial reference engine: one execution token, every cross-core
 * effect applied at the instant it is posted, in call order.
 */
class TokenEngine final : public Scheduler::Engine
{
  public:
    const char *name() const override { return "token"; }

    void
    deliverWakes(Scheduler &s, Scheduler::PendingWake *w,
                 std::size_t n) override
    {
        for (std::size_t i = 0; i < n; ++i)
            s.applyWake(*w[i].t, w[i].at);
    }

    void
    onResolutionPoint(Scheduler &) override
    {
    }

    void
    onGrant(Scheduler &, SimThread &) override
    {
    }
};

/**
 * The lockstep virtual-time engine (DESIGN.md §14): wakes are posted
 * to per-core mailboxes and resolved in fixed (core-id, thread-id)
 * order; the quantum frontier tracks the committing slice. Because
 * the simulated machine's shared state is zero-latency, resolution
 * happens at the posting slice's own commit point (the earliest
 * boundary the conservative contract permits) — see the equivalence
 * argument in DESIGN.md §14.2.
 */
class LockstepEngine final : public Scheduler::Engine
{
  public:
    const char *name() const override { return "lockstep"; }

    void
    deliverWakes(Scheduler &s, Scheduler::PendingWake *w,
                 std::size_t n) override
    {
        for (std::size_t i = 0; i < n; ++i)
            s.mailboxes_[w[i].t->core()].push_back(w[i]);
        s.pending_wakes_ += n;
        resolve(s);
    }

    void
    onResolutionPoint(Scheduler &s) override
    {
        resolve(s);
    }

    void
    onGrant(Scheduler &s, SimThread &t) override
    {
        // Quantum-aligned floor of the committing slice's grant time:
        // the frontier past which this slice cannot defer cross-core
        // resolution.
        s.frontier_ = (t.now() / s.cm_.quantum) * s.cm_.quantum;
    }

  private:
    void
    resolve(Scheduler &s)
    {
        if (s.pending_wakes_ == 0)
            return;
        for (auto &box : s.mailboxes_) {
            if (box.empty())
                continue;
            std::stable_sort(box.begin(), box.end(),
                             [](const Scheduler::PendingWake &a,
                                const Scheduler::PendingWake &b) {
                                 return a.t->id() < b.t->id();
                             });
            for (const auto &w : box)
                s.applyWake(*w.t, w.at);
            box.clear();
        }
        s.pending_wakes_ = 0;
    }
};

// ---------------------------------------------------------------------
// SimThread
// ---------------------------------------------------------------------

SimThread::SimThread(Scheduler &sched, unsigned id, std::string name,
                     std::uint32_t core_mask, bool daemon,
                     std::function<void(SimThread &)> body)
    : sched_(sched), id_(id), name_(std::move(name)),
      core_mask_(core_mask), daemon_(daemon), body_(std::move(body)),
      regs_(kNumRegs)
{
    CREV_ASSERT(core_mask_ != 0);
}

cap::Capability &
SimThread::reg(unsigned i)
{
    CREV_ASSERT(i < regs_.size());
    return regs_[i];
}

const cap::Capability &
SimThread::reg(unsigned i) const
{
    CREV_ASSERT(i < regs_.size());
    return regs_[i];
}

void
SimThread::yieldSlow()
{
    if (sched_.stall_hook_) {
        // A stuck/slow core: the blackout is charged before the yield
        // so the whole stall is one opaque interval on this thread.
        const Cycles stall = sched_.stall_hook_(*this);
        if (stall > 0) {
            clock_ += stall;
            busy_ += stall;
        }
    }
    sched_.handoff(*this, ThreadStatus::kReady);
}

void
SimThread::yieldNow()
{
    if (noyield_depth_ == 0)
        sched_.handoff(*this, ThreadStatus::kReady);
}

void
SimThread::sleepUntil(Cycles t)
{
    if (t <= clock_)
        return;
    wake_time_ = t;
    sched_.handoff(*this, ThreadStatus::kSleeping);
}

void
SimThread::threadMain()
{
    {
        std::unique_lock<std::mutex> lk(sched_.mtx_);
        cv_.wait(lk, [this] {
            return status_ == ThreadStatus::kRunning ||
                   sched_.tearing_down_;
        });
        if (status_ != ThreadStatus::kRunning) {
            // Scheduler destroyed before run(): exit without ever
            // executing the body.
            status_ = ThreadStatus::kDone;
            return;
        }
    }
    try {
        body_(*this);
    } catch (const std::exception &e) {
        // A simulated fault escaped the workload body: the simulated
        // thread dies (as a signal would kill it); the machine runs on.
        warn("thread %s terminated by: %s", name_.c_str(), e.what());
    }
    {
        std::unique_lock<std::mutex> lk(sched_.mtx_);
        status_ = ThreadStatus::kDone;
        if (sched_.tracer_ != nullptr)
            sched_.tracer_->record(id_, core_, clock_,
                                   trace::EventType::kThreadPark);
        sched_.core_free_at_[core_] = clock_;
        sched_.current_ = nullptr;
        sched_.sched_cv_.notify_one();
    }
}

void
SimThread::fiberMain()
{
    // Entered on the first grant; status_ is already kRunning and the
    // scheduler mutex is not held (the granting context released it
    // before switching stacks).
    try {
        body_(*this);
    } catch (const std::exception &e) {
        // A simulated fault escaped the workload body: the simulated
        // thread dies (as a signal would kill it); the machine runs on.
        warn("thread %s terminated by: %s", name_.c_str(), e.what());
    }
#if CREV_SCHED_FIBERS
    {
        std::unique_lock<std::mutex> lk(sched_.mtx_);
        status_ = ThreadStatus::kDone;
        if (sched_.tracer_ != nullptr)
            sched_.tracer_->record(id_, core_, clock_,
                                   trace::EventType::kThreadPark);
        sched_.core_free_at_[core_] = clock_;
        sched_.current_ = nullptr;
    }
    // Return control to the run() driver, which picks the successor.
    swapcontext(&fiber_ctx_, &sched_.sched_ctx_);
#endif
    panic("finished fiber resumed");
}

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

Scheduler::Scheduler(unsigned num_cores, const CostModel &cm,
                     bool lockstep)
    : num_cores_(num_cores), cm_(cm), lockstep_(lockstep),
      fibers_(lockstep && fibersEnabled()), core_free_at_(num_cores, 0),
      core_last_thread_(num_cores, nullptr), mailboxes_(num_cores)
{
    CREV_ASSERT(num_cores > 0 && num_cores <= 32);
    CREV_ASSERT(cm_.quantum > 0);
    if (lockstep_)
        engine_ = std::make_unique<LockstepEngine>();
    else
        engine_ = std::make_unique<TokenEngine>();
}

Scheduler::~Scheduler()
{
    {
        std::unique_lock<std::mutex> lk(mtx_);
        tearing_down_ = true;
        for (auto &t : threads_)
            t->cv_.notify_all();
    }
    for (auto &t : threads_)
        if (t->host_.joinable())
            t->host_.join();
}

SimThread *
Scheduler::spawn(std::string name, std::uint32_t core_mask,
                 std::function<void(SimThread &)> body, bool daemon)
{
    std::unique_lock<std::mutex> lk(mtx_);
    CREV_ASSERT((core_mask & ((1u << num_cores_) - 1)) == core_mask);
    const auto id = static_cast<unsigned>(threads_.size());
    threads_.emplace_back(new SimThread(*this, id, std::move(name),
                                        core_mask, daemon,
                                        std::move(body)));
    SimThread *t = threads_.back().get();
    if (current_ != nullptr)
        t->clock_ = current_->clock_;
    if (checker_ != nullptr)
        checker_->onThreadSpawn(
            current_ != nullptr ? static_cast<int>(current_->id_) : -1,
            id);
#if CREV_SCHED_FIBERS
    if (fibers_) {
        t->fiber_stack_ = std::make_unique<char[]>(kFiberStackBytes);
        CREV_ASSERT(getcontext(&t->fiber_ctx_) == 0);
        t->fiber_ctx_.uc_stack.ss_sp = t->fiber_stack_.get();
        t->fiber_ctx_.uc_stack.ss_size = kFiberStackBytes;
        t->fiber_ctx_.uc_link = nullptr;
        const auto p = reinterpret_cast<std::uintptr_t>(t);
        makecontext(&t->fiber_ctx_,
                    reinterpret_cast<void (*)()>(detail::fiberTrampoline),
                    2, static_cast<unsigned>(p >> 32),
                    static_cast<unsigned>(p & 0xFFFFFFFFu));
        return t;
    }
#endif
    t->host_ = std::thread([t] { t->threadMain(); });
    return t;
}

void
Scheduler::setQuantumScale(SimThread &t, double scale)
{
    CREV_ASSERT(scale > 0);
    t.quantum_scale_ = scale;
}

bool
Scheduler::stwOwnedBy(const SimThread &t)
{
    std::unique_lock<std::mutex> lk(mtx_);
    return stw_active_ && stw_owner_ == &t;
}

std::vector<unsigned>
Scheduler::stalledThreads(Cycles now, Cycles horizon)
{
    std::unique_lock<std::mutex> lk(mtx_);
    if (checker_ != nullptr)
        checker_->onSchedStateRead("stalledThreads", true);
    std::vector<unsigned> out;
    for (const auto &tp : threads_) {
        if (tp->status_ == ThreadStatus::kDone)
            continue;
        if (tp->heartbeats_ == 0 && tp->clock_ == 0)
            continue; // never scheduled yet
        if (tp->last_beat_at_ + horizon < now)
            out.push_back(tp->id_);
    }
    return out;
}

bool
Scheduler::finished(SimThread const &t)
{
    std::unique_lock<std::mutex> lk(mtx_);
    if (checker_ != nullptr)
        checker_->onSchedStateRead("finished", true);
    return t.status_ == ThreadStatus::kDone;
}

Cycles
Scheduler::maxClock() const
{
    // Thread clocks are written by their owning host threads; an
    // off-token reader (metrics collection, the watchdog) must hold
    // mtx_ so the hand-off orders the reads (sched-unlocked-read).
    std::unique_lock<std::mutex> lk(mtx_);
    if (checker_ != nullptr)
        checker_->onSchedStateRead("maxClock", true);
    Cycles m = 0;
    for (const auto &t : threads_)
        m = std::max(m, t->clock_);
    return m;
}

SimThread *
Scheduler::chooseNext()
{
    // Requires mtx_ held. Pick the schedulable thread with the smallest
    // effective start time; promote sleepers whose wake time arrived.
    SimThread *best = nullptr;
    Cycles best_est = kInfinity;
    unsigned best_core = 0;

    for (auto &tp : threads_) {
        SimThread *t = tp.get();
        Cycles base;
        switch (t->status_) {
          case ThreadStatus::kReady:
            base = t->clock_;
            break;
          case ThreadStatus::kSleeping: {
            base = t->wake_time_;
            // A sleeper whose wake time fell inside the last STW window
            // is held by the kernel until the world restarts.
            if (base >= last_stw_begin_ && base < last_stw_end_)
                base = last_stw_end_;
            break;
          }
          default:
            continue;
        }
        if (stw_active_ && t != stw_owner_)
            continue;

        // Best core for this thread first.
        Cycles t_est = 0;
        unsigned t_core = 0;
        bool have_core = false;
        for (unsigned c = 0; c < num_cores_; ++c) {
            if (!(t->core_mask_ & (1u << c)))
                continue;
            const Cycles est = std::max(core_free_at_[c], base);
            if (!have_core || est < t_est) {
                t_est = est;
                t_core = c;
                have_core = true;
            }
        }
        if (!have_core)
            continue;
        // Tie-break by the thread's own clock (round-robin fairness
        // on a shared core), then by id (determinism).
        const bool better =
            best == nullptr || t_est < best_est ||
            (t_est == best_est &&
             (t->clock_ < best->clock_ ||
              (t->clock_ == best->clock_ && t->id_ < best->id_)));
        if (better) {
            best = t;
            best_est = t_est;
            best_core = t_core;
        }
    }

    if (best) {
        if (best->status_ == ThreadStatus::kSleeping) {
            Cycles w = best->wake_time_;
            if (w >= last_stw_begin_ && w < last_stw_end_)
                w = last_stw_end_;
            best->clock_ = std::max(best->clock_, w);
        }
        best->status_ = ThreadStatus::kReady;
        best->clock_ = std::max(best->clock_, best_est);
        best->core_ = best_core;
    }
    return best;
}

void
Scheduler::updateYieldHorizon(SimThread &running)
{
    // Requires mtx_ held. The horizon is the earlier of the preemption
    // quantum and the point where another schedulable thread would fall
    // more than yield_slack behind us.
    Cycles horizon =
        running.clock_ +
        static_cast<Cycles>(static_cast<double>(cm_.quantum) *
                            running.quantum_scale_);
    for (auto &tp : threads_) {
        SimThread *t = tp.get();
        if (t == &running)
            continue;
        Cycles base;
        if (t->status_ == ThreadStatus::kReady) {
            base = t->clock_;
        } else if (t->status_ == ThreadStatus::kSleeping) {
            base = t->wake_time_;
        } else {
            continue;
        }
        if (stw_active_ && t != stw_owner_)
            continue;
        horizon = std::min(horizon, base + cm_.yield_slack);
    }
    running.yield_horizon_ = std::max(horizon, running.clock_ + 1);
}

void
Scheduler::grant(SimThread *t)
{
    // Requires mtx_ held.
    const unsigned c = t->core_;
    t->clock_ = std::max(t->clock_, core_free_at_[c]);
    if (core_last_thread_[c] != t && core_last_thread_[c] != nullptr) {
        t->clock_ += cm_.ctx_switch;
        t->busy_ += cm_.ctx_switch;
    }
    core_last_thread_[c] = t;
    t->status_ = ThreadStatus::kRunning;
    if (tracer_ != nullptr)
        tracer_->record(t->id_, c, t->clock_,
                        trace::EventType::kThreadRun);
    updateYieldHorizon(*t);
    engine_->onGrant(*this, *t);
    current_ = t;
    // Fiber mode: the granting context switches stacks itself; there
    // is no parked host thread to notify.
    if (!fibers_)
        t->cv_.notify_one();
}

void
Scheduler::handoff(SimThread &self, ThreadStatus new_status)
{
    std::unique_lock<std::mutex> lk(mtx_);
    self.status_ = new_status;
    ++self.heartbeats_;
    self.last_beat_at_ = self.clock_;
    if (tracer_ != nullptr)
        tracer_->record(self.id_, self.core_, self.clock_,
                        new_status == ThreadStatus::kReady
                            ? trace::EventType::kThreadPreempt
                            : trace::EventType::kThreadPark);
    core_free_at_[self.core_] = self.clock_;

    // A scheduling event is a resolution point: any cross-core effects
    // still in flight are applied before the policy reads state.
    engine_->onResolutionPoint(*this);

    // Direct switch: pick the successor here instead of bouncing
    // through the scheduler loop (halves host context switches).
    SimThread *next = chooseNext();
    if (next == &self) {
        // Still the best candidate: continue without a host switch.
        grant(next);
        return;
    }
#if CREV_SCHED_FIBERS
    if (fibers_) {
        // User-space stack switch: directly into the successor fiber,
        // or back to the run() driver when nothing is runnable
        // (shutdown, deadlock detection). When this fiber is granted
        // again, control resumes right after the swap with
        // status_ == kRunning already set by the grantor.
        ucontext_t *to;
        if (next != nullptr) {
            grant(next);
            to = &next->fiber_ctx_;
        } else {
            current_ = nullptr;
            to = &sched_ctx_;
        }
        lk.unlock();
        swapcontext(&self.fiber_ctx_, to);
        return;
    }
#endif
    if (next != nullptr) {
        grant(next);
    } else {
        // Nothing runnable: let the scheduler loop decide (shutdown,
        // deadlock detection).
        current_ = nullptr;
        sched_cv_.notify_one();
    }
    self.cv_.wait(lk,
                  [&self] { return self.status_ == ThreadStatus::kRunning; });
}

void
Scheduler::block(SimThread &self)
{
    handoff(self, ThreadStatus::kBlocked);
}

void
Scheduler::applyWake(SimThread &t, Cycles at)
{
    // Requires mtx_ held; t is kBlocked.
    if (checker_ != nullptr && current_ != nullptr)
        checker_->onWake(current_->id_, t.id_);
    t.status_ = ThreadStatus::kReady;
    t.clock_ = std::max({t.clock_, at, last_stw_end_ <= at ? Cycles{0}
                                                           : last_stw_end_});
    if (current_ != nullptr)
        current_->yield_horizon_ =
            std::min(current_->yield_horizon_, t.clock_ + cm_.yield_slack);
}

void
Scheduler::deliverWakesLocked(PendingWake *w, std::size_t n)
{
    engine_->deliverWakes(*this, w, n);
}

void
Scheduler::wake(SimThread &t, Cycles at)
{
    std::unique_lock<std::mutex> lk(mtx_);
    if (t.status_ != ThreadStatus::kBlocked)
        return;
    PendingWake w{&t, at};
    deliverWakesLocked(&w, 1);
}

void
Scheduler::wakeMany(SimThread *const *ts, std::size_t n, Cycles at)
{
    std::unique_lock<std::mutex> lk(mtx_);
    std::vector<PendingWake> batch;
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        if (ts[i]->status_ == ThreadStatus::kBlocked)
            batch.push_back(PendingWake{ts[i], at});
    if (!batch.empty())
        deliverWakesLocked(batch.data(), batch.size());
}

Cycles
Scheduler::stopTheWorld(SimThread &self)
{
    // Drain threads with smaller clocks first so the park times below
    // are accurate.
    self.yieldNow();

    std::unique_lock<std::mutex> lk(mtx_);
    CREV_ASSERT(!stw_active_);
    engine_->onResolutionPoint(*this);
    stw_active_ = true;
    stw_owner_ = &self;

    Cycles begin = self.clock_;
    for (auto &tp : threads_)
        if (tp.get() != &self && tp->status_ == ThreadStatus::kReady)
            begin = std::max(begin, tp->clock_);
    begin += cm_.ipi * num_cores_;
    self.busy_ += begin - self.clock_;
    self.clock_ = begin;
    last_stw_begin_ = begin;
    if (tracer_ != nullptr)
        tracer_->record(self.id_, self.core_, begin,
                        trace::EventType::kStwBegin);
    if (checker_ != nullptr)
        checker_->onStwBegin(self.id_);
    self.yield_horizon_ = kInfinity;
    return begin;
}

void
Scheduler::resumeWorld(SimThread &self)
{
    std::unique_lock<std::mutex> lk(mtx_);
    CREV_ASSERT(stw_active_ && stw_owner_ == &self);
    const Cycles end = self.clock_;
    last_stw_end_ = end;
    if (tracer_ != nullptr)
        tracer_->record(self.id_, self.core_, end,
                        trace::EventType::kStwEnd);
    if (checker_ != nullptr)
        checker_->onStwEnd(self.id_);
    stw_active_ = false;
    stw_owner_ = nullptr;
    for (auto &tp : threads_)
        if (tp.get() != &self && tp->status_ == ThreadStatus::kReady)
            tp->clock_ = std::max(tp->clock_, end);
    engine_->onResolutionPoint(*this);
    updateYieldHorizon(self);
}

void
Scheduler::run()
{
    std::unique_lock<std::mutex> lk(mtx_);
    CREV_ASSERT(!started_);
    started_ = true;

    for (;;) {
        // Initiate shutdown once every non-daemon thread has finished.
        bool user_alive = false;
        bool any_alive = false;
        for (auto &tp : threads_) {
            if (tp->status_ != ThreadStatus::kDone) {
                any_alive = true;
                if (!tp->daemon_)
                    user_alive = true;
            }
        }
        if (!any_alive)
            break;
        if (!user_alive) {
            // Repeated every iteration: a daemon may block once more
            // while draining; its contract is to exit once it observes
            // shuttingDown().
            shutting_down_ = true;
            for (auto &tp : threads_) {
                if (tp->status_ == ThreadStatus::kBlocked ||
                    tp->status_ == ThreadStatus::kSleeping) {
                    tp->status_ = ThreadStatus::kReady;
                }
            }
        }

        engine_->onResolutionPoint(*this);
        SimThread *next = chooseNext();
        if (next == nullptr) {
            panic("scheduler deadlock: threads alive but none runnable");
        }
        grant(next);
#if CREV_SCHED_FIBERS
        if (fibers_) {
            // Fibers hand off among themselves without returning here;
            // control comes back (with current_ == nullptr) only when
            // a fiber finishes or none is runnable.
            lk.unlock();
            swapcontext(&sched_ctx_, &next->fiber_ctx_);
            lk.lock();
            continue;
        }
#endif
        sched_cv_.wait(lk, [this] { return current_ == nullptr; });
    }

    lk.unlock();
    for (auto &tp : threads_)
        if (tp->host_.joinable())
            tp->host_.join();
}

} // namespace crev::sim
