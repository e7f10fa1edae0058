/**
 * @file
 * Tests for the deterministic cooperative scheduler: virtual-time
 * ordering, core contention, sleep, blocking, stop-the-world
 * semantics (including STW hiding inside idle time), and the
 * synchronisation primitives.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/scheduler.h"
#include "sim/sync.h"

namespace crev::sim {
namespace {

CostModel
testCosts()
{
    CostModel cm;
    cm.yield_slack = 100;
    cm.quantum = 10'000;
    cm.ctx_switch = 50;
    return cm;
}

TEST(Scheduler, SingleThreadRunsToCompletion)
{
    Scheduler s(1, testCosts());
    Cycles end = 0;
    s.spawn("t", 1, [&](SimThread &t) {
        t.accrue(1234);
        end = t.now();
    });
    s.run();
    EXPECT_EQ(end, 1234u);
    EXPECT_EQ(s.maxClock(), 1234u);
}

TEST(Scheduler, VirtualTimeInterleavingIsFair)
{
    // Two threads on different cores record event order; virtual-time
    // scheduling must interleave them by clock, not by spawn order.
    Scheduler s(2, testCosts());
    std::vector<std::pair<char, Cycles>> events;
    s.spawn("a", 1u << 0, [&](SimThread &t) {
        for (int i = 0; i < 5; ++i) {
            t.accrue(100);
            events.push_back({'a', t.now()});
        }
    });
    s.spawn("b", 1u << 1, [&](SimThread &t) {
        for (int i = 0; i < 5; ++i) {
            t.accrue(100);
            events.push_back({'b', t.now()});
        }
    });
    s.run();
    ASSERT_EQ(events.size(), 10u);
    // Events must be (approximately) sorted by virtual time: no event
    // may precede one that is more than yield_slack older.
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_LE(events[i - 1].second,
                  events[i].second + testCosts().yield_slack + 100);
}

TEST(Scheduler, DeterministicAcrossRuns)
{
    auto run_once = [] {
        Scheduler s(2, testCosts());
        std::vector<Cycles> trace;
        for (int id = 0; id < 3; ++id) {
            s.spawn("t" + std::to_string(id), id == 0 ? 1u : 2u,
                    [&trace](SimThread &t) {
                        for (int i = 0; i < 50; ++i) {
                            t.accrue(37 + (i % 7));
                            trace.push_back(t.now());
                        }
                    });
        }
        s.run();
        return trace;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Scheduler, CoreContentionSerialisesSlices)
{
    // Two CPU-bound threads pinned to the same core cannot overlap:
    // total elapsed >= sum of work.
    Scheduler s(1, testCosts());
    const Cycles work = 50'000;
    for (int i = 0; i < 2; ++i)
        s.spawn("t" + std::to_string(i), 1, [&](SimThread &t) {
            Cycles done = 0;
            while (done < work) {
                t.accrue(100);
                done += 100;
            }
        });
    s.run();
    EXPECT_GE(s.maxClock(), 2 * work);
}

TEST(Scheduler, SleepAdvancesWithoutBusy)
{
    Scheduler s(1, testCosts());
    Cycles busy = 0, wall = 0;
    s.spawn("t", 1, [&](SimThread &t) {
        t.accrue(100);
        t.sleep(10'000);
        t.accrue(100);
        busy = t.busyCycles();
        wall = t.now();
    });
    s.run();
    EXPECT_EQ(busy, 200u);
    EXPECT_GE(wall, 10'200u);
}

TEST(Scheduler, BlockAndWake)
{
    Scheduler s(2, testCosts());
    SimThread *waiter_handle = nullptr;
    bool ready = false;
    Cycles woken_at = 0;
    waiter_handle = s.spawn("waiter", 1u << 0, [&](SimThread &t) {
        while (!ready)
            s.block(t);
        woken_at = t.now();
    });
    s.spawn("waker", 1u << 1, [&](SimThread &t) {
        t.accrue(5'000);
        ready = true;
        s.wake(*waiter_handle, t.now());
    });
    s.run();
    EXPECT_GE(woken_at, 5'000u);
}

TEST(Scheduler, StopTheWorldParksRunnableThreads)
{
    Scheduler s(2, testCosts());
    Cycles stw_end = 0;
    Cycles mutator_after = 0;
    bool stw_done = false;

    s.spawn("mutator", 1u << 0, [&](SimThread &t) {
        while (!stw_done)
            t.accrue(50);
        mutator_after = t.now();
    });
    s.spawn("revoker", 1u << 1, [&](SimThread &t) {
        t.accrue(2'000);
        s.stopTheWorld(t);
        t.accrue(100'000); // world-stopped work
        stw_end = t.now();
        s.resumeWorld(t);
        stw_done = true;
    });
    s.run();
    // The mutator cannot have run during the STW window: its next
    // observation time is at or after the STW end.
    EXPECT_GE(mutator_after, stw_end);
}

TEST(Scheduler, StwHidesInsideSleep)
{
    // A thread sleeping past the STW window is not delayed by it —
    // the paper's "stop-the-world phases can hide in idle intervals".
    Scheduler s(2, testCosts());
    Cycles sleeper_resume = 0;
    s.spawn("sleeper", 1u << 0, [&](SimThread &t) {
        t.sleepUntil(1'000'000);
        sleeper_resume = t.now();
    });
    s.spawn("revoker", 1u << 1, [&](SimThread &t) {
        t.accrue(1'000);
        s.stopTheWorld(t);
        t.accrue(50'000);
        s.resumeWorld(t);
    });
    s.run();
    EXPECT_EQ(sleeper_resume, 1'000'000u);
}

TEST(Scheduler, StwDelaysOverlappingSleeper)
{
    // A sleeper due *inside* the window resumes at the STW end.
    Scheduler s(2, testCosts());
    Cycles sleeper_resume = 0;
    Cycles stw_end = 0;
    s.spawn("sleeper", 1u << 0, [&](SimThread &t) {
        t.sleepUntil(500'000);
        sleeper_resume = t.now();
    });
    s.spawn("revoker", 1u << 1, [&](SimThread &t) {
        t.sleepUntil(400'000);
        s.stopTheWorld(t);
        t.accrue(300'000);
        stw_end = t.now();
        s.resumeWorld(t);
    });
    s.run();
    EXPECT_GE(stw_end, 700'000u);
    EXPECT_GE(sleeper_resume, stw_end);
}

TEST(Scheduler, DaemonsExitAtShutdown)
{
    Scheduler s(1, testCosts());
    bool daemon_exited = false;
    s.spawn(
        "daemon", 1,
        [&](SimThread &t) {
            while (!s.shuttingDown())
                s.block(t);
            daemon_exited = true;
        },
        /*daemon=*/true);
    s.spawn("user", 1, [&](SimThread &t) { t.accrue(100); });
    s.run();
    EXPECT_TRUE(daemon_exited);
}

TEST(Scheduler, ContextSwitchChargedOnCoreHandover)
{
    CostModel cm = testCosts();
    Scheduler s(1, cm);
    Cycles busy_a = 0;
    s.spawn("a", 1, [&](SimThread &t) {
        for (int i = 0; i < 100; ++i)
            t.accrue(1'000);
        busy_a = t.busyCycles();
    });
    s.spawn("b", 1, [&](SimThread &t) {
        for (int i = 0; i < 100; ++i)
            t.accrue(1'000);
    });
    s.run();
    // Thread a did 100k of work plus context-switch overhead.
    EXPECT_GT(busy_a, 100'000u);
}

TEST(SimMutex, MutualExclusionAndFifoWake)
{
    Scheduler s(2, testCosts());
    SimMutex mu;
    std::vector<char> order;
    s.spawn("a", 1u << 0, [&](SimThread &t) {
        mu.lock(t);
        t.accrue(10'000);
        order.push_back('a');
        mu.unlock(t);
    });
    s.spawn("b", 1u << 1, [&](SimThread &t) {
        t.accrue(100); // ensure a grabs the lock first
        mu.lock(t);
        order.push_back('b');
        mu.unlock(t);
    });
    s.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 'a');
    EXPECT_EQ(order[1], 'b');
    EXPECT_GE(mu.contended(), 1u);
}

TEST(SimMutex, TryLock)
{
    Scheduler s(1, testCosts());
    SimMutex mu;
    s.spawn("t", 1, [&](SimThread &t) {
        EXPECT_TRUE(mu.tryLock(t));
        EXPECT_FALSE(mu.tryLock(t));
        mu.unlock(t);
        EXPECT_TRUE(mu.tryLock(t));
        mu.unlock(t);
    });
    s.run();
}

TEST(SimQueue, PushPopAcrossThreads)
{
    Scheduler s(2, testCosts());
    SimQueue<int> q;
    std::vector<int> got;
    s.spawn("consumer", 1u << 0, [&](SimThread &t) {
        for (int i = 0; i < 3; ++i) {
            int v = 0;
            Cycles at = 0;
            if (!q.pop(t, v, at))
                break;
            got.push_back(v);
        }
    });
    s.spawn("producer", 1u << 1, [&](SimThread &t) {
        for (int i = 1; i <= 3; ++i) {
            t.accrue(1'000);
            q.push(t, i);
        }
    });
    s.run();
    EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(SimQueue, PopReturnsFalseAtShutdown)
{
    Scheduler s(1, testCosts());
    bool popped = true;
    s.spawn(
        "daemon-consumer", 1,
        [&](SimThread &t) {
            SimQueue<int> q;
            int v;
            Cycles at;
            popped = q.pop(t, v, at);
        },
        /*daemon=*/true);
    s.spawn("user", 1, [](SimThread &t) { t.accrue(10); });
    s.run();
    EXPECT_FALSE(popped);
}

TEST(Scheduler, RegisterFileIsPerThread)
{
    Scheduler s(1, testCosts());
    s.spawn("t", 1, [&](SimThread &t) {
        t.reg(0) = cap::Capability::root(0x1000, 0x2000);
        EXPECT_TRUE(t.reg(0).tag);
        EXPECT_FALSE(t.reg(1).tag);
    });
    s.run();
}

// --- Quantum-boundary edge cases (DESIGN.md §14) ---
//
// Each scenario lands exactly where a scheduler could be off by one:
// events on a quantum boundary, windows straddling one, and shutdown
// mid-quantum. Each asserts its literal event trace.

using EventTrace = std::vector<std::pair<std::string, Cycles>>;

TEST(Scheduler, WakeExactlyOnQuantumBoundary)
{
    // The waker's clock lands exactly on a quantum boundary when it
    // posts the wake: the wake must be neither delayed into the next
    // quantum nor delivered early.
    Scheduler s(2, testCosts());
    EventTrace ev;
    bool ready = false;
    SimThread *waiter = s.spawn("waiter", 1u << 0, [&](SimThread &t) {
        while (!ready)
            s.block(t);
        ev.push_back({"woken", t.now()});
    });
    s.spawn("waker", 1u << 1, [&](SimThread &t) {
        t.accrue(testCosts().quantum); // lands on the boundary
        ready = true;
        s.wake(*waiter, t.now());
        ev.push_back({"posted", t.now()});
    });
    s.run();
    EXPECT_EQ(ev, (EventTrace{{"posted", 10'000}, {"woken", 10'000}}));
}

TEST(Scheduler, StwStraddlingQuantumBoundary)
{
    // The STW window opens inside one quantum and closes inside the
    // next; the parked mutator resumes at the window's end.
    Scheduler s(2, testCosts());
    EventTrace ev;
    bool stw_done = false;
    s.spawn("mutator", 1u << 0, [&](SimThread &t) {
        while (!stw_done)
            t.accrue(50);
        ev.push_back({"mutator-after", t.now()});
    });
    s.spawn("revoker", 1u << 1, [&](SimThread &t) {
        t.accrue(6'000); // mid-quantum
        const Cycles begin = s.stopTheWorld(t);
        t.accrue(8'000); // window crosses the 10'000 boundary
        s.resumeWorld(t);
        stw_done = true;
        ev.push_back({"stw", begin});
        ev.push_back({"stw-end", t.now()});
    });
    s.run();
    EXPECT_EQ(ev, (EventTrace{{"stw", 10'100},
                              {"stw-end", 18'100},
                              {"mutator-after", 18'100}}));
}

TEST(Scheduler, DaemonShutdownMidQuantum)
{
    // The last non-daemon thread finishes mid-quantum; the blocked
    // daemon observes shutdown and exits right after it (no waiting
    // out the rest of the quantum).
    Scheduler s(1, testCosts());
    EventTrace ev;
    s.spawn(
        "daemon", 1,
        [&](SimThread &t) {
            while (!s.shuttingDown())
                s.block(t);
            ev.push_back({"daemon-exit", t.now()});
        },
        /*daemon=*/true);
    s.spawn("user", 1, [&](SimThread &t) {
        t.accrue(3'500); // done well inside the first quantum
        ev.push_back({"user-done", t.now()});
    });
    s.run();
    EXPECT_EQ(ev,
              (EventTrace{{"user-done", 3'550}, {"daemon-exit", 3'600}}));
}

TEST(Scheduler, NoYieldSpanningQuantumBoundary)
{
    // A NoYield section that runs across a quantum boundary defers the
    // preemption to its close; the timesliced peer observes the slice
    // boundaries that follow from the deferred switch.
    Scheduler s(1, testCosts());
    EventTrace ev;
    s.spawn("a", 1, [&](SimThread &t) {
        t.accrue(8'000);
        {
            SimThread::NoYield guard(t);
            t.accrue(4'000); // crosses the 10'000 boundary
        }
        ev.push_back({"a-critical-done", t.now()});
        t.accrue(100); // first yield opportunity after the guard
        ev.push_back({"a-done", t.now()});
    });
    s.spawn("b", 1, [&](SimThread &t) {
        for (int i = 0; i < 4; ++i) {
            t.accrue(3'000);
            ev.push_back({"b", t.now()});
        }
    });
    s.run();
    EXPECT_EQ(ev, (EventTrace{{"a-critical-done", 15'100},
                              {"b", 15'250},
                              {"a-done", 18'300},
                              {"b", 18'350},
                              {"b", 21'350},
                              {"b", 24'350}}));
}

TEST(Scheduler, DestroyWithoutRunReleasesFibers)
{
    // A scheduler dropped before run() must release every fiber and
    // its stack without entering any body (the asan job checks for
    // leaks).
    int bodies_run = 0;
    {
        Scheduler s(2, testCosts());
        for (int i = 0; i < 4; ++i)
            s.spawn("t" + std::to_string(i), 1u << (i % 2),
                    [&](SimThread &) { ++bodies_run; });
    }
    EXPECT_EQ(bodies_run, 0);
}

/** Recurses until the fiber stack runs out (the bound is never
 *  reached; it only keeps the recursion from being provably
 *  infinite). */
int
recurse(volatile int *bound, int depth)
{
    volatile char frame[512];
    frame[0] = static_cast<char>(depth);
    if (depth == *bound)
        return frame[0];
    return recurse(bound, depth + 1) + frame[0];
}

TEST(SchedulerDeathTest, FiberStackOverflowDies)
{
    // The guard page below each fiber stack turns an overflow into a
    // fault instead of a silent write into a neighbouring mapping.
    EXPECT_DEATH(
        {
            Scheduler s(1, testCosts());
            volatile int bound = 1 << 30;
            s.spawn("deep", 1,
                    [&](SimThread &) { recurse(&bound, 0); });
            s.run();
        },
        "");
}

} // namespace
} // namespace crev::sim
