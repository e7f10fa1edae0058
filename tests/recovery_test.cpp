/**
 * @file
 * Unit tests for the RecoveryManager (DESIGN.md §13): ticket
 * lifecycle accounting, retry exhaustion, deadline expiry, and the
 * saturating backoff the watchdog ladder shares.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/machine.h"
#include "core/mutator.h"
#include "revoker/recovery.h"
#include "sim/scheduler.h"

namespace crev::revoker {
namespace {

using trace::RecoveryOutcome;
using trace::RecoveryProtocol;

/** Run @p body on one simulated thread and return after completion.
 *  The manager is an off-clock observer, so driving it from a real
 *  SimThread only matters for now()/latency bookkeeping. */
void
onSimThread(std::function<void(sim::SimThread &)> body)
{
    sim::CostModel cm;
    sim::Scheduler s(1, cm);
    s.spawn("t", 1, [&](sim::SimThread &t) { body(t); });
    s.run();
}

TEST(RecoveryManager, TicketLifecycleCountsAttemptsAndLatency)
{
    RecoveryManager rm;
    onSimThread([&](sim::SimThread &t) {
        auto tk = rm.open(t, RecoveryProtocol::kShootdownResend);
        EXPECT_TRUE(tk.open);
        EXPECT_TRUE(rm.attempt(t, tk));
        t.accrueNoYield(5'000);
        EXPECT_TRUE(rm.attempt(t, tk));
        t.accrueNoYield(7'000);
        rm.close(t, tk, RecoveryOutcome::kSucceeded);
        EXPECT_FALSE(tk.open);
    });
    const RecoveryProtocolStats &st =
        rm.stats(RecoveryProtocol::kShootdownResend);
    EXPECT_EQ(st.tickets, 1u);
    EXPECT_EQ(st.attempts, 2u);
    EXPECT_EQ(st.successes, 1u);
    EXPECT_EQ(st.retries_exhausted, 0u);
    EXPECT_EQ(st.deadline_expiries, 0u);
    EXPECT_EQ(st.total_latency, 12'000u);
    EXPECT_EQ(st.max_latency, 12'000u);
    const stats::Samples &lat =
        rm.latencies(RecoveryProtocol::kShootdownResend);
    ASSERT_EQ(lat.count(), 1u);
    EXPECT_EQ(lat.values()[0], 12'000.0);
    // Other protocols are untouched.
    EXPECT_EQ(rm.stats(RecoveryProtocol::kEpochLadder).tickets, 0u);
}

TEST(RecoveryManager, RetryExhaustionDeniesWithoutConsuming)
{
    RecoveryManager rm;
    RecoveryPolicy pol;
    pol.max_retries = 3;
    pol.deadline = 0;
    rm.setPolicy(RecoveryProtocol::kSummaryRepair, pol);
    onSimThread([&](sim::SimThread &t) {
        auto tk = rm.open(t, RecoveryProtocol::kSummaryRepair);
        EXPECT_TRUE(rm.attempt(t, tk));
        EXPECT_TRUE(rm.attempt(t, tk));
        EXPECT_TRUE(rm.attempt(t, tk));
        // Budget spent: denial must not consume further attempts.
        EXPECT_FALSE(rm.attempt(t, tk));
        EXPECT_FALSE(rm.attempt(t, tk));
        EXPECT_EQ(tk.attempts, 3u);
        EXPECT_TRUE(rm.retriesExhausted(tk));
        EXPECT_EQ(rm.failureOutcome(t.now(), tk),
                  RecoveryOutcome::kRetriesExhausted);
        rm.close(t, tk, rm.failureOutcome(t.now(), tk));
    });
    const RecoveryProtocolStats &st =
        rm.stats(RecoveryProtocol::kSummaryRepair);
    EXPECT_EQ(st.attempts, 3u);
    EXPECT_EQ(st.successes, 0u);
    EXPECT_EQ(st.retries_exhausted, 1u);
}

TEST(RecoveryManager, DeadlineExpiryDeniesAndNamesTheOutcome)
{
    RecoveryManager rm;
    RecoveryPolicy pol;
    pol.max_retries = 100;
    pol.deadline = 10'000;
    rm.setPolicy(RecoveryProtocol::kQuarantineHandoff, pol);
    onSimThread([&](sim::SimThread &t) {
        t.accrueNoYield(500); // nonzero open time
        auto tk = rm.open(t, RecoveryProtocol::kQuarantineHandoff);
        EXPECT_TRUE(rm.attempt(t, tk));
        t.accrueNoYield(10'000); // exactly at the deadline: still ok
        EXPECT_FALSE(rm.deadlineExpired(t.now(), tk));
        EXPECT_TRUE(rm.attempt(t, tk));
        t.accrueNoYield(1); // one cycle past: expired
        EXPECT_TRUE(rm.deadlineExpired(t.now(), tk));
        EXPECT_FALSE(rm.attempt(t, tk));
        EXPECT_EQ(tk.attempts, 2u);
        EXPECT_EQ(rm.failureOutcome(t.now(), tk),
                  RecoveryOutcome::kDeadlineExpired);
        rm.close(t, tk, rm.failureOutcome(t.now(), tk));
    });
    const RecoveryProtocolStats &st =
        rm.stats(RecoveryProtocol::kQuarantineHandoff);
    EXPECT_EQ(st.attempts, 2u);
    EXPECT_EQ(st.deadline_expiries, 1u);
    EXPECT_EQ(st.max_latency, 10'001u);
}

TEST(RecoveryManager, BackoffDoublesThenSaturates)
{
    RecoveryManager rm;
    RecoveryPolicy pol;
    pol.max_retries = 100;
    pol.backoff_base = 250'000;
    pol.max_backoff = 16'000'000;
    rm.setPolicy(RecoveryProtocol::kShootdownResend, pol);
    onSimThread([&](sim::SimThread &t) {
        auto tk = rm.open(t, RecoveryProtocol::kShootdownResend);
        // attempts=0: base << 0.
        EXPECT_EQ(rm.backoff(tk), 250'000u);
        const Cycles expect[] = {500'000u,    1'000'000u, 2'000'000u,
                                 4'000'000u,  8'000'000u, 16'000'000u,
                                 16'000'000u, 16'000'000u};
        for (Cycles e : expect) {
            ASSERT_TRUE(rm.attempt(t, tk));
            EXPECT_EQ(rm.backoff(tk), e);
        }
        rm.close(t, tk, RecoveryOutcome::kSucceeded);
    });
}

/** saturatingBackoff() — which the watchdog ladder and every
 *  manager protocol share — at its overflow-prone corners: zero base,
 *  a base in the top bits of Cycles, a tiny cap and a huge one. */
TEST(RecoveryManager, BackoffSaturatesAtOverflowCorners)
{
    constexpr Cycles k58 = Cycles{1} << 58;
    constexpr Cycles k59 = Cycles{1} << 59;
    constexpr Cycles k60 = Cycles{1} << 60;
    constexpr Cycles k62 = Cycles{1} << 62;
    struct Row
    {
        Cycles base;
        Cycles cap;
        Cycles want[10]; //!< attempts 0..9
    };
    const Row rows[] = {
        {0, 1, {1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
        {1, 1, {1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
        {k58, 1, {1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
        {k62, 1, {1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
        {0, k60, {1, 2, 4, 8, 16, 32, 64, 64, 64, 64}},
        {1, k60, {1, 2, 4, 8, 16, 32, 64, 64, 64, 64}},
        {k58, k60, {k58, k59, k60, k60, k60, k60, k60, k60, k60, k60}},
        {k62, k60, {k60, k60, k60, k60, k60, k60, k60, k60, k60, k60}},
    };
    for (const Row &r : rows) {
        RecoveryManager rm;
        RecoveryPolicy pol;
        pol.backoff_base = r.base;
        pol.max_backoff = r.cap;
        rm.setPolicy(RecoveryProtocol::kEpochLadder, pol);
        RecoveryManager::Ticket tk;
        tk.proto = RecoveryProtocol::kEpochLadder;
        tk.open = true;
        for (unsigned attempt = 0; attempt < 10; ++attempt) {
            tk.attempts = attempt;
            EXPECT_EQ(saturatingBackoff(r.base, r.cap, attempt),
                      r.want[attempt])
                << "base=" << r.base << " cap=" << r.cap
                << " attempt=" << attempt;
            EXPECT_EQ(rm.backoff(tk), r.want[attempt])
                << "base=" << r.base << " cap=" << r.cap
                << " attempt=" << attempt;
        }
    }
}

TEST(RecoveryManager, ZeroBackoffPolicyMeansNoDelay)
{
    RecoveryManager rm;
    RecoveryPolicy pol;
    pol.backoff_base = 0;
    pol.max_backoff = 0;
    rm.setPolicy(RecoveryProtocol::kSummaryRepair, pol);
    RecoveryManager::Ticket tk;
    tk.proto = RecoveryProtocol::kSummaryRepair;
    tk.attempts = 3;
    EXPECT_EQ(rm.backoff(tk), 0u);
}

TEST(RecoveryManager, CloseIsIdempotentAndClosedTicketsDeny)
{
    RecoveryManager rm;
    onSimThread([&](sim::SimThread &t) {
        auto tk = rm.open(t, RecoveryProtocol::kEpochLadder);
        EXPECT_TRUE(rm.attempt(t, tk));
        rm.close(t, tk, RecoveryOutcome::kSucceeded);
        rm.close(t, tk, RecoveryOutcome::kSucceeded); // no double count
        EXPECT_FALSE(rm.attempt(t, tk));              // closed = denied
    });
    const RecoveryProtocolStats &st =
        rm.stats(RecoveryProtocol::kEpochLadder);
    EXPECT_EQ(st.tickets, 1u);
    EXPECT_EQ(st.successes, 1u);
    EXPECT_EQ(st.attempts, 1u);
}

TEST(RecoveryManager, AbortedCloseIsTerminalAndCounted)
{
    RecoveryManager rm;
    onSimThread([&](sim::SimThread &t) {
        auto tk = rm.open(t, RecoveryProtocol::kQuarantineHandoff);
        EXPECT_TRUE(rm.attempt(t, tk));
        rm.close(t, tk, RecoveryOutcome::kAborted);
        EXPECT_FALSE(tk.open);
        EXPECT_FALSE(rm.attempt(t, tk)); // terminal: no more attempts
    });
    const RecoveryProtocolStats &st =
        rm.stats(RecoveryProtocol::kQuarantineHandoff);
    EXPECT_EQ(st.tickets, 1u);
    EXPECT_EQ(st.aborts, 1u);
    EXPECT_EQ(st.successes, 0u);
    EXPECT_EQ(st.retries_exhausted, 0u);
    EXPECT_EQ(st.deadline_expiries, 0u);
}

/** Shutdown landing mid-recovery: a daemon stuck re-sending a dropped
 *  quarantine hand-off (every send eaten by the fault plan) must
 *  close its ticket with the aborted outcome when the last mutator
 *  exits — previously the ticket leaked open, so tickets and terminal
 *  outcomes stopped adding up. */
TEST(RecoveryManager, ShutdownMidRecoveryClosesTicketAborted)
{
    core::MachineConfig cfg;
    cfg.strategy = core::Strategy::kReloaded;
    cfg.policy.min_bytes = 8 * 1024;
    cfg.faults.enabled = true;
    cfg.faults.seed = 11;
    cfg.faults.quarantine_drop_prob = 1.0; // every hand-off vanishes
    cfg.faults.max_quarantine_drops = 1u << 20;
    core::Machine m(cfg);
    m.spawnMutator("app", 1u << 0, [](core::Mutator &ctx) {
        std::vector<cap::Capability> caps;
        for (int i = 0; i < 12; ++i)
            caps.push_back(ctx.malloc(1024));
        for (auto &c : caps)
            ctx.free(c); // crosses min_bytes: submission is dropped
        ctx.compute(2'000'000); // daemon enters its retry loop now
    });
    m.scheduler().spawn(
        "drainer", 1u << 1,
        [&m](sim::SimThread &t) {
            t.sleep(500'000);
            // Stuck in waitForCounterRecovering until shutdown: the
            // target epoch can never arrive.
            m.heap().drain(t);
        },
        /*daemon=*/true);
    m.run();
    const auto metrics = m.metrics();
    EXPECT_GT(metrics.faults_injected.quarantine_drops, 0u);
    const RecoveryProtocolStats &st = metrics.recovery_protocols
        [static_cast<unsigned>(RecoveryProtocol::kQuarantineHandoff)];
    EXPECT_GE(st.tickets, 1u);
    EXPECT_GE(st.aborts, 1u);
    // Every opened ticket reached a terminal state: no leaks.
    EXPECT_EQ(st.tickets, st.successes + st.retries_exhausted +
                              st.deadline_expiries + st.aborts);
}

} // namespace
} // namespace crev::revoker
