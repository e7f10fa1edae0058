/**
 * @file
 * The determinism contract: host-side choices must never change a
 * single simulated number. The complete RunMetrics (wall clock,
 * per-thread busy cycles, per-core memory counters, revocation epochs,
 * sweep/quarantine/allocator/MMU stats, recovery and injection
 * counters) must match the checked-in goldens (tests/golden/), and
 * must match byte for byte with the off-clock observers (tracer, race
 * checker, oracle) on or off — on a SPEC-like profile and under a
 * chaos plan with fault injection and the invariant audit enabled.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/machine.h"
#include "core/mutator.h"
#include "workload/spec.h"

namespace crev {
namespace {

using core::Machine;
using core::MachineConfig;
using core::Mutator;
using core::RunMetrics;
using core::Strategy;

/** Serialise every field of RunMetrics: any simulated observable that
 *  drifts between configurations shows up as a diff. */
std::string
fingerprint(const RunMetrics &m)
{
    std::ostringstream os;
    os << "wall=" << m.wall_cycles << " cpu=" << m.cpu_cycles << "\n";
    for (const auto &[name, busy] : m.thread_busy)
        os << "busy[" << name << "]=" << busy << "\n";
    for (std::size_t c = 0; c < m.core_mem.size(); ++c) {
        const auto &mc = m.core_mem[c];
        os << "core" << c << " acc=" << mc.accesses
           << " l1m=" << mc.l1_misses << " br=" << mc.bus_reads
           << " bw=" << mc.bus_writes << "\n";
    }
    os << "bus=" << m.bus_transactions_total
       << " rss=" << m.peak_rss_pages << "\n";
    for (std::size_t e = 0; e < m.epochs.size(); ++e) {
        const auto &ep = m.epochs[e];
        os << "epoch" << e << " stw=" << ep.stw_duration
           << " conc=" << ep.concurrent_duration
           << " ft=" << ep.fault_time_total
           << " fc=" << ep.fault_count << " pg=" << ep.pages_swept
           << " rv=" << ep.caps_revoked
           << " deg=" << ep.recovery.degraded
           << " forced=" << ep.recovery.forced
           << " nudges=" << ep.recovery.nudges
           << " respawns=" << ep.recovery.respawns << "\n";
    }
    os << "sweep pg=" << m.sweep.pages_swept
       << " ln=" << m.sweep.lines_read << " seen=" << m.sweep.caps_seen
       << " rv=" << m.sweep.caps_revoked
       << " rs=" << m.sweep.regs_scanned
       << " rr=" << m.sweep.regs_revoked << "\n";
    os << "quar trig=" << m.quarantine.revocations_triggered
       << " freed=" << m.quarantine.sum_freed_bytes
       << " alloc@=" << m.quarantine.sum_alloc_at_trigger
       << " quar@=" << m.quarantine.sum_quar_at_trigger
       << " blk=" << m.quarantine.blocked_ops
       << " blkcyc=" << m.quarantine.blocked_cycles
       << " max=" << m.quarantine.max_quarantine_bytes << "\n";
    os << "alloc a=" << m.allocator.allocs
       << " f=" << m.allocator.frees
       << " ba=" << m.allocator.bytes_allocated_total
       << " bf=" << m.allocator.bytes_freed_total << "\n";
    os << "mmu df=" << m.mmu.demand_faults
       << " lbf=" << m.mmu.load_barrier_faults
       << " shoot=" << m.mmu.tlb_shootdowns
       << " resend=" << m.mmu.shootdown_resends << "\n";
    os << "recov miss=" << m.recovery.deadline_misses
       << " nudge=" << m.recovery.nudges
       << " reap=" << m.recovery.sweepers_reaped
       << " resp=" << m.recovery.sweepers_respawned
       << " req=" << m.recovery.recovery_requests
       << " stw=" << m.recovery.stw_fallbacks
       << " emerg=" << m.recovery.emergency_epochs
       << " stallt=" << m.recovery.stalled_threads << "\n";
    os << "inj stall=" << m.faults_injected.sweeper_stalls
       << " kill=" << m.faults_injected.sweeper_kills
       << " drop=" << m.faults_injected.faults_dropped
       << " dup=" << m.faults_injected.faults_duplicated
       << " delay=" << m.faults_injected.stw_delays
       << " sdrop=" << m.faults_injected.shootdown_drops
       << " slate=" << m.faults_injected.shootdown_lates
       << " cstall=" << m.faults_injected.core_stalls
       << " corrupt=" << m.faults_injected.summary_corruptions
       << " qdrop=" << m.faults_injected.quarantine_drops
       << " qdup=" << m.faults_injected.quarantine_duplicates << "\n";
    os << "heal repairs=" << m.summary_repairs
       << " ereclaim=" << m.quarantine.emergency_reclaims
       << " hresend=" << m.quarantine.handoff_resends << "\n";
    for (unsigned i = 0; i < trace::kNumRecoveryProtocols; ++i) {
        const auto &p = m.recovery_protocols[i];
        os << "rp[" << trace::recoveryProtocolName(
                           static_cast<trace::RecoveryProtocol>(i))
           << "] t=" << p.tickets << " a=" << p.attempts
           << " s=" << p.successes << " re=" << p.retries_exhausted
           << " de=" << p.deadline_expiries << " ab=" << p.aborts
           << " lat=" << p.total_latency << "/" << p.max_latency
           << "\n";
    }
    // Deliberately excluded: m.oracle_* (observer totals that count
    // only when the oracle is attached). Everything above is a
    // simulated observable and must be bit-identical across host-side
    // and observer configuration changes.
    return os.str();
}

RunMetrics
runSpecWith(Strategy s, bool trace = false, bool check = false)
{
    MachineConfig cfg;
    cfg.strategy = s;
    cfg.policy = workload::specPolicy();
    cfg.trace = trace;
    cfg.check = check;
    Machine m(cfg);
    workload::runSpec(m, workload::specProfile("hmmer_retro"));
    return m.metrics();
}

/** Tracing charges zero simulated cycles: the complete RunMetrics
 *  fingerprint is bit-identical with the tracer on or off, for every
 *  strategy (the whole suite also passes under CREV_TRACE=1, which
 *  turns tracing on in every other test's machines too). */
TEST(Determinism, TracingPreservesSpecMetricsAllStrategies)
{
    for (Strategy s : core::kAllStrategies) {
        MachineConfig cfg;
        cfg.strategy = s;
        cfg.policy = workload::specPolicy();

        cfg.trace = true;
        Machine on(cfg);
        workload::runSpec(on, workload::specProfile("hmmer_retro"));

        cfg.trace = false;
        Machine off(cfg);
        workload::runSpec(off, workload::specProfile("hmmer_retro"));

        EXPECT_EQ(fingerprint(on.metrics()),
                  fingerprint(off.metrics()))
            << "strategy " << core::strategyName(s);
    }
}

/** The temporal-safety oracle is an off-clock observer like the
 *  tracer: every simulated observable must be bit-identical with the
 *  oracle on or off, for every strategy. (Its own totals — loads
 *  checked, violations — are excluded from the fingerprint.) */
TEST(Determinism, OraclePreservesSpecMetricsAllStrategies)
{
    for (Strategy s : core::kAllStrategies) {
        MachineConfig cfg;
        cfg.strategy = s;
        cfg.policy = workload::specPolicy();

        cfg.oracle = true;
        Machine on(cfg);
        workload::runSpec(on, workload::specProfile("hmmer_retro"));
        EXPECT_EQ(on.metrics().oracle_violations, 0u)
            << "strategy " << core::strategyName(s);

        cfg.oracle = false;
        Machine off(cfg);
        workload::runSpec(off, workload::specProfile("hmmer_retro"));
        EXPECT_EQ(off.metrics().oracle_loads_checked, 0u);

        EXPECT_EQ(fingerprint(on.metrics()),
                  fingerprint(off.metrics()))
            << "strategy " << core::strategyName(s);
    }
}

/** Observers (tracer + race checker) attached together must still
 *  match the bare run: both are off-clock, so attaching them cannot
 *  move a single scheduling point. */
TEST(Determinism, ObserversPreserveSpecMetrics)
{
    for (Strategy s : {Strategy::kCornucopia, Strategy::kReloaded})
        EXPECT_EQ(fingerprint(runSpecWith(s, true, true)),
                  fingerprint(runSpecWith(s)))
            << "strategy " << core::strategyName(s);
}

/** Heap churn with capability links, register parking, and hoards —
 *  the same mix the chaos campaign uses, shrunk to gate size. */
void
churn(Machine &m, Mutator &ctx, int iters)
{
    struct Obj
    {
        cap::Capability c;
        std::size_t size;
    };
    std::vector<Obj> live;
    auto &rng = ctx.rng();

    for (int i = 0; i < iters; ++i) {
        const double dice = rng.uniform();
        if (dice < 0.45 || live.size() < 4) {
            const std::size_t size = 16 << rng.below(7);
            live.push_back({ctx.malloc(size), size});
            ctx.store64(live.back().c, 0, static_cast<uint64_t>(i));
        } else if (dice < 0.80) {
            const std::size_t idx = rng.below(live.size());
            ctx.free(live[idx].c);
            live[idx] = live.back();
            live.pop_back();
        } else if (dice < 0.90) {
            const std::size_t a = rng.below(live.size());
            const std::size_t b = rng.below(live.size());
            if (live[a].size >= 32) {
                ctx.storeCap(live[a].c, 16, live[b].c);
                ASSERT_TRUE(ctx.loadCap(live[a].c, 16).tag);
            }
        } else if (dice < 0.95) {
            ctx.thread().reg(1 + rng.below(8)) =
                live[rng.below(live.size())].c;
        } else {
            const std::size_t slot =
                ctx.hoardPut(live[rng.below(live.size())].c);
            ASSERT_TRUE(ctx.hoardTake(slot).tag);
        }
    }
    for (auto &o : live)
        ctx.free(o.c);
    m.heap().drain(ctx.thread());
}

RunMetrics
runChaosWith(Strategy s, bool oracle = false)
{
    MachineConfig cfg;
    cfg.strategy = s;
    cfg.audit = true;
    cfg.oracle = oracle;
    cfg.policy.min_bytes = 32 * 1024; // revoke frequently
    cfg.background_sweepers = 2;
    cfg.seed = 42;
    cfg.faults.enabled = true;
    cfg.faults.seed = 909;
    cfg.faults.sweeper_stall_prob = 0.05;
    cfg.faults.sweeper_stall_cycles = 250'000;
    cfg.faults.sweeper_kill_prob = 0.10;
    cfg.faults.max_sweeper_kills = 1;
    cfg.faults.fault_drop_prob = 0.10;
    cfg.faults.max_fault_drops = 4;
    cfg.faults.fault_duplicate_prob = 0.10;
    cfg.faults.stw_delay_prob = 0.25;
    cfg.faults.stw_delay_cycles = 25'000;
    // PR-6 fault domains, all armed: the determinism contract covers
    // every recovery path (shootdown re-send, summary repair,
    // quarantine hand-off re-delivery, core stalls).
    cfg.faults.shootdown_drop_prob = 0.2;
    cfg.faults.shootdown_late_prob = 0.2;
    cfg.faults.shootdown_late_cycles = 10'000;
    cfg.faults.core_stall_prob = 0.005;
    cfg.faults.core_stall_cycles = 100'000;
    cfg.faults.summary_corrupt_prob = 0.25;
    cfg.faults.quarantine_drop_prob = 0.25;
    cfg.faults.quarantine_duplicate_prob = 0.25;
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3,
                   [&](Mutator &ctx) { churn(m, ctx, 800); });
    m.run();
    return m.metrics();
}

/** Parse tests/golden/determinism_fingerprints.txt: `#` comment
 *  lines, then entries that open with a `[key]` line and hold the
 *  fingerprint lines up to the next key. */
std::map<std::string, std::string>
loadGoldens()
{
    std::map<std::string, std::string> out;
    std::ifstream in(CREV_GOLDEN_FINGERPRINTS);
    std::string line, key;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        if (line.front() == '[' && line.back() == ']')
            key = line.substr(1, line.size() - 2);
        else if (!key.empty())
            out[key] += line + "\n";
    }
    return out;
}

/** The golden entry for @p key, or "" if the file has none. */
std::string
goldenEntry(const std::map<std::string, std::string> &golden,
            const std::string &key)
{
    const auto it = golden.find(key);
    return it == golden.end() ? std::string() : it->second;
}

/** Streaming over a working set larger than the LLC: 64 objects of
 *  64 KiB, every line loaded and then stored, in two passes, then
 *  freed. Each store dirties a line that the load filled clean, so LLC
 *  dirty writebacks (bw > 0, which the SPEC and chaos entries never
 *  drive) happen only if the L1 MRU-hint hit records the store. */
RunMetrics
runStream(Strategy s)
{
    MachineConfig cfg;
    cfg.strategy = s;
    Machine m(cfg);
    m.spawnMutator("stream", 1u << 0, [&](Mutator &ctx) {
        constexpr std::size_t kObjBytes = 64 * 1024;
        std::vector<cap::Capability> objs;
        for (int i = 0; i < 64; ++i)
            objs.push_back(ctx.malloc(kObjBytes));
        for (std::uint64_t pass = 0; pass < 2; ++pass)
            for (const auto &c : objs)
                for (Addr off = 0; off < kObjBytes; off += 64)
                    ctx.store64(c, off, ctx.load64(c, off) + pass);
        for (const auto &c : objs)
            ctx.free(c);
        m.heap().drain(ctx.thread());
    });
    m.run();
    return m.metrics();
}

/** Absolute pin of the simulated results: the hmmer_retro SPEC run,
 *  the kitchen-sink chaos run and the LLC-overflowing stream, for
 *  every strategy, must reproduce the checked-in fingerprints. A
 *  mismatch prints the actual entry in the file's format. */
TEST(Determinism, GoldenFingerprints)
{
    const std::map<std::string, std::string> golden = loadGoldens();
    ASSERT_FALSE(golden.empty()) << "no goldens in "
                                 << CREV_GOLDEN_FINGERPRINTS;
    for (Strategy s : core::kAllStrategies) {
        const std::string name = core::strategyName(s);
        const RunMetrics stream = runStream(s);
        std::uint64_t bus_writes = 0;
        for (const auto &mc : stream.core_mem)
            bus_writes += mc.bus_writes;
        EXPECT_GT(bus_writes, 0u) << "stream " << name;
        const std::pair<std::string, std::string> runs[] = {
            {"spec hmmer_retro " + name, fingerprint(runSpecWith(s))},
            {"chaos kitchen-sink " + name, fingerprint(runChaosWith(s))},
            {"stream " + name, fingerprint(stream)},
        };
        for (const auto &[key, actual] : runs)
            EXPECT_EQ(actual, goldenEntry(golden, key))
                << "actual entry:\n[" << key << "]\n"
                << actual;
    }
}

/** Producer/consumer churn where the bulk of frees happen on a
 *  different core than the allocation, so the heap lock and the
 *  quarantine are shared across cores. Exactly one simulated thread
 *  runs at a time, so the shared host-side queue needs no host locking
 *  and hand-off order is fully scheduler-determined. */
void
crossCoreChurn(Machine &m, int iters)
{
    auto queue = std::make_shared<std::vector<cap::Capability>>();
    auto produced = std::make_shared<int>(0);
    m.spawnMutator("prod", 1u << 0, [=](Mutator &ctx) {
        for (int i = 0; i < iters; ++i) {
            const std::size_t size = 16 << ctx.rng().below(6);
            cap::Capability c = ctx.malloc(size);
            ctx.store64(c, 0, static_cast<std::uint64_t>(i));
            queue->push_back(c);
            ++*produced;
            ctx.compute(150);
            if (i % 8 == 0) // every eighth object dies locally
                ctx.free(ctx.malloc(96));
        }
    });
    m.spawnMutator("cons", 1u << 1, [=, &m](Mutator &ctx) {
        std::size_t taken = 0;
        while (taken < static_cast<std::size_t>(iters)) {
            if (taken < queue->size()) {
                // Copy out: free() yields, and the producer's
                // push_back may reallocate the vector meanwhile.
                const cap::Capability c = queue->at(taken);
                ctx.load64(c, 0); // touch before free
                ctx.free(c);
                ++taken;
                ctx.compute(120);
            } else {
                ctx.compute(400); // producer behind; spin virtually
            }
        }
        m.heap().drain(ctx.thread());
    });
}

RunMetrics
runCrossCore(Strategy s, bool chaos)
{
    MachineConfig cfg;
    cfg.strategy = s;
    cfg.policy = workload::specPolicy();
    cfg.policy.min_bytes = 32 * 1024;
    cfg.seed = 7;
    if (chaos) {
        cfg.audit = true;
        cfg.background_sweepers = 2;
        cfg.faults.enabled = true;
        cfg.faults.seed = 909;
        cfg.faults.sweeper_stall_prob = 0.05;
        cfg.faults.sweeper_stall_cycles = 250'000;
        cfg.faults.fault_drop_prob = 0.10;
        cfg.faults.max_fault_drops = 4;
        cfg.faults.stw_delay_prob = 0.25;
        cfg.faults.stw_delay_cycles = 25'000;
        cfg.faults.shootdown_drop_prob = 0.2;
        cfg.faults.summary_corrupt_prob = 0.25;
        cfg.faults.quarantine_drop_prob = 0.25;
        cfg.faults.quarantine_duplicate_prob = 0.25;
    }
    Machine m(cfg);
    crossCoreChurn(m, 300);
    m.run();
    return m.metrics();
}

/** Absolute pin of the cross-core heap: the producer/consumer churn,
 *  plain and under chaos, for every strategy, must reproduce the
 *  checked-in fingerprints. */
TEST(Determinism, GoldenCrossCoreFingerprints)
{
    const std::map<std::string, std::string> golden = loadGoldens();
    ASSERT_FALSE(golden.empty()) << "no goldens in "
                                 << CREV_GOLDEN_FINGERPRINTS;
    for (Strategy s : core::kAllStrategies) {
        for (bool chaos : {false, true}) {
            const std::string key = std::string("cross-core ") +
                                    (chaos ? "chaos " : "spec ") +
                                    core::strategyName(s);
            const std::string actual = fingerprint(runCrossCore(s, chaos));
            EXPECT_EQ(actual, goldenEntry(golden, key))
                << "actual entry:\n[" << key << "]\n"
                << actual;
        }
    }
}

TEST(Determinism, OraclePreservesChaosMetricsAllStrategies)
{
    // The oracle rides a full chaos campaign (every fault domain
    // armed, audit on) without perturbing one scheduling point — and
    // reports zero violations even while recovery paths run hot.
    for (Strategy s : core::kAllStrategies) {
        const RunMetrics on = runChaosWith(s, true);
        const RunMetrics off = runChaosWith(s, false);
        EXPECT_EQ(on.oracle_violations, 0u)
            << "strategy " << core::strategyName(s);
        EXPECT_EQ(fingerprint(on), fingerprint(off))
            << "strategy " << core::strategyName(s);
    }
}

} // namespace
} // namespace crev
