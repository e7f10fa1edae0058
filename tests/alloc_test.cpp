/**
 * @file
 * Tests for the snmalloc-lite allocator and the mrs-style quarantine
 * shim: size classes, bounds, in-band free lists, double-free
 * detection, quarantine policy and the epoch-wait protocol.
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "alloc/snmalloc_lite.h"
#include "cap/compression.h"
#include "core/machine.h"
#include "core/mutator.h"
#include "vm/fault.h"

namespace crev {
namespace {

using core::Machine;
using core::MachineConfig;
using core::Mutator;
using core::Strategy;

MachineConfig
baselineCfg()
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kBaseline;
    return cfg;
}

TEST(SizeClasses, CoverageAndRepresentability)
{
    EXPECT_EQ(alloc::SnmallocLite::sizeClassFor(1), 0);
    EXPECT_EQ(alloc::SnmallocLite::sizeClassFor(16), 0);
    EXPECT_EQ(alloc::SnmallocLite::sizeClassFor(17), 1);
    EXPECT_EQ(alloc::SnmallocLite::sizeClassFor(alloc::kMaxSmall),
              static_cast<int>(alloc::kSizeClasses.size()) - 1);
    EXPECT_EQ(alloc::SnmallocLite::sizeClassFor(alloc::kMaxSmall + 1),
              -1);
    // Every class size at any 16-byte-aligned base must encode
    // exactly (no silent padding).
    for (std::size_t sz : alloc::kSizeClasses) {
        const Addr align = cap::representableAlignment(sz);
        EXPECT_LE(align, 16u) << sz;
        EXPECT_EQ(cap::representableLength(sz), sz);
    }
}

/** The constexpr 16-byte-granule LUT behind sizeClassFor must agree
 *  with the obvious linear scan at every size it claims to cover —
 *  1..kMaxSmall inclusive, plus the first large size. */
TEST(SizeClasses, LutMatchesLinearScanExhaustively)
{
    const auto reference = [](std::size_t size) -> int {
        for (std::size_t c = 0; c < alloc::kSizeClasses.size(); ++c)
            if (size <= alloc::kSizeClasses[c])
                return static_cast<int>(c);
        return -1;
    };
    for (std::size_t size = 1; size <= alloc::kMaxSmall + 1; ++size)
        ASSERT_EQ(alloc::SnmallocLite::sizeClassFor(size),
                  reference(size))
            << "size " << size;
}

TEST(Allocator, BoundsMatchSizeClass)
{
    Machine m(baselineCfg());
    m.spawnMutator("app", 1u << 3, [](Mutator &ctx) {
        const cap::Capability c = ctx.malloc(100);
        EXPECT_TRUE(c.tag);
        EXPECT_EQ(c.length(), 128u); // rounded to the class
        EXPECT_EQ(c.address, c.base);
        EXPECT_EQ(c.base % 16, 0u);
    });
    m.run();
}

TEST(Allocator, DistinctLiveObjectsDontOverlap)
{
    Machine m(baselineCfg());
    m.spawnMutator("app", 1u << 3, [](Mutator &ctx) {
        std::vector<cap::Capability> caps;
        for (int i = 0; i < 200; ++i)
            caps.push_back(ctx.malloc(48));
        std::set<Addr> bases;
        for (const auto &c : caps) {
            EXPECT_TRUE(bases.insert(c.base).second);
            for (const auto &d : caps) {
                if (c.base == d.base)
                    continue;
                EXPECT_TRUE(c.top <= d.base || d.top <= c.base);
            }
        }
    });
    m.run();
}

TEST(Allocator, FreeListReusesMemoryInBaseline)
{
    Machine m(baselineCfg());
    m.spawnMutator("app", 1u << 3, [](Mutator &ctx) {
        const cap::Capability a = ctx.malloc(64);
        const Addr base = a.base;
        ctx.free(a);
        const cap::Capability b = ctx.malloc(64);
        // Without temporal safety, memory is reused immediately (LIFO
        // free list) — exactly the hazard revocation removes.
        EXPECT_EQ(b.base, base);
    });
    m.run();
}

TEST(Allocator, LargeAllocationsArePageGranular)
{
    Machine m(baselineCfg());
    m.spawnMutator("app", 1u << 3, [](Mutator &ctx) {
        const cap::Capability c = ctx.malloc(100 * 1024);
        EXPECT_TRUE(c.tag);
        EXPECT_EQ(c.base % kPageSize, 0u);
        EXPECT_EQ(c.length(), roundUp(100 * 1024, kPageSize));
        ctx.free(c);
        const cap::Capability d = ctx.malloc(100 * 1024);
        EXPECT_EQ(d.base, c.base); // cached large chunk reused
    });
    m.run();
}

TEST(Allocator, DoubleFreeDetected)
{
    Machine m(baselineCfg());
    bool threw = false;
    m.spawnMutator("app", 1u << 3, [&](Mutator &ctx) {
        const cap::Capability c = ctx.malloc(32);
        ctx.free(c);
        try {
            ctx.free(c);
        } catch (const std::logic_error &) {
            threw = true;
        }
    });
    m.run();
    EXPECT_TRUE(threw);
}

TEST(Allocator, FreeUntaggedRejected)
{
    Machine m(baselineCfg());
    bool threw = false;
    m.spawnMutator("app", 1u << 3, [&](Mutator &ctx) {
        cap::Capability c = ctx.malloc(32);
        c.tag = false;
        try {
            ctx.free(c);
        } catch (const std::logic_error &) {
            threw = true;
        }
    });
    m.run();
    EXPECT_TRUE(threw);
}

/** A second free of the same capability from another core is a
 *  detected double free: every core frees into the one heap, with or
 *  without the quarantine in front of it. */
TEST(Allocator, CrossCoreDoubleFreeDetected)
{
    for (Strategy s : {Strategy::kBaseline, Strategy::kReloaded}) {
        MachineConfig cfg;
        cfg.strategy = s;
        Machine m(cfg);
        cap::Capability obj;
        bool first_freed = false;
        bool second_threw = false;
        m.spawnMutator("core0", 1u << 0, [&](Mutator &ctx) {
            obj = ctx.malloc(64);
            ctx.free(obj);
            first_freed = true;
        });
        m.spawnMutator("core1", 1u << 1, [&](Mutator &ctx) {
            ctx.sleep(100'000); // after core 0's free
            try {
                ctx.free(obj);
            } catch (const std::logic_error &) {
                second_threw = true;
            }
        });
        m.run();
        EXPECT_TRUE(first_freed) << core::strategyName(s);
        EXPECT_TRUE(second_threw) << core::strategyName(s);
    }
}

/** Regression pin for the trigger-threshold fix: the revocation
 *  trigger compares the *total* quarantine against the policy
 *  threshold. Under a free storm that outruns a slow revoker, the old
 *  per-buffer comparison let the refilling buffer climb to a full
 *  threshold on its own while the other buffer awaited its epoch, so
 *  quarantine-at-trigger averaged ~2x the policy target (Table 2
 *  drifted high). Fixed, the mean stays near the threshold. */
TEST(Quarantine, TriggerComparesTotalQuarantine)
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kReloaded;
    cfg.audit = true;
    cfg.policy.min_bytes = 16 * 1024;
    cfg.latency.dram = 800; // sweeps crawl; frees do not
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [&m](Mutator &ctx) {
        std::vector<cap::Capability> live;
        for (int i = 0; i < 600; ++i) {
            live.push_back(ctx.malloc(1024));
            if (live.size() >= 8) {
                ctx.free(live.front());
                live.erase(live.begin());
            }
        }
        for (auto &c : live)
            ctx.free(c);
        m.heap().drain(ctx.thread());
    });
    m.run();
    const auto q = m.metrics().quarantine;
    ASSERT_GT(q.revocations_triggered, 2u);
    // The storm genuinely outran the revoker (the regression regime:
    // a buffer was awaiting while frees kept landing) ...
    EXPECT_GT(q.blocked_ops, 0u);
    // ... and still, at no trigger had quarantine drifted toward 2x
    // the 16 KiB threshold; the mean stays within ~1.5x (submission
    // granularity: the triggering free's object is the overshoot).
    const double mean_quar_at_trigger =
        static_cast<double>(q.sum_quar_at_trigger) /
        static_cast<double>(q.revocations_triggered);
    EXPECT_LT(mean_quar_at_trigger, 1.5 * 16 * 1024);
    // Backpressure bounds the high-water mark near block_factor x
    // threshold (it was previously reachable only via both buffers
    // filling to a full threshold each).
    EXPECT_LE(q.max_quarantine_bytes,
              static_cast<std::uint64_t>(2.5 * 16 * 1024));
}

TEST(Quarantine, NoReuseBeforeEpoch)
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kReloaded;
    cfg.audit = true;
    cfg.policy.min_bytes = 1 << 20; // high threshold: no auto trigger
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [](Mutator &ctx) {
        const cap::Capability a = ctx.malloc(64);
        const Addr base = a.base;
        ctx.free(a);
        // Freed memory is quarantined, not recycled.
        for (int i = 0; i < 50; ++i) {
            const cap::Capability b = ctx.malloc(64);
            EXPECT_NE(b.base, base);
        }
    });
    m.run();
    EXPECT_GT(m.metrics().quarantine.sum_freed_bytes, 0u);
}

TEST(Quarantine, PolicyTriggersRevocationAndRecycles)
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kReloaded;
    cfg.audit = true;
    cfg.policy.min_bytes = 16 * 1024; // low threshold
    Machine m(cfg);
    std::set<Addr> first_round;
    bool reused = false;
    m.spawnMutator("app", 1u << 3, [&](Mutator &ctx) {
        // Churn enough memory to force several revocations.
        for (int round = 0; round < 40; ++round) {
            std::vector<cap::Capability> caps;
            for (int i = 0; i < 64; ++i) {
                caps.push_back(ctx.malloc(512));
                if (round == 0)
                    first_round.insert(caps.back().base);
                else if (first_round.count(caps.back().base))
                    reused = true;
            }
            for (auto &c : caps)
                ctx.free(c);
        }
    });
    m.run();
    const auto metrics = m.metrics();
    EXPECT_GT(metrics.quarantine.revocations_triggered, 0u);
    EXPECT_GE(metrics.epochs.size(), 1u);
    EXPECT_TRUE(reused) << "revocation must eventually recycle memory";
}

TEST(Quarantine, UafReadsOldObjectUntilRevocation)
{
    // Paper §2.2.2: a dangling pointer may still be dereferenced (the
    // object's lifetime is logically extended) but never aliases a
    // *new* allocation; after revocation it is dead.
    MachineConfig cfg;
    cfg.strategy = Strategy::kReloaded;
    cfg.audit = true;
    cfg.policy.min_bytes = 1 << 20;
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [&m](Mutator &ctx) {
        const cap::Capability a = ctx.malloc(64);
        ctx.store64(a, 0, 0xDEAD);
        ctx.free(a);
        // Use-after-free within the quarantine window: reads the old
        // object, untouched (no poisoning before reuse).
        EXPECT_EQ(ctx.load64(a, 0), 0xDEADu);

        // After an explicit drain (revocation), register-held caps are
        // also revoked... but `a` lives in this host-side workload
        // variable, which models a register. Stash it in the register
        // file so the STW scan sees it.
        ctx.thread().reg(0) = a;
        m.heap().drain(ctx.thread());
        EXPECT_FALSE(ctx.thread().reg(0).tag);
    });
    m.run();
}

TEST(Quarantine, MemoryHeldCapRevokedAfterDrain)
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kReloaded;
    cfg.audit = true;
    cfg.policy.min_bytes = 1 << 20;
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [&m](Mutator &ctx) {
        const cap::Capability holder = ctx.malloc(64);
        const cap::Capability victim = ctx.malloc(64);
        ctx.storeCap(holder, 0, victim);
        ctx.free(victim);
        m.heap().drain(ctx.thread());
        const cap::Capability loaded = ctx.loadCap(holder, 0);
        EXPECT_FALSE(loaded.tag);
        // Dereference through the revoked capability is fail-stop.
        EXPECT_THROW(ctx.load64(loaded, 0), vm::CapabilityFault);
    });
    m.run();
    EXPECT_GT(m.metrics().sweep.caps_revoked, 0u);
}

} // namespace
} // namespace crev
