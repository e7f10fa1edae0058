/**
 * @file
 * Tests for the VM layer: reservations with representability padding
 * and guard pages, demand paging, TLB behaviour, capability-dirty
 * store tracking, and the load-barrier trap plumbing.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "base/rng.h"
#include "cap/compression.h"
#include "kern/kernel.h"
#include "mem/memory_system.h"
#include "mem/phys_mem.h"
#include "sim/scheduler.h"
#include "vm/address_space.h"
#include "vm/fault.h"
#include "vm/mmu.h"

namespace crev::vm {
namespace {

/** A harness bundling the VM stack under a one-thread scheduler. */
struct VmHarness
{
    VmHarness()
        : ms(2, mem::CacheConfig{32 * 1024, 4},
             mem::CacheConfig{256 * 1024, 8}, mem::MemLatency{}),
          sched(2, sim::CostModel{}), as(pm), mmu(pm, ms, as,
                                                  sched.costs())
    {
    }

    /** Run @p body on a simulated thread pinned to core 0. */
    template <typename Fn>
    void
    onThread(Fn body)
    {
        sched.spawn("t", 1, [body = std::move(body)](sim::SimThread &t) {
            body(t);
        });
        sched.run();
    }

    mem::PhysMem pm;
    mem::MemorySystem ms;
    sim::Scheduler sched;
    AddressSpace as;
    Mmu mmu;
};

TEST(AddressSpace, ReservePadsToRepresentability)
{
    mem::PhysMem pm;
    AddressSpace as(pm);
    // 5 MiB needs E > 0: the reservation is longer than requested and
    // the base suitably aligned.
    const Addr len = 5 * 1024 * 1024 + 123;
    const Addr base = as.reserve(len);
    Reservation *r = as.reservationFor(base);
    ASSERT_NE(r, nullptr);
    EXPECT_GE(r->length, r->requested);
    EXPECT_EQ(base % std::max<Addr>(cap::representableAlignment(
                                        roundUp(len, kPageSize)),
                                    kPageSize),
              0u);
    // Padding pages are guards.
    if (r->length > r->requested) {
        EXPECT_EQ(as.classify(base + r->requested, false, false),
                  FaultKind::kGuard);
    }
}

TEST(AddressSpace, UnmapCreatesGuardsAndQuarantinesReservation)
{
    VmHarness h;
    h.onThread([&](sim::SimThread &t) {
        AddressSpace &as = h.as;
        const Addr base = as.reserve(kPageSize * 2);
        as.makeResident(base);
        as.makeResident(base + kPageSize);
        EXPECT_EQ(h.pm.framesInUse(), 2u);

        as.unmap(t, base, kPageSize);
        EXPECT_EQ(as.classify(base, false, false), FaultKind::kGuard);
        EXPECT_EQ(h.pm.framesInUse(), 1u);
        EXPECT_TRUE(as.takeNewlyQuarantined(t).empty());

        as.unmap(t, base + kPageSize, kPageSize);
        auto quarantined = as.takeNewlyQuarantined(t);
        ASSERT_EQ(quarantined.size(), 1u);
        EXPECT_EQ(quarantined[0]->state,
                  ReservationState::kQuarantined);

        // Released reservations' VA is never recycled.
        as.release(t, quarantined[0]);
        const Addr base2 = as.reserve(kPageSize);
        EXPECT_GT(base2, base);
    });
}

/**
 * A seeded random sequence of reserve, touch, partial and full unmap,
 * and release, checked after every step against a std::map model:
 * classify(), findPte() nullness, residentPages() and the exact
 * forEachResidentPage visit order.
 */
TEST(AddressSpace, PageTableMatchesMapModel)
{
    enum class Pg { kMapped, kResident, kGuard, kReleased };
    std::map<Addr, Pg> model; // page base VA -> state
    VmHarness h;
    h.onThread([&](sim::SimThread &t) {
        AddressSpace &as = h.as;
        Rng rng(0x9a6e7ab1e);
        const auto any = [&](Addr lo, Addr hi) {
            return lo + rng.below(hi - lo);
        };
        const auto check = [&](Addr va) {
            auto it = model.find(pageBase(va));
            const FaultKind want =
                it == model.end() ? (va >= kShadowBase
                                         ? FaultKind::kDemandZero
                                         : FaultKind::kNotMapped)
                : it->second == Pg::kMapped   ? FaultKind::kDemandZero
                : it->second == Pg::kResident ? FaultKind::kNone
                                              : FaultKind::kGuard;
            EXPECT_EQ(as.classify(va, false, false), want) << va;
            EXPECT_EQ(as.findPte(va) != nullptr,
                      it != model.end() && it->second != Pg::kReleased)
                << va;
        };
        std::vector<Reservation *> live; // still kActive
        for (int step = 0; step <= 1600 && !HasFailure(); ++step) {
            const double op = rng.uniform();
            if (op < 0.15 || live.empty()) {
                // Odd lengths exercise representability padding.
                const Addr base = as.reserve(
                    rng.range(1, 48) * kPageSize - rng.below(kPageSize));
                live.push_back(as.reservationFor(base));
                for (Addr va = base; va < base + live.back()->length;
                     va += kPageSize)
                    model[va] = va < base + live.back()->requested
                                    ? Pg::kMapped
                                    : Pg::kGuard;
            } else if (op < 0.55) {
                const Reservation *r = live[rng.below(live.size())];
                const Addr va = rng.chance(0.2)
                                    ? shadowByteFor(any(0, kHeapCeiling))
                                    : any(r->base, r->base + r->length);
                if (as.classify(va, false, false) ==
                    FaultKind::kDemandZero) {
                    as.makeResident(va);
                    model[pageBase(va)] = Pg::kResident;
                }
            } else if (op < 0.85) {
                const std::size_t k = rng.below(live.size());
                Reservation *r = live[k];
                const Addr pages = r->requested / kPageSize;
                const bool full = rng.chance(0.2);
                const Addr first = full ? 0 : rng.below(pages);
                const Addr count =
                    full ? pages : rng.range(1, pages - first);
                as.unmap(t, r->base + first * kPageSize,
                         count * kPageSize);
                for (Addr p = first; p < first + count; ++p)
                    model[r->base + p * kPageSize] = Pg::kGuard;
                if (r->state == ReservationState::kQuarantined)
                    live.erase(live.begin() +
                               static_cast<std::ptrdiff_t>(k));
            } else {
                for (Reservation *r : as.takeNewlyQuarantined(t)) {
                    as.release(t, r);
                    for (Addr va = r->base; va < r->base + r->length;
                         va += kPageSize)
                        model[va] = Pg::kReleased;
                }
            }
            std::vector<Addr> want;
            for (const auto &[va, pg] : model) {
                if (step % 8 == 0) { // every page and its neighbour
                    check(va);
                    check(va + kPageSize);
                }
                if (pg == Pg::kResident)
                    want.push_back(va);
            }
            check(any(kHeapBase, kHeapCeiling));
            check(shadowByteFor(any(0, kHeapCeiling)));
            std::vector<Addr> got;
            as.forEachResidentPage(
                [&](Addr va, Pte &p) { got.push_back(p.valid ? va : 0); });
            ASSERT_EQ(got, want) << "step " << step;
            ASSERT_EQ(as.residentPages(), want.size());
        }
    });
}

TEST(AddressSpace, PageTableWindowEdges)
{
    VmHarness h;
    h.onThread([&](sim::SimThread &t) {
        AddressSpace &as = h.as;
        // Outside and between the heap and shadow windows.
        for (Addr va : {Addr{0}, kHeapBase - 1, kHeapCeiling,
                        kShadowBase - 1,
                        shadowByteFor(kHeapCeiling) + kPageSize}) {
            EXPECT_EQ(as.classify(va, false, false),
                      FaultKind::kNotMapped);
            EXPECT_EQ(as.findPte(va), nullptr);
        }
        // A released page is a guard page with no PTE.
        const Addr freed = as.reserve(kPageSize);
        as.makeResident(freed);
        as.unmap(t, freed, kPageSize);
        as.release(t, as.takeNewlyQuarantined(t).at(0));
        EXPECT_EQ(as.classify(freed, false, false), FaultKind::kGuard);
        EXPECT_EQ(as.findPte(freed), nullptr);

        // The last heap page (reserve until the window is full) and
        // the last shadow page.
        for (Addr len = (kHeapCeiling - kHeapBase) / 2; len >= kPageSize;
             len /= 2)
            while (as.canReserve(len))
                as.reserve(len);
        const Addr last_heap = kHeapCeiling - kPageSize;
        const Addr last_shadow = pageBase(shadowByteFor(kHeapCeiling - 1));
        ASSERT_EQ(as.classify(last_heap, false, false),
                  FaultKind::kDemandZero);
        EXPECT_EQ(as.classify(last_shadow, true, false),
                  FaultKind::kDemandZero);
        EXPECT_EQ(as.findPte(last_shadow), nullptr);
        // Shadow (revocation bitmap) pages never hold capabilities.
        EXPECT_FALSE(as.makeResident(last_shadow).cap_store);
        // The walk also visits a page made resident above its cursor
        // (as the emergency sweep does to shadow pages), not below.
        std::vector<Addr> order;
        as.forEachResidentPage([&](Addr va, Pte &) {
            order.push_back(va);
            if (va == last_shadow) {
                as.makeResident(last_heap);
                as.makeResident(last_shadow - kPageSize);
                as.makeResident(last_shadow + kPageSize);
            }
        });
        EXPECT_EQ(order, (std::vector<Addr>{last_shadow,
                                            last_shadow + kPageSize}));
        EXPECT_EQ(as.residentPages(), 4u);
        EXPECT_EQ(as.classify(last_heap, false, false), FaultKind::kNone);
    });
}

TEST(Tlb, InsertLookupInvalidate)
{
    Tlb tlb(4);
    Pte p;
    p.valid = true;
    p.pfn = 42;
    tlb.insert(7, p);
    ASSERT_NE(tlb.lookup(7), nullptr);
    EXPECT_EQ(tlb.lookup(7)->pfn, 42u);
    tlb.invalidatePage(7);
    EXPECT_EQ(tlb.lookup(7), nullptr);
}

TEST(Tlb, FifoEviction)
{
    Tlb tlb(2);
    Pte p;
    p.valid = true;
    tlb.insert(1, p);
    tlb.insert(2, p);
    tlb.insert(3, p); // evicts vpn 1
    EXPECT_EQ(tlb.lookup(1), nullptr);
    EXPECT_NE(tlb.lookup(2), nullptr);
    EXPECT_NE(tlb.lookup(3), nullptr);
}

/** Home slot of @p vpn in a Tlb(4) (16 slots): the table's Fibonacci
 *  hash, replicated so the test can pick colliding vpns. */
std::size_t
tlb4Home(Addr vpn)
{
    return static_cast<std::size_t>((vpn * 0x9E3779B97F4A7C15ull) >> 32) &
           15;
}

/** The first @p n vpns (from 1 up) whose home slot is @p home. */
std::vector<Addr>
vpnsWithHome(std::size_t home, std::size_t n)
{
    std::vector<Addr> out;
    for (Addr vpn = 1; out.size() < n; ++vpn)
        if (tlb4Home(vpn) == home)
            out.push_back(vpn);
    return out;
}

/**
 * The open-addressed backing under collisions: three vpns share the
 * last slot, so their probe chain wraps to the front of the table, and
 * a fourth vpn whose home is slot 0 sits behind them. Invalidating from
 * the middle of the wrapped chain must backward-shift every later entry
 * so all of them stay reachable. A re-inserted vpn joins the FIFO
 * queue again, but its first queue entry is older, so it is evicted in
 * its original turn.
 */
TEST(Tlb, CollidingVpnsSurviveMidChainInvalidateAndEvictFifo)
{
    Tlb tlb(4);
    const std::vector<Addr> tail = vpnsWithHome(15, 3);
    const Addr front = vpnsWithHome(0, 1)[0];
    const Addr a = tail[0], b = tail[1], c = tail[2], d = front;
    Pte p;
    p.valid = true;
    for (Addr vpn : {a, b, c, d}) {
        p.pfn = vpn;
        tlb.insert(vpn, p);
    }

    tlb.invalidatePage(b); // slot 0: the middle of the wrapped chain
    EXPECT_EQ(tlb.lookup(b), nullptr);
    for (Addr vpn : {a, c, d}) {
        const Pte *e = tlb.lookup(vpn);
        ASSERT_NE(e, nullptr) << "vpn " << vpn;
        EXPECT_EQ(e->pfn, vpn);
    }
    EXPECT_EQ(tlb.hits(), 3u);
    EXPECT_EQ(tlb.misses(), 1u);

    p.pfn = b;
    tlb.insert(b, p); // back to 4 entries: no eviction
    for (Addr vpn : {a, b, c, d})
        EXPECT_NE(tlb.lookup(vpn), nullptr) << "vpn " << vpn;

    // FIFO queue: a, b, c, d, b. Each new vpn evicts the next one.
    const Addr e = vpnsWithHome(7, 1)[0];
    const Addr f = vpnsWithHome(8, 1)[0];
    tlb.insert(e, p);
    EXPECT_EQ(tlb.lookup(a), nullptr);
    EXPECT_NE(tlb.lookup(b), nullptr);
    tlb.insert(f, p);
    EXPECT_EQ(tlb.lookup(b), nullptr);
    for (Addr vpn : {c, d, e, f})
        EXPECT_NE(tlb.lookup(vpn), nullptr) << "vpn " << vpn;

    EXPECT_EQ(tlb.hits(), 3u + 4u + 1u + 4u);
    EXPECT_EQ(tlb.misses(), 1u + 1u + 1u);
}

TEST(Mmu, DemandFaultChargedOnce)
{
    VmHarness h;
    h.onThread([&](sim::SimThread &t) {
        const Addr base = h.as.reserve(kPageSize);
        h.mmu.storeU64(t, base, 0x1234);
        EXPECT_EQ(h.mmu.stats().demand_faults, 1u);
        EXPECT_EQ(h.mmu.loadU64(t, base), 0x1234u);
        EXPECT_EQ(h.mmu.stats().demand_faults, 1u); // now resident
    });
}

TEST(Mmu, GuardTouchThrows)
{
    VmHarness h;
    h.onThread([&](sim::SimThread &t) {
        const Addr base = h.as.reserve(kPageSize);
        h.as.unmap(t, base, kPageSize);
        EXPECT_THROW(h.mmu.loadU64(t, base), MemoryFault);
    });
}

TEST(Mmu, UnmappedTouchThrows)
{
    VmHarness h;
    h.onThread([&](sim::SimThread &t) {
        EXPECT_THROW(h.mmu.loadU64(t, 0x1234'5678'0000ull),
                     MemoryFault);
    });
}

TEST(Mmu, CapStoreSetsDirtyAndEverBits)
{
    VmHarness h;
    h.onThread([&](sim::SimThread &t) {
        const Addr base = h.as.reserve(kPageSize);
        const cap::Capability c =
            cap::Capability::root(base, base + 64);
        h.mmu.storeCap(t, base, c);
        Pte *p = h.as.findPte(base);
        ASSERT_NE(p, nullptr);
        EXPECT_TRUE(p->cap_dirty);
        EXPECT_TRUE(p->cap_ever);

        const cap::Capability back = h.mmu.loadCap(t, base);
        EXPECT_TRUE(back.tag);
        EXPECT_EQ(back.base, c.base);
        EXPECT_EQ(back.top, c.top);
    });
}

TEST(Mmu, UntaggedCapStoreDoesNotDirty)
{
    VmHarness h;
    h.onThread([&](sim::SimThread &t) {
        const Addr base = h.as.reserve(kPageSize);
        cap::Capability c = cap::Capability::root(base, base + 64);
        c.tag = false;
        h.mmu.storeCap(t, base, c);
        Pte *p = h.as.findPte(base);
        ASSERT_NE(p, nullptr);
        EXPECT_FALSE(p->cap_dirty);
        EXPECT_FALSE(p->cap_ever);
    });
}

TEST(Mmu, CapStoreToNoCapStorePageFaults)
{
    VmHarness h;
    h.onThread([&](sim::SimThread &t) {
        const Addr base = h.as.reserve(kPageSize, /*cap_store=*/false);
        const cap::Capability c =
            cap::Capability::root(base, base + 64);
        EXPECT_THROW(h.mmu.storeCap(t, base, c), MemoryFault);
        // Plain data stores are fine.
        h.mmu.storeU64(t, base, 7);
    });
}

TEST(Mmu, LoadBarrierTrapsOnStaleGenerationOnly)
{
    VmHarness h;
    int faults = 0;
    h.mmu.setLoadFaultHandler([&](sim::SimThread &t, Addr va) {
        ++faults;
        // Minimal self-healing handler: bring the PTE up to date.
        Pte *p = h.as.findPte(va);
        p->clg = h.mmu.currentGen();
        h.mmu.shootdownPage(t, va);
    });
    h.onThread([&](sim::SimThread &t) {
        const Addr base = h.as.reserve(kPageSize);
        const cap::Capability c =
            cap::Capability::root(base, base + 64);
        h.mmu.storeCap(t, base, c);

        // Same generation: no trap.
        h.mmu.loadCap(t, base);
        EXPECT_EQ(faults, 0);

        // Flip generations: next tagged load traps once, then heals.
        h.mmu.flipAllCoreGens(t);
        h.mmu.loadCap(t, base);
        EXPECT_EQ(faults, 1);
        h.mmu.loadCap(t, base);
        EXPECT_EQ(faults, 1);
        EXPECT_EQ(h.mmu.stats().load_barrier_faults, 1u);
    });
}

TEST(Mmu, UntaggedLoadNeverTraps)
{
    VmHarness h;
    h.mmu.setLoadFaultHandler([](sim::SimThread &, Addr) {
        FAIL() << "untagged loads must not trap";
    });
    h.onThread([&](sim::SimThread &t) {
        const Addr base = h.as.reserve(kPageSize);
        h.mmu.storeU64(t, base, 99);
        h.mmu.flipAllCoreGens(t);
        // Capability-width load of untagged data: no trap.
        const cap::Capability c = h.mmu.loadCap(t, base);
        EXPECT_FALSE(c.tag);
    });
}

TEST(Mmu, NewPagesAdoptCurrentGeneration)
{
    VmHarness h;
    h.mmu.setLoadFaultHandler([](sim::SimThread &, Addr) {
        FAIL() << "fresh pages must not trap";
    });
    h.onThread([&](sim::SimThread &t) {
        h.mmu.flipAllCoreGens(t);
        const Addr base = h.as.reserve(kPageSize);
        const cap::Capability c =
            cap::Capability::root(base, base + 64);
        h.mmu.storeCap(t, base, c); // demand-fault adopts new gen
        EXPECT_TRUE(h.mmu.loadCap(t, base).tag);
    });
}

TEST(Mmu, KernelPathsBypassBarrierAndDirtyTracking)
{
    VmHarness h;
    h.mmu.setLoadFaultHandler([](sim::SimThread &, Addr) {
        FAIL() << "kernel loads must bypass the barrier";
    });
    h.onThread([&](sim::SimThread &t) {
        const Addr base = h.as.reserve(kPageSize);
        const cap::Capability c =
            cap::Capability::root(base, base + 64);
        h.mmu.storeCap(t, base, c);
        h.mmu.flipAllCoreGens(t);

        const cap::Capability k = h.mmu.kernelLoadCap(t, base);
        EXPECT_TRUE(k.tag);

        h.mmu.kernelClearTag(t, base);
        EXPECT_FALSE(h.mmu.peekTag(base));
    });
}

/**
 * In-place PTE mutations — the epoch-open CLG flip and the load-fault
 * self-heal behind shootdownPage — must be visible to the very next
 * load: after a flip it traps, after the heal it does not, and a
 * second flip re-arms the barrier. A stale translation here would let
 * a load slip past the barrier untrapped.
 */
TEST(Mmu, LoadBarrierRearmsAcrossEpochFlips)
{
    VmHarness h;
    int faults = 0;
    h.mmu.setLoadFaultHandler([&](sim::SimThread &t, Addr va) {
        ++faults;
        Pte *p = h.as.findPte(va);
        p->clg = h.mmu.currentGen();
        h.mmu.shootdownPage(t, va);
    });
    h.onThread([&](sim::SimThread &t) {
        const Addr base = h.as.reserve(kPageSize);
        const cap::Capability c =
            cap::Capability::root(base, base + 64);
        h.mmu.storeCap(t, base, c);

        // Warm the TLB.
        h.mmu.loadCap(t, base);
        EXPECT_EQ(faults, 0);

        // Epoch open: generations flip via in-place PTE mutation.
        // The next load MUST still observe the stale CLG and trap.
        h.mmu.flipAllCoreGens(t);
        h.mmu.loadCap(t, base);
        EXPECT_EQ(faults, 1);

        // The self-heal (also an in-place mutation, behind
        // shootdownPage) must likewise be visible: no double trap.
        h.mmu.loadCap(t, base);
        EXPECT_EQ(faults, 1);

        // A second flip re-arms the barrier on the same page.
        h.mmu.flipAllCoreGens(t);
        h.mmu.loadCap(t, base);
        EXPECT_EQ(faults, 2);
        EXPECT_EQ(h.mmu.stats().load_barrier_faults, 2u);
    });
}

TEST(Mmu, ShootdownForcesRewalk)
{
    VmHarness h;
    h.onThread([&](sim::SimThread &t) {
        const Addr base = h.as.reserve(kPageSize);
        h.mmu.storeU64(t, base, 1);
        const auto hits_before = h.mmu.tlb(t.core()).hits();
        h.mmu.loadU64(t, base); // TLB hit
        EXPECT_GT(h.mmu.tlb(t.core()).hits(), hits_before);
        h.mmu.shootdownPage(t, base);
        const auto misses_before = h.mmu.tlb(t.core()).misses();
        h.mmu.loadU64(t, base); // must rewalk
        EXPECT_GT(h.mmu.tlb(t.core()).misses(), misses_before);
        EXPECT_EQ(h.mmu.stats().tlb_shootdowns, 1u);
    });
}

} // namespace
} // namespace crev::vm
