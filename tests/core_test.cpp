/**
 * @file
 * Tests for the public façade: Mutator's CHERI dereference semantics
 * (tag/permission/bounds checks), metrics plumbing, and the full
 * configuration matrix of the Reloaded revoker run as a parameterized
 * property sweep (clean detection x always-trap x sweeper count),
 * each audited after every epoch.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/machine.h"
#include "core/mutator.h"
#include "vm/fault.h"

namespace crev {
namespace {

using core::Machine;
using core::MachineConfig;
using core::Mutator;
using core::Strategy;

// ---------------------------------------------------------------- //
// Mutator dereference semantics
// ---------------------------------------------------------------- //

TEST(Mutator, UntaggedDereferenceFaults)
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kBaseline;
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [](Mutator &ctx) {
        cap::Capability c = ctx.malloc(64);
        c.tag = false;
        EXPECT_THROW(ctx.load64(c, 0), vm::CapabilityFault);
        EXPECT_THROW(ctx.store64(c, 0, 1), vm::CapabilityFault);
        EXPECT_THROW(ctx.loadCap(c, 16), vm::CapabilityFault);
    });
    m.run();
}

TEST(Mutator, OutOfBoundsDereferenceFaults)
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kBaseline;
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [](Mutator &ctx) {
        const cap::Capability c = ctx.malloc(64);
        EXPECT_THROW(ctx.load64(c, 64), vm::CapabilityFault);
        EXPECT_THROW(ctx.load64(c, 60), vm::CapabilityFault); // spans
        EXPECT_THROW(ctx.store64(c, 1000, 1), vm::CapabilityFault);
        // Last full word is fine.
        ctx.store64(c, 56, 1);
        EXPECT_EQ(ctx.load64(c, 56), 1u);
    });
    m.run();
}

TEST(Mutator, MissingPermissionFaults)
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kBaseline;
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [](Mutator &ctx) {
        const cap::Capability c = ctx.malloc(64);
        const cap::Capability ro = c.andPerms(cap::kPermLoad);
        EXPECT_EQ(ctx.load64(ro, 0), 0u);
        EXPECT_THROW(ctx.store64(ro, 0, 1), vm::CapabilityFault);
        EXPECT_THROW(ctx.loadCap(ro, 16), vm::CapabilityFault);
        EXPECT_THROW(ctx.storeCap(ro, 16, c), vm::CapabilityFault);
    });
    m.run();
}

TEST(Mutator, NarrowedCapabilityConfinesAccess)
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kBaseline;
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [](Mutator &ctx) {
        const cap::Capability c = ctx.malloc(256);
        const cap::Capability sub =
            c.setBounds(c.base + 64, c.base + 128);
        ASSERT_TRUE(sub.tag);
        ctx.store64(sub, 0, 7);      // at sub.base
        EXPECT_THROW(ctx.load64(sub, 64), vm::CapabilityFault);
        // Through the parent the same address is reachable.
        EXPECT_EQ(ctx.load64(c, 64), 7u);
    });
    m.run();
}

TEST(Mutator, DataStoreShreddsOverlappingCapability)
{
    // CHERI tag semantics end-to-end: overwriting a stored capability
    // with plain data destroys it.
    MachineConfig cfg;
    cfg.strategy = Strategy::kBaseline;
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [](Mutator &ctx) {
        const cap::Capability holder = ctx.malloc(64);
        const cap::Capability v = ctx.malloc(64);
        ctx.storeCap(holder, 16, v);
        EXPECT_TRUE(ctx.loadCap(holder, 16).tag);
        ctx.store64(holder, 24, 0x0abcdef0); // within the granule
        EXPECT_FALSE(ctx.loadCap(holder, 16).tag);
    });
    m.run();
}

TEST(Metrics, ThreadBusyAndWallArePlumbed)
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kBaseline;
    Machine m(cfg);
    m.spawnMutator("worker", 1u << 3, [](Mutator &ctx) {
        ctx.compute(12345);
        ctx.free(ctx.malloc(64));
    });
    m.run();
    const auto metrics = m.metrics();
    EXPECT_GE(metrics.thread_busy.at("worker"), 12345u);
    EXPECT_GE(metrics.wall_cycles, 12345u);
    EXPECT_GT(metrics.allocator.allocs, 0u);
    EXPECT_FALSE(metrics.summary().empty());
}

// ---------------------------------------------------------------- //
// Reloaded configuration matrix, audited
// ---------------------------------------------------------------- //

struct ReloadedConfig
{
    bool clean_detect;
    bool always_trap;
    unsigned sweepers;
};

class ReloadedMatrixTest
    : public ::testing::TestWithParam<ReloadedConfig>
{
};

void
matrixChurn(Machine &m, Mutator &ctx, int iters)
{
    std::vector<cap::Capability> live;
    auto &rng = ctx.rng();
    for (int i = 0; i < iters; ++i) {
        if (rng.uniform() < 0.5 || live.size() < 8) {
            live.push_back(ctx.malloc(16u << rng.below(8)));
            ctx.store64(live.back(), 0, i);
        } else {
            const auto idx = rng.below(live.size());
            ctx.free(live[idx]);
            live[idx] = live.back();
            live.pop_back();
        }
        if (live.size() > 1 && rng.chance(0.3)) {
            const auto a = rng.below(live.size());
            const auto b = rng.below(live.size());
            if (live[a].length() >= 32) {
                ctx.storeCap(live[a], 16, live[b]);
                const cap::Capability p = ctx.loadCap(live[a], 16);
                if (p.tag)
                    ctx.load64(p, 0);
            }
        }
    }
    for (auto &c : live)
        ctx.free(c);
    m.heap().drain(ctx.thread());
}

TEST_P(ReloadedMatrixTest, ChurnHoldsInvariantUnderAudit)
{
    const ReloadedConfig &p = GetParam();
    MachineConfig cfg;
    cfg.strategy = Strategy::kReloaded;
    cfg.audit = true;
    cfg.policy.min_bytes = 8 * 1024;
    cfg.reloaded_clean_detect = p.clean_detect;
    cfg.always_trap_clean = p.always_trap;
    cfg.background_sweepers = p.sweepers;
    if (p.sweepers > 1)
        cfg.revoker_core_mask = (1u << 1) | (1u << 2);
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [&m](Mutator &ctx) {
        matrixChurn(m, ctx, 2500);
    });
    m.run();
    const auto metrics = m.metrics();
    EXPECT_GT(metrics.epochs.size(), 2u);
    EXPECT_GT(metrics.sweep.caps_revoked, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ReloadedMatrixTest,
    ::testing::Values(ReloadedConfig{true, false, 1},
                      ReloadedConfig{false, false, 1},
                      ReloadedConfig{true, true, 1},
                      ReloadedConfig{true, false, 2},
                      ReloadedConfig{true, true, 2}),
    [](const ::testing::TestParamInfo<ReloadedConfig> &info) {
        std::string n;
        n += info.param.clean_detect ? "detect" : "nodetect";
        n += info.param.always_trap ? "_trap" : "_gen";
        n += "_s" + std::to_string(info.param.sweepers);
        return n;
    });

// ---------------------------------------------------------------- //
// Multi-threaded mutators sharing the heap (the gRPC shape), audited
// ---------------------------------------------------------------- //

TEST(MultiThreaded, TwoMutatorsShareHeapSafely)
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kReloaded;
    cfg.audit = true;
    cfg.policy.min_bytes = 8 * 1024;
    cfg.revoker_core_mask = (1u << 2) | (1u << 3);
    Machine m(cfg);
    for (int id = 0; id < 2; ++id) {
        m.spawnMutator("worker" + std::to_string(id),
                       (1u << 2) | (1u << 3), [&m](Mutator &ctx) {
            matrixChurn(m, ctx, 1200);
        });
    }
    m.run();
    EXPECT_GT(m.metrics().epochs.size(), 0u);
}

TEST(MultiThreaded, RevokerQuantumScaleIsApplied)
{
    // §7.7: a smaller revoker quantum must not break correctness.
    MachineConfig cfg;
    cfg.strategy = Strategy::kReloaded;
    cfg.audit = true;
    cfg.policy.min_bytes = 8 * 1024;
    cfg.revoker_core_mask = 1u << 3; // contend with the app
    cfg.revoker_quantum_scale = 0.1;
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [&m](Mutator &ctx) {
        matrixChurn(m, ctx, 1500);
    });
    m.run();
    EXPECT_GT(m.metrics().epochs.size(), 0u);
}

// ---------------------------------------------------------------- //
// MachineConfig validation
// ---------------------------------------------------------------- //

/** The Machine rejects @p cfg with a message naming @p field. */
void
expectRejected(const MachineConfig &cfg, const std::string &field)
{
    EXPECT_NE(cfg.validate().find(field), std::string::npos)
        << cfg.validate();
    try {
        Machine m(cfg);
        ADD_FAILURE() << "Machine accepted a config with bad " << field;
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
    }
}

TEST(MachineConfigValidation, DefaultConfigIsValid)
{
    EXPECT_EQ(MachineConfig{}.validate(), "");
}

TEST(MachineConfigValidation, CoreCountOutOfRangeIsRejected)
{
    MachineConfig cfg;
    cfg.cores = 0;
    expectRejected(cfg, "cores");
    cfg.cores = 33;
    expectRejected(cfg, "cores");
}

TEST(MachineConfigValidation, BadCacheGeometryIsRejected)
{
    MachineConfig cfg;
    cfg.l1.assoc = 0;
    expectRejected(cfg, "l1");
    cfg = MachineConfig{};
    cfg.l1.size_bytes = 3 * 64 * 4; // three sets
    expectRejected(cfg, "l1");
    cfg = MachineConfig{};
    cfg.llc.assoc = 0;
    expectRejected(cfg, "llc");
    cfg = MachineConfig{};
    cfg.llc.size_bytes = 64; // smaller than one set of 8 ways
    expectRejected(cfg, "llc");
}

TEST(MachineConfigValidation, EmptyTraceBufferIsRejected)
{
    MachineConfig cfg;
    cfg.trace = true;
    cfg.trace_buffer_events = 0;
    expectRejected(cfg, "trace_buffer_events");
    // Without tracing no buffer is ever built.
    cfg.trace = false;
    EXPECT_EQ(cfg.validate(), "");
}

TEST(MachineConfigValidation, BadRevokerQuantumScaleIsRejected)
{
    // 1e14 x the default 1e6-cycle quantum is past 2^64.
    const double bad[] = {0.0, -1.0, std::nan(""),
                          std::numeric_limits<double>::infinity(), 1e14};
    for (double scale : bad) {
        MachineConfig cfg;
        cfg.revoker_quantum_scale = scale;
        expectRejected(cfg, "revoker_quantum_scale");
        // Baseline spawns no revoker, so the scale is not consulted.
        cfg.strategy = Strategy::kBaseline;
        EXPECT_EQ(cfg.validate(), "") << scale;
    }
}

TEST(MachineConfigValidation, RevokerMaskOutsideMachineIsRejected)
{
    // The default mask pins the revoker to core 2, which a two-core
    // machine does not have.
    MachineConfig cfg;
    cfg.cores = 2;
    expectRejected(cfg, "revoker_core_mask");
    // Baseline spawns no revoker, so the mask is not consulted.
    cfg.strategy = Strategy::kBaseline;
    EXPECT_EQ(cfg.validate(), "");
}

TEST(MachineConfigValidation, ZeroBackgroundSweepersUnderReloadedIsRejected)
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kReloaded;
    cfg.background_sweepers = 0;
    expectRejected(cfg, "background_sweepers");
    cfg.strategy = Strategy::kCornucopia;
    EXPECT_EQ(cfg.validate(), "");
}

} // namespace
} // namespace crev
