/**
 * @file
 * google-benchmark microbenchmarks of the library's hot paths:
 * capability compression, bitmap painting, page sweeping, cache
 * accesses, and the simulated allocator. These measure *host*
 * performance of the simulator itself (how fast experiments run),
 * complementing the figure/table binaries which measure *simulated*
 * behaviour.
 */

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_runner.h"
#include "cap/compression.h"
#include "core/machine.h"
#include "core/mutator.h"
#include "mem/cache.h"
#include "workload/spec.h"

namespace {

using namespace crev;

void
BM_CapEncodeDecode(benchmark::State &state)
{
    Rng rng(1);
    std::vector<cap::Capability> caps;
    for (int i = 0; i < 256; ++i) {
        const Addr len = 16 + rng.below(1 << 16);
        const Addr base = roundUp(0x4000'0000 + rng.below(1u << 28),
                                  cap::representableAlignment(len));
        cap::Capability c;
        c.base = base;
        c.top = base + cap::representableLength(len);
        c.address = base;
        c.tag = true;
        caps.push_back(c);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const cap::CapBits bits = cap::encode(caps[i & 255]);
        benchmark::DoNotOptimize(cap::decode(bits, true));
        ++i;
    }
}
BENCHMARK(BM_CapEncodeDecode);

void
BM_CacheAccess(benchmark::State &state)
{
    mem::Cache cache(mem::CacheConfig{32 * 1024, 4});
    Rng rng(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            cache.access(rng.below(1 << 20), rng.chance(0.3)));
}
BENCHMARK(BM_CacheAccess);

void
BM_SimulatedMallocFree(benchmark::State &state)
{
    // Host cost of one simulated malloc+free round trip (baseline
    // machine, no revocation).
    const auto total = static_cast<std::uint64_t>(state.max_iterations);
    core::MachineConfig cfg;
    cfg.strategy = core::Strategy::kBaseline;
    core::Machine m(cfg);
    std::uint64_t done = 0;
    m.spawnMutator("app", 1u << 3, [&](core::Mutator &ctx) {
        for (std::uint64_t i = 0; i < total; ++i) {
            auto c = ctx.malloc(64);
            ctx.free(c);
            ++done;
        }
    });
    // Drive the machine manually inside the timing loop.
    auto start = std::chrono::steady_clock::now();
    m.run();
    auto elapsed = std::chrono::steady_clock::now() - start;
    const double per_iter =
        std::chrono::duration<double>(elapsed).count() /
        static_cast<double>(total);
    for (auto _ : state) {
        // Report the measured per-op cost for each iteration.
        benchmark::DoNotOptimize(done);
    }
    state.SetIterationTime(per_iter);
    state.counters["sim_alloc_free_ns"] = per_iter * 1e9;
}
BENCHMARK(BM_SimulatedMallocFree)->Iterations(100000);

void
BM_SweepThroughput(benchmark::State &state)
{
    // Pages swept per host-second under Reloaded on a churn-heavy
    // profile; reported as a counter.
    core::MachineConfig cfg;
    cfg.strategy = core::Strategy::kReloaded;
    cfg.policy = workload::specPolicy();
    core::Machine m(cfg);
    auto profile = workload::specProfile("hmmer_retro");
    auto start = std::chrono::steady_clock::now();
    workload::runSpec(m, profile);
    auto elapsed = std::chrono::steady_clock::now() - start;
    const auto metrics = m.metrics();
    for (auto _ : state)
        benchmark::DoNotOptimize(metrics.sweep.pages_swept);
    state.counters["pages_swept_per_host_sec"] =
        static_cast<double>(metrics.sweep.pages_swept) /
        std::chrono::duration<double>(elapsed).count();
}
BENCHMARK(BM_SweepThroughput)->Iterations(1);

void
BM_SweepPageRegime(benchmark::State &state,
                   benchutil::SweepRegime regime)
{
    // Host cost of sweeping one page, and its simulated cycles.
    const auto r = benchutil::measureSweepRegime(regime, true);
    for (auto _ : state)
        benchmark::DoNotOptimize(r.pages_swept);
    state.counters["host_ns_per_page"] = r.host_ns_per_page;
    state.counters["sim_cycles_per_page"] = r.sim_cycles_per_page;
}

void
BM_SweepPageClean(benchmark::State &state)
{
    BM_SweepPageRegime(state, benchutil::SweepRegime::kClean);
}
BENCHMARK(BM_SweepPageClean)->Iterations(1);

void
BM_SweepPageSparse(benchmark::State &state)
{
    BM_SweepPageRegime(state, benchutil::SweepRegime::kSparse);
}
BENCHMARK(BM_SweepPageSparse)->Iterations(1);

void
BM_SweepPageFull(benchmark::State &state)
{
    BM_SweepPageRegime(state, benchutil::SweepRegime::kFull);
}
BENCHMARK(BM_SweepPageFull)->Iterations(1);

void
BM_SweepPageRevokeDense(benchmark::State &state)
{
    BM_SweepPageRegime(state, benchutil::SweepRegime::kRevokeDense);
}
BENCHMARK(BM_SweepPageRevokeDense)->Iterations(1);

} // namespace
