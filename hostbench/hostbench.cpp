/**
 * @file
 * Cell driver of the host-cost benchmark (see README.md beside this
 * file). It runs the library's own workload generators — the figure
 * cells — one after another on the calling thread, and prints one
 * JSON object per line on stdout for run.py to reduce.
 *
 *   hostbench_cells cells --workload W --seed N --passes K
 *       K timed passes over every cell of W. One line per cell run:
 *       wall and CPU seconds plus the cell's metrics registry.
 *   hostbench_cells setup --workload W --seed N
 *       Constructs and destroys one Machine per cell (the set-up a
 *       cell pays before its generator starts), then exits.
 *   hostbench_cells trace --workload W --seed N
 *       One untraced pass, one traced pass (event tracing and the
 *       temporal-safety oracle on), then the per-layer drivers: direct
 *       calls into each layer's public API, timed from outside.
 *   hostbench_cells host
 *       Compiler and build type of this binary.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "bench_runner.h"
#include "cap/compression.h"
#include "core/machine.h"
#include "core/mutator.h"
#include "trace/trace.h"
#include "workload/grpc_qps.h"
#include "workload/pgbench.h"
#include "workload/spec.h"

#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif

using namespace crev;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/** Host time of one cell run: wall seconds, and CPU seconds of the
 *  whole process (the cell's lane and pre-scan workers included),
 *  which leave out time the hypervisor takes the vCPU away (steal). */
struct CellTime
{
    double wall_s = 0, cpu_s = 0;
};

class CellTimer
{
  public:
    CellTime
    elapsed() const
    {
        return {secondsSince(wall_), processCpuSeconds() - cpu_};
    }

  private:
    Clock::time_point wall_ = Clock::now();
    double cpu_ = processCpuSeconds();
};

/** Defeats dead-code elimination of driver results. */
volatile std::uint64_t g_sink = 0;

// --- cells -----------------------------------------------------------

enum class Generator { kSpec, kPgbench, kGrpc };

struct Cell
{
    std::string name; //!< "<profile or generator>/<strategy>"
    Generator gen;
    const workload::SpecProfile *profile = nullptr;
    core::Strategy strategy;
};

std::vector<Cell>
workloadCells(const std::string &workload)
{
    using core::Strategy;
    std::vector<Cell> cells;
    auto spec = [&](const std::string &profile, Strategy s) {
        cells.push_back({profile + "/" + core::strategyName(s),
                         Generator::kSpec,
                         &workload::specProfile(profile), s});
    };
    if (workload == "spec-revoke") {
        for (const char *p : {"omnetpp", "xalancbmk"})
            for (Strategy s : {Strategy::kCheriVoke, Strategy::kCornucopia,
                               Strategy::kReloaded})
                spec(p, s);
    } else if (workload == "spec-nosweep") {
        for (const auto &p : workload::specProfiles())
            for (Strategy s : {Strategy::kBaseline, Strategy::kPaintOnly})
                spec(p.name, s);
    } else if (workload == "server") {
        // fig5-7's pgbench set and fig8's gRPC set, default configs.
        for (Strategy s : {Strategy::kBaseline, Strategy::kPaintOnly,
                           Strategy::kCheriVoke, Strategy::kCornucopia,
                           Strategy::kReloaded})
            cells.push_back({std::string("pgbench/") + core::strategyName(s),
                             Generator::kPgbench, nullptr, s});
        for (Strategy s : {Strategy::kBaseline, Strategy::kCheriVoke,
                           Strategy::kCornucopia, Strategy::kReloaded})
            cells.push_back({std::string("grpc/") + core::strategyName(s),
                             Generator::kGrpc, nullptr, s});
    }
    return cells;
}

/**
 * The MachineConfig the cell's generator builds for itself (mirrors
 * runSpecOn, runPgbench and runGrpcQps). Used where the benchmark
 * needs the machine in hand: set-up timing and traced SPEC cells.
 */
core::MachineConfig
cellConfig(const Cell &c, std::uint64_t seed)
{
    core::MachineConfig mc;
    mc.strategy = c.strategy;
    mc.seed = seed;
    switch (c.gen) {
      case Generator::kSpec:
        mc.policy = workload::specPolicy();
        break;
      case Generator::kPgbench:
        mc.policy = workload::pgbenchPolicy();
        mc.l1 = mem::CacheConfig{16 * 1024, 4};
        mc.llc = mem::CacheConfig{128 * 1024, 8};
        break;
      case Generator::kGrpc: {
        const workload::GrpcConfig g;
        mc.policy = workload::grpcPolicy();
        mc.revoker_core_mask = g.server_core_mask;
        mc.revoker_quantum_scale = g.revoker_quantum_scale;
        break;
      }
    }
    return mc;
}

core::RunMetrics
runCell(const Cell &c, std::uint64_t seed)
{
    switch (c.gen) {
      case Generator::kSpec:
        return workload::runSpecOn(c.strategy, *c.profile, seed);
      case Generator::kPgbench:
        return workload::runPgbench(c.strategy, workload::PgbenchConfig{},
                                    seed)
            .metrics;
      case Generator::kGrpc:
        return workload::runGrpcQps(c.strategy, workload::GrpcConfig{},
                                    seed)
            .metrics;
    }
    return {};
}

void
emitCell(const char *kind, const Cell &c, int pass, const CellTime &t,
         const core::RunMetrics &m, const std::string &extra = "")
{
    std::printf("{\"%s\":\"%s\",\"pass\":%d,\"host_s\":%.9f,"
                "\"cpu_s\":%.9f%s,\"metrics\":%s}\n",
                kind, benchutil::jsonEscape(c.name).c_str(), pass, t.wall_s,
                t.cpu_s, extra.c_str(), benchutil::metricsJson(m).c_str());
    std::fflush(stdout);
}

void
modeCells(const std::vector<Cell> &cells, std::uint64_t seed, int passes)
{
    for (int pass = 0; pass < passes; ++pass)
        for (const Cell &c : cells) {
            const CellTimer t;
            const core::RunMetrics m = runCell(c, seed);
            emitCell("cell", c, pass, t.elapsed(), m);
        }
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("{\"done\":true,\"passes\":%d,\"peak_rss_kb\":%ld}\n",
                passes, ru.ru_maxrss);
}

/** Build and destroy one Machine per cell. */
void
constructMachines(const std::vector<Cell> &cells, std::uint64_t seed)
{
    for (const Cell &c : cells) {
        core::Machine m(cellConfig(c, seed));
        g_sink = g_sink + m.config().seed;
    }
}

// --- traced pass ----------------------------------------------------

struct SchedCounts
{
    std::uint64_t thread_runs = 0, preempts = 0, stw_windows = 0;
    std::uint64_t dropped = 0;
};

SchedCounts
countSchedEvents(const trace::Tracer &tr)
{
    SchedCounts n;
    for (unsigned tid = 0; tid < tr.numThreads(); ++tid) {
        const trace::TraceBuffer *b = tr.buffer(tid);
        if (b == nullptr)
            continue;
        b->forEach([&](const trace::Event &e) {
            switch (e.type) {
              case trace::EventType::kThreadRun:
                ++n.thread_runs;
                break;
              case trace::EventType::kThreadPreempt:
                ++n.preempts;
                break;
              case trace::EventType::kStwBegin:
                ++n.stw_windows;
                break;
              default:
                break;
            }
        });
    }
    n.dropped = tr.totalDropped();
    return n;
}

/** Ring capacity for traced SPEC cells: large enough that no
 *  scheduler event of a figure cell is dropped. */
constexpr std::size_t kTraceRingEvents = std::size_t{1} << 21;

void
runTracedPass(const std::vector<Cell> &cells, std::uint64_t seed)
{
    // Generators build their own MachineConfig, whose defaults read
    // these; the SPEC machines below are built here so their tracer
    // can be read back.
    setenv("CREV_TRACE", "1", 1);
    setenv("CREV_ORACLE", "1", 1);
    for (const Cell &c : cells) {
        const CellTimer timer;
        if (c.gen == Generator::kSpec) {
            core::MachineConfig mc = cellConfig(c, seed);
            mc.trace_buffer_events = kTraceRingEvents;
            core::Machine m(mc);
            workload::runSpec(m, *c.profile);
            const core::RunMetrics rm = m.metrics();
            const CellTime t = timer.elapsed();
            const SchedCounts n = countSchedEvents(*m.tracerOrNull());
            char extra[160];
            std::snprintf(extra, sizeof extra,
                          ",\"sched\":{\"thread_runs\":%llu,"
                          "\"preempts\":%llu,\"stw_windows\":%llu,"
                          "\"dropped\":%llu}",
                          (unsigned long long)n.thread_runs,
                          (unsigned long long)n.preempts,
                          (unsigned long long)n.stw_windows,
                          (unsigned long long)n.dropped);
            emitCell("traced", c, 0, t, rm, extra);
        } else {
            const core::RunMetrics rm = runCell(c, seed);
            emitCell("traced", c, 0, timer.elapsed(), rm);
        }
    }
    unsetenv("CREV_TRACE");
    unsetenv("CREV_ORACLE");
}

/** Baseline cells the fig. 1/fig. 4 paper anchors divide by, for SPEC
 *  profiles the workload runs without one (untimed). */
void
runAnchorBaselines(const std::vector<Cell> &cells, std::uint64_t seed)
{
    std::set<const workload::SpecProfile *> have;
    for (const Cell &c : cells)
        if (c.gen == Generator::kSpec &&
            c.strategy == core::Strategy::kBaseline)
            have.insert(c.profile);
    for (const Cell &c : cells) {
        if (c.gen != Generator::kSpec || !have.insert(c.profile).second)
            continue;
        const Cell base{c.profile->name + "/baseline", Generator::kSpec,
                        c.profile, core::Strategy::kBaseline};
        emitCell("anchor_base", base, 0, CellTime{}, runCell(base, seed));
    }
}

// --- per-layer drivers ------------------------------------------------

/** Named host ns-per-call results of one driver run. */
using Timings = std::vector<std::pair<const char *, double>>;

/** Run a driver three times and emit each timing's median. */
void
emitMedians(const std::function<Timings()> &driver)
{
    constexpr int kReps = 3;
    std::vector<Timings> runs;
    for (int i = 0; i < kReps; ++i)
        runs.push_back(driver());
    for (std::size_t k = 0; k < runs[0].size(); ++k) {
        std::vector<double> v;
        for (const Timings &t : runs)
            v.push_back(t[k].second);
        std::sort(v.begin(), v.end());
        std::printf("{\"driver\":\"%s\",\"ns\":%.6f}\n", runs[0][k].first,
                    v[kReps / 2]);
    }
    std::fflush(stdout);
}

/** mem::MemorySystem::access on a machine's own memory system, over a
 *  random 8-byte stream across @p pages pages. */
Timings
driveMem(std::size_t pages, std::uint64_t seed)
{
    core::MachineConfig cfg;
    cfg.strategy = core::Strategy::kBaseline;
    core::Machine m(cfg);
    mem::MemorySystem &ms = m.memorySystem();
    std::mt19937_64 rng(seed);
    constexpr std::size_t kN = std::size_t{1} << 20;
    std::vector<Addr> addrs(kN);
    const Addr span = std::max<std::size_t>(pages, 1) * kPageSize;
    for (auto &a : addrs)
        a = (rng() % (span / 8)) * 8;
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kN; ++i) // warm the caches
        sum += ms.access(3, addrs[i], 8, i % 3 == 0);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kN; ++i)
        sum += ms.access(3, addrs[i], 8, i % 3 == 0);
    const double s = secondsSince(t0);
    g_sink = g_sink + sum;
    return {{"mem.ns_per_access", s * 1e9 / kN}};
}

/** core::Mutator data/capability loads and stores into vm::Mmu, on
 *  random 64-byte objects of a 4096-object heap (baseline strategy:
 *  no revoker runs). */
Timings
driveVm(std::uint64_t seed)
{
    core::MachineConfig cfg;
    cfg.strategy = core::Strategy::kBaseline;
    core::Machine m(cfg);
    Timings r;
    m.spawnMutator("vm-driver", 1u << 3, [&](core::Mutator &ctx) {
        constexpr std::size_t kObjs = 4096, kOps = 200000;
        std::vector<cap::Capability> objs;
        for (std::size_t i = 0; i < kObjs; ++i) {
            objs.push_back(ctx.malloc(64));
            ctx.store64(objs.back(), 0, i);
        }
        std::mt19937_64 rng(seed);
        std::vector<std::uint32_t> idx(kOps);
        for (auto &i : idx)
            i = static_cast<std::uint32_t>(rng() % kObjs);
        std::uint64_t sum = 0;
        auto timed = [&](const char *name, auto op) {
            const auto t0 = Clock::now();
            for (std::size_t i = 0; i < kOps; ++i)
                op(objs[idx[i]], i);
            r.emplace_back(name, secondsSince(t0) * 1e9 / kOps);
        };
        timed("vm.ns_per_store", [&](const cap::Capability &c, std::size_t i) {
            ctx.store64(c, 0, i);
        });
        timed("vm.ns_per_load", [&](const cap::Capability &c, std::size_t) {
            sum += ctx.load64(c, 0);
        });
        timed("vm.ns_per_store_cap",
              [&](const cap::Capability &c, std::size_t i) {
                  ctx.storeCap(c, 16, objs[i % kObjs]);
              });
        timed("vm.ns_per_load_cap",
              [&](const cap::Capability &c, std::size_t) {
                  sum += ctx.loadCap(c, 16).base;
              });
        g_sink = g_sink + sum;
    });
    m.run();
    return r;
}

/** The shipping epoch shape of the sweep harness — fast paths, decode
 *  memo, pre-scan — in each tag-population regime. */
Timings
driveSweep()
{
    using benchutil::SweepRegime;
    Timings r;
    for (const auto &[name, regime] :
         {std::pair{"revoker.ns_per_page.clean", SweepRegime::kClean},
          std::pair{"revoker.ns_per_page.sparse", SweepRegime::kSparse},
          std::pair{"revoker.ns_per_page.full", SweepRegime::kFull},
          std::pair{"revoker.ns_per_page.revoke_dense",
                    SweepRegime::kRevokeDense}})
        r.emplace_back(name, benchutil::measureSweepRegime(
                                 regime, true, 64, 40, true, true)
                                 .host_ns_per_page);
    return r;
}

/** Mutator::malloc + Mutator::free under baseline (no quarantine), at
 *  a 1024-object live set drawn from @p bins. */
Timings
driveAlloc(const std::vector<workload::SizeBin> &bins, std::uint64_t seed)
{
    core::MachineConfig cfg;
    cfg.strategy = core::Strategy::kBaseline;
    core::Machine m(cfg);
    double ns = 0;
    m.spawnMutator("alloc-driver", 1u << 3, [&](core::Mutator &ctx) {
        constexpr std::size_t kLive = 1024, kOps = 50000;
        std::mt19937_64 rng(seed);
        double total_w = 0;
        for (const auto &b : bins)
            total_w += b.weight;
        std::uniform_real_distribution<double> u(0.0, total_w);
        auto pick = [&] {
            double x = u(rng);
            for (const auto &b : bins) {
                if (x < b.weight)
                    return b.size;
                x -= b.weight;
            }
            return bins.back().size;
        };
        std::vector<cap::Capability> live;
        for (std::size_t i = 0; i < kLive; ++i)
            live.push_back(ctx.malloc(pick()));
        std::vector<std::size_t> sizes(kOps), slots(kOps);
        for (std::size_t i = 0; i < kOps; ++i) {
            sizes[i] = pick();
            slots[i] = rng() % kLive;
        }
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < kOps; ++i) {
            ctx.free(live[slots[i]]);
            live[slots[i]] = ctx.malloc(sizes[i]);
        }
        ns = secondsSince(t0) * 1e9 / kOps;
    });
    m.run();
    return {{"alloc.ns_per_malloc_free", ns}};
}

/** Two mutators sharing one core, each computing a full preemption
 *  quantum per step, so every step hands the token over. Host ns per
 *  thread run; the run count comes from an identical traced machine
 *  (tracing never changes scheduling). */
Timings
driveSwitch()
{
    constexpr int kSteps = 20000;
    auto build = [](bool traced) {
        core::MachineConfig cfg;
        cfg.strategy = core::Strategy::kBaseline;
        cfg.trace = traced;
        cfg.trace_buffer_events = kTraceRingEvents;
        auto m = std::make_unique<core::Machine>(cfg);
        const Cycles q = cfg.costs.quantum;
        for (const char *name : {"ping", "pong"})
            m->spawnMutator(name, 1u << 3, [q](core::Mutator &ctx) {
                for (int i = 0; i < kSteps; ++i)
                    ctx.compute(q);
            });
        return m;
    };
    auto traced = build(true);
    traced->run();
    const SchedCounts n = countSchedEvents(*traced->tracerOrNull());
    traced.reset();
    auto m = build(false);
    const auto t0 = Clock::now();
    m->run();
    const double s = secondsSince(t0);
    return {{"sim.ns_per_switch",
             n.thread_runs > 0 ? s * 1e9 / static_cast<double>(n.thread_runs)
                               : 0.0}};
}

/** cap::encode / cap::decode over 4096 representable capabilities of
 *  mixed lengths. */
Timings
driveCap(std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    constexpr std::size_t kCaps = 4096, kIters = 1u << 21;
    std::vector<cap::Capability> caps(kCaps);
    for (auto &c : caps) {
        const Addr len = Addr{16} << (rng() % 20);
        const Addr align = cap::representableAlignment(len);
        c.base = roundUp((rng() % (Addr{1} << 40)) + 1, align);
        c.top = c.base + cap::representableLength(len);
        c.address = c.base + (rng() % len);
        c.perms = cap::kPermAll;
        c.tag = true;
    }
    std::vector<cap::CapBits> bits(kCaps);
    for (std::size_t i = 0; i < kCaps; ++i)
        bits[i] = cap::encode(caps[i]);
    std::uint64_t sum = 0;
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < kIters; ++i)
        sum += cap::decode(bits[i % kCaps], true).base;
    const double decode = secondsSince(t0) * 1e9 / kIters;
    t0 = Clock::now();
    for (std::size_t i = 0; i < kIters; ++i) {
        const cap::CapBits b = cap::encode(caps[i % kCaps]);
        sum += b.hi ^ b.lo;
    }
    const double encode = secondsSince(t0) * 1e9 / kIters;
    g_sink = g_sink + sum;
    return {{"cap.ns_per_decode", decode}, {"cap.ns_per_encode", encode}};
}

/** Machine construction plus destruction, averaged over the cells'
 *  own configs. */
Timings
driveMachine(const std::vector<Cell> &cells, std::uint64_t seed)
{
    const auto t0 = Clock::now();
    constructMachines(cells, seed);
    return {{"core.ns_per_machine",
             secondsSince(t0) * 1e9 / static_cast<double>(cells.size())}};
}

std::vector<workload::SizeBin>
allocBins(const std::vector<Cell> &cells)
{
    std::vector<workload::SizeBin> bins;
    for (const Cell &c : cells)
        if (c.gen == Generator::kSpec)
            bins.insert(bins.end(), c.profile->sizes.begin(),
                        c.profile->sizes.end());
    if (bins.empty()) // pgbench transaction and gRPC message sizes
        for (std::size_t s : {128, 256, 512, 1024, 2048})
            bins.push_back({s, 1.0});
    return bins;
}

void
runDrivers(const std::vector<Cell> &cells, std::uint64_t seed,
           std::size_t rss_pages)
{
    const auto bins = allocBins(cells);
    emitMedians([&] { return driveMem(rss_pages, seed); });
    emitMedians([&] { return driveVm(seed); });
    emitMedians(driveSweep);
    emitMedians([&] { return driveAlloc(bins, seed); });
    emitMedians(driveSwitch);
    emitMedians([&] { return driveCap(seed); });
    emitMedians([&] { return driveMachine(cells, seed); });
}

void
modeTrace(const std::vector<Cell> &cells, std::uint64_t seed)
{
    std::size_t rss_pages = 0;
    for (const Cell &c : cells) {
        const CellTimer t;
        const core::RunMetrics m = runCell(c, seed);
        emitCell("cell", c, 0, t.elapsed(), m);
        rss_pages = std::max(rss_pages, m.peak_rss_pages);
    }
    runTracedPass(cells, seed);
    runAnchorBaselines(cells, seed);
    runDrivers(cells, seed, rss_pages);
    std::printf("{\"done\":true}\n");
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: hostbench_cells cells|setup|trace --workload W "
                 "--seed N [--passes K]\n"
                 "       hostbench_cells host\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string mode = argv[1];
    if (mode == "host") {
        std::printf("{\"compiler\":\"%s %s\",\"build_type\":\"%s\"}\n",
#if defined(__clang__)
                    "clang",
#elif defined(__GNUC__)
                    "gcc",
#else
                    "unknown",
#endif
                    __VERSION__, HOSTBENCH_BUILD_TYPE);
        return 0;
    }
    std::string workload;
    std::uint64_t seed = 1;
    int passes = 1;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        if (k == "--workload")
            workload = argv[i + 1];
        else if (k == "--seed")
            seed = std::strtoull(argv[i + 1], nullptr, 10);
        else if (k == "--passes")
            passes = std::max(1, std::atoi(argv[i + 1]));
        else
            usage();
    }
    const std::vector<Cell> cells = workloadCells(workload);
    if (cells.empty()) {
        std::fprintf(stderr, "hostbench_cells: no cells for workload '%s'\n",
                     workload.c_str());
        return 2;
    }
    if (mode == "cells")
        modeCells(cells, seed, passes);
    else if (mode == "setup")
        constructMachines(cells, seed);
    else if (mode == "trace")
        modeTrace(cells, seed);
    else
        usage();
    return 0;
}
