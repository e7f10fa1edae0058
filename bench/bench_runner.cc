#include "bench_runner.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <unistd.h>
#if defined(__linux__)
#include <sched.h>
#endif

#include "base/logging.h"
#include "core/mutator.h"
#include "revoker/bitmap.h"
#include "revoker/sweep.h"
#include "trace/metrics_registry.h"
#include "workload/spec.h"

/** CMAKE_BUILD_TYPE of the build, for the host fingerprint. */
#ifndef CREV_BUILD_TYPE
#define CREV_BUILD_TYPE "unknown"
#endif

namespace crev::benchutil {

namespace {

/** Run a catalogue cell at its default config. */
CellResult
runCell(const CellKey &key)
{
    switch (key.workload) {
      case Workload::kSpec:
        return workload::runSpecOn(key.strategy,
                                   workload::specProfile(key.profile));
      case Workload::kPgbench:
        return workload::runPgbench(key.strategy,
                                    workload::PgbenchConfig{});
      case Workload::kGrpc:
        return workload::runGrpcQps(key.strategy,
                                    workload::GrpcConfig{});
    }
    return {};
}

} // namespace

unsigned
benchThreads()
{
    if (const char *env = std::getenv("CREV_BENCH_THREADS")) {
        // Plain decimal only: strtoul alone would read "4x" as 4 and
        // "abc" as 0, silently changing what the run measures.
        const std::size_t len = std::strlen(env);
        const bool digits =
            len != 0 && std::strspn(env, "0123456789") == len;
        const unsigned long n =
            digits ? std::strtoul(env, nullptr, 10) : 0;
        if (n == 0 || n > 1024) {
            std::fprintf(stderr,
                         "CREV_BENCH_THREADS: expected a host thread "
                         "count in 1..1024, got '%s'\n",
                         env);
            std::exit(2);
        }
        return static_cast<unsigned>(n);
    }
    unsigned hw = std::thread::hardware_concurrency();
#if defined(__linux__)
    // hardware_concurrency() reports the machine, not the cpuset this
    // process is confined to; oversubscribing a pinned container makes
    // "parallel" runs strictly slower than serial ones.
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const unsigned usable = static_cast<unsigned>(CPU_COUNT(&set));
        if (usable != 0 && (hw == 0 || usable < hw))
            hw = usable;
    }
#endif
    return hw != 0 ? hw : 1;
}

std::string
CellKey::name() const
{
    const std::string s = core::strategyName(strategy);
    switch (workload) {
      case Workload::kSpec:
        return "spec/" + profile + "/" + s;
      case Workload::kPgbench:
        return "pgbench/" + s;
      case Workload::kGrpc:
        return "grpc/" + s;
    }
    return s;
}

CellKey
specCell(const std::string &profile, core::Strategy s)
{
    return CellKey{Workload::kSpec, profile, s};
}

CellKey
pgbenchCell(core::Strategy s)
{
    return CellKey{Workload::kPgbench, "", s};
}

CellKey
grpcCell(core::Strategy s)
{
    return CellKey{Workload::kGrpc, "", s};
}

std::vector<std::string>
specNames()
{
    std::vector<std::string> names;
    for (const auto &p : workload::specProfiles())
        names.push_back(p.name);
    return names;
}

std::vector<CellKey>
specCells(const std::vector<std::string> &profiles,
          const std::vector<core::Strategy> &strategies)
{
    std::vector<CellKey> keys;
    for (const auto &p : profiles)
        for (core::Strategy s : strategies)
            keys.push_back(specCell(p, s));
    return keys;
}

std::vector<CellKey>
figureCells(bool quick)
{
    using core::Strategy;
    if (quick) {
        auto keys = specCells({"hmmer_retro", "astar"},
                              {Strategy::kBaseline, Strategy::kCornucopia,
                               Strategy::kReloaded});
        keys.push_back(pgbenchCell(Strategy::kBaseline));
        keys.push_back(pgbenchCell(Strategy::kReloaded));
        return keys;
    }
    // Profile order puts the slowest cells (xalancbmk, omnetpp) first
    // and the short server cells last, so the runner's request-order
    // start is close to longest-first.
    std::vector<Strategy> all{Strategy::kBaseline};
    all.insert(all.end(), kSafeAndPaint.begin(), kSafeAndPaint.end());
    auto keys = specCells(specNames(), all);
    for (Strategy s : all)
        keys.push_back(pgbenchCell(s));
    for (Strategy s : {Strategy::kBaseline, Strategy::kCheriVoke,
                       Strategy::kCornucopia, Strategy::kReloaded})
        keys.push_back(grpcCell(s));
    return keys;
}

void
CellRunner::request(const CellKey &key)
{
    add(key.name(), [key] { return runCell(key); });
}

void
CellRunner::request(const std::vector<CellKey> &keys)
{
    for (const auto &k : keys)
        request(k);
}

void
CellRunner::add(std::string name, std::function<CellResult()> fn)
{
    if (!index_.emplace(name, results_.size()).second)
        return;
    CellResult slot;
    slot.name = std::move(name);
    results_.push_back(std::move(slot));
    fns_.push_back(std::move(fn));
}

void
CellRunner::run(unsigned threads)
{
    const std::size_t first = ran_;
    const std::size_t n = results_.size() - first;
    if (n == 0)
        return;
    unsigned workers = threads != 0 ? threads : benchThreads();
    if (workers > n)
        workers = static_cast<unsigned>(n);
    std::fprintf(stderr, "  running %zu cells on %u host threads...\n",
                 n, workers);

    // Each cell lands in its own slot, so scheduling never shows in
    // the results; workers take cells in request order.
    const auto runOne = [&](std::size_t i) {
        CellResult &slot = results_[first + i];
        const auto start = std::chrono::steady_clock::now();
        CellResult r = fns_[first + i]();
        r.host_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        r.name = slot.name;
        slot = std::move(r);
    };
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            runOne(i);
    } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back([&] {
                for (;;) {
                    const std::size_t i =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= n)
                        return;
                    runOne(i);
                }
            });
        for (auto &t : pool)
            t.join();
    }
    ran_ = results_.size();
}

const CellResult &
CellRunner::at(const std::string &name) const
{
    const auto it = index_.find(name);
    if (it == index_.end() || it->second >= ran_)
        fatal("bench cell %s was not run", name.c_str());
    return results_[it->second];
}

const char *
sweepRegimeName(SweepRegime r)
{
    switch (r) {
      case SweepRegime::kClean:
        return "clean";
      case SweepRegime::kSparse:
        return "sparse";
      case SweepRegime::kFull:
        return "full";
      case SweepRegime::kRevokeDense:
        return "revoke-dense";
    }
    return "?";
}

SweepRegimeResult
measureSweepRegime(SweepRegime regime, bool /*host_fast_paths*/,
                   std::size_t pages, std::size_t repeats,
                   bool /*memo*/, bool /*with_prescan*/)
{
    core::MachineConfig cfg;
    cfg.strategy = core::Strategy::kBaseline; // no revoker daemon
    core::Machine m(cfg);

    SweepRegimeResult result;
    m.spawnMutator("sweep-harness", 1u << 3, [&](core::Mutator &ctx) {
        // One arena spanning `pages` whole pages (plus alignment
        // slack), faulted in up front so the sweep never demand-zeros.
        const std::size_t arena = (pages + 1) * kPageSize;
        const cap::Capability c = ctx.malloc(arena);
        const Addr first_page = roundUp(c.base, kPageSize);
        const Addr off0 = first_page - c.base;
        for (std::size_t p = 0; p < pages; ++p)
            ctx.store64(c, off0 + p * kPageSize, 1);

        const cap::Capability v = ctx.malloc(64);
        const bool revoke_dense = regime == SweepRegime::kRevokeDense;
        const std::size_t caps_per_page =
            regime == SweepRegime::kClean    ? 0
            : regime == SweepRegime::kSparse ? 8
            : revoke_dense                   ? 64
                                             : kGranulesPerPage;
        const std::size_t stride =
            caps_per_page == 0 ? 0 : kGranulesPerPage / caps_per_page;
        auto armPages = [&] {
            for (std::size_t p = 0; p < pages; ++p)
                for (std::size_t k = 0; k < caps_per_page; ++k)
                    ctx.storeCap(c,
                                 off0 + p * kPageSize +
                                     k * stride * kGranuleSize,
                                 v);
        };
        armPages();

        // Revoke-dense paints the victim, so every probe hits and the
        // sweep clears every tag it finds (a quarantine-heavy epoch).
        // The other regimes leave the local bitmap empty: probes read
        // a zero bit, never clear tags, and every repeat sweeps the
        // same population.
        revoker::RevocationBitmap bitmap(ctx.machine().mmu());
        revoker::SweepEngine engine(ctx.machine().mmu(), bitmap);
        sim::SimThread &t = ctx.thread();
        if (revoke_dense)
            bitmap.paint(t, v.base, 64);

        // One untimed warmup pass: faults the sweep's host code and
        // data paths in so the first timed regime isn't cold.
        for (std::size_t p = 0; p < pages; ++p)
            engine.sweepPage(t, first_page + p * kPageSize);

        // Revoke-dense re-arms the tags before each repeat; only the
        // sweep sections are timed (host and simulated alike), so the
        // sim-cycles determinism check still compares pure sweep work.
        double host_secs = 0;
        Cycles sim_cycles = 0;
        for (std::size_t rep = 0; rep < repeats; ++rep) {
            if (revoke_dense)
                armPages();
            const Cycles sim_start = ctx.now();
            const auto host_start = std::chrono::steady_clock::now();
            for (std::size_t p = 0; p < pages; ++p)
                engine.sweepPage(t, first_page + p * kPageSize);
            host_secs += std::chrono::duration<double>(
                             std::chrono::steady_clock::now() -
                             host_start)
                             .count();
            sim_cycles += ctx.now() - sim_start;
        }

        const double total_pages =
            static_cast<double>(pages) * static_cast<double>(repeats);
        result.host_ns_per_page = host_secs * 1e9 / total_pages;
        result.sim_cycles_per_page =
            static_cast<double>(sim_cycles) / total_pages;
        result.pages_swept = engine.stats().pages_swept;
        result.caps_seen = engine.stats().caps_seen;
    });
    m.run();
    return result;
}

std::string
hostFingerprintJson()
{
    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    std::string affinity;
#if defined(__linux__)
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (!CPU_ISSET(c, &set))
                continue;
            if (!affinity.empty())
                affinity += ", ";
            affinity += std::to_string(c);
        }
    }
#endif
    std::string model = "unknown";
    if (std::FILE *f = std::fopen("/proc/cpuinfo", "r")) {
        char line[512];
        while (std::fgets(line, sizeof(line), f) != nullptr) {
            if (std::strncmp(line, "model name", 10) != 0)
                continue;
            const char *colon = std::strchr(line, ':');
            if (colon == nullptr)
                break;
            model = colon + 1;
            model.erase(0, model.find_first_not_of(" \t"));
            model.erase(model.find_last_not_of(" \t\n") + 1);
            break;
        }
        std::fclose(f);
    }
    std::string out = "{\"nproc\": ";
    out += std::to_string(nproc > 0 ? nproc : 0);
    out += ", \"affinity\": [" + affinity + "]";
    out += ", \"cpu_model\": \"" + jsonEscape(model) + "\"";
    out += ", \"compiler\": \"" + jsonEscape(__VERSION__) + "\"";
    out += ", \"build_type\": \"" + jsonEscape(CREV_BUILD_TYPE) + "\"}";
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
        switch (ch) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            out += ch;
        }
    }
    return out;
}

std::string
metricsJson(const core::RunMetrics &m)
{
    trace::MetricsRegistry reg;
    m.exportTo(reg);
    return reg.toJson(/*indent=*/0);
}

} // namespace crev::benchutil
