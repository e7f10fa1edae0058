/**
 * @file
 * The host-performance trajectory bench: runs the union of the
 * fig1-fig9 simulation cells serially and then across the host thread
 * pool, measures the sweep microbench regimes, and writes everything
 * to BENCH_TRAJECTORY.json (machine-
 * readable; see DESIGN.md §9 for how to read BENCH_*.json files).
 * The trajectory file *accumulates*: each run appends one entry to
 * the top-level "runs" array, so successive PRs' CI artifacts form a
 * host-performance time series under one stable name instead of a
 * per-PR BENCH_PRn.json. Per-cell metrics are the full
 * MetricsRegistry export (counters/gauges/histograms).
 *
 * Simulated results are identical in every mode — this binary measures
 * how fast the *simulator* runs, and doubles as a regression gate for
 * the determinism contract (it fails loudly if simulated cycles per
 * page vary across sweep trials, or if any two e2e legs disagree).
 *
 * Usage: bench_all [--quick] [--out FILE] [--label NAME] [--threads N]
 *   --quick: small cell set for CI smoke runs.
 *   --label: name recorded for this run's entry (default "local").
 *   --threads: host threads for the parallel e2e leg (default: the
 *     CREV_BENCH_THREADS/affinity-derived benchThreads()).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_runner.h"
#include "bench_util.h"
#include "core/machine.h"
#include "workload/grpc_qps.h"
#include "workload/pgbench.h"
#include "workload/spec.h"

using namespace crev;
using benchutil::CellResult;
using benchutil::ParallelRunner;
using benchutil::SweepRegime;
using benchutil::SweepRegimeResult;

namespace {

struct RegimeRow
{
    SweepRegime regime;
    SweepRegimeResult fast;
    bool sim_cycles_match = true; //!< equal across every trial
};

void
addCells(ParallelRunner &runner, bool quick)
{
    // SPEC-like profiles (figs 1-4, 9). Quick mode keeps the two
    // fastest revoking profiles and the headline strategies.
    std::vector<std::string> profiles;
    std::vector<core::Strategy> spec_strategies;
    if (quick) {
        profiles = {"hmmer_retro", "astar"};
        spec_strategies = {core::Strategy::kBaseline,
                           core::Strategy::kCornucopia,
                           core::Strategy::kReloaded};
    } else {
        for (const auto &p : workload::specProfiles())
            profiles.push_back(p.name);
        spec_strategies = {core::Strategy::kBaseline};
        spec_strategies.insert(spec_strategies.end(),
                               benchutil::kSafeAndPaint.begin(),
                               benchutil::kSafeAndPaint.end());
    }
    for (const auto &name : profiles)
        for (core::Strategy s : spec_strategies)
            runner.add("spec/" + name + "/" + core::strategyName(s),
                       [s, name] {
                           return workload::runSpecOn(
                               s, workload::specProfile(name));
                       });

    // pgbench (figs 5-7, 9) and gRPC QPS (figs 8-9).
    std::vector<core::Strategy> srv_strategies{
        core::Strategy::kBaseline};
    if (quick) {
        srv_strategies.push_back(core::Strategy::kReloaded);
    } else {
        srv_strategies.insert(srv_strategies.end(),
                              benchutil::kSafeAndPaint.begin(),
                              benchutil::kSafeAndPaint.end());
    }
    for (core::Strategy s : srv_strategies)
        runner.add(std::string("pgbench/") + core::strategyName(s),
                   [s] {
                       workload::PgbenchConfig cfg;
                       return workload::runPgbench(s, cfg).metrics;
                   });
    if (!quick)
        for (core::Strategy s :
             {core::Strategy::kBaseline, core::Strategy::kCheriVoke,
              core::Strategy::kCornucopia, core::Strategy::kReloaded})
            runner.add(std::string("grpc/") + core::strategyName(s),
                       [s] {
                           workload::GrpcConfig cfg;
                           return workload::runGrpcQps(s, cfg).metrics;
                       });
}

double
timedRun(bool quick, unsigned threads, const std::string &cost_file,
         std::vector<CellResult> *results_out)
{
    ParallelRunner runner;
    runner.setCostFile(cost_file);
    addCells(runner, quick);
    const auto start = std::chrono::steady_clock::now();
    auto results = runner.run(threads);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    if (results_out != nullptr)
        *results_out = std::move(results);
    return secs;
}

/**
 * Previously accumulated run entries from an existing trajectory
 * file: the text between "runs": [ and the final ], trimmed. Empty
 * when the file is missing or not in the trajectory format.
 */
std::string
readPreviousRuns(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return "";
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);

    const std::string open = "\"runs\": [";
    const auto begin = text.find(open);
    const auto end = text.rfind(']');
    if (begin == std::string::npos || end == std::string::npos ||
        end <= begin)
        return "";
    std::string runs = text.substr(begin + open.size(),
                                   end - begin - open.size());
    const auto first = runs.find_first_not_of(" \n\t");
    const auto last = runs.find_last_not_of(" \n\t");
    if (first == std::string::npos)
        return "";
    return runs.substr(first, last - first + 1);
}

/** The simulated-result fields compared across host configurations
 *  and trials: a summary fingerprint of the run. */
bool
sameMetrics(const core::RunMetrics &a, const core::RunMetrics &b)
{
    return a.wall_cycles == b.wall_cycles &&
           a.cpu_cycles == b.cpu_cycles &&
           a.bus_transactions_total == b.bus_transactions_total &&
           a.peak_rss_pages == b.peak_rss_pages &&
           a.epochs.size() == b.epochs.size() &&
           a.sweep.caps_revoked == b.sweep.caps_revoked;
}

/** Simulated results must be identical across host configurations. */
bool
sameSimResults(const std::vector<CellResult> &a,
               const std::vector<CellResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].name != b[i].name ||
            !sameMetrics(a[i].metrics, b[i].metrics)) {
            std::fprintf(stderr,
                         "FAIL: cell %s simulated results differ "
                         "across host configurations\n",
                         a[i].name.c_str());
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string out_path = "BENCH_TRAJECTORY.json";
    std::string label = "local";
    unsigned threads_flag = 0; // 0 = benchThreads()
    const auto parseCount = [](const char *s) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(s, &end, 10);
        if (end == s || *end != '\0' || v == 0 || v > 1024) {
            std::fprintf(stderr, "bench_all: bad thread count '%s'\n",
                         s);
            std::exit(2);
        }
        return static_cast<unsigned>(v);
    };
    // Anything unknown or a missing value is rejected before any cell
    // runs, so a mistyped flag cannot append a full-size run.
    for (int i = 1; i < argc; ++i) {
        const bool has_value = i + 1 < argc;
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--out") == 0 && has_value)
            out_path = argv[++i];
        else if (std::strcmp(argv[i], "--label") == 0 && has_value)
            label = argv[++i];
        else if (std::strcmp(argv[i], "--threads") == 0 && has_value)
            threads_flag = parseCount(argv[++i]);
        else {
            std::fprintf(stderr,
                         "bench_all: bad argument '%s'\n"
                         "usage: bench_all [--quick] [--out FILE] "
                         "[--label NAME] [--threads N]\n",
                         argv[i]);
            return 2;
        }
    }

    benchutil::banner("Host-performance trajectory (bench_all)",
                      "simulator host perf; no paper figure");

    // --- sweep microbench: four tag regimes ---
    const std::size_t pages = quick ? 16 : 64;
    const std::size_t repeats = quick ? 10 : 40;
    // Host timings on a shared box are noisy; each measurement window
    // is only tens of milliseconds. Measure over several trials and
    // keep the minimum (the least-disturbed run). Simulated cycles
    // must be identical across every trial.
    const std::size_t trials = quick ? 2 : 5;
    std::vector<RegimeRow> regimes;
    bool determinism_ok = true;
    for (SweepRegime r :
         {SweepRegime::kClean, SweepRegime::kSparse, SweepRegime::kFull,
          SweepRegime::kRevokeDense}) {
        RegimeRow row;
        row.regime = r;
        std::fprintf(stderr, "  sweep regime %s (%zu trials)...\n",
                     benchutil::sweepRegimeName(r), trials);
        for (std::size_t k = 0; k < trials; ++k) {
            const auto fast = benchutil::measureSweepRegime(
                r, true, pages, repeats);
            if (k == 0) {
                row.fast = fast;
                continue;
            }
            row.fast.host_ns_per_page = std::min(
                row.fast.host_ns_per_page, fast.host_ns_per_page);
            if (fast.sim_cycles_per_page !=
                row.fast.sim_cycles_per_page) {
                std::fprintf(stderr,
                             "FAIL: regime %s simulated cycles vary "
                             "across trials\n",
                             benchutil::sweepRegimeName(r));
                row.sim_cycles_match = false;
            }
        }
        determinism_ok = determinism_ok && row.sim_cycles_match;
        regimes.push_back(row);
    }

    std::printf("sweep microbench (host ns/page, %zu pages x %zu "
                "repeats):\n",
                pages, repeats);
    std::printf("  %-12s %12s %16s\n", "regime", "host ns",
                "sim cycles/page");
    for (const auto &row : regimes)
        std::printf("  %-12s %12.1f %16.1f\n",
                    benchutil::sweepRegimeName(row.regime),
                    row.fast.host_ns_per_page,
                    row.fast.sim_cycles_per_page);

    // --- end-to-end cell set, two host configurations ---
    // serial runs the cells one after another on one host thread;
    // parallel spreads them across the thread pool. Simulated results
    // must be identical in every leg. Two interleaved rounds, minimum
    // kept per configuration — the same noise treatment as the
    // microbench.
    const unsigned threads = threads_flag != 0
                                 ? threads_flag
                                 : benchutil::benchThreads();
    const std::size_t rounds = 2;
    double serial_secs = 0, parallel_secs = 0;
    std::vector<CellResult> cells;
    for (std::size_t round = 0; round < rounds; ++round) {
        std::fprintf(stderr, "  e2e round %zu/%zu: 1 host thread...\n",
                     round + 1, rounds);
        std::vector<CellResult> sc;
        const double s = timedRun(quick, 1, out_path, &sc);
        std::fprintf(stderr,
                     "  e2e round %zu/%zu: %u host threads...\n",
                     round + 1, rounds, threads);
        std::vector<CellResult> pc;
        const double p = timedRun(quick, threads, out_path, &pc);
        determinism_ok = determinism_ok && sameSimResults(sc, pc);
        if (round == 0) {
            serial_secs = s;
            parallel_secs = p;
            cells = std::move(pc);
        } else {
            serial_secs = std::min(serial_secs, s);
            parallel_secs = std::min(parallel_secs, p);
            determinism_ok = determinism_ok &&
                             sameSimResults(cells, sc) &&
                             sameSimResults(cells, pc);
        }
    }

    std::printf("\nend-to-end cell set (%zu cells):\n", cells.size());
    std::printf("  1 host thread:    %.2fs\n", serial_secs);
    std::printf("  %2u host threads:  %.2fs (%.2fx)\n", threads,
                parallel_secs, serial_secs / parallel_secs);

    // --- BENCH_TRAJECTORY.json (accumulating) ---
    const std::string prev_runs = readPreviousRuns(out_path);
    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"bench_all\",\n");
    std::fprintf(f, "  \"runs\": [\n");
    if (!prev_runs.empty())
        std::fprintf(f, "    %s,\n", prev_runs.c_str());
    std::fprintf(f, "    {\n      \"label\": \"%s\",\n",
                 benchutil::jsonEscape(label).c_str());
    std::fprintf(f, "      \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(f, "      \"host_threads\": %u,\n", threads);
    std::fprintf(f, "      \"host\": %s,\n",
                 benchutil::hostFingerprintJson().c_str());
    std::fprintf(f, "      \"sweep_microbench\": [\n");
    for (std::size_t i = 0; i < regimes.size(); ++i) {
        const auto &row = regimes[i];
        std::fprintf(
            f,
            "        {\"regime\": \"%s\", "
            "\"fast_ns_per_page\": %.2f, "
            "\"sim_cycles_per_page\": %.2f, "
            "\"sim_cycles_match\": %s}%s\n",
            benchutil::sweepRegimeName(row.regime),
            row.fast.host_ns_per_page, row.fast.sim_cycles_per_page,
            row.sim_cycles_match ? "true" : "false",
            i + 1 < regimes.size() ? "," : "");
    }
    std::fprintf(f, "      ],\n");
    std::fprintf(f,
                 "      \"end_to_end\": {\"cells\": %zu, "
                 "\"fast_serial_seconds\": %.3f, "
                 "\"fast_parallel_seconds\": %.3f, "
                 "\"parallel_speedup\": %.3f, "
                 "\"sim_results_match\": %s},\n",
                 cells.size(), serial_secs, parallel_secs,
                 serial_secs / parallel_secs,
                 determinism_ok ? "true" : "false");
    std::fprintf(f, "      \"cells\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i)
        std::fprintf(f,
                     "        {\"name\": \"%s\", "
                     "\"host_seconds\": %.4f, "
                     "\"metrics\": %s}%s\n",
                     benchutil::jsonEscape(cells[i].name).c_str(),
                     cells[i].host_seconds,
                     benchutil::metricsJson(cells[i].metrics).c_str(),
                     i + 1 < cells.size() ? "," : "");
    std::fprintf(f, "      ]\n    }\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%s run entries)\n", out_path.c_str(),
                prev_runs.empty() ? "1" : "appended to prior");

    if (!determinism_ok) {
        std::fprintf(stderr,
                     "bench_all: determinism violated\n");
        return 1;
    }
    return 0;
}
