/**
 * @file
 * The host-performance trajectory bench: measures the sweep microbench
 * regimes, runs the figure cell catalogue (figureCells()) on one host
 * thread and then across the thread pool, and writes everything to
 * BENCH_TRAJECTORY.json (machine-readable; see DESIGN.md §9 for how to
 * read BENCH_*.json files). The trajectory file *accumulates*: each
 * run appends one entry to the top-level "runs" array, so successive
 * commits' CI artifacts form a host-performance time series under one
 * stable name. Each cell is recorded as its name, host seconds and a
 * digest of its full MetricsRegistry export.
 *
 * Simulated results are identical in every mode — this binary measures
 * how fast the *simulator* runs, and doubles as a regression gate for
 * the determinism contract (it fails loudly if simulated cycles per
 * page vary across sweep trials, or if any cell's digest differs
 * between two e2e legs).
 *
 * Usage: bench_all [--quick] [--out FILE] [--label NAME]
 *   --quick: small cell set for CI smoke runs.
 *   --label: name recorded for this run's entry (default "local").
 * The parallel leg runs on CREV_BENCH_THREADS host threads (default:
 * the affinity-derived benchThreads()).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_runner.h"
#include "bench_util.h"
#include "core/machine.h"

using namespace crev;
using benchutil::SweepRegime;
using benchutil::SweepRegimeResult;

namespace {

struct RegimeRow
{
    SweepRegime regime;
    SweepRegimeResult fast;
    bool sim_cycles_match = true; //!< equal across every trial
};

/** One cell of an e2e leg, as recorded in the trajectory. */
struct CellRecord
{
    std::string name;
    double host_seconds;
    std::string digest; //!< FNV-1a-64 of the cell's metricsJson()
};

std::string
digest(const core::RunMetrics &m)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : benchutil::metricsJson(m)) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

/** Run the figure cells on @p threads host threads; returns the
 *  leg's wall seconds. */
double
runLeg(bool quick, unsigned threads, std::vector<CellRecord> *cells)
{
    benchutil::CellRunner runner;
    runner.request(benchutil::figureCells(quick));
    const auto start = std::chrono::steady_clock::now();
    runner.run(threads);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    cells->clear();
    for (const auto &r : runner.results())
        cells->push_back({r.name, r.host_seconds, digest(r.metrics)});
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

/** Simulated results must be identical across host configurations:
 *  the same cells in the same order with equal digests. */
bool
sameSimResults(const std::vector<CellRecord> &a,
               const std::vector<CellRecord> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].name != b[i].name || a[i].digest != b[i].digest) {
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
        else {
            std::fprintf(stderr,
                         "bench_all: bad argument '%s'\n"
                         "usage: bench_all [--quick] [--out FILE] "
                         "[--label NAME]\n",
                         argv[i]);
            return 2;
        }
    }

    // A malformed CREV_BENCH_THREADS exits here, before any work.
    const unsigned threads = benchutil::benchThreads();

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
    const std::size_t rounds = 2;
    double serial_secs = 0, parallel_secs = 0;
    std::vector<CellRecord> cells;
    for (std::size_t round = 0; round < rounds; ++round) {
        std::fprintf(stderr, "  e2e round %zu/%zu: 1 host thread...\n",
                     round + 1, rounds);
        std::vector<CellRecord> sc;
        const double s = runLeg(quick, 1, &sc);
        std::fprintf(stderr,
                     "  e2e round %zu/%zu: %u host threads...\n",
                     round + 1, rounds, threads);
        std::vector<CellRecord> pc;
        const double p = runLeg(quick, threads, &pc);
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
                     "\"digest\": \"%s\"}%s\n",
                     benchutil::jsonEscape(cells[i].name).c_str(),
                     cells[i].host_seconds, cells[i].digest.c_str(),
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
