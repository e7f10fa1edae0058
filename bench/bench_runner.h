/**
 * @file
 * The bench cell catalogue and the one runner every bench binary uses.
 *
 * A *cell* is one (workload x strategy x config) simulation. Cells
 * never share mutable state — each owns its Machine — so they can run
 * concurrently on host threads without affecting any simulated result:
 * every cell's virtual-time execution is bit-identical to a serial
 * run. The figure cells form one catalogue (CellKey, figureCells());
 * ablations add bespoke named cells to the same runner. The runner
 * memoizes by cell name, records host wall-seconds per cell and
 * returns results by key, so bench output is deterministic regardless
 * of scheduling.
 *
 * Also here: the sweep-throughput harness used by the microbenchmarks
 * and BENCH_*.json trajectory files (DESIGN.md §9 describes the file
 * format and the simulated-vs-host cost separation rule).
 */

#ifndef CREV_BENCH_BENCH_RUNNER_H_
#define CREV_BENCH_BENCH_RUNNER_H_

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/machine.h"
#include "stats/summary.h"
#include "workload/grpc_qps.h"
#include "workload/pgbench.h"

namespace crev::benchutil {

/**
 * Worker count for host-parallel benching: the CREV_BENCH_THREADS
 * environment variable when set, else hardware concurrency capped at
 * the process's CPU-affinity set (min 1). A set value that is not a
 * plain decimal in [1, 1024] is an error: the process exits 2.
 */
unsigned benchThreads();

/** Strategies most figures compare (baseline is the denominator). */
inline const std::vector<core::Strategy> kSafe = {
    core::Strategy::kCheriVoke, core::Strategy::kCornucopia,
    core::Strategy::kReloaded};

/** Including Paint+sync (fig. 2, 5-7). */
inline const std::vector<core::Strategy> kSafeAndPaint = {
    core::Strategy::kPaintOnly, core::Strategy::kCheriVoke,
    core::Strategy::kCornucopia, core::Strategy::kReloaded};

/** The workload generators of the catalogue. */
enum class Workload { kSpec, kPgbench, kGrpc };

/**
 * One catalogue cell: a workload generator at its default config
 * under one strategy. name() is the cell's stable identity in bench
 * output and BENCH_TRAJECTORY.json: "spec/<profile>/<strategy>",
 * "pgbench/<strategy>" or "grpc/<strategy>".
 */
struct CellKey
{
    Workload workload;
    std::string profile; //!< SPEC-like profile; empty otherwise
    core::Strategy strategy;

    std::string name() const;
};

CellKey specCell(const std::string &profile, core::Strategy s);
CellKey pgbenchCell(core::Strategy s);
CellKey grpcCell(core::Strategy s);

/** Every SPEC-like profile name, in the paper's figure order. */
std::vector<std::string> specNames();

/** Every profile x strategy pair, profile-major. */
std::vector<CellKey>
specCells(const std::vector<std::string> &profiles,
          const std::vector<core::Strategy> &strategies);

/**
 * bench_all's end-to-end cell set, the union of the figure cells: 54
 * cells, or 8 in @p quick mode (two fast revoking profiles, headline
 * strategies, no gRPC).
 */
std::vector<CellKey> figureCells(bool quick);

/** One completed cell. */
struct CellResult
{
    std::string name;
    double host_seconds = 0;   //!< host wall time of this cell alone
    core::RunMetrics metrics;
    stats::Samples latency_ms; //!< pgbench and gRPC cells
    double qps = 0;            //!< gRPC cells

    CellResult() = default;
    CellResult(core::RunMetrics m) : metrics(std::move(m)) {}
    CellResult(workload::PgbenchResult r)
        : metrics(std::move(r.metrics)),
          latency_ms(std::move(r.latency_ms))
    {
    }
    CellResult(workload::GrpcResult r)
        : metrics(std::move(r.metrics)),
          latency_ms(std::move(r.latency_ms)), qps(r.qps)
    {
    }
};

/**
 * Collects cells, runs them across a host thread pool, and memoizes
 * them by name: a cell requested again (in the same or a later batch)
 * runs once. Each run() starts the not-yet-run cells in request order.
 */
class CellRunner
{
  public:
    /** Request catalogue cells. */
    void request(const CellKey &key);
    void request(const std::vector<CellKey> &keys);

    /** Add a bespoke cell; a name already present keeps its first
     *  function. @p fn must not touch shared mutable state. */
    void add(std::string name, std::function<CellResult()> fn);

    /** Run every pending cell on @p threads workers
     *  (0 = benchThreads(); 1 runs on the calling thread). */
    void run(unsigned threads = 0);

    /** A cell's result; fatal if it was never requested or run. */
    const CellResult &at(const std::string &name) const;
    const CellResult &at(const CellKey &key) const
    {
        return at(key.name());
    }

    /** Every requested cell in request order (valid after run()). */
    const std::vector<CellResult> &results() const { return results_; }

  private:
    /** Every requested cell, in request order; results_[0, ran_) have
     *  run, and fns_[i] runs results_[i]. */
    std::vector<CellResult> results_;
    std::vector<std::function<CellResult()>> fns_;
    std::size_t ran_ = 0;
    std::map<std::string, std::size_t> index_; //!< name -> slot
};

// --- sweep-throughput harness (microbench + BENCH_*.json) ---

/** Tag population of the pages the sweep harness scans. */
enum class SweepRegime {
    kClean,       //!< no tagged granules anywhere
    kSparse,      //!< 8 scattered capabilities per page
    kFull,        //!< every granule tagged (256 per page)
    kRevokeDense, //!< 64 caps per page, all aimed at painted memory:
                  //!< every probe hits and every tag is cleared, so
                  //!< the harness re-arms the pages (untimed) before
                  //!< each timed repeat
};

const char *sweepRegimeName(SweepRegime r);

/** One harness measurement. */
struct SweepRegimeResult
{
    double host_ns_per_page = 0;
    double sim_cycles_per_page = 0;
    std::uint64_t pages_swept = 0;
    std::uint64_t caps_seen = 0;
};

/**
 * Sweep @p pages resident pages populated per @p regime, @p repeats
 * times over, and report host ns and simulated cycles per page.
 * Simulated cycles per page are deterministic; only host ns varies.
 *
 * The second parameter, @p memo and @p with_prescan are unused: they
 * keep the signature hostbench/hostbench.cpp calls, and a
 * benchmark-only change can drop them.
 */
SweepRegimeResult measureSweepRegime(SweepRegime regime,
                                     bool /*host_fast_paths*/,
                                     std::size_t pages = 64,
                                     std::size_t repeats = 40,
                                     bool memo = false,
                                     bool with_prescan = false);

/** Minimal JSON string escaping for bench report writers. */
std::string jsonEscape(const std::string &s);

/**
 * What absolute host seconds depend on, as a JSON object: "nproc",
 * "affinity" (the usable CPU ids), "cpu_model", "compiler" and
 * "build_type". Timings are comparable only between equal
 * fingerprints (tools/check_trajectory.py).
 */
std::string hostFingerprintJson();

/** All metrics of one cell as a compact MetricsRegistry JSON object
 *  ({"counters": ..., "gauges": ..., "histograms": ...}). */
std::string metricsJson(const core::RunMetrics &m);

} // namespace crev::benchutil

#endif // CREV_BENCH_BENCH_RUNNER_H_
