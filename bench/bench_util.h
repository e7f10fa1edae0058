/**
 * @file
 * Shared helpers for the experiment-reproduction bench binaries.
 *
 * Each binary regenerates one table or figure from the paper's
 * evaluation (§5), printing the same rows/series. It requests its
 * cells from the one catalogue and runner in bench_runner.h, runs
 * them on CREV_BENCH_THREADS host threads, and formats the results.
 * Absolute numbers are simulated cycles, not Morello hardware
 * measurements — EXPERIMENTS.md records the shape comparison against
 * the paper.
 */

#ifndef CREV_BENCH_BENCH_UTIL_H_
#define CREV_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_runner.h"
#include "core/machine.h"
#include "stats/summary.h"
#include "stats/table.h"
#include "workload/spec.h"

namespace crev::benchutil {

/** test/baseline - 1, as a ratio. */
inline double
overhead(double test, double baseline)
{
    return baseline > 0 ? test / baseline - 1.0 : 0.0;
}

/** Print the standard bench header. */
inline void
banner(const char *what, const char *paper_ref)
{
    std::printf("== %s ==\n", what);
    std::printf("(reproduces %s; simulated Morello-like machine, "
                "workloads scaled ~128x — compare shapes, "
                "not absolute values)\n\n",
                paper_ref);
}

} // namespace crev::benchutil

#endif // CREV_BENCH_BENCH_UTIL_H_
