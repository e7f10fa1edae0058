/**
 * @file
 * Figure 5: normalized time overheads for pgbench — wall-clock and
 * total CPU time per strategy, against the spatially-safe baseline.
 *
 * Paper anchors: Reloaded offers lower wall-clock and total CPU
 * overheads than Cornucopia; overheads imposed on the server thread
 * itself are nearly identical across the concurrent strategies.
 */

#include "bench_util.h"

using namespace crev;
using benchutil::overhead;

int
main()
{
    benchutil::banner("Figure 5: pgbench normalized time overheads",
                      "paper fig. 5");

    benchutil::CellRunner runner;
    runner.request(benchutil::pgbenchCell(core::Strategy::kBaseline));
    for (core::Strategy s : benchutil::kSafeAndPaint)
        runner.request(benchutil::pgbenchCell(s));
    runner.run();
    const auto &base =
        runner.at(benchutil::pgbenchCell(core::Strategy::kBaseline));

    stats::Table table({"strategy", "wall", "cpu_total",
                        "server_thread"});
    table.addRow({"baseline(ms)",
                  stats::Table::fmt(cyclesToMillis(
                      base.metrics.wall_cycles)),
                  stats::Table::fmt(cyclesToMillis(
                      base.metrics.cpu_cycles)),
                  stats::Table::fmt(cyclesToMillis(
                      base.metrics.thread_busy.at("pg-server")))});

    for (core::Strategy s : benchutil::kSafeAndPaint) {
        const auto &r = runner.at(benchutil::pgbenchCell(s));
        table.addRow(
            {core::strategyName(s),
             stats::Table::pct(overhead(
                 static_cast<double>(r.metrics.wall_cycles),
                 static_cast<double>(base.metrics.wall_cycles))),
             stats::Table::pct(overhead(
                 static_cast<double>(r.metrics.cpu_cycles),
                 static_cast<double>(base.metrics.cpu_cycles))),
             stats::Table::pct(overhead(
                 static_cast<double>(
                     r.metrics.thread_busy.at("pg-server")),
                 static_cast<double>(
                     base.metrics.thread_busy.at("pg-server"))))});
    }

    table.print();
    std::printf("\nExpected shape: Reloaded wall/CPU overhead <= "
                "Cornucopia's; server-thread overheads nearly "
                "identical. CPU overhead can exceed wall overhead "
                "because the server expands into idle inter-"
                "transaction time (paper §5.2 Discussion).\n");
    return 0;
}
