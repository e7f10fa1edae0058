/**
 * @file
 * Figure 2: total CPU-time overheads (all cores: application thread
 * plus revoker thread) of Reloaded, Cornucopia, CHERIvoke, and
 * asynchronous quarantine management (Paint+sync).
 *
 * Paper anchor: Reloaded consumes no more CPU time than Cornucopia,
 * sometimes modestly less.
 */

#include "bench_util.h"

using namespace crev;
using benchutil::overhead;
using benchutil::specCell;

int
main()
{
    benchutil::banner("Figure 2: SPEC CPU-time overheads (all cores)",
                      "paper fig. 2");

    std::vector<core::Strategy> all{core::Strategy::kBaseline};
    all.insert(all.end(), benchutil::kSafeAndPaint.begin(),
               benchutil::kSafeAndPaint.end());
    benchutil::CellRunner runner;
    runner.request(benchutil::specCells(benchutil::specNames(), all));
    runner.run();

    stats::Table table({"benchmark", "baseline_ms", "paint+sync",
                        "cherivoke", "cornucopia", "reloaded"});

    int rel_not_worse_than_corn = 0;
    int rows = 0;

    for (const auto &profile : workload::specProfiles()) {
        const auto &base =
            runner.at(specCell(profile.name, core::Strategy::kBaseline))
                .metrics;
        std::vector<std::string> row{
            profile.name,
            stats::Table::fmt(cyclesToMillis(base.cpu_cycles))};
        double corn = 0, rel = 0;
        for (core::Strategy s : benchutil::kSafeAndPaint) {
            const auto &m = runner.at(specCell(profile.name, s)).metrics;
            const double o =
                overhead(static_cast<double>(m.cpu_cycles),
                         static_cast<double>(base.cpu_cycles));
            row.push_back(stats::Table::pct(o));
            if (s == core::Strategy::kCornucopia)
                corn = o;
            if (s == core::Strategy::kReloaded)
                rel = o;
        }
        table.addRow(row);
        ++rows;
        if (rel <= corn + 0.02)
            ++rel_not_worse_than_corn;
    }

    table.print();
    std::printf("\nReloaded CPU time <= Cornucopia (within 2pp) on "
                "%d/%d benchmarks (paper: never more, sometimes "
                "modestly cheaper).\n",
                rel_not_worse_than_corn, rows);
    return 0;
}
