/**
 * @file
 * Figure 1: wall-clock overheads of Reloaded, Cornucopia, and
 * CHERIvoke over the spatially-safe baseline, per SPEC-like
 * benchmark, plus the geomean over revocation-engaging benchmarks.
 *
 * Paper anchors: worst cases xalancbmk 29.4% (Reloaded) vs 29.7%
 * (Cornucopia) and omnetpp 23.1% vs 24.8%; bzip2 and sjeng do not
 * engage revocation.
 */

#include "bench_util.h"

using namespace crev;
using benchutil::overhead;
using benchutil::specCell;

int
main()
{
    benchutil::banner("Figure 1: SPEC CPU2006 INT wall-clock overheads",
                      "paper fig. 1");

    std::vector<core::Strategy> all{core::Strategy::kBaseline};
    all.insert(all.end(), benchutil::kSafe.begin(),
               benchutil::kSafe.end());
    benchutil::CellRunner runner;
    runner.request(benchutil::specCells(benchutil::specNames(), all));
    runner.run();

    stats::Table table({"benchmark", "baseline_ms", "cherivoke",
                        "cornucopia", "reloaded", "epochs(rel)"});

    std::map<std::string, std::vector<double>> ovh_by_strategy;

    for (const auto &profile : workload::specProfiles()) {
        const auto &base =
            runner.at(specCell(profile.name, core::Strategy::kBaseline))
                .metrics;
        std::vector<std::string> row{
            profile.name,
            stats::Table::fmt(cyclesToMillis(base.wall_cycles))};
        std::size_t rel_epochs = 0;
        for (core::Strategy s : benchutil::kSafe) {
            const auto &m = runner.at(specCell(profile.name, s)).metrics;
            const double o = overhead(
                static_cast<double>(m.wall_cycles),
                static_cast<double>(base.wall_cycles));
            row.push_back(stats::Table::pct(o));
            if (!m.epochs.empty())
                ovh_by_strategy[core::strategyName(s)].push_back(1.0 +
                                                                 o);
            if (s == core::Strategy::kReloaded)
                rel_epochs = m.epochs.size();
        }
        row.push_back(std::to_string(rel_epochs));
        table.addRow(row);
    }

    // Geomean over benchmarks that engage revocation (bzip2 and sjeng
    // are excluded, as in the paper).
    std::vector<std::string> geo{"geomean(revoking)", "-"};
    for (core::Strategy s : benchutil::kSafe) {
        const auto &v = ovh_by_strategy[core::strategyName(s)];
        geo.push_back(stats::Table::pct(stats::geomean(v) - 1.0));
    }
    geo.push_back("-");
    table.addRow(geo);

    table.print();
    std::printf("\nExpected shape: Reloaded ~= Cornucopia everywhere; "
                "xalancbmk and omnetpp are the worst cases; bzip2 and "
                "sjeng engage no revocation (0 epochs).\n");
    return 0;
}
