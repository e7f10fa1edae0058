/**
 * @file
 * Figure 4: bus (DRAM) traffic overheads of Reloaded, Cornucopia and
 * CHERIvoke on the SPEC-like workloads, plus the baseline transaction
 * count and Reloaded's traffic as a percentage of Cornucopia's.
 *
 * Paper anchors: omnetpp 45% (Reloaded) vs 50% (Cornucopia);
 * xalancbmk 60% vs 68%; the median Reloaded:Cornucopia traffic ratio
 * is 87% — Reloaded never rescans pages, so it always moves less
 * data than Cornucopia.
 */

#include "bench_util.h"

using namespace crev;
using benchutil::overhead;
using benchutil::specCell;

int
main()
{
    benchutil::banner("Figure 4: SPEC bus traffic overheads",
                      "paper fig. 4");

    std::vector<core::Strategy> all{core::Strategy::kBaseline};
    all.insert(all.end(), benchutil::kSafe.begin(),
               benchutil::kSafe.end());
    benchutil::CellRunner runner;
    runner.request(
        benchutil::specCells(workload::revokingSpecNames(), all));
    runner.run();

    stats::Table table({"benchmark", "baseline_tx", "cherivoke",
                        "cornucopia", "reloaded", "rel/corn"});

    std::vector<double> ratios;

    for (const auto &name : workload::revokingSpecNames()) {
        const auto &base =
            runner.at(specCell(name, core::Strategy::kBaseline)).metrics;
        std::vector<std::string> row{
            name, std::to_string(base.bus_transactions_total)};
        double corn_tx = 0, rel_tx = 0;
        for (core::Strategy s : benchutil::kSafe) {
            const auto &m = runner.at(specCell(name, s)).metrics;
            row.push_back(stats::Table::pct(overhead(
                static_cast<double>(m.bus_transactions_total),
                static_cast<double>(base.bus_transactions_total))));
            if (s == core::Strategy::kCornucopia)
                corn_tx = static_cast<double>(m.bus_transactions_total);
            if (s == core::Strategy::kReloaded)
                rel_tx = static_cast<double>(m.bus_transactions_total);
        }
        const double ratio = corn_tx > 0 ? rel_tx / corn_tx : 1.0;
        ratios.push_back(ratio);
        row.push_back(stats::Table::pct(ratio));
        table.addRow(row);
    }

    table.print();

    std::sort(ratios.begin(), ratios.end());
    std::printf("\nMedian Reloaded traffic as %% of Cornucopia: %s "
                "(paper: 87%%). Reloaded <= Cornucopia on every "
                "benchmark because no page is swept twice per epoch.\n",
                stats::Table::pct(ratios[ratios.size() / 2]).c_str());
    return 0;
}
