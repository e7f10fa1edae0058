/**
 * @file
 * Figure 3: ratio of peak memory footprint (RSS) between each test
 * condition and the baseline for a representative subset of
 * benchmarks, sorted descending by baseline peak RSS.
 *
 * Paper anchors: the general policy target is 33% of the heap in
 * quarantine (dashed line in the figure); Reloaded's impact is nearly
 * identical to Cornucopia's; benchmarks that free heavily while
 * revocation is in flight (libquantum, omnetpp, xalancbmk) overshoot
 * the target, while CHERIvoke hews closer to it; gobmk and hmmer are
 * dominated by the scaled minimum-quarantine floor.
 */

#include <algorithm>

#include "bench_util.h"

using namespace crev;
using benchutil::specCell;

int
main()
{
    benchutil::banner(
        "Figure 3: peak RSS ratio (test / no-revocation baseline)",
        "paper fig. 3");

    // Representative subset, as in the paper's figure.
    std::vector<std::string> names = {"xalancbmk", "omnetpp",
                                      "libquantum", "astar",
                                      "gobmk",     "hmmer_nph3"};

    std::vector<core::Strategy> all{core::Strategy::kBaseline};
    all.insert(all.end(), benchutil::kSafe.begin(),
               benchutil::kSafe.end());
    benchutil::CellRunner runner;
    runner.request(benchutil::specCells(names, all));
    runner.run();
    const auto spec = [&](const std::string &n, core::Strategy s)
        -> const core::RunMetrics & {
        return runner.at(specCell(n, s)).metrics;
    };

    // Sort descending by baseline RSS (MiB), as the paper does.
    std::vector<std::pair<double, std::string>> order;
    for (const auto &n : names) {
        const auto &base = spec(n, core::Strategy::kBaseline);
        order.push_back(
            {static_cast<double>(base.peak_rss_pages) * 4096.0 /
                 (1024.0 * 1024.0),
             n});
    }
    std::sort(order.rbegin(), order.rend());

    stats::Table table({"benchmark", "baseline_MiB", "cherivoke",
                        "cornucopia", "reloaded", "reloaded_quar%"});
    for (const auto &[mib, n] : order) {
        const auto &base = spec(n, core::Strategy::kBaseline);
        std::vector<std::string> row{n, stats::Table::fmt(mib, 2)};
        for (core::Strategy s : benchutil::kSafe) {
            const auto &m = spec(n, s);
            row.push_back(stats::Table::fmt(
                static_cast<double>(m.peak_rss_pages) /
                    static_cast<double>(base.peak_rss_pages),
                3));
        }
        // Mean quarantine at trigger relative to live heap: the
        // policy targets 33%.
        const auto &rel = spec(n, core::Strategy::kReloaded);
        const double q =
            rel.quarantine.meanAllocAtTrigger() > 0
                ? rel.quarantine.meanQuarantineAtTrigger() /
                      rel.quarantine.meanAllocAtTrigger()
                : 0.0;
        row.push_back(stats::Table::pct(q));
        table.addRow(row);
    }

    table.print();
    std::printf("\nPolicy target: quarantine = 33%% of allocated heap "
                "(ratio ~1.33 when slab reuse is perfect). Small-heap "
                "benchmarks are floored by the scaled 64 KiB minimum "
                "quarantine (paper: 8 MiB).\n");
    return 0;
}
