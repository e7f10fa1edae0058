/**
 * @file
 * Ablation (paper §6.3): Reloaded's per-page trap-based load barrier
 * vs a CHERIoT-style per-load inline filter on the same workloads.
 *
 * The trade the paper describes: the filter eliminates trap machinery
 * and (in CHERIoT, with tightly-coupled bitmap memory) the UAF window,
 * but on an MMU-class machine it taxes *every* tagged capability load
 * with a bitmap probe through the cache hierarchy, where Reloaded
 * pays only one page sweep per page per epoch.
 */

#include "bench_util.h"

using namespace crev;
using benchutil::overhead;

int
main()
{
    benchutil::banner(
        "Ablation: load barrier (Reloaded) vs inline load filter "
        "(CHERIoT-style)",
        "paper §6.3");

    stats::Table table({"workload", "strategy", "wall_ovh", "cpu_ovh",
                        "bus_ovh", "worst_stw_us"});

    // Pointer-chase-heavy SPEC rows (many capability loads, so the
    // per-load probe tax shows), then the latency-sensitive row.
    using benchutil::CellKey;
    using core::Strategy;
    const std::vector<Strategy> all{Strategy::kBaseline,
                                    Strategy::kReloaded,
                                    Strategy::kCheriotFilter};
    std::vector<std::pair<std::string, std::vector<CellKey>>> rows{
        {"xalancbmk", benchutil::specCells({"xalancbmk"}, all)},
        {"omnetpp", benchutil::specCells({"omnetpp"}, all)},
        {"pgbench", {}}};
    for (Strategy s : all)
        rows.back().second.push_back(benchutil::pgbenchCell(s));
    benchutil::CellRunner runner;
    for (const auto &[name, keys] : rows)
        runner.request(keys);
    runner.run();

    for (const auto &[name, keys] : rows) {
        const auto &base = runner.at(keys[0]).metrics;
        for (std::size_t i = 1; i < keys.size(); ++i) {
            const auto &m = runner.at(keys[i]).metrics;
            double worst = 0;
            for (const auto &e : m.epochs)
                worst = std::max(worst,
                                 cyclesToMicros(e.stw_duration));
            table.addRow(
                {name, core::strategyName(keys[i].strategy),
                 stats::Table::pct(overhead(
                     static_cast<double>(m.wall_cycles),
                     static_cast<double>(base.wall_cycles))),
                 stats::Table::pct(overhead(
                     static_cast<double>(m.cpu_cycles),
                     static_cast<double>(base.cpu_cycles))),
                 stats::Table::pct(overhead(
                     static_cast<double>(m.bus_transactions_total),
                     static_cast<double>(
                         base.bus_transactions_total))),
                 stats::Table::fmt(worst, 1)});
        }
    }

    table.print();
    std::printf(
        "\nExpected shape: the filter's STW is as small as "
        "Reloaded's (neither re-sweeps), but the filter shifts cost "
        "onto capability-load-heavy mutators (per-load probes), "
        "where Reloaded pays per page per epoch.\n");
    return 0;
}
