/**
 * @file
 * Ablation (paper §7.2): quarantine policy tuning. Sweeps the
 * quarantine:allocated-heap ratio and the minimum quarantine size,
 * showing the trade-off the paper describes: bigger quarantines mean
 * fewer (but individually no cheaper) revocations and more memory
 * held; smaller ones revoke constantly.
 */

#include "bench_util.h"

using namespace crev;

namespace {

core::RunMetrics
runWith(double ratio, std::size_t min_bytes)
{
    core::MachineConfig cfg;
    cfg.strategy = core::Strategy::kReloaded;
    cfg.policy.alloc_ratio = ratio;
    cfg.policy.min_bytes = min_bytes;
    core::Machine m(cfg);
    workload::runSpec(m, workload::specProfile("xalancbmk"));
    return m.metrics();
}

} // namespace

int
main()
{
    benchutil::banner("Ablation: quarantine policy tuning (Reloaded, "
                      "xalancbmk)",
                      "paper §7.2");

    stats::Table table({"ratio", "min_KiB", "epochs", "wall_ms",
                        "bus_Mtx", "peak_rss_pages"});

    // The ratio sweep at the scaled 64 KiB floor, then the floor
    // sweep at the default 1/3 ratio.
    const std::size_t kMin = 64 * 1024;
    const std::pair<double, std::size_t> configs[] = {
        {1.0 / 6.0, kMin},        {1.0 / 3.0, kMin},
        {2.0 / 3.0, kMin},        {1.0 / 3.0, 16u * 1024u},
        {1.0 / 3.0, 256u * 1024u}};
    const auto cellName = [](double ratio, std::size_t min_b) {
        return "ratio=" + stats::Table::fmt(ratio, 3) +
               "/min=" + std::to_string(min_b / 1024);
    };
    benchutil::CellRunner runner;
    for (const auto &[ratio, min_b] : configs)
        runner.add(cellName(ratio, min_b),
                   [=] { return runWith(ratio, min_b); });
    runner.run();
    for (const auto &[ratio, min_b] : configs) {
        const auto &m = runner.at(cellName(ratio, min_b)).metrics;
        table.addRow({stats::Table::fmt(ratio, 3),
                      std::to_string(min_b / 1024),
                      std::to_string(m.epochs.size()),
                      stats::Table::fmt(cyclesToMillis(m.wall_cycles)),
                      stats::Table::fmt(
                          static_cast<double>(
                              m.bus_transactions_total) /
                              1e6,
                          2),
                      std::to_string(m.peak_rss_pages)});
    }

    table.print();
    std::printf("\nExpected shape: larger ratios => fewer epochs, "
                "less total sweep traffic, higher peak RSS; and vice "
                "versa.\n");
    return 0;
}
