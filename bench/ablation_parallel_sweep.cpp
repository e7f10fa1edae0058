/**
 * @file
 * Ablation (paper §7.1, future work implemented here): split
 * Reloaded's background sweep across multiple worker threads. More
 * sweepers shorten the concurrent phase (epochs complete sooner) at
 * the cost of occupying more cores.
 */

#include "bench_util.h"

using namespace crev;

int
main()
{
    benchutil::banner(
        "Ablation: multi-threaded background revocation (Reloaded)",
        "paper §7.1");

    stats::Table table({"sweepers", "wall_ms", "cpu_ms",
                        "median_conc_us", "epochs"});

    benchutil::CellRunner runner;
    for (unsigned sweepers : {1u, 2u})
        runner.add("sweepers=" + std::to_string(sweepers), [sweepers] {
            core::MachineConfig cfg;
            cfg.strategy = core::Strategy::kReloaded;
            cfg.policy = workload::specPolicy();
            cfg.background_sweepers = sweepers;
            // Give the helpers somewhere to run: cores 1 and 2.
            cfg.revoker_core_mask = (1u << 1) | (1u << 2);
            core::Machine m(cfg);
            workload::runSpec(m, workload::specProfile("xalancbmk"));
            return m.metrics();
        });
    runner.run();

    for (unsigned sweepers : {1u, 2u}) {
        const auto &metrics =
            runner.at("sweepers=" + std::to_string(sweepers)).metrics;
        stats::Samples conc;
        for (const auto &e : metrics.epochs)
            conc.add(cyclesToMicros(e.concurrent_duration));
        table.addRow({std::to_string(sweepers),
                      stats::Table::fmt(cyclesToMillis(
                          metrics.wall_cycles)),
                      stats::Table::fmt(cyclesToMillis(
                          metrics.cpu_cycles)),
                      stats::Table::fmt(conc.median(), 1),
                      std::to_string(metrics.epochs.size())});
    }

    table.print();
    std::printf("\nExpected shape: the median concurrent-phase "
                "duration drops with a second sweeper; total CPU "
                "time does not decrease (same pages swept).\n");
    return 0;
}
